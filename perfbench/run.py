"""Benchmark of mirrorent: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run it from the root of a checkout; the program is imported from that
checkout's ``src/``.  The load is one closed-loop client: the workload runs
in a fresh child process, the next child starts only after the previous one
ended, and this repeats for about ``--seconds``.  Each child's output is
checked after it ends.  Set-up is also timed in children that only set up.
Every end-to-end metric is the median over the children of the run.  With
``--trace 1`` one child runs the workload untraced and then traced, and the
run reports per-layer metrics instead.  The output is one line per metric,
then one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

Children run with BLAS and OpenMP pinned to one thread.  ``cpu_s`` comes
from the child's ``wait4`` rusage, which covers the pool workers the child
reaped; ``peak_rss_mb`` is the largest peak of the child (its own VmHWM)
and of those workers.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# (name, unit, better, bound): the same list as BENCHMARK.json's end_to_end.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cases_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]
MIN_RUNS = 3  # workload children per run, whatever --seconds says
MIN_SETUPS = 9  # set-up samples per run
RUN_LIMIT_S = 170.0  # children still running after this are killed and count as failed
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class Child:
    report: dict | None
    setup_s: float | None
    cpu_s: float


@dataclass
class Tally:
    """Checks outputs after their child ended: cases attempted and failed."""

    wl: object
    seed: int
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)

    def add(self, path: Path | None, ok: bool, threads: int) -> int:
        """Count one output's cases; returns how many failed."""
        cases = self.wl.cases
        failed = cases
        if ok and path is not None and path.exists():
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            first = self.digests.setdefault(threads, digest)
            pin = self.wl.pin(self.seed) if threads == self.wl.threads else None
            if digest == first and pin in (None, digest):
                try:
                    failed = self.wl.failures(data, self.seed)
                except (ValueError, KeyError, TypeError, IndexError):
                    failed = cases
        if path is not None:
            path.unlink(missing_ok=True)
        self.attempted += cases
        self.failed += failed
        return failed


def spawn(request: dict, work: Path, deadline: float) -> Child:
    """Run one child to its end; time it, and collect its rusage and report."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_PINS)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(request)],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out_path.read_text().splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        report = None
    if report is None:
        sys.stderr.write(err_path.read_text()[-2000:])
    return Child(
        report=report,
        setup_s=report["t_setup"] - t0 if report else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )


def _request(wl, mode: str, seed: int, **extra) -> dict:
    sizes = {f.name: getattr(wl, f.name) for f in dataclasses.fields(wl) if f.name not in ("name", "why")}
    return {"mode": mode, "workload": wl.name, "sizes": sizes, "seed": seed, **extra}


def measure(wl, seed: int, seconds: float, work: Path, deadline: float) -> tuple[Tally, dict]:
    """End-to-end run: workload children for about ``seconds``, plus set-up children."""
    tally = Tally(wl, seed)
    setup_req = _request(wl, "setup", seed)
    spawn(setup_req, work, deadline)  # warm-up: bytecode and file caches
    runs, setups = [], []
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        out = work / f"run-{len(runs)}.out"
        child = spawn(_request(wl, "run", seed, out=str(out)), work, deadline)
        ok = child.report is not None and child.report.get("rc") == 0
        tally.add(out, ok, wl.threads)
        if child.report is None:
            break
        wall = child.report["t_end"] - child.report["t_setup"]
        runs.append((wall, wl.cases / wall, child.cpu_s, child.report["peak_rss_mb"]))
        setups.append(child.setup_s)
        setup = spawn(setup_req, work, deadline)
        if setup.setup_s is not None:
            setups.append(setup.setup_s)
        if len(runs) >= MIN_RUNS and time.perf_counter() - start + 0.5 * wall >= seconds:
            break
    while runs and len(setups) < MIN_SETUPS and time.perf_counter() < deadline:
        setup = spawn(setup_req, work, deadline)
        if setup.setup_s is None:
            break
        setups.append(setup.setup_s)
    if not runs:
        return tally, {}
    columns = list(zip(*runs))
    metrics = {"setup_s": statistics.median(setups), "runs": len(runs), "setups": len(setups)}
    for name, column in zip(("wall_s", "cases_per_s", "cpu_s", "peak_rss_mb"), columns):
        metrics[name] = statistics.median(column)
    return tally, metrics


def trace(wl, seed: int, seconds: float, work: Path, deadline: float) -> tuple[Tally, dict]:
    """Per-layer run: one child runs the workload untraced, then traced."""
    tally = Tally(wl, seed)
    child = spawn(_request(wl, "trace", seed, work=str(work), untraced_s=0.4 * seconds), work, deadline)
    if child.report is None:
        tally.add(None, False, wl.threads)
        return tally, {}
    for out in child.report["outputs"]:
        tally.add(Path(out["path"]), out["rc"] == 0, out["threads"])
    return tally, child.report["layers"]


def fingerprint() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mirrorent").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "child_env": BLAS_PINS,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_one(wl, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    """One workload's result object; prints its metrics as readable lines first."""
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        tally, metrics = (trace if traced else measure)(wl, seed, seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = [(m[0], m[1]) for m in (PER_LAYER if traced else END_TO_END)]
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"# {wl.name} seed={seed} trace={int(traced)} runs={metrics.get('runs', 1)} "
          f"setups={metrics.get('setups', 0)} fail_frac={fail_frac!r} ({tally.failed}/{tally.attempted} cases) "
          f"sha256={json.dumps(tally.digests, sort_keys=True)}")
    result_metrics = {}
    for name, unit in names:
        if name in metrics:
            result_metrics[name] = {"value": metrics[name], "unit": unit}
            print(f"{wl.name:14s} {name:48s} {metrics[name]!r} {unit}")
    return {
        "correct": tally.failed == 0 and len(result_metrics) == len(names),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": result_metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mirrorent" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mirrorent package under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print("# env " + json.dumps(fingerprint(), sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.perf_counter() + RUN_LIMIT_S
        results[name] = run_one(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline)
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
