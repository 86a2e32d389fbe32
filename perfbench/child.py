"""One child process of the benchmark.

    python3 perfbench/child.py '<request as JSON>'

The child imports ``mirrorent`` from the checkout's ``src/`` and builds the
CLI parser; the moment that finishes ends set-up.  It then runs the request
and prints a JSON report as the last line of its standard output.  Modes:

- ``setup``: set-up only.
- ``run``: one run of the workload, as a user would start it.
- ``trace``: untraced runs in this process for the untraced median, then one
  run with the program's layers wrapped (threads=1, since spans in pool
  workers are lost), then the workload's passes of its own: a pool pass with
  a RUSAGE_CHILDREN delta where the workload uses a pool, and the
  fidelity_exact table and tracemalloc pass for exact-large-d.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    """Peak resident memory of this process, and of the pool workers it reaped.

    This process's own ``ru_maxrss`` would also hold the parent's resident
    size at the moment it spawned this one (Linux keeps the pre-exec peak),
    so the own peak is read from VmHWM instead.
    """
    import resource

    with open("/proc/self/status") as fh:
        own_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def traced(wl, request) -> dict:
    import resource
    import statistics

    from tracer import ALLOC_DIMS, Tracer

    seed, work = request["seed"], Path(request["work"])
    outputs = []

    def run(label, threads):
        out = work / f"{label}.out"
        t0 = time.perf_counter()
        rc = wl.execute(seed, str(out), threads)
        wall = time.perf_counter() - t0
        outputs.append({"path": str(out), "rc": rc, "threads": threads})
        return wall

    start = time.perf_counter()
    walls = [run("untraced-0", 1)]
    while time.perf_counter() - start < request["untraced_s"]:
        walls.append(run(f"untraced-{len(walls)}", 1))
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall = run("traced", 1)
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - statistics.median(walls)
    layers["cli.bytes_out"] = Path(outputs[-1]["path"]).stat().st_size if layers["cli.self_s"] else 0
    layers["harness.pool.worker_cpu_s"] = layers["harness.pool.efficiency"] = 0.0
    layers.update({f"monotones.fidelity_exact.d{d}.random.peak_alloc_mb": 0.0 for d in ALLOC_DIMS})
    if wl.threads > 1:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        wall = run("pool", wl.threads)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        layers["harness.pool.worker_cpu_s"] = cpu
        layers["harness.pool.efficiency"] = cpu / (wl.threads * wall)
    layers.update(wl.extra_layers(seed))
    return {"outputs": outputs, "layers": layers}


def main() -> int:
    request = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import mirrorent.cli

    mirrorent.cli.build_parser()
    report = {"t_setup": time.perf_counter()}
    origin = Path(mirrorent.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        sys.stderr.write(f"error: mirrorent was imported from {origin}, not from {ROOT / 'src'}\n")
        return 3
    if request["mode"] != "setup":
        import workloads

        wl = workloads.from_request(request)
        if request["mode"] == "run":
            report["rc"] = wl.execute(request["seed"], request["out"])
            report["t_end"] = time.perf_counter()
            report["peak_rss_mb"] = peak_rss_mb()
        else:
            report.update(traced(wl, request))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
