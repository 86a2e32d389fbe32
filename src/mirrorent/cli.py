"""Command-line interface: compute values, sample scatters, run suites.

Outputs are deterministic for a given seed: floats are serialized with
Python's shortest round-trip repr, JSON keys are sorted, and files are
written atomically (temp file + rename).  Exit codes: 0 success,
1 validation error, 2 suite failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .harness import (
    bounds_suite,
    hierarchy_suite,
    locc_suite,
    majorization_suite,
    run_all,
    scatter,
    unistochastic_suite,
    witness_suite,
)
from .monotones import fidelity_exact, linear_entropy_bounds
from .spectra import degeneracy, is_faithful, parse_spectrum_spec
from .states import SchmidtSpectrum, check_count, linear_entropy, load_state, schmidt_spectrum

DEFAULT_SEED = 0


def _fmt(x) -> str:
    return repr(float(x))


def _numpy_to_json(obj):
    """``json.dumps`` hook for numpy arrays and scalars (``np.float64`` is a float and skips it)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@contextlib.contextmanager
def _staged(path: str):
    """A buffer whose text replaces ``path`` when the block completes. Its temp file beside ``path`` is made first,
    so a path that cannot be written fails before any work, and it is removed on any failure, which names ``path``."""
    def failed(exc):
        return OSError(f"cannot write {path}: {exc.strerror or exc}")
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-mirrorent-")
        os.close(fd)
    except OSError as exc:
        raise failed(exc) from exc
    try:
        text = io.StringIO()
        yield text
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text.getvalue())
            os.replace(tmp, path)
        except OSError as exc:
            raise failed(exc) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _emit_json(obj, out: io.StringIO | None) -> None:
    (out or sys.stdout).write(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_numpy_to_json) + "\n")


def _parse_probs(text: str) -> SchmidtSpectrum:
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad probability list {text!r}") from exc
    return SchmidtSpectrum.from_probs(values)


def _cmd_compute(args) -> int:
    if (args.probs is None) == (args.state is None):
        raise ValueError("supply exactly one of --probs or --state")
    if args.probs is not None:
        p = _parse_probs(args.probs)
    else:
        p = schmidt_spectrum(load_state(args.state))
    spec = parse_spectrum_spec(args.spectrum, d=p.d)
    sol = fidelity_exact(p, spec)
    el = linear_entropy(p)
    if p.d >= 2:
        lower, upper = linear_entropy_bounds(el, p.d)
    else:
        lower, upper = 0.0, 0.0
    _emit_json(
        {
            "me": sol.me,
            "fidelity": sol.fidelity,
            "sigma": sol.sigma,
            "el": el,
            "bounds": {"lower": lower, "upper": upper},
        },
        args.out,
    )
    return 0


def _cmd_spectrum(args) -> int:
    if args.d is not None:
        check_count("--d", args.d)
    spec = parse_spectrum_spec(args.spectrum, d=args.d)
    _emit_json(
        {
            "d": spec.d,
            "thetas": spec.thetas,
            "gaps": spec.gaps,
            "degeneracy": degeneracy(spec),
            "faithful": is_faithful(spec),
        },
        args.out,
    )
    return 0


def _cmd_sample(args) -> int:
    rows = scatter(args.d, args.samples, args.seed, dB=args.db, threads=args.threads)
    lines = ["el,estar"]
    lines.extend(f"{_fmt(el)},{_fmt(estar)}" for el, estar in rows)
    (args.out or sys.stdout).write("\n".join(lines) + "\n")
    return 0


def _dim(args) -> int:
    return 4 if args.d is None else args.d


def _by_suite(*reports) -> dict:
    return {rep.suite: rep for rep in reports}


def _verify_hierarchy(args) -> dict:
    d = _dim(args)
    check_count("--d", d)
    rs = range(1, d + 1) if args.r is None else [args.r]
    return _by_suite(*(hierarchy_suite(d, r, args.trials, args.seed, threads=args.threads) for r in rs))


def _verify_locc(args) -> dict:
    d = _dim(args)
    dB = d if args.db is None else args.db
    # Before --spectrum is parsed against min(d, dB).
    check_count("--d", d)
    check_count("--db", dB)
    spec = None if args.spectrum is None else parse_spectrum_spec(args.spectrum, d=min(d, dB))
    return _by_suite(locc_suite(d, dB, args.kraus_count, args.trials, args.seed, spec=spec, threads=args.threads))


def _verify_majorization(args) -> dict:
    steps = [] if args.csv else None
    rep = majorization_suite(_dim(args), args.trials, args.subdiv, args.seed, threads=args.threads, steps=steps)
    if args.csv:
        lines = ["sample,d_estar,d_el,ratio_ok"]
        lines.extend(f"{i},{_fmt(a)},{_fmt(b)},{c}" for i, a, b, c in steps)
        args.csv.write("\n".join(lines) + "\n")
    return _by_suite(rep)


# Every flag a verify suite can read.
VERIFY_FLAGS = {
    "--d": {"type": int, "help": "local dimension (default 4; witness: every d in 2..6)"},
    "--db": {"type": int, "help": "second dimension (default: --d)"},
    "--r": {"type": int, "help": "degeneracy (default: every r in 1..d)"},
    "--trials": {"type": int, "default": 200},
    "--cases": {"type": int, "default": 100, "help": "(p, spectrum) pairs"},
    "--kraus-count": {"type": int, "default": 2},
    "--subdiv": {"type": int, "default": 64},
    "--spectrum": {"help": "stellar | gaps:... | file:PATH (default stellar)"},
    "--seed": {"type": int, "default": DEFAULT_SEED},
    "--threads": {"type": int, "default": 1},
    "--scale": {"type": float, "default": 1.0, "help": "factor on every trial count"},
    "--csv": {"help": "write per-substep majorization rows here"},
    "--out": {"help": "write JSON here instead of stdout"},
}

# suite -> (runner, the flags it reads); a runner returns {report name: report}.
VERIFY_SUITES = {
    "all": (lambda a: run_all(seed=a.seed, threads=a.threads, scale=a.scale), ("--seed", "--threads", "--scale")),
    "hierarchy": (_verify_hierarchy, ("--d", "--r", "--trials", "--seed", "--threads")),
    "bounds": (lambda a: _by_suite(bounds_suite(_dim(a), a.trials, a.seed, threads=a.threads)),
               ("--d", "--trials", "--seed", "--threads")),
    "witness": (lambda a: _by_suite(witness_suite() if a.d is None else witness_suite((a.d,))), ("--d",)),
    "locc": (_verify_locc, ("--d", "--db", "--kraus-count", "--trials", "--spectrum", "--seed", "--threads")),
    "majorization": (_verify_majorization, ("--d", "--trials", "--subdiv", "--csv", "--seed", "--threads")),
    "unistochastic": (lambda a: _by_suite(unistochastic_suite(_dim(a), a.cases, a.trials, a.seed, threads=a.threads)),
                      ("--d", "--cases", "--trials", "--seed", "--threads")),
}


def _cmd_verify(args) -> int:
    reports = args.run(args)
    results = {name: rep.to_dict() for name, rep in reports.items()}
    failures = sum(rep.failures for rep in reports.values())
    params = {k: v for k, v in vars(args).items() if k not in ("func", "run", "out", "csv") and v is not None}
    seed = getattr(args, "seed", 0)  # witness takes no --seed; its report records seed 0
    _emit_json({"tool_version": __version__, "seed": seed, "params": params, "results": results}, args.out)
    if failures:
        worst = max(
            (case for rep in results.values() for case in rep["details"]),
            key=lambda c: c.get("violation", float("-inf")),
            default=None,
        )
        sys.stderr.write(f"error: verification failed ({failures} case(s)); worst: {json.dumps(worst, sort_keys=True, default=_numpy_to_json)}\n")
        return 2
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Raises bad arguments as ``ValueError``, so ``main`` reports them in one ``error:`` line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="mirrorent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="monotone value for one state or spectrum")
    p_compute.add_argument("--probs", help="comma-separated Schmidt probabilities, e.g. 0.5,0.3,0.2")
    p_compute.add_argument("--state", help="path to a state JSON file {dims, re, im}")
    p_compute.add_argument("--spectrum", default="stellar", help="stellar | gaps:... | file:PATH")
    p_compute.add_argument("--out", help="write JSON here instead of stdout")
    p_compute.set_defaults(func=_cmd_compute)

    p_spec = sub.add_parser("spectrum", help="inspect a spectrum")
    p_spec.add_argument("--d", type=int, help="dimension (required for stellar)")
    p_spec.add_argument("--spectrum", default="stellar", help="stellar | gaps:... | file:PATH")
    p_spec.add_argument("--out")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_sample = sub.add_parser("sample", help="CSV scatter of (el, estar) for random states")
    p_sample.add_argument("--d", type=int, required=True)
    p_sample.add_argument("--db", type=int, help="second dimension (default: --d)")
    p_sample.add_argument("--samples", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sample.add_argument("--threads", type=int, default=1)
    p_sample.add_argument("--out")
    p_sample.set_defaults(func=_cmd_sample)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    suites = p_verify.add_subparsers(dest="suite", required=True)
    for name, (run, flags) in VERIFY_SUITES.items():
        p_suite = suites.add_parser(name)
        for flag in (*flags, "--out"):
            p_suite.add_argument(flag, **VERIFY_FLAGS[flag])
        p_suite.set_defaults(func=_cmd_verify, run=run)
    # `verify all` reads none of these, but its params echo them and tests/test_golden.py pins those bytes.
    suites.choices["all"].set_defaults(trials=200, cases=100, kraus_count=2, subdiv=64)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        check_count("--threads", getattr(args, "threads", 1))
        with contextlib.ExitStack() as outputs:
            for flag in ("out", "csv"):  # each path becomes the buffer that replaces it once the command succeeds
                if getattr(args, flag, None):
                    setattr(args, flag, outputs.enter_context(_staged(getattr(args, flag))))
            return args.func(args)
    except SystemExit as exc:  # --help; bad arguments raise ValueError
        return 0 if exc.code in (0, None) else 1
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: e.g. a dilation too large to allocate
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
