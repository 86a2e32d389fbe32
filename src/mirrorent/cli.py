"""Command-line interface: compute values, sample scatters, run suites.

Outputs are deterministic for a given seed: floats are serialized with
Python's shortest round-trip repr, JSON keys are sorted, and files are
written atomically (temp file + rename).  Exit codes: 0 success,
1 validation error, 2 suite failure.
"""

from __future__ import annotations

import argparse
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
    majorization_step_rows,
    majorization_suite,
    run_all,
    scatter,
    unistochastic_suite,
    witness_suite,
)
from .monotones import fidelity_exact, linear_entropy_bounds
from .spectra import degeneracy, is_faithful, parse_spectrum_spec, stellar
from .states import SchmidtSpectrum, linear_entropy, load_state, schmidt_spectrum

DEFAULT_SEED = 0


def _fmt(x) -> str:
    return repr(float(x))


def _to_plain(obj):
    """Recursively convert numpy scalars/arrays so json can serialize."""
    if isinstance(obj, dict):
        return {k: _to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-mirrorent-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(_to_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n", out)


def _report_envelope(seed: int, params: dict, results) -> dict:
    return {"tool_version": __version__, "seed": seed, "params": params, "results": results}


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
            "sigma": list(sol.sigma),
            "el": el,
            "bounds": {"lower": lower, "upper": upper},
        },
        args.out,
    )
    return 0


def _cmd_spectrum(args) -> int:
    if args.kind == "stellar":
        if args.d is None:
            raise ValueError("--kind stellar requires --d")
        spec = stellar(args.d)
    elif args.kind == "gaps":
        if not args.gaps:
            raise ValueError("--kind gaps requires --gaps")
        spec = parse_spectrum_spec("gaps:" + args.gaps, d=args.d)
    else:
        if not args.file:
            raise ValueError("--kind file requires --file")
        spec = parse_spectrum_spec("file:" + args.file, d=args.d)
    _emit_json(
        {
            "d": spec.d,
            "thetas": [float(t) for t in spec.thetas],
            "gaps": [float(g) for g in spec.gaps],
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
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _run_verify(args) -> tuple[dict, int]:
    d = args.d if args.d is not None else 4
    seed = args.seed
    threads = args.threads
    if args.suite == "all":
        reports = run_all(seed=seed, threads=threads, scale=args.scale)
        return {name: r.to_dict() for name, r in reports.items()}, sum(r.failures for r in reports.values())
    if args.suite == "hierarchy":
        reports = [
            hierarchy_suite(d, r, args.trials, seed, threads=threads)
            for r in (range(1, d + 1) if args.r is None else [args.r])
        ]
        return {r.suite: r.to_dict() for r in reports}, sum(r.failures for r in reports)
    if args.suite == "bounds":
        rep = bounds_suite(d, args.trials, seed, threads=threads)
    elif args.suite == "witness":
        rep = witness_suite(d_values=(args.d,) if args.d is not None else (2, 3, 4, 5, 6))
    elif args.suite == "locc":
        spec = None
        if args.spectrum is not None:
            spec = parse_spectrum_spec(args.spectrum, d=min(d, args.db or d))
        rep = locc_suite(d, args.db or d, args.kraus_count, args.trials, seed, spec=spec, threads=threads)
    elif args.suite == "majorization":
        samples = args.trials if args.samples is None else args.samples
        rep = majorization_suite(d, samples, args.subdiv, seed, threads=threads)
        if args.csv:
            rows = majorization_step_rows(d, min(samples, 20), args.subdiv, seed)
            lines = ["sample,d_estar,d_el,ratio_ok"]
            lines.extend(f"{i},{_fmt(a)},{_fmt(b)},{c}" for i, a, b, c in rows)
            _write_atomic(args.csv, "\n".join(lines) + "\n")
    elif args.suite == "unistochastic":
        rep = unistochastic_suite(d, args.cases, args.trials, seed, threads=threads)
    else:
        raise ValueError(f"unknown suite {args.suite!r}")
    return {rep.suite: rep.to_dict()}, rep.failures


def _cmd_verify(args) -> int:
    results, failures = _run_verify(args)
    params = {
        k: v for k, v in vars(args).items() if k not in ("func", "out", "csv") and v is not None
    }
    _emit_json(_report_envelope(args.seed, params, results), args.out)
    if failures:
        worst = max(
            (case for rep in results.values() for case in rep["details"]),
            key=lambda c: c.get("violation", float("-inf")),
            default=None,
        )
        sys.stderr.write(f"error: verification failed ({failures} case(s)); worst: {json.dumps(_to_plain(worst), sort_keys=True)}\n")
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mirrorent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="monotone value for one state or spectrum")
    p_compute.add_argument("--probs", help="comma-separated Schmidt probabilities, e.g. 0.5,0.3,0.2")
    p_compute.add_argument("--state", help="path to a state JSON file {dims, re, im}")
    p_compute.add_argument("--spectrum", default="stellar", help="stellar | gaps:... | file:PATH")
    p_compute.add_argument("--out", help="write JSON here instead of stdout")
    p_compute.set_defaults(func=_cmd_compute)

    p_spec = sub.add_parser("spectrum", help="inspect a spectrum")
    p_spec.add_argument("--d", type=int, help="dimension (required for stellar)")
    p_spec.add_argument("--kind", choices=("stellar", "gaps", "file"), default="stellar")
    p_spec.add_argument("--gaps", help="comma-separated gaps for --kind gaps")
    p_spec.add_argument("--file", help="spectrum JSON path for --kind file")
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
    p_verify.add_argument(
        "suite",
        choices=("all", "hierarchy", "bounds", "witness", "locc", "majorization", "unistochastic"),
    )
    p_verify.add_argument("--d", type=int, help="local dimension (default 4; witness defaults to 2..6)")
    p_verify.add_argument("--db", type=int)
    p_verify.add_argument("--r", type=int, help="degeneracy for the hierarchy suite (default: all r)")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--samples", type=int)
    p_verify.add_argument("--cases", type=int, default=100, help="(p, spectrum) pairs for the unistochastic suite")
    p_verify.add_argument("--kraus-count", type=int, default=2)
    p_verify.add_argument("--subdiv", type=int, default=64)
    p_verify.add_argument("--spectrum", help="spectrum for the locc suite")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--threads", type=int, default=1)
    p_verify.add_argument("--scale", type=float, default=1.0, help="scale factor on trial counts for 'all'")
    p_verify.add_argument("--csv", help="write per-substep majorization rows here")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
