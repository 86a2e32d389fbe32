"""Per-layer tracing of mirrorent from outside the program.

A layer is a function of one of the program's modules.  The modules bind
functions by name (``from .monotones import fidelity_exact``), so a layer is
traced by replacing every module-level binding of its function, not only the
one in the defining module.  Each wrapped call is a span; its self time is its
duration minus that of the traced spans it called, so the self times of all
spans under a root span add up to the root's duration.  Spans are aggregated
as they end (calls, self time, total time); per-call durations are kept only
for ``fidelity_exact``.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# metric prefix -> (module, function)
LAYERS = {
    "states.random_pure": ("states", "random_pure"),
    "states.schmidt_spectrum": ("states", "schmidt_spectrum"),
    "states.haar_unitaries": ("states", "haar_unitaries"),
    "spectra.from_phases": ("spectra", "LUSpectrum.from_phases"),
    "monotones.fidelity_exact": ("monotones", "fidelity_exact"),
    "monotones.fidelity_bruteforce": ("monotones", "fidelity_bruteforce"),
    "monotones.unistochastic_audit": ("monotones", "unistochastic_audit"),
    "locc.random_channel": ("locc", "random_channel"),
    "locc.apply_channel": ("locc", "apply_channel"),
    "locc.monotonicity_trial": ("locc", "monotonicity_trial"),
    "majorization.ttransform_chain": ("majorization", "ttransform_chain"),
    "majorization.increment_audit": ("majorization", "increment_audit"),
}
# harness.<suite>.wall_s -> suite function; their self time, and that of
# run_all, is harness.self_s.
SUITES = {
    "bounds": "bounds_suite",
    "hierarchy": "hierarchy_suite",
    "witness": "witness_suite",
    "unistochastic": "unistochastic_suite",
    "locc": "locc_suite",
    "majorization": "majorization_suite",
    "scatter": "scatter",
}
TABLE_DIMS = (2, 4, 8, 16, 64, 128, 192)
ALLOC_DIMS = (64, 128, 192)
P99_MIN_CALLS = 1000
# A spectrum counts as stellar (equispaced, up to rotation) when its gaps
# spread less than this; all other spectra are "random".
EQUISPACED_TOL = 1e-9


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        if layer != "locc.monotonicity_trial":
            names.append((f"{layer}.calls", "count", "lower"))
        names.append((f"{layer}.self_s", "s", "lower"))
    names += [
        ("monotones.fidelity_exact.p50_us", "us", "lower"),
        ("monotones.fidelity_exact.p99_us", "us", "lower"),
    ]
    names += [(f"monotones.fidelity_exact.d{d}.{kind}.us", "us", "lower")
              for d in TABLE_DIMS for kind in ("stellar", "random")]
    names += [(f"monotones.fidelity_exact.d{d}.random.peak_alloc_mb", "MiB", "lower") for d in ALLOC_DIMS]
    names.append(("locc.apply_channel.branch_keep_frac", "ratio", "higher"))
    names += [(f"harness.{suite}.wall_s", "s", "lower") for suite in SUITES]
    names += [
        ("harness.self_s", "s", "lower"),
        ("harness.pool.worker_cpu_s", "s", "lower"),
        ("harness.pool.efficiency", "ratio", "higher"),
        ("cli.self_s", "s", "lower"),
        ("cli.bytes_out", "B", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return names


PER_LAYER = _per_layer()


class Tracer:
    """Wraps the program's layer functions while installed; aggregates spans."""

    def __init__(self):
        self._frames = [0.0]  # traced child time of each open span, root first
        self._stats: dict[str, list] = {}  # span -> [calls, self_s, total_s]
        self._patched: list[tuple[object, str, object]] = []
        self._kinds: dict[int, tuple] = {}  # id(spectrum) -> (spectrum, kind)
        self.exact_s: list[float] = []
        self.cells: dict[tuple[int, str], list[float]] = {}
        self.branches = [0, 0]  # kept, Kraus operators applied

    def install(self) -> None:
        from mirrorent import cli, harness, locc, majorization, monotones, spectra, states

        modules = {"states": states, "spectra": spectra, "monotones": monotones, "locc": locc,
                   "majorization": majorization}
        hooks = {"monotones.fidelity_exact": self._exact_hook, "locc.apply_channel": self._branch_hook}
        targets = [(span, getattr(modules[mod], name)) for span, (mod, name) in LAYERS.items()
                   if "." not in name]
        targets += [(f"harness.{suite}", getattr(harness, name)) for suite, name in SUITES.items()]
        targets += [("harness.run_all", harness.run_all), ("cli.main", cli.main)]
        bindings = [m for n, m in sys.modules.items() if n == "mirrorent" or n.startswith("mirrorent.")]
        for span, fn in targets:
            wrapper = self._wrap(span, fn, hooks.get(span))
            for module in bindings:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)
        original = spectra.LUSpectrum.__dict__["from_phases"]
        self._patched.append((spectra.LUSpectrum, "from_phases", original))
        spectra.LUSpectrum.from_phases = classmethod(self._wrap("spectra.from_phases", original.__func__))

    def uninstall(self) -> None:
        while self._patched:
            obj, key, value = self._patched.pop()
            setattr(obj, key, value)

    def _wrap(self, span, fn, hook=None):
        stat = self._stats.setdefault(span, [0, 0.0, 0.0])
        frames = self._frames
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = frames.pop()
                frames[-1] += dt
                stat[0] += 1
                stat[1] += dt - inner
                stat[2] += dt
            if hook is not None:
                hook(args, kwargs, result, dt)
            return result

        return wrapper

    def _exact_hook(self, args, kwargs, result, dt):
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        entry = self._kinds.get(id(spec))
        if entry is None:
            kind = "stellar" if np.ptp(spec.gaps) < EQUISPACED_TOL else "random"
            entry = self._kinds[id(spec)] = (spec, kind)  # holding spec keeps its id unique
        self.exact_s.append(dt)
        self.cells.setdefault((spec.d, entry[1]), []).append(dt)

    def _branch_hook(self, args, kwargs, result, dt):
        channel = args[1] if len(args) > 1 else kwargs["ch"]
        self.branches[0] += len(result)
        self.branches[1] += channel.m

    def _stat(self, span) -> list:
        return self._stats.get(span, [0, 0.0, 0.0])

    def table(self) -> dict[str, float]:
        """Median microseconds per fidelity_exact call, by d and spectrum kind; 0 if none."""
        return {
            f"monotones.fidelity_exact.d{d}.{kind}.us": (
                float(np.median(self.cells[(d, kind)])) * 1e6 if (d, kind) in self.cells else 0.0)
            for d in TABLE_DIMS for kind in ("stellar", "random")
        }

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the spans give; 0 for a layer no call reached."""
        out = {}
        for layer in LAYERS:
            calls, self_s, _ = self._stat(layer)
            if layer != "locc.monotonicity_trial":
                out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        exact_us = np.array(self.exact_s) * 1e6
        out["monotones.fidelity_exact.p50_us"] = float(np.median(exact_us)) if exact_us.size else 0.0
        out["monotones.fidelity_exact.p99_us"] = (
            float(np.percentile(exact_us, 99)) if exact_us.size >= P99_MIN_CALLS else 0.0)
        out.update(self.table())
        kept, applied = self.branches
        out["locc.apply_channel.branch_keep_frac"] = kept / applied if applied else 0.0
        for suite in SUITES:
            out[f"harness.{suite}.wall_s"] = self._stat(f"harness.{suite}")[2]
        out["harness.self_s"] = sum(self._stat(f"harness.{s}")[1] for s in [*SUITES, "run_all"])
        out["cli.self_s"] = self._stat("cli.main")[1]
        out["trace.self_sum_s"] = (
            sum(self._stat(layer)[1] for layer in LAYERS) + out["harness.self_s"] + out["cli.self_s"])
        return out
