"""Verification suites exercising the monotone family end to end.

Each suite draws its cases from per-index Philox streams (seed + case
index), so reports are deterministic for a given seed and identical
whether cases run sequentially or on a worker pool.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .locc import monotonicity_trial, random_channel
from .majorization import apply_chain, increment_audit, ttransform_chain
from .monotones import (
    fidelity_bruteforce,
    fidelity_exact,
    linear_entropy_bounds,
    lower_bound_coefficient,
    unistochastic_audit,
    _all_permutations,
)
from .spectra import LUSpectrum, degeneracy, stellar
from .states import SchmidtSpectrum, linear_entropy, random_pure, rng_for_seed, schmidt_spectrum

_stellar = lru_cache(maxsize=None)(stellar)


@dataclass
class VerificationReport:
    """Machine-readable outcome of one suite run.

    ``details`` records the failing cases (plus the worst case overall);
    aggregate numbers live in ``metrics``.  Violations are signed:
    positive means the stated tolerance was exceeded.
    """

    suite: str
    trials: int
    failures: int
    worst_violation: float
    details: list = field(default_factory=list)
    seed: int = 0
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "failures": self.failures,
            "worst_violation": float(self.worst_violation),
            "details": self.details,
            "seed": self.seed,
            "metrics": self.metrics,
        }


def _pmap(fn, items, threads: int):
    items = list(items)
    if threads and threads > 1 and len(items) > 1:
        chunk = max(1, len(items) // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items, chunksize=chunk))
    return [fn(it) for it in items]


def _finalize(suite, cases, seed, metrics=None, tol_key="violation", keep=None):
    """Reduce per-case records into a report; keep failures + the worst case."""
    worst = None
    failures = []
    for rec in cases:
        if worst is None or rec[tol_key] > worst[tol_key]:
            worst = rec
        if rec["ok"] is False:
            failures.append(rec)
    details = list(failures[: keep if keep is not None else len(failures)])
    if worst is not None and worst not in details:
        details.append(worst)
    return VerificationReport(
        suite=suite,
        trials=len(cases),
        failures=len(failures),
        worst_violation=float(worst[tol_key]) if worst is not None else float("-inf"),
        details=details,
        seed=seed,
        metrics=metrics or {},
    )


# ---------------------------------------------------------------------------
# Degeneracy / Schmidt-rank hierarchy
# ---------------------------------------------------------------------------

def degenerate_spectrum(d: int, r: int, rng: np.random.Generator) -> LUSpectrum:
    """Random spectrum whose maximal eigenvalue multiplicity is exactly r.

    r phases are made exactly coincident (a block of r-1 zero gaps) and
    the remaining gaps are kept at >= 0.1 turns so no accidental cluster
    forms, not even across the wrap-around seam.
    """
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= r <= d, got r = {r}, d = {d}")
    k = d - r + 1
    positive = 0.1 + rng.dirichlet(np.ones(k)) * (1.0 - 0.1 * k)
    cut = int(rng.integers(0, k + 1))
    gaps = np.concatenate([positive[:cut], np.zeros(r - 1), positive[cut:]])
    return LUSpectrum.from_gaps(gaps)


def controlled_rank_probs(d: int, s: int, rng: np.random.Generator) -> np.ndarray:
    """Probability vector with exactly s entries, all >= 0.01, rest zero."""
    if not 1 <= s <= d:
        raise ValueError(f"need 1 <= s <= d, got s = {s}, d = {d}")
    while True:
        v = rng.dirichlet(np.ones(s))
        if v.min() >= 0.01:
            break
    p = np.zeros(d)
    p[:s] = np.sort(v)[::-1]
    return p


def _hierarchy_case(args):
    d, r, trial, seed = args
    rng = rng_for_seed(seed + trial)
    spec = degenerate_spectrum(d, r, rng)
    s = 1 + trial % d
    p = controlled_rank_probs(d, s, rng)
    me = fidelity_exact(SchmidtSpectrum.from_probs(p), spec).me
    if s <= r:
        violation = me - 1e-10  # must vanish
    else:
        violation = 1e-8 - me  # must be bounded away from zero
    return {
        "trial": trial,
        "rank": s,
        "me": me,
        "violation": float(violation),
        "ok": violation <= 0.0,
    }


def hierarchy_suite(d: int, r: int, trials: int, seed: int, threads: int = 1) -> VerificationReport:
    """Monotone vanishes iff Schmidt rank <= spectrum degeneracy (both ways)."""
    if not 1 <= r <= d <= 8:
        raise ValueError(f"need 1 <= r <= d <= 8, got r = {r}, d = {d}")
    if trials < 1:
        raise ValueError("need at least one trial")
    cases = _pmap(_hierarchy_case, [(d, r, t, seed) for t in range(trials)], threads)
    return _finalize(f"hierarchy[d={d},r={r}]", cases, seed)


# ---------------------------------------------------------------------------
# Random-state scatter and the linear-entropy sandwich
# ---------------------------------------------------------------------------

def boundary_families_d4(grid=None) -> list[dict]:
    """Closed-form checks of the three extremal d=4 spectrum families.

    Threefold-degenerate marginals sit on the diagonal estar = el,
    rank-2 marginals on estar = (3/4) el (with el <= 2/3), and doubly
    degenerate marginals on estar = (3/2) el - 1/2.
    """
    if grid is None:
        grid = np.linspace(0.0, 1.0, 21)
    spec = _stellar(4)
    cases = []
    for x in grid:
        families = {
            "threefold": ([x / 3, x / 3, x / 3, 1 - x], lambda el: el),
            "rank2": ([x, 1 - x, 0.0, 0.0], lambda el: 0.75 * el),
            "double": ([(1 + x) / 4] * 2 + [(1 - x) / 4] * 2, lambda el: 1.5 * el - 0.5),
        }
        for name, (vec, expected_fn) in families.items():
            p = SchmidtSpectrum.from_probs(vec)
            el = linear_entropy(p)
            estar = fidelity_exact(p, spec).me
            violation = abs(estar - expected_fn(el)) - 1e-10
            if name == "rank2":
                violation = max(violation, el - 2.0 / 3.0 - 1e-10)
            cases.append({
                "family": name,
                "x": float(x),
                "el": el,
                "estar": estar,
                "violation": float(violation),
                "ok": violation <= 0.0,
            })
    return cases


def _scatter_case(args):
    d, dB, sample_seed = args
    p = schmidt_spectrum(random_pure(d, dB, sample_seed))
    spec = _stellar(min(d, dB))
    return linear_entropy(p), fidelity_exact(p, spec).me


def scatter(d: int, samples: int, seed: int, dB: int | None = None, threads: int = 1) -> np.ndarray:
    """(E_L, E*) pairs for Haar-random states, one row per sample."""
    if d < 1 or samples < 0:
        raise ValueError("need d >= 1 and samples >= 0")
    dB = d if dB is None else dB
    rows = _pmap(_scatter_case, [(d, dB, seed + i) for i in range(samples)], threads)
    return np.array(rows, dtype=float).reshape(samples, 2)


def bounds_suite(d: int, samples: int, seed: int, threads: int = 1) -> VerificationReport:
    """coeff(d)*E_L <= E* <= E_L on the rows of ``scatter``; exact families at d=4."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if samples < 1:
        raise ValueError("need at least one sample")
    cases = []
    for el, estar in scatter(d, samples, seed, threads=threads).tolist():
        lower, upper = linear_entropy_bounds(el, d)
        violation = max(lower - estar, estar - upper) - 1e-10
        cases.append({"el": el, "estar": estar, "violation": violation, "ok": violation <= 0.0})
    metrics = {
        "min_upper_margin": float(min(c["el"] - c["estar"] for c in cases)),
        "min_lower_margin": float(
            min(c["estar"] - lower_bound_coefficient(d) * c["el"] for c in cases)
        ),
    }
    if d == 4:
        cases = cases + boundary_families_d4()
    return _finalize(f"bounds[d={d}]", cases, seed, metrics=metrics)


# ---------------------------------------------------------------------------
# Upper-bound witness family
# ---------------------------------------------------------------------------

def upper_bound_witness(d: int, s: float):
    """Vector (1-sqrt(1-s)) * uniform + sqrt(1-s) * e1 and its two monotones.

    Under the equispaced traceless spectrum the overlap is permutation
    independent, so the monotone equals s exactly, as does the linear
    entropy: the family saturates the upper bound for every s.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s = {s!r} outside [0, 1]")
    c = math.sqrt(1.0 - s)
    q = np.full(d, (1.0 - c) / d)
    q[0] += c
    spectrum = SchmidtSpectrum.from_probs(q)
    estar = fidelity_exact(spectrum, _stellar(d)).me
    return q, estar, linear_entropy(spectrum)


def witness_suite(d_values=(2, 3, 4, 5, 6), s_values=None, exhaustive_max_d: int = 6) -> VerificationReport:
    """estar = el = s for the witness family, checked over all d! assignments."""
    if s_values is None:
        s_values = np.linspace(0.0, 1.0, 11)
    cases = []
    for d in d_values:
        lam = _stellar(d).eigenvalues
        for s in s_values:
            q, estar, el = upper_bound_witness(d, float(s))
            violation = max(abs(estar - s), abs(el - s)) - 1e-10
            spread = None
            if d <= exhaustive_max_d:
                g = 1.0 - np.abs(lam[_all_permutations(d)] @ q) ** 2
                spread = float(g.max() - g.min())
                violation = max(violation, spread - 1e-10, float(np.abs(g - s).max()) - 1e-10)
            cases.append({
                "d": d,
                "s": float(s),
                "estar": estar,
                "el": el,
                "spread": spread,
                "violation": float(violation),
                "ok": violation <= 0.0,
            })
    return _finalize("witness", cases, seed=0)


# ---------------------------------------------------------------------------
# LOCC monotonicity
# ---------------------------------------------------------------------------

def _locc_case(args):
    d, dB, m, side, spec, state_seed, chan_seed = args
    state = random_pure(d, dB, state_seed)
    ch = random_channel(d if side == "A" else dB, m, side, chan_seed)
    trial = monotonicity_trial(state, ch, spec)
    violation = -trial.slack - 1e-9
    return {
        "side": side,
        "before": trial.before,
        "after": trial.after,
        "slack": trial.slack,
        "violation": float(violation),
        "ok": violation <= 0.0,
    }


def locc_suite(d: int, dB: int, kraus_count: int, trials: int, seed: int,
               spec: LUSpectrum | None = None, sides=("A", "B"), threads: int = 1) -> VerificationReport:
    """Average monotone never increases under random local channels."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if spec is None:
        spec = _stellar(min(d, dB))
    args = []
    for si, side in enumerate(sides):
        for t in range(trials):
            idx = si * trials + t
            args.append((d, dB, kraus_count, side, spec, seed + 2 * idx, seed + 2 * idx + 1))
    cases = _pmap(_locc_case, args, threads)
    slacks = np.array([c["slack"] for c in cases])
    metrics = {"min_slack": float(slacks.min()), "mean_slack": float(slacks.mean())}
    return _finalize(f"locc[d={d},dB={dB},m={kraus_count}]", cases, seed, metrics=metrics)


# ---------------------------------------------------------------------------
# Majorization chains
# ---------------------------------------------------------------------------

def _majorization_case(args):
    d, sample_seed, subdiv, do_audit = args
    rng = rng_for_seed(sample_seed)
    p = rng.dirichlet(np.ones(d))
    start = np.zeros(d)
    start[0] = 1.0
    reproduce_err = float(np.abs(apply_chain(ttransform_chain(p), start) - p).max())
    estar = fidelity_exact(SchmidtSpectrum.from_probs(p), _stellar(d)).me
    el = linear_entropy(p)
    coeff = lower_bound_coefficient(d)
    aggregate_margin = estar - coeff * el
    violation = max(reproduce_err - 1e-12, -aggregate_margin - 1e-9)
    rec = {
        "reproduce_err": reproduce_err,
        "estar": estar,
        "el": el,
        "aggregate_margin": float(aggregate_margin),
    }
    if do_audit:
        records = increment_audit(p, n_sub=subdiv)
        total_estar = sum(r.d_estar for r in records)
        total_el = sum(r.d_el for r in records)
        rec["telescope_err"] = abs(total_estar - estar)
        rec["el_monotone"] = bool(all(r.d_el >= -1e-12 for r in records))
        rec["ratio_ok_fraction"] = (
            sum(r.ratio_ok for r in records) / len(records) if records else 1.0
        )
        audit_margin = total_estar - coeff * total_el
        violation = max(
            violation,
            rec["telescope_err"] - 1e-9,
            -audit_margin - 1e-9,
            0.0 if rec["el_monotone"] else 1.0,
        )
    rec["violation"] = float(violation)
    rec["ok"] = violation <= 0.0
    return rec


def majorization_suite(d: int, samples: int, subdiv: int, seed: int,
                       audits: int = 20, threads: int = 1) -> VerificationReport:
    """Chains reproduce their targets; accumulated increments obey the bound.

    Full per-substep audits run on the first ``audits`` samples; for the
    rest the accumulated totals telescope to the endpoint values, which
    is what the aggregate inequality constrains.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if samples < 1 or subdiv < 1:
        raise ValueError("need samples >= 1 and subdiv >= 1")
    args = [(d, seed + i, subdiv, i < audits) for i in range(samples)]
    cases = _pmap(_majorization_case, args, threads)
    audited = [c for c in cases if "ratio_ok_fraction" in c]
    metrics = {
        "max_reproduce_err": float(max(c["reproduce_err"] for c in cases)),
        "min_aggregate_margin": float(min(c["aggregate_margin"] for c in cases)),
        "audited": len(audited),
        "ratio_ok_fraction": (
            float(np.mean([c["ratio_ok_fraction"] for c in audited])) if audited else None
        ),
    }
    return _finalize(f"majorization[d={d}]", cases, seed, metrics=metrics)


def majorization_step_rows(d: int, samples: int, subdiv: int, seed: int) -> list[tuple]:
    """Per-substep (d_estar, d_el, ratio_ok) rows for CSV export."""
    rows = []
    for i in range(samples):
        rng = rng_for_seed(seed + i)
        p = rng.dirichlet(np.ones(d))
        for rec in increment_audit(p, n_sub=subdiv):
            rows.append((i, rec.d_estar, rec.d_el, int(rec.ratio_ok)))
    return rows


# ---------------------------------------------------------------------------
# Optimizer agreement and the unistochastic audit
# ---------------------------------------------------------------------------

def _unistochastic_case(args):
    d, case_seed, trials = args
    rng = rng_for_seed(case_seed)
    p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(d)))
    spec = LUSpectrum.from_phases(rng.uniform(0.0, 2.0 * np.pi, d))
    exact = fidelity_exact(p, spec)
    brute = fidelity_bruteforce(p, spec)
    agree_err = abs(exact.fidelity - brute.fidelity)
    audit = unistochastic_audit(p, spec, trials, seed=case_seed + 1)
    audit_excess = audit.max_value - audit.permutation_value
    violation = max(agree_err - 1e-12, audit_excess - 1e-9)
    return {
        "agree_err": float(agree_err),
        "audit_excess": float(audit_excess),
        "violation": float(violation),
        "ok": violation <= 0.0,
    }


def unistochastic_suite(d: int, cases: int, trials: int, seed: int, threads: int = 1) -> VerificationReport:
    """Exact vs exhaustive optimizer agreement plus the random-unitary audit."""
    if not 2 <= d <= 8:
        raise ValueError(f"need 2 <= d <= 8, got {d}")
    if cases < 1 or trials < 1:
        raise ValueError("need cases >= 1 and trials >= 1")
    args = [(d, seed + 2 * i, trials) for i in range(cases)]
    recs = _pmap(_unistochastic_case, args, threads)
    metrics = {
        "max_agree_err": float(max(c["agree_err"] for c in recs)),
        "max_audit_excess": float(max(c["audit_excess"] for c in recs)),
    }
    return _finalize(f"unistochastic[d={d}]", recs, seed, metrics=metrics)


# ---------------------------------------------------------------------------
# Everything at desk scale
# ---------------------------------------------------------------------------

def random_nondegenerate_spectrum(d: int, seed: int) -> LUSpectrum:
    """Uniform random phases, re-drawn until fully nondegenerate."""
    for attempt in range(100):
        spec = LUSpectrum.from_phases(rng_for_seed(seed + attempt).uniform(0.0, 2.0 * np.pi, d))
        if degeneracy(spec) == 1:
            return spec
    raise RuntimeError("could not draw a nondegenerate spectrum")


def run_all(seed: int = 0, threads: int = 1, scale: float = 1.0) -> dict[str, VerificationReport]:
    """Full desk-scale verification sweep; ``scale`` shrinks every trial count."""
    n = lambda k: max(1, int(round(k * scale)))
    reports: dict[str, VerificationReport] = {}

    for d in range(2, 9):
        rep = bounds_suite(d, n(10000), seed, threads=threads)
        reports[rep.suite] = rep
    for d in range(2, 7):
        for r in range(1, d + 1):
            rep = hierarchy_suite(d, r, n(200), seed, threads=threads)
            reports[rep.suite] = rep
    reports["witness"] = witness_suite()
    for d in range(2, 9):
        rep = unistochastic_suite(d, n(500), n(1000), seed, threads=threads)
        reports[rep.suite] = rep
    for d in (2, 3, 4):
        specs = [_stellar(d)] + [random_nondegenerate_spectrum(d, seed + 100 + k) for k in range(3)]
        for si, spec in enumerate(specs):
            for m in (2, 3):
                rep = locc_suite(d, d, m, n(1000), seed, spec=spec, threads=threads)
                reports[f"{rep.suite},spec{si}"] = rep
    for d in range(2, 9):
        rep = majorization_suite(d, n(1000), 64, seed, threads=threads)
        reports[rep.suite] = rep
    return reports
