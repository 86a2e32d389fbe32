"""Verification suites exercising the monotone family end to end.

Every pooled suite maps one block function over ranges of its case indices
``range(n)`` through ``states.map_blocks``: the scatter evaluates a block as
one ``states.checked`` stack, LOCC as three (its states, each side's Kraus
sets, and the evaluation), each redone one case at a time only if its first
case differs, and the others run its cases, ``case(fixed..., i)``, one at a
time (``_cases``).  A case draws from Philox streams it derives from the seed
and its index, so reports are deterministic for a seed and identical whether
cases run sequentially, in blocks or on a worker pool.  Every suite hands its
cases' signed violations, as one array, to the one reducer ``_report``, which
builds a row only for each case the report keeps; ``run_all`` walks one plan
of suite calls.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .locc import KrausChannel, apply_channel, random_channel, random_channels, trial_values
from .majorization import apply_chain, increment_audit, ttransform_chain
from .monotones import (
    fidelity_bruteforce,
    fidelity_exact,
    fidelity_exact_many,
    linear_entropy_bounds,
    lower_bound_coefficient,
    permutation_overlaps,
    unistochastic_audit,
)
from .spectra import LUSpectrum, degeneracy, stellar
from .states import (
    SchmidtSpectrum,
    check_count,
    checked,
    linear_entropy,
    map_blocks,
    random_pure,
    random_pure_many,
    rng_for_seed,
    schmidt_probs_many,
    schmidt_spectrum,
)

# Majorization samples that also get the full per-substep audit.
AUDITS = 20


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
    details: list
    seed: int
    metrics: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _each(case_fn, cases: range) -> list:
    """The block function of a suite that stacks nothing: its cases one at a time."""
    return [case_fn(i) for i in cases]


def _cases(case_fn, n: int, threads: int) -> list:
    """``case_fn(i)`` for each case i of ``range(n)``, in order, the blocks mapped by ``map_blocks``."""
    return [value for block in map_blocks(partial(_each, case_fn), n, 1, threads) for value in block]


def check_seed(seed: int, keys: int) -> int:
    """``seed`` as an int; rejects one below 0, or one whose Philox keys ``seed .. seed + keys - 1`` reach 2**128."""
    seed = check_count("--seed", seed, 0)
    if seed + keys > 2**128:
        raise ValueError(f"--seed must be <= {2**128 - keys} to keep its {keys} Philox keys below 2**128, got {seed}")
    return seed


def _report(suite, seed, violation, row, metrics=None) -> VerificationReport:
    """Reduce a suite's signed violations, one per case, into its report.

    Case i passes iff ``violation[i] <= 0``; the worst case is the first of equal maxima.  ``details`` holds
    ``row(i)``, with its ``violation`` and ``ok`` set, for each failing case in order, then for the worst case
    if it passed.
    """
    violation = np.asarray(violation, dtype=float)
    failing = np.flatnonzero(~(violation <= 0.0)).tolist()
    worst = int(np.argmax(violation)) if violation.size else None
    keep = failing if worst is None or worst in failing else failing + [worst]
    return VerificationReport(
        suite=suite,
        trials=violation.size,
        failures=len(failing),
        worst_violation=float(violation[worst]) if worst is not None else float("-inf"),
        details=[{**row(i), "violation": float(violation[i]), "ok": bool(violation[i] <= 0.0)} for i in keep],
        seed=seed,
        metrics=metrics or {},
    )


# ---------------------------------------------------------------------------
# Degeneracy / Schmidt-rank hierarchy
# ---------------------------------------------------------------------------

def degenerate_spectrum(d: int, r: int, rng: np.random.Generator) -> LUSpectrum:
    """Random spectrum whose maximal eigenvalue multiplicity is exactly r.

    r phases are made exactly coincident (a block of r-1 zero gaps) and
    the other k = d - r + 1 gaps are kept at >= min(0.1, 1/(k+1)) turns
    (0.1 for k <= 9) so no accidental cluster forms, not even across the seam.
    """
    r = check_count("r", r, 1, d)
    k = d - r + 1
    low = min(0.1, 1.0 / (k + 1))
    positive = low + rng.dirichlet(np.ones(k)) * (1.0 - low * k)
    cut = int(rng.integers(0, k + 1))
    gaps = np.concatenate([positive[:cut], np.zeros(r - 1), positive[cut:]])
    return LUSpectrum.from_gaps(gaps)


def controlled_rank_probs(d: int, s: int, rng: np.random.Generator) -> np.ndarray:
    """Probability vector with exactly s entries, all >= 0.01, rest zero."""
    s = check_count("s", s, 1, d)
    while True:
        v = rng.dirichlet(np.ones(s))
        if v.min() >= 0.01:
            break
    p = np.zeros(d)
    p[:s] = np.sort(v)[::-1]
    return p


def _hierarchy_case(d, r, seed, trial) -> float:
    rng = rng_for_seed(seed + trial)
    spec = degenerate_spectrum(d, r, rng)
    p = controlled_rank_probs(d, 1 + trial % d, rng)
    return fidelity_exact(SchmidtSpectrum.from_probs(p), spec).me


def hierarchy_suite(d: int, r: int, trials: int, seed: int, threads: int = 1) -> VerificationReport:
    """Monotone vanishes iff Schmidt rank <= spectrum degeneracy (both ways); trial i has rank 1 + i % d."""
    d = check_count("--d", d, 1, 8)
    r = check_count("--r", r, 1, d)
    trials = check_count("--trials", trials, 1, 2**128)
    seed = check_seed(seed, trials)
    me = np.array(_cases(partial(_hierarchy_case, d, r, seed), trials, threads))
    rank = 1 + np.arange(trials) % d
    violation = np.where(rank <= r, me - 1e-10, 1e-8 - me)  # must vanish, or be bounded away from zero
    return _report(f"hierarchy[d={d},r={r}]", seed, violation,
                   lambda i: {"trial": i, "rank": int(rank[i]), "me": float(me[i])})


# ---------------------------------------------------------------------------
# Random-state scatter and the linear-entropy sandwich
# ---------------------------------------------------------------------------

def boundary_families_d4() -> list[dict]:
    """Closed-form checks of the three extremal d=4 spectrum families.

    Threefold-degenerate marginals sit on the diagonal estar = el,
    rank-2 marginals on estar = (3/4) el (with el <= 2/3), and doubly
    degenerate marginals on estar = (3/2) el - 1/2.
    """
    spec = stellar(4)
    cases = []
    for x in np.linspace(0.0, 1.0, 21):
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
            })
    return cases


def _scatter_case(d, dB, seed, i) -> tuple[float, float]:
    p = schmidt_spectrum(random_pure(d, dB, seed + i))
    return linear_entropy(p), fidelity_exact(p, stellar(min(d, dB))).me


def _scatter_block(d, dB, seed, cases: range) -> np.ndarray:
    P = schmidt_probs_many(random_pure_many(d, dB, range(seed + cases.start, seed + cases.stop)))
    return np.column_stack([linear_entropy(P), fidelity_exact_many(P, stellar(min(d, dB))).me])


def scatter(d: int, samples: int, seed: int, dB: int | None = None, threads: int = 1) -> np.ndarray:
    """(E_L, E*) pairs for Haar-random states, one row per sample.

    Runs on blocks of consecutive cases, at most ceil(samples / workers) each; row i
    depends on ``seed + i`` alone, not on where the blocks begin, and
    equals the one-case path (``random_pure``, ``schmidt_spectrum``,
    ``fidelity_exact``) bit for bit, which checks each block's first row.
    """
    dB = d if dB is None else dB
    d = check_count("--d", d)
    dB = check_count("--db", dB)
    samples = check_count("--samples", samples, 0, 2**128)
    seed = check_seed(seed, samples)
    block = partial(checked, partial(_scatter_block, d, dB, seed), partial(_scatter_case, d, dB, seed))
    return np.concatenate([np.empty((0, 2)), *map_blocks(block, samples, d * dB, threads)])


def bounds_suite(d: int, samples: int, seed: int, threads: int = 1) -> VerificationReport:
    """coeff(d)*E_L <= E* <= E_L on the rows of ``scatter``; exact families at d=4."""
    d = check_count("--d", d, 2)
    samples = check_count("--trials", samples, 1, 2**128)
    seed = check_seed(seed, samples)
    el, estar = scatter(d, samples, seed, threads=threads).T
    lower, upper = linear_entropy_bounds(el, d)
    metrics = {"min_upper_margin": float((upper - estar).min()), "min_lower_margin": float((estar - lower).min())}
    families = boundary_families_d4() if d == 4 else []
    violation = np.concatenate([np.maximum(lower - estar, estar - upper) - 1e-10, [c["violation"] for c in families]])
    return _report(f"bounds[d={d}]", seed, violation,
                   lambda i: {"el": float(el[i]), "estar": float(estar[i])} if i < samples else families[i - samples],
                   metrics)


# ---------------------------------------------------------------------------
# Upper-bound witness family
# ---------------------------------------------------------------------------

def upper_bound_witness(d: int, s: float):
    """Vector (1-sqrt(1-s)) * uniform + sqrt(1-s) * e1 and its two monotones.

    Under the equispaced traceless spectrum the overlap is permutation
    independent, so the monotone equals s exactly, as does the linear
    entropy: the family saturates the upper bound for every s.
    """
    d = check_count("d", d, 2)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s = {s!r} outside [0, 1]")
    c = math.sqrt(1.0 - s)
    q = np.full(d, (1.0 - c) / d)
    q[0] += c
    spectrum = SchmidtSpectrum.from_probs(q)
    estar = fidelity_exact(spectrum, stellar(d)).me
    return q, estar, linear_entropy(spectrum)


def witness_suite(d_values=(2, 3, 4, 5, 6)) -> VerificationReport:
    """estar = el = s for the witness family, checked over all d! assignments for d <= 6."""
    for d in d_values:
        check_count("--d", d, 2)
    cases = []
    for d in d_values:
        for s in np.linspace(0.0, 1.0, 11):
            q, estar, el = upper_bound_witness(d, float(s))
            violation = max(abs(estar - s), abs(el - s)) - 1e-10
            spread = None
            if d <= 6:
                g = 1.0 - permutation_overlaps(q, stellar(d)) ** 2
                spread = float(g.max() - g.min())
                violation = max(violation, spread - 1e-10, float(np.abs(g - s).max()) - 1e-10)
            cases.append({
                "d": d,
                "s": float(s),
                "estar": estar,
                "el": el,
                "spread": spread,
                "violation": float(violation),
            })
    return _report("witness", 0, [c["violation"] for c in cases], cases.__getitem__)


# ---------------------------------------------------------------------------
# LOCC monotonicity
# ---------------------------------------------------------------------------

def _locc_stack(spec, drawn) -> list[tuple[float, float]]:
    # ``trial_values`` of each drawn trial: one stack of each trial's state, then its kept branches.
    stack = np.array([s.amplitudes for state, branches in drawn for s in (state, *(b for _, b in branches))])
    mes = iter(fidelity_exact_many(schmidt_probs_many(stack), spec).me.tolist())
    # ``after`` summed as ``trial_values`` sums it: Python floats, in branch order.
    return [(next(mes), sum(w * next(mes) for w, _ in branches)) for _, branches in drawn]


def _locc_block(d, dB, m, spec, trials, seed, cases: range) -> list[tuple[float, float]]:
    """Each trial's (before, after), from three ``checked`` stages: the block's states, the Kraus sets of each side
    it touches (the first ``trials`` trials act on A) and one stack of every state and kept branch.  The one-case
    path evaluates the same branches: one ``apply_channel`` per trial."""
    states = checked(partial(random_pure_many, d, dB, wrap=True), partial(random_pure, d, dB),
                     range(seed + 2 * cases.start, seed + 2 * cases.stop, 2))
    channels = []
    for side, dX, part in (("A", d, range(cases.start, min(cases.stop, trials))),
                           ("B", dB, range(max(cases.start, trials), cases.stop))):
        if part:
            ops = checked(partial(random_channels, dX, m), lambda key: random_channel(dX, m, side, key).operators,
                          range(seed + 2 * part.start + 1, seed + 2 * part.stop + 1, 2))
            channels += KrausChannel.stack(side, ops)
    drawn = [(state, apply_channel(state, ch)) for state, ch in zip(states, channels)]
    return checked(partial(_locc_stack, spec), lambda trial: trial_values(*trial, spec), drawn)


def locc_suite(d: int, dB: int, kraus_count: int, trials: int, seed: int,
               spec: LUSpectrum | None = None, threads: int = 1) -> VerificationReport:
    """Average monotone never increases under random local channels on either side.

    Runs on blocks of consecutive trials, at most ceil(trials / workers) each: a block
    draws its states as one stack and its dilation isometries as one stack
    per side, branches each trial with one ``apply_channel``, and evaluates
    all its states and branches as one stack, each stack ``states.checked``.
    The report equals ``monotonicity_trial`` run trial by trial, bit for bit.
    """
    d = check_count("--d", d)
    dB = check_count("--db", dB)
    kraus_count = check_count("--kraus-count", kraus_count)
    trials = check_count("--trials", trials, 1, 2**126)
    seed = check_seed(seed, 4 * trials)  # two keys per trial, on each side
    if spec is None:
        spec = stellar(min(d, dB))
    # A trial holds its 1 + m states and the m dX**2 entries of its dilation isometry, the unitary's first dX columns.
    blocks = map_blocks(partial(_locc_block, d, dB, kraus_count, spec, trials, seed), 2 * trials,
                        (1 + kraus_count) * d * dB + kraus_count * max(d, dB) ** 2, threads)
    before, after = np.concatenate(blocks).T
    slack = before - after
    metrics = {"min_slack": float(slack.min()), "mean_slack": float(slack.mean())}
    return _report(f"locc[d={d},dB={dB},m={kraus_count}]", seed, -slack - 1e-9,  # the first trials act on A
                   lambda i: {"side": "AB"[i // trials], "before": float(before[i]), "after": float(after[i]),
                              "slack": float(slack[i])}, metrics)


# ---------------------------------------------------------------------------
# Majorization chains
# ---------------------------------------------------------------------------

def _majorization_case(d, subdiv, seed, i) -> tuple[float, float, float, list]:
    """Sample i's chain error, E* and E_L, and for the first ``AUDITS`` samples its ``increment_audit`` records."""
    rng = rng_for_seed(seed + i)
    p = rng.dirichlet(np.ones(d))
    start = np.zeros(d)
    start[0] = 1.0
    reproduce_err = float(np.abs(apply_chain(ttransform_chain(p), start) - p).max())
    estar = fidelity_exact(SchmidtSpectrum.from_probs(p), stellar(d)).me
    return reproduce_err, estar, linear_entropy(p), increment_audit(p, n_sub=subdiv) if i < AUDITS else []


def majorization_suite(d: int, samples: int, subdiv: int, seed: int, threads: int = 1,
                       steps: list | None = None) -> VerificationReport:
    """Chains reproduce their targets; accumulated increments obey the bound.

    Full per-substep audits run on the first ``AUDITS`` samples; for the
    rest the accumulated totals telescope to the endpoint values, which
    is what the aggregate inequality constrains.  If ``steps`` is a list,
    the audits' (sample, d_estar, d_el, ratio_ok) rows are appended to it.
    """
    d = check_count("--d", d, 2)
    samples = check_count("--trials", samples, 1, 2**128)
    subdiv = check_count("--subdiv", subdiv)
    seed = check_seed(seed, samples)
    cases = _cases(partial(_majorization_case, d, subdiv, seed), samples, threads)
    reproduce_err, estar, el = np.array([case[:3] for case in cases]).T
    coeff = lower_bound_coefficient(d)
    aggregate_margin = estar - coeff * el
    violation = np.maximum(reproduce_err - 1e-12, -aggregate_margin - 1e-9)
    audits = []  # the fields an audited sample adds to its row
    for i, (*_, records) in enumerate(cases[:AUDITS]):
        if steps is not None:
            steps.extend((i, r.d_estar, r.d_el, int(r.ratio_ok)) for r in records)
        total_estar = sum(r.d_estar for r in records)
        audit_margin = total_estar - coeff * sum(r.d_el for r in records)
        audits.append({
            "telescope_err": abs(total_estar - estar[i]),
            "el_monotone": all(r.d_el >= -1e-12 for r in records),
            "ratio_ok_fraction": sum(r.ratio_ok for r in records) / len(records) if records else 1.0,
        })
        violation[i] = max(violation[i], audits[i]["telescope_err"] - 1e-9, -audit_margin - 1e-9,
                           0.0 if audits[i]["el_monotone"] else 1.0)
    metrics = {
        "max_reproduce_err": float(reproduce_err.max()),
        "min_aggregate_margin": float(aggregate_margin.min()),
        "audited": len(audits),
        "ratio_ok_fraction": float(np.mean([audit["ratio_ok_fraction"] for audit in audits])),
    }
    return _report(f"majorization[d={d}]", seed, violation, lambda i: {
        "reproduce_err": float(reproduce_err[i]), "estar": float(estar[i]), "el": float(el[i]),
        "aggregate_margin": float(aggregate_margin[i]), **(audits[i] if i < len(audits) else {})}, metrics)


# ---------------------------------------------------------------------------
# Optimizer agreement and the unistochastic audit
# ---------------------------------------------------------------------------

def _unistochastic_case(d, trials, seed, i) -> tuple[float, float]:
    """The exact and exhaustive optimizers' fidelity gap, and how far the audit's best unitary beats sqrt(F)."""
    case_seed = seed + 2 * i
    rng = rng_for_seed(case_seed)
    p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(d)))
    spec = LUSpectrum.from_phases(rng.uniform(0.0, 2.0 * np.pi, d))
    exact = fidelity_exact(p, spec)
    brute = fidelity_bruteforce(p, spec)
    agree_err = abs(exact.fidelity - brute.fidelity)
    return agree_err, unistochastic_audit(p, spec, trials, seed=case_seed + 1) - math.sqrt(brute.fidelity)


def unistochastic_suite(d: int, cases: int, trials: int, seed: int, threads: int = 1) -> VerificationReport:
    """Exact vs exhaustive optimizer agreement plus the random-unitary audit."""
    d = check_count("--d", d, 2, 8)
    cases = check_count("--cases", cases, 1, 2**127)
    trials = check_count("--trials", trials)
    seed = check_seed(seed, 2 * cases)
    agree_err, audit_excess = np.array(_cases(partial(_unistochastic_case, d, trials, seed), cases, threads)).T
    metrics = {"max_agree_err": float(agree_err.max()), "max_audit_excess": float(audit_excess.max())}
    return _report(f"unistochastic[d={d}]", seed, np.maximum(agree_err - 1e-12, audit_excess - 1e-9),
                   lambda i: {"agree_err": float(agree_err[i]), "audit_excess": float(audit_excess[i])}, metrics)


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
    if not 0.0 < scale <= 1e34:  # NaN fails too; up to 1e34, every count's keys stay below 2**128
        raise ValueError(f"--scale must be > 0 and <= 1e+34, got {scale!r}")
    n = lambda k: max(1, int(round(k * scale)))
    # Before any case, the most keys a suite takes; the LOCC spectra's seed + 100 + k + attempt stays below seed + 202.
    seed = check_seed(seed, max(n(10000), 4 * n(1000), 2 * n(500), 202))
    # (suffix of the report key, suite call), in report order; built here, from the suites this module binds now.
    plan = [("", partial(bounds_suite, d, n(10000), seed, threads=threads)) for d in range(2, 9)]
    plan += [("", partial(hierarchy_suite, d, r, n(200), seed, threads=threads))
             for d in range(2, 7) for r in range(1, d + 1)]
    plan += [("", witness_suite)]
    plan += [("", partial(unistochastic_suite, d, n(500), n(1000), seed, threads=threads)) for d in range(2, 9)]
    for d in (2, 3, 4):
        specs = [stellar(d)] + [random_nondegenerate_spectrum(d, seed + 100 + k) for k in range(3)]
        plan += [(f",spec{si}", partial(locc_suite, d, d, m, n(1000), seed, spec=spec, threads=threads))
                 for si, spec in enumerate(specs) for m in (2, 3)]
    plan += [("", partial(majorization_suite, d, n(1000), 64, seed, threads=threads)) for d in range(2, 9)]
    reports: dict[str, VerificationReport] = {}
    for suffix, suite in plan:
        rep = suite()
        reports[rep.suite + suffix] = rep
    return reports
