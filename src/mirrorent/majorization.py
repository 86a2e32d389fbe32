"""Majorization chains built from T-transforms.

Every probability vector is majorized by the pure vector (1, 0, ..., 0)
and can be reached from it by at most d-1 pairwise mixing steps
T(t) = (1-t) I + t W, W a transposition.  W itself is T(1), and steps
with t > 1/2 are reduced to t <= 1/2 by prepending it (T(t) = T(1-t) W).
The audit walks such a chain, subdividing each mixing step in the
additive s-parameterization t = (1 - e^{-s})/2, and records the
per-substep increments of the stellar monotone and the linear entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .monotones import fidelity_exact, fidelity_exact_many, lower_bound_coefficient
from .spectra import stellar
from .states import SchmidtSpectrum, canonical_probs_many, check_count, check_simplex, checked, linear_entropy, map_blocks

_SUM_TOL = 1e-9
# s value treated as "all the way to t = 1/2"; e^{-s} at this cap is
# below double precision resolution of 1 - 2t.
_S_CAP = -np.log(1e-16)


@dataclass(frozen=True)
class TTransform:
    """Pairwise mixing (1-t) I + t W on coordinates (i, j).

    t in [0, 1/2] is the normal form of a mixing step; t = 1 is the
    transposition W, which swaps the two entries exactly.
    """

    d: int
    i: int
    j: int
    t: float

    def __post_init__(self):
        for name in ("i", "j"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 0, self.d - 1))
        if self.i == self.j:
            raise ValueError(f"indices ({self.i}, {self.j}) must differ")
        if not (0.0 <= self.t <= 0.5 or self.t == 1.0):
            raise ValueError(f"t = {float(self.t)!r} is neither in the [0, 1/2] normal form nor 1")

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = np.array(x, dtype=float)
        xi, xj = y[self.i], y[self.j]
        y[self.i] = (1.0 - self.t) * xi + self.t * xj
        y[self.j] = self.t * xi + (1.0 - self.t) * xj
        return y


def ttransform_chain(p) -> list[TTransform]:
    """Chain taking (1, 0, ..., 0) to p, in application order.

    At most d-1 mixing steps; each one fills the position holding the
    k-th largest target value and pushes the remaining mass onto the
    next position in the target's descending order.  Steps that would
    need t > 1/2 are emitted as the transposition T(1) followed by the
    reduced T(1-t).
    """
    target = check_simplex(p, _SUM_TOL)[0]
    d = target.size
    order = np.argsort(-target, kind="stable")
    chain: list[TTransform] = []
    x = np.zeros(d)
    x[0] = 1.0
    if order[0] != 0:
        step = TTransform(d, 0, int(order[0]), 1.0)
        chain.append(step)
        x = step.apply(x)
    for k in range(d - 1):
        hi, lo = int(order[k]), int(order[k + 1])
        mass = x[hi]
        rem = mass - target[hi]
        if rem <= 1e-15:
            break
        t = rem / mass
        if t > 0.5:
            swap = TTransform(d, hi, lo, 1.0)
            chain.append(swap)
            x = swap.apply(x)
            t = 1.0 - t
        step = TTransform(d, hi, lo, t)
        chain.append(step)
        x = step.apply(x)
    return chain


def apply_chain(chain, x) -> np.ndarray:
    """Apply chain elements in list order to a copy of x."""
    y = np.array(x, dtype=float)
    for step in chain:
        y = step.apply(y)
    return y


class StepRecord(NamedTuple):
    d_estar: float
    d_el: float
    ratio_ok: bool


def _substep_ts(t: float, n_sub: int) -> np.ndarray:
    """Cumulative t values for n_sub equal s-substeps ending exactly at t."""
    one_minus_2t = 1.0 - 2.0 * t
    if one_minus_2t < 1e-16:
        # t = 1/2 sits at s = infinity; walk to the cap, then land exactly.
        s = _S_CAP * np.arange(1, n_sub + 1) / n_sub
        return np.append((1.0 - np.exp(-s)) / 2.0, t)
    s_total = -np.log(one_minus_2t)
    ts = (1.0 - np.exp(-s_total * np.arange(1, n_sub + 1) / n_sub)) / 2.0
    ts[-1] = t
    return ts


def _substep_vectors(target: np.ndarray, n_sub: int) -> np.ndarray:
    """(1, 0, ..., 0) and then every substep vector of the chain to ``target``, in order.

    Each substep is applied from its step's start vector, as
    ``TTransform(d, i, j, t_cum).apply`` would (same arithmetic, same bits).
    """
    d = target.size
    x = np.zeros(d)
    x[0] = 1.0
    rows = [x[None]]
    for step in ttransform_chain(target):
        if step.t == 1.0:
            x = step.apply(x)  # monotones are permutation invariant
            continue
        t = _substep_ts(step.t, n_sub)
        xi, xj = x[step.i], x[step.j]
        sub = np.repeat(x[None], t.size, axis=0)
        sub[:, step.i] = (1.0 - t) * xi + t * xj
        sub[:, step.j] = t * xi + (1.0 - t) * xj
        rows.append(sub)
        x = sub[-1]
    return np.concatenate(rows)


def increment_audit(p, n_sub: int = 64) -> list[StepRecord]:
    """Per-substep stellar-monotone increments along the chain from (1, 0, ..., 0) to p.

    Each mixing step is split into n_sub equal substeps of the additive
    s-parameter (cumulative positions are always evaluated from the
    step's start vector, so the subdivision introduces no drift).
    ratio_ok reports the per-substep inequality
    d_estar >= coeff(d) * d_el - 1e-9; it is a diagnostic, the hard
    contract is the same inequality for the accumulated totals.

    The substep vectors are evaluated in ``states.map_blocks`` stacks, each
    ``states.checked`` against the one-case ``fidelity_exact(SchmidtSpectrum.from_probs(x),
    stellar(d)).me`` and ``linear_entropy(x)``, which every value equals bit for bit.
    """
    n_sub = check_count("n_sub", n_sub)
    target = check_simplex(p, _SUM_TOL)[0]
    d = target.size
    spec = stellar(d)
    coeff = lower_bound_coefficient(d) if d >= 2 else 1.0

    def stack(rows):
        estar = fidelity_exact_many(canonical_probs_many(rows), spec).me
        return list(zip(estar.tolist(), linear_entropy(rows).tolist()))

    def one(x):
        return fidelity_exact(SchmidtSpectrum.from_probs(x), spec).me, linear_entropy(x)

    X = _substep_vectors(target, n_sub)
    values = [v for block in map_blocks(lambda b: checked(stack, one, X[b.start:b.stop]), len(X), d) for v in block]
    records: list[StepRecord] = []
    for (estar0, el0), (estar1, el1) in zip(values, values[1:]):
        d_estar, d_el = estar1 - estar0, el1 - el0
        records.append(StepRecord(d_estar, d_el, d_estar >= coeff * d_el - 1e-9))
    return records
