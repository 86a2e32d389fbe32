"""Majorization chains built from T-transforms.

Every probability vector is majorized by the pure vector (1, 0, ..., 0)
and can be reached from it by at most d-1 pairwise mixing steps
T(t) = (1-t) I + t W, W a transposition.  Steps with t > 1/2 are
reduced to t <= 1/2 by prepending the transposition (T(t) W = T(1-t)).
The audit walks such a chain, subdividing each mixing step in the
additive s-parameterization t = (1 - e^{-s})/2, and records the
per-substep increments of the stellar monotone and the linear entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .monotones import fidelity_exact, lower_bound_coefficient
from .spectra import LUSpectrum, stellar
from .states import SchmidtSpectrum, check_simplex, linear_entropy

_SUM_TOL = 1e-9
# s value treated as "all the way to t = 1/2"; e^{-s} at this cap is
# below double precision resolution of 1 - 2t.
_S_CAP = -np.log(1e-16)


@dataclass(frozen=True)
class Transposition:
    """Swap of coordinates i and j (a permutation matrix)."""

    d: int
    i: int
    j: int

    def __post_init__(self):
        _check_pair(self.d, self.i, self.j)

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = np.array(x, dtype=float)
        y[[self.i, self.j]] = y[[self.j, self.i]]
        return y

    def matrix(self) -> np.ndarray:
        m = np.eye(self.d)
        m[[self.i, self.j]] = m[[self.j, self.i]]
        return m


@dataclass(frozen=True)
class TTransform:
    """Pairwise mixing (1-t) I + t W on coordinates (i, j), t in [0, 1/2]."""

    d: int
    i: int
    j: int
    t: float

    def __post_init__(self):
        _check_pair(self.d, self.i, self.j)
        if not 0.0 <= self.t <= 0.5:
            raise ValueError(f"t = {self.t!r} outside [0, 1/2] normal form")

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = np.array(x, dtype=float)
        xi, xj = y[self.i], y[self.j]
        y[self.i] = (1.0 - self.t) * xi + self.t * xj
        y[self.j] = self.t * xi + (1.0 - self.t) * xj
        return y

    def matrix(self) -> np.ndarray:
        w = Transposition(self.d, self.i, self.j).matrix()
        return (1.0 - self.t) * np.eye(self.d) + self.t * w


ChainElement = Union[Transposition, TTransform]


def _check_pair(d: int, i: int, j: int) -> None:
    if not (0 <= i < d and 0 <= j < d) or i == j:
        raise ValueError(f"indices ({i}, {j}) invalid for dimension {d}")


def majorizes(q, p, tol: float = 1e-12) -> bool:
    """True iff sorted partial sums of q dominate those of p, equal at the end."""
    cq = np.cumsum(np.sort(np.asarray(q, dtype=float))[::-1])
    cp = np.cumsum(np.sort(np.asarray(p, dtype=float))[::-1])
    if cq.shape != cp.shape:
        raise ValueError("vectors must have equal length")
    return bool(np.all(cq - cp >= -tol) and abs(cq[-1] - cp[-1]) <= tol)


def ttransform_chain(p) -> list[ChainElement]:
    """Chain taking (1, 0, ..., 0) to p, in application order.

    At most d-1 mixing steps; each one fills the position holding the
    k-th largest target value and pushes the remaining mass onto the
    next position in the target's descending order.  Steps that would
    need t > 1/2 are emitted as a transposition followed by the reduced
    T(1-t).
    """
    target = check_simplex(p, _SUM_TOL)[0]
    d = target.size
    order = np.argsort(-target, kind="stable")
    chain: list[ChainElement] = []
    x = np.zeros(d)
    x[0] = 1.0
    if order[0] != 0:
        step = Transposition(d, 0, int(order[0]))
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
            swap = Transposition(d, hi, lo)
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


def increment_audit(p, spec: LUSpectrum | None = None, n_sub: int = 64) -> list[StepRecord]:
    """Per-substep monotone increments along the chain from (1, 0, ..., 0) to p.

    Each mixing step is split into n_sub equal substeps of the additive
    s-parameter (cumulative positions are always evaluated from the
    step's start vector, so the subdivision introduces no drift).
    ratio_ok reports the per-substep inequality
    d_estar >= coeff(d) * d_el - 1e-9; it is a diagnostic, the hard
    contract is the same inequality for the accumulated totals.
    """
    target = check_simplex(p, _SUM_TOL)[0]
    d = target.size
    if spec is None:
        spec = stellar(d)
    coeff = lower_bound_coefficient(d) if d >= 2 else 1.0

    def values(x):
        sp = SchmidtSpectrum.from_probs(x)
        return fidelity_exact(sp, spec).me, linear_entropy(x)

    records: list[StepRecord] = []
    x = np.zeros(d)
    x[0] = 1.0
    estar, el = values(x)
    for step in ttransform_chain(target):
        if isinstance(step, Transposition):
            x = step.apply(x)  # monotones are permutation invariant
            continue
        x0 = x
        for t_cum in _substep_ts(step.t, n_sub):
            x = TTransform(d, step.i, step.j, t_cum).apply(x0)
            new_estar, new_el = values(x)
            d_estar, d_el = new_estar - estar, new_el - el
            records.append(StepRecord(d_estar, d_el, d_estar >= coeff * d_el - 1e-9))
            estar, el = new_estar, new_el
    return records
