"""Local Kraus channels and ensemble monotonicity trials.

A channel acts on one subsystem with a complete Kraus set; applying it
to a pure state yields a weighted ensemble of pure branches.  Averaged
mirror entanglement must not increase under such local operations, and
``monotonicity_trial`` measures the slack of that inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .monotones import mirror_entanglement
from .spectra import LUSpectrum
from .states import PureBipartiteState, check_count, haar_unitaries, rng_for_seed

COMPLETENESS_TOL = 1e-10
# Branches below this weight are dropped: renormalizing a near-null
# vector just amplifies noise.
BRANCH_DROP = 1e-14


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Complete set of local Kraus operators acting on side 'A' or 'B', kept as one read-only complex stack."""

    side: str
    operators: np.ndarray  # (m, dim, dim), copied from the input

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise ValueError(f"side must be 'A' or 'B', got {self.side!r}")
        shape_error = ValueError("Kraus operators must be square matrices of equal size")
        try:
            ops = np.array(self.operators, dtype=complex)  # a copy: the caller's arrays stay theirs
        except ValueError as exc:  # ragged
            raise shape_error from exc
        if len(ops) < 1:
            raise ValueError("channel needs at least one Kraus operator")
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise shape_error
        if not np.isfinite(ops).all():
            raise ValueError("Kraus operators must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # finite but huge entries: an inf or NaN, rejected below
            err = np.linalg.norm((ops.conj().swapaxes(1, 2) @ ops).sum(axis=0) - np.eye(ops.shape[1]))
        if not err <= COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated by {float(err)!r}")
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    @property
    def m(self) -> int:
        return len(self.operators)


def random_channel(dX: int, m: int, side: str, seed: int) -> KrausChannel:
    """Random channel from a Haar unitary on a dX*m dimensional dilation.

    Slicing the first dX columns of the dilation unitary into m blocks
    gives a Kraus set whose completeness holds by construction.
    """
    dX, m = check_count("dX", dX), check_count("m", m)
    u = haar_unitaries(dX * m, 1, rng_for_seed(seed))[0]
    return KrausChannel(side, u[:, :dX].reshape(m, dX, dX))


def apply_channel(state: PureBipartiteState, ch: KrausChannel) -> list[tuple[float, PureBipartiteState]]:
    """Weighted pure-state ensemble produced by a local channel.

    Branch weights are the squared norms of (A_k x I)|psi> (or
    (I x B_k)|psi> for side 'B'); zero-weight branches are dropped and
    the rest renormalized.
    """
    acted = state.dA if ch.side == "A" else state.dB
    if ch.dim != acted:
        raise ValueError(f"channel dimension {ch.dim} does not match side {ch.side} dimension {acted}")
    M = state.amplitudes
    images = ch.operators @ M if ch.side == "A" else M @ ch.operators.swapaxes(1, 2)
    weights = [float(np.linalg.norm(N) ** 2) for N in images]
    total = sum(weights)
    if not abs(total - 1.0) <= 1e-10:  # False for a NaN total
        raise ValueError(f"branch weights sum to {total!r}, expected 1")
    return [(w, PureBipartiteState(N / np.sqrt(w))) for w, N in zip(weights, images) if w >= BRANCH_DROP]


class MonotonicityTrial(NamedTuple):
    before: float
    after: float
    slack: float


def trial_values(state: PureBipartiteState, branches, spec: LUSpectrum) -> tuple[float, float]:
    """E(psi) and sum_k w_k E(psi_k) over the branches ``apply_channel`` gave the state, in branch order."""
    return mirror_entanglement(state, spec), sum(w * mirror_entanglement(s, spec) for w, s in branches)


def monotonicity_trial(state: PureBipartiteState, ch: KrausChannel, spec: LUSpectrum) -> MonotonicityTrial:
    """Slack of E(psi) >= sum_k w_k E(psi_k) for one channel application."""
    before, after = trial_values(state, apply_channel(state, ch), spec)
    return MonotonicityTrial(before, after, before - after)
