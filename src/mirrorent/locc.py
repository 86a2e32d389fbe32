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
from .states import PureBipartiteState, check_count, frobenius_norms, haar_unitaries, haar_unitaries_many, rng_for_seed

COMPLETENESS_TOL = 1e-10
# Branches below this weight are dropped: renormalizing a near-null
# vector just amplifies noise.
BRANCH_DROP = 1e-14


def _kraus_stack(side: str, operators, ndim: int) -> np.ndarray:
    """``operators`` as one read-only complex copy, once it is checked: one Kraus set (``ndim`` 3) or a stack of
    them (``ndim`` 4), each complete, finite, and made of square matrices of equal size."""
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    shape_error = ValueError("Kraus operators must be square matrices of equal size")
    try:
        ops = np.array(operators, dtype=complex)  # a copy: the caller's arrays stay theirs
    except ValueError as exc:  # ragged
        raise shape_error from exc
    if ops.ndim >= ndim - 2 and ops.shape[ndim - 3] < 1:
        raise ValueError("channel needs at least one Kraus operator")
    if ops.ndim != ndim or ops.shape[-2] != ops.shape[-1]:
        raise shape_error
    if not np.isfinite(ops).all():
        raise ValueError("Kraus operators must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # finite but huge entries: an inf or NaN, rejected below
        errs = frobenius_norms((ops.conj().swapaxes(-1, -2) @ ops).sum(axis=-3) - np.eye(ops.shape[-1]))
    ok = errs <= COMPLETENESS_TOL  # False for a NaN error
    if not ok.all():
        raise ValueError(f"Kraus completeness violated by {float(np.ravel(errs)[np.argmin(ok)])!r}")
    ops.setflags(write=False)
    return ops


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Complete set of local Kraus operators acting on side 'A' or 'B', kept as one read-only complex stack."""

    side: str
    operators: np.ndarray  # (m, dim, dim), copied from the input

    def __post_init__(self):
        object.__setattr__(self, "operators", _kraus_stack(self.side, self.operators, 3))

    @classmethod
    def stack(cls, side: str, operators) -> list["KrausChannel"]:
        """One channel per Kraus set of an ``(n, m, dim, dim)`` stack, each as ``cls(side, operators[k])``: the
        stack is checked and copied as a whole, and its channels share the copy, read-only."""
        channels = []
        for ops in _kraus_stack(side, operators, 4):  # each set checked above, so not again by __post_init__
            channel = object.__new__(cls)
            object.__setattr__(channel, "side", side)
            object.__setattr__(channel, "operators", ops)
            channels.append(channel)
        return channels

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


def random_channels(dX: int, m: int, seeds) -> np.ndarray:
    """Kraus operators of random channels, one ``(m, dX, dX)`` stack per integer seed, from one stacked dilation draw.

    Stack k is cut from ``haar_unitaries_many``'s isometry k, the first dX
    columns of the dilation unitary, which alone are drawn and factored.  It
    equals ``random_channel(dX, m, side, seeds[k]).operators`` bit for bit,
    on either side, wherever those columns are the full unitary's bits, as
    at every dX * m up to 96 (see ``haar_unitaries_many``).  Where they are
    not, the LOCC suite's ``states.checked`` sees it on a side's first
    channel and redraws that side's channels of the block one at a time.
    """
    dX, m = check_count("dX", dX), check_count("m", m)
    u = haar_unitaries_many(dX * m, seeds, dX)
    return u.reshape(len(u), m, dX, dX)


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
    # Python's pow squares each norm as np.float64's ** does, which rounds unlike an array's ** 2 (a product).
    weights = [norm ** 2 for norm in frobenius_norms(images).tolist()]
    total = sum(weights)
    if not abs(total - 1.0) <= 1e-10:  # False for a NaN total
        raise ValueError(f"branch weights sum to {total!r}, expected 1")
    w = np.array(weights)
    kept = w >= BRANCH_DROP
    w = w[kept]
    return list(zip(w.tolist(), PureBipartiteState.stack(images[kept] / np.sqrt(w)[:, None, None])))


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
