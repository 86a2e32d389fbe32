"""Mirror-entanglement monotones via permutation optimization.

The maximal squared overlap between a pure bipartite state and its image
under a local unitary with fixed spectrum reduces to maximizing
|sum_i lambda_{sigma(i)} p_i| over permutations sigma, where p is the
Schmidt spectrum and lambda the unitary's eigenvalues.  Three optimizer
backends are provided: exhaustive enumeration (the oracle, capped at
d = 9, which walks the d! assignments in lexicographic blocks of at most
7! rows, so it keeps no table longer than 8! rows and gathers one block
at a time), an exact angle sweep that evaluates every candidate order
(``fidelity_exact`` up to d = ``COMPILED_SWEEP_CAP``), and an exact
event sweep that walks the same orders as adjacent transpositions
(``fidelity_exact`` above it).  Every backend takes the first maximum
of its candidates' |z| (``np.argmax``); the first two hold their
candidates in lexicographic order, so among bitwise-equal maxima sigma
is the lexicographically smallest, and the event sweep in sweep order.
The selection is by d alone: the golden digests pin the compiled
sweep's sigma and overlap bits up to d = 32, and the event sweep rounds
its running overlaps differently.  The cap of 32 is the largest that
keeps those pins; cold, the event sweep is the faster from about d = 16.
Both sweeps' spectrum-only parts are compiled once per ``LUSpectrum``
object and live as long as it does; callers that evaluate many vectors
should reuse one spectrum object, or pass them as one stack to
``fidelity_exact_many``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .spectra import TWO_PI, LUSpectrum, phase_groups
from .states import (
    NORM_TOL,
    PureBipartiteState,
    SchmidtSpectrum,
    check_count,
    check_simplex,
    haar_unitaries,
    rng_for_seed,
    schmidt_spectrum,
)

BRUTE_FORCE_CAP = 9

# The exhaustive oracle keeps the lexicographic table of up to this many entries
# (8! rows, 2.5 MiB), and walks it in blocks of 7! rows, so that one block's
# gathered eigenvalues take at most 709 KiB (at d = 9).
_TABLE_CAP = 8
_BLOCK_ROWS = math.factorial(7)

# fidelity_exact uses the compiled sweep up to this d and the event sweep above it.
COMPILED_SWEEP_CAP = 32

# Phases closer than this (radians, circularly) are one phase to both sweeps,
# which cross the others with them together: far above the ~3e-15 rounding
# of a crossing angle, far below any claim tolerance in what it moves |z| by.
_EVENT_SNAP = 1e-13

# Unitaries drawn per chunk in the unistochastic audit, to bound memory.
_AUDIT_CHUNK = 4096


@dataclass(frozen=True)
class PermutationSolution:
    """Optimal eigenvalue assignment and the value it achieves.

    ``sigma[i]`` is the 0-based index of the eigenvalue paired with the
    i-th (non-increasing) Schmidt probability, so the complex overlap is
    ``sum_i lambda[sigma[i]] * p[i]`` and fidelity = |overlap|^2.
    """

    sigma: tuple[int, ...]
    fidelity: float
    me: float
    overlap: complex


class PermutationSolutions(NamedTuple):
    """``PermutationSolution`` for a stack of vectors, as arrays with one row per vector."""

    sigma: np.ndarray  # (n, d) intp
    overlap: np.ndarray  # (n,) complex
    fidelity: np.ndarray  # (n,) float
    me: np.ndarray  # (n,) float


def _check_dims(d: int, spec: LUSpectrum) -> int:
    if d != spec.d:
        raise ValueError(f"spectrum dimension {spec.d} does not match Schmidt dimension {d}")
    return d


def _fidelity(z: complex) -> float:
    # In Python floats: numpy's abs and ** 2 can differ in the last bits.
    return min(max(abs(z) ** 2, 0.0), 1.0)


def _solution(sigma, lam: np.ndarray, probs: np.ndarray) -> PermutationSolution:
    idx = np.asarray(sigma, dtype=np.intp)
    z = complex(lam[idx] @ probs)
    f = _fidelity(z)
    return PermutationSolution(tuple(idx.tolist()), f, 1.0 - f, z)


@lru_cache(maxsize=None)
def _lex_table(t: int) -> np.ndarray:
    """All permutations of range(t) in lexicographic order, as read-only index rows: each first element f in
    turn, before the (t - 1)! table with its entries from f up moved one up."""
    if t == 0:
        return np.zeros((1, 0), dtype=np.intp)
    prev = _lex_table(t - 1)
    table = np.empty((t * len(prev), t), dtype=np.intp)
    for f, rows in enumerate(table.reshape(t, len(prev), t)):
        rows[:, 0] = f
        np.add(prev, prev >= f, out=rows[:, 1:])
    table.setflags(write=False)
    return table


def _permutation_blocks(d: int):
    """The permutations of range(d) in lexicographic order, as blocks of at most ``_BLOCK_ROWS`` index rows.

    Up to d = ``_TABLE_CAP`` the blocks are slices of ``_lex_table(d)``.  Above it each prefix of
    d - ``_TABLE_CAP`` entries, in lexicographic order, is written with the 8! orders of the other entries
    behind it into one reused buffer, so a block holds only until the next one is drawn.
    """
    if d > BRUTE_FORCE_CAP:
        raise ValueError(f"d = {d} exceeds the brute-force cap {BRUTE_FORCE_CAP}; use fidelity_exact")
    t = min(d, _TABLE_CAP)
    table = _lex_table(t)
    if t == d:
        for lo in range(0, len(table), _BLOCK_ROWS):
            yield table[lo:lo + _BLOCK_ROWS]
        return
    buf = np.empty((_BLOCK_ROWS, d), dtype=np.intp)
    for prefix in itertools.permutations(range(d), d - t):
        rest = np.delete(np.arange(d), prefix)
        buf[:, :d - t] = prefix
        for lo in range(0, len(table), _BLOCK_ROWS):
            buf[:, d - t:] = rest[table[lo:lo + _BLOCK_ROWS]]
            yield buf


def permutation_overlaps(probs, spec: LUSpectrum) -> np.ndarray:
    """|sum_i lambda_{sigma(i)} p_i| for every sigma, in lexicographic order of sigma.

    Exhaustive, so capped at d = ``BRUTE_FORCE_CAP``; ``probs`` must be a
    finite vector of length d and is used as given, neither sorted nor
    renormalized.  Each block of ``_permutation_blocks`` is one gemv, and
    every row rounds as in one gemv over all d! rows.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (spec.d,):
        raise ValueError(f"probs must be a vector of length {spec.d}, got shape {probs.shape}")
    finite = np.isfinite(probs)
    if not finite.all():
        raise ValueError(f"probs must be finite, got {float(probs[np.argmin(finite)])}")
    lam = spec.eigenvalues
    return np.concatenate([np.abs(lam[block] @ probs) for block in _permutation_blocks(spec.d)])


def fidelity_bruteforce(p: SchmidtSpectrum, spec: LUSpectrum) -> PermutationSolution:
    """Exhaustive optimum over all d! assignments (oracle backend).

    Ties are broken toward the lexicographically smallest sigma: the blocks
    of ``_permutation_blocks`` come in lexicographic order, each gives its
    first maximum, and only a strictly larger one replaces the best so far.
    One block of gathered eigenvalues is held at a time.
    """
    lam, probs = spec.eigenvalues, p.probs
    best, sigma = -1.0, None
    for block in _permutation_blocks(_check_dims(p.d, spec)):
        vals = np.abs(lam[block] @ probs)
        k = vals.argmax()
        if vals[k] > best:
            best, sigma = vals[k], block[k].copy()  # a row of a reused buffer at d = 9
    return _solution(sigma, lam, probs)


def _once_per_spectrum(attr: str):
    """Run a compile step once per spectrum object, whose ``attr`` keeps its arrays, read-only, as long as it lives."""
    def decorate(build):
        @wraps(build)
        def compiled(spec: LUSpectrum) -> tuple[np.ndarray, ...]:
            if not hasattr(spec, attr):
                arrays = build(spec)
                for a in arrays:
                    a.setflags(write=False)
                object.__setattr__(spec, attr, arrays)
            return getattr(spec, attr)
        return compiled
    return decorate


@_once_per_spectrum("_sweep")
def _compile_sweep(spec: LUSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum-only part of the angle sweep: ``(orders, lam[orders])``, with each distinct candidate
    order once, in lexicographic order; each ``phase_groups`` group at ``_EVENT_SNAP`` sweeps as its first phase."""
    d = spec.d
    group = phase_groups(spec.thetas, _EVENT_SNAP)
    iu, ju = np.triu_indices(d, k=1)
    diffs = spec.eigenvalues[group[iu]] - spec.eigenvalues[group[ju]]
    diffs = diffs[group[iu] != group[ju]]  # a pair in one group makes no crossing
    if diffs.size:
        base = np.angle(diffs)
        cands = np.mod(np.concatenate([base + 0.5 * np.pi, base - 0.5 * np.pi]), TWO_PI)
        # The +-pi/2 crossings of a nonzero difference differ: >= 2 arcs.
        cands = np.unique(cands)
        mids = 0.5 * (cands[:-1] + cands[1:])
        wrap_mid = np.mod(0.5 * (cands[-1] + cands[0] + TWO_PI), TWO_PI)
        cands = np.concatenate([cands, mids, [wrap_mid]])
    else:
        cands = np.zeros(1)  # fully degenerate spectrum: any direction works

    keys = np.cos(spec.thetas[group][None, :] - cands[:, None])
    # Descending projections; ties by group label, then by index, so a group that wraps the seam stays together.
    orders = np.lexsort((np.broadcast_to(group, keys.shape), -keys))
    del keys  # before the gather, to lower the peak at large d
    # Big-endian entries compare bytewise as the integers do (d < 65536), so unique sorts rows lexicographically.
    orders = orders[np.unique(orders.astype(">u2").view(f"V{2 * d}")[:, 0], return_index=True)[1]]
    return orders, spec.eigenvalues[orders]


@_once_per_spectrum("_events")
def _compile_events(spec: LUSpectrum) -> tuple[np.ndarray, ...]:
    """The spectrum-only part of the event sweep: ``(orders, lam[orders], k, coef)``.

    Every pair of eigenvalues with phases theta_a < theta_b swaps places
    in the sorted projections twice per turn: at the crossing angle
    m = (theta_a + theta_b) / 2, where b moves up, and at m + pi, where a
    does.  The events are sorted by angle; where several share an angle,
    each element moving up passes the ones moving down nearest first, so
    equal phases (which keep their index order) are passed one at a time.
    Every element's position at every event then follows from the order
    at angle 0, which the events themselves fix, plus its own moves, each
    by one place.  Each ``phase_groups`` group at ``_EVENT_SNAP`` shares its
    first phase here, so that two events of one element are never misordered
    by the rounding of their angles; the overlaps use the true eigenvalues.

    The events are cut into blocks of d.  ``orders[c]`` is the order before
    block c and ``L[c] = lam[orders[c]]``; event j of block c swaps
    positions ``k[c, j]`` and ``k[c, j] + 1``, which changes the overlap
    by ``coef[c, j] * (p[k + 1] - p[k])``.  Column 0 of every block, and
    the tail of the last, is a no-op with ``coef = 0``.  The arrays take
    O(d^2) memory.  Element ids and positions are built in the narrowest
    integer types that hold them and dropped once used, so building the
    arrays peaks at about 1.5 times what they keep (72 against 48 MiB at
    d = 1024).
    """
    d, lam = spec.d, spec.eigenvalues
    group = phase_groups(spec.thetas, _EVENT_SNAP)
    th = spec.thetas[group]
    # Element ids in the narrowest unsigned type, which numpy's stable sorts radix-sort.
    a, b = (x.astype(np.min_scalar_type(d - 1)) for x in np.triu_indices(d, k=1))
    crossing = th[a] != th[b]
    a, b = a[crossing], b[crossing]
    above = th[a] > th[b]
    hi, lo = np.where(above, a, b), np.where(above, b, a)
    mid = 0.5 * (th[hi] + th[lo])
    up, down = np.concatenate([hi, lo]), np.concatenate([lo, hi])
    angle = np.concatenate([mid, np.mod(mid + np.pi, TWO_PI)])
    # By angle, then by up, then by down descending.  No two events share
    # (up, down), so this order is total and an unstable sort finds it.
    order = np.argsort(angle)
    same = angle[order[1:]] == angle[order[:-1]]
    if same.any():
        angle_rank = np.concatenate([[0], np.cumsum(~same)])
        order = order[np.argsort((angle_rank * d + up[order]) * d + (d - 1 - down[order].astype(np.intp)))]
    # At angle 0 an element is below each one it will pass first, and below
    # the equal phases of smaller index.
    seq = np.empty_like(order)
    seq[order] = np.arange(order.size)
    rank = np.bincount(np.where(seq[:hi.size] < seq[hi.size:], hi, lo), minlength=d)
    del seq  # like each O(d^2) temporary below, dropped once used to lower the peak at large d
    by_group = np.argsort(group, kind="stable")
    rank[by_group] += np.arange(d) - np.searchsorted(group[by_group], group[by_group])
    up, down = up[order], down[order]
    del order
    k = _event_positions(up, down, rank)
    # Blocks of d events, the last padded with no-ops that swap position 0 with itself.
    nb = max(1, -(-up.size // d))
    k, up, down = (np.pad(x, (0, nb * d - up.size)).reshape(nb, d) for x in (k, up, down))
    # The order before each block, from every element's moves in earlier blocks.
    first = np.arange(0, nb * d, d)[:, None]
    moved = np.bincount((first + down).ravel(), minlength=nb * d) - np.bincount((first + up).ravel(), minlength=nb * d)
    at = rank + np.cumsum(moved.reshape(nb, d), axis=0) - moved.reshape(nb, d)
    del moved
    orders = np.empty_like(at)
    orders[np.arange(nb)[:, None], at] = np.arange(d)
    del at
    # Event j of block c is column j + 1 of row c.
    ks = np.zeros((nb, d + 1), dtype=np.intp)
    coef = np.zeros((nb, d + 1), dtype=complex)
    ks[:, 1:] = k
    coef[:, 1:] = lam[down]
    coef[:, 1:] -= lam[up]
    return orders, lam[orders], ks, coef


def _event_positions(up: np.ndarray, down: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The position of ``down[e]`` before event e, where ``up[e]`` sits one place below it.

    Each element's position before each of its events is its rank plus its
    own moves so far.  An element meets every other one twice per turn,
    once moving up and once down, so its moves sum to 0 and one running sum
    over the events sorted by element restarts at 0 for each element.
    """
    d = rank.size
    elem = np.stack([up, down], axis=1).reshape(-1)
    by_elem = np.argsort(elem, kind="stable")
    # Signed and wide enough that no running sum wraps, whatever the crossing order.
    small = np.min_scalar_type(-3 * d)
    step = np.tile(np.array([-1, 1], dtype=small), up.size)[by_elem]
    run = np.cumsum(step, dtype=small)
    run -= step
    run += np.repeat(rank.astype(small), np.bincount(elem, minlength=d))
    pos = np.empty_like(run)
    pos[by_elem] = run
    k = pos[1::2]
    if not (np.array_equal(np.sort(rank), np.arange(d)) and np.array_equal(pos[0::2], k + 1)):
        raise RuntimeError("event sweep: crossing order is inconsistent")
    return k


def _event_sweep(probs: np.ndarray, spec: LUSpectrum) -> list[int]:
    """The event sweep's optimal sigma for one probability vector: O(d^2) work."""
    orders, L, k, coef = _compile_events(spec)
    # Each block starts from its checkpoint's overlap, one exact gemv, so the
    # running sums drift only over one block's d events.
    z = coef * (np.concatenate([probs[1:], [0.0]]) - probs)[k]
    np.cumsum(z, axis=1, out=z)
    z += (L @ probs)[:, None]
    # The first of equal maxima wins, so never one of the last block's tail no-ops.
    block, j = divmod(int(np.argmax(np.abs(z))), z.shape[1])
    sigma = orders[block].tolist()
    for i in k[block, 1:j + 1].tolist():
        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
    return sigma


def fidelity_exact(p: SchmidtSpectrum, spec: LUSpectrum) -> PermutationSolution:
    """Exact optimum via an angle sweep, polynomial in d.

    |z| = max over directions phi of Re(e^{-i phi} z); at fixed phi the
    rearrangement inequality pairs the sorted probabilities with the
    sorted projections Re(e^{-i phi} lambda).  The sort order changes
    only at the O(d^2) crossing angles arg(lambda_i - lambda_j) +- pi/2,
    so visiting the order of every arc between them visits an optimal
    assignment.  The returned sigma's overlap is one fresh dot, so
    ``fidelity`` and ``overlap`` are exact for it.

    Up to d = ``COMPILED_SWEEP_CAP`` each distinct candidate order (at
    each crossing and at each arc's midpoint, at most d(d - 1) of them)
    is stored once and evaluated by one gemv: O(d^3) memory and work per
    vector.

    Above it the event sweep walks the arcs as adjacent transpositions,
    each changing the overlap by (lambda_a - lambda_b)(p_{k+1} - p_k), and
    keeps a checkpoint order every d events whose overlap is one exact
    gemv: O(d^2) memory and work per vector (at d = 192, 1.7 MiB kept
    and a 3 MiB allocation peak while compiling).  The running overlaps
    carry rounding of order d * eps, so among equal optima, such as the
    stellar spectrum's rotations, sigma may differ from the compiled
    sweep's while the fidelity agrees to rounding.  For ties and the
    compiled parts see the module docstring.
    """
    if _check_dims(p.d, spec) > COMPILED_SWEEP_CAP:
        sigma = _event_sweep(p.probs, spec)
    else:
        orders, L = _compile_sweep(spec)
        sigma = orders[np.argmax(np.abs(L @ p.probs))]
    return _solution(sigma, spec.eigenvalues, p.probs)


def fidelity_exact_many(P, spec: LUSpectrum) -> PermutationSolutions:
    """``fidelity_exact`` for every row of a stack of Schmidt probability vectors.

    Each row must be non-increasing and sum to 1, and is used as given
    (not renormalized): a row equal to ``s.probs`` of a ``SchmidtSpectrum``
    ``s`` gives ``fidelity_exact(s, spec)`` bit for bit, in row k of each
    returned array.  Up to d = ``COMPILED_SWEEP_CAP`` the candidate
    overlaps of a row are one gemv of a stack, which rounds as the
    single-vector gemv does and ties as the module docstring says; the
    stack is evaluated at once, in memory that grows as rows times
    candidate orders, so callers bound it with ``states.map_blocks``.
    Above it each row's sigma comes from the event sweep on its own.  For
    either backend a row's overlap is one dot of its sigma, as in ``fidelity_exact``.
    """
    P = check_simplex(P, NORM_TOL, rows=True, descending=True)[0]
    if _check_dims(P.shape[1], spec) > COMPILED_SWEEP_CAP:
        sigmas = np.array([_event_sweep(row, spec) for row in P], dtype=np.intp).reshape(P.shape)
    else:
        orders, L = _compile_sweep(spec)
        sigmas = orders[np.abs(L @ P[:, :, None])[:, :, 0].argmax(axis=1)]
    z = (spec.eigenvalues[sigmas][:, None, :] @ P[:, :, None])[:, 0, 0].tolist()
    f = np.array([_fidelity(zk) for zk in z], dtype=float)
    return PermutationSolutions(sigmas, np.array(z, dtype=complex), f, 1.0 - f)


def mirror_entanglement(state: PureBipartiteState, spec: LUSpectrum) -> float:
    """1 - F for the given spectrum; zero iff Schmidt rank <= degeneracy.

    The spectrum has dimension min(dA, dB), not ``optimal_unitary``'s dA: for ``random_pure(4, 2, 0)``,
    F = 0.5506 with ``stellar(2)``, ``stellar(4)`` raises, and ``optimal_unitary`` reaches 0.7753 with it.
    """
    return fidelity_exact(schmidt_spectrum(state), spec).me


def optimal_unitary(state: PureBipartiteState, spec: LUSpectrum) -> np.ndarray:
    """The least-perturbing local unitary on subsystem A.

    Diagonal in the eigenbasis of the reduced state rho_A, with the
    spectrum's eigenvalues assigned by the optimal permutation; hence it
    commutes with rho_A and achieves |<psi|(W x I)|psi>|^2 = F.  When
    dA > dB the kernel eigenvectors of rho_A (eigensolver order) absorb
    the leftover eigenvalues, which leaves F unchanged.  For degenerate
    rho_A the eigenbasis, and so W, is one deterministic valid choice.

    The spectrum has dimension dA, not ``mirror_entanglement``'s min(dA, dB): for dA > dB, F is the
    zero-padded Schmidt vector's against a dA-point one (0.7753 for ``random_pure(4, 2, 0)``, ``stellar(4)``).
    """
    if spec.d != state.dA:
        raise ValueError(f"spectrum dimension {spec.d} must equal dA = {state.dA}")
    M = state.amplitudes
    rho = M @ M.conj().T
    evals, evecs = np.linalg.eigh(rho)
    order = np.argsort(-evals, kind="stable")
    evals, evecs = evals[order], evecs[:, order]
    padded = SchmidtSpectrum(evals)
    sol = fidelity_exact(padded, spec)
    lam = spec.eigenvalues[np.asarray(sol.sigma, dtype=np.intp)]
    return (evecs * lam) @ evecs.conj().T


def lower_bound_coefficient(d: int) -> float:
    """2*(d-1)*sin^2(pi/d)/d: equals 1 at d = 2, 3 and decays ~ 2 pi^2/d^2."""
    d = check_count("d", d, 2)
    return 2.0 * (d - 1) * math.sin(math.pi / d) ** 2 / d


def linear_entropy_bounds(el, d: int):
    """Sandwich for the stellar monotone at a given linear entropy, or at each of an array of them.

    Returns (coefficient * el, el), floats for a number and arrays for an
    array; the two coincide for d = 2, 3.
    """
    v = np.asarray(el, dtype=float)
    ok = (-1e-12 <= v) & (v <= 1.0 + 1e-12)  # False for NaN
    if not ok.all():
        raise ValueError(f"linear entropy {float(v.ravel()[np.argmin(ok)])!r} outside [0, 1]")
    el = v if v.ndim else float(v)
    return lower_bound_coefficient(d) * el, el


def unistochastic_audit(p: SchmidtSpectrum, spec: LUSpectrum, trials: int, seed: int) -> float:
    """Largest overlap any of ``trials`` random unitaries reaches.

    For Haar-random U, evaluates |sum_ij lambda_i p_j |u_ij|^2| (the
    trace of the rank-one mirror matrix p_i lambda_j against the
    unistochastic matrix of U) and returns the maximum; no unitary may
    beat the permutation optimum sqrt(F).
    """
    d = check_count("d", _check_dims(p.d, spec), 1, 8)
    remaining = check_count("trials", trials)
    mirror = np.outer(p.probs, spec.eigenvalues)
    rng = rng_for_seed(seed)
    max_value = 0.0
    while remaining > 0:
        n = min(remaining, _AUDIT_CHUNK)
        u = haar_unitaries(d, n, rng)
        b = np.abs(u) ** 2
        vals = np.abs(np.einsum("ij,tji->t", mirror, b))
        max_value = max(max_value, float(vals.max()))
        remaining -= n
    return max_value
