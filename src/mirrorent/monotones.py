"""Mirror-entanglement monotones via permutation optimization.

The maximal squared overlap between a pure bipartite state and its image
under a local unitary with fixed spectrum reduces to maximizing
|sum_i lambda_{sigma(i)} p_i| over permutations sigma, where p is the
Schmidt spectrum and lambda the unitary's eigenvalues.  Two optimizer
backends are provided: exhaustive enumeration (the oracle, capped at
d = 9) and an exact polynomial angle-sweep.  The sweep's candidate
orders depend on the spectrum alone, so they are compiled once per
``LUSpectrum`` object and live as long as it does; callers that
evaluate many vectors should reuse one spectrum object, or pass them
as one stack to ``fidelity_exact_many``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectra import TWO_PI, LUSpectrum
from .states import (
    NORM_TOL,
    PureBipartiteState,
    SchmidtSpectrum,
    check_simplex,
    haar_unitaries,
    rng_for_seed,
    schmidt_spectrum,
)

BRUTE_FORCE_CAP = 9

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


def _check_dims(p: SchmidtSpectrum, spec: LUSpectrum) -> int:
    if p.d != spec.d:
        raise ValueError(f"spectrum dimension {spec.d} does not match Schmidt dimension {p.d}")
    return p.d


def _from_overlap(sigma: tuple[int, ...], z: complex) -> PermutationSolution:
    # In Python floats: numpy's abs and ** 2 can differ in the last bits.
    f = min(max(abs(z) ** 2, 0.0), 1.0)
    return PermutationSolution(sigma, f, 1.0 - f, z)


def _solution(sigma, lam: np.ndarray, probs: np.ndarray) -> PermutationSolution:
    idx = np.asarray(sigma, dtype=np.intp)
    return _from_overlap(tuple(idx.tolist()), complex(lam[idx] @ probs))


@lru_cache(maxsize=None)
def _all_permutations(d: int) -> np.ndarray:
    """All permutations of range(d) in lexicographic order, as index rows."""
    return np.array(list(itertools.permutations(range(d))), dtype=np.intp)


def permutation_overlaps(probs, spec: LUSpectrum) -> np.ndarray:
    """|sum_i lambda_{sigma(i)} p_i| for every sigma, in lexicographic order of sigma.

    Exhaustive, so capped at d = ``BRUTE_FORCE_CAP``; ``probs`` is used
    as given, neither sorted nor renormalized.
    """
    d = spec.d
    if d > BRUTE_FORCE_CAP:
        raise ValueError(f"d = {d} exceeds the brute-force cap {BRUTE_FORCE_CAP}; use fidelity_exact")
    return np.abs(spec.eigenvalues[_all_permutations(d)] @ probs)


def fidelity_bruteforce(p: SchmidtSpectrum, spec: LUSpectrum) -> PermutationSolution:
    """Exhaustive optimum over all d! assignments (oracle backend).

    Ties are broken toward the lexicographically smallest sigma.
    """
    d = _check_dims(p, spec)
    vals = permutation_overlaps(p.probs, spec)
    best = int(np.argmax(vals))  # first occurrence == lexicographically smallest
    return _solution(_all_permutations(d)[best], spec.eigenvalues, p.probs)


def _compile_sweep(spec: LUSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum-only part of the angle sweep: ``(orders, lam[orders])``.

    Built on the first call with ``spec`` and stored on that object, so it
    lives exactly as long as the spectrum; the arrays are read-only.
    """
    compiled = getattr(spec, "_sweep", None)
    if compiled is not None:
        return compiled
    d = spec.d
    lam = spec.eigenvalues
    iu, ju = np.triu_indices(d, k=1)
    diffs = lam[iu] - lam[ju]
    diffs = diffs[np.abs(diffs) > 0.0]
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

    keys = np.cos(spec.thetas[None, :] - cands[:, None])
    # Descending projections; stable sort breaks ties by original index.
    orders = np.argsort(-keys, axis=1, kind="stable")
    del keys  # before the gather, to lower the peak at large d
    compiled = (orders, lam[orders])
    for a in compiled:
        a.setflags(write=False)
    object.__setattr__(spec, "_sweep", compiled)
    return compiled


def fidelity_exact(p: SchmidtSpectrum, spec: LUSpectrum) -> PermutationSolution:
    """Exact optimum via the angle sweep, polynomial in d.

    |z| = max over directions phi of Re(e^{-i phi} z); at fixed phi the
    rearrangement inequality pairs the sorted probabilities with the
    sorted projections Re(e^{-i phi} lambda).  The sort order changes
    only at the O(d^2) crossing angles arg(lambda_i - lambda_j) +- pi/2,
    so sampling every crossing plus the midpoints of consecutive arcs
    visits an optimal assignment; each candidate's |z| is then evaluated
    exactly and the best kept.

    The candidate orders depend on the spectrum alone: they are compiled
    on the first call with ``spec`` and kept on that object for as long as
    it lives, so reuse one spectrum object across many vectors.
    """
    _check_dims(p, spec)
    orders, L = _compile_sweep(spec)
    probs = p.probs
    vals = np.abs(L @ probs)
    tied = np.nonzero(vals == vals.max())[0]
    best = _lexicographic(orders, tied)[0] if tied.size > 1 else tied[0]
    return _solution(orders[best], spec.eigenvalues, probs)


def _lexicographic(orders: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows`` sorted by their orders, lexicographically; equal orders keep their index order.

    Among bitwise-equal maxima, the first of this sort wins.
    """
    return rows[np.lexsort(orders[rows].T[::-1])]


def fidelity_exact_many(P, spec: LUSpectrum) -> list[PermutationSolution]:
    """``fidelity_exact`` for every row of a stack of Schmidt probability vectors.

    Each row must be non-increasing and sum to 1, and is used as given
    (not renormalized): a row equal to ``s.probs`` of a ``SchmidtSpectrum``
    ``s`` gives ``fidelity_exact(s, spec)`` bit for bit.  The candidate
    overlaps of a row are one gemv of a stack, which rounds as the
    single-vector gemv does, and the same tie rule picks among equal
    maxima.  The whole stack is evaluated at once, in memory that grows
    as rows times candidate orders: callers bound the stack, as
    ``harness.scatter`` does with its blocks.
    """
    P = check_simplex(P, NORM_TOL, rows=True, descending=True)[0]
    if P.shape[1] != spec.d:
        raise ValueError(f"spectrum dimension {spec.d} does not match Schmidt dimension {P.shape[1]}")
    orders, L = _compile_sweep(spec)
    vals = np.abs(L @ P[:, :, None])[:, :, 0]
    hits = vals == vals.max(axis=1, keepdims=True)
    # One sort for the stack: rank every candidate that is a maximum of some row.
    ranked = _lexicographic(orders, np.flatnonzero(hits.any(axis=0)))
    rank = np.empty(len(orders), dtype=np.intp)
    rank[ranked] = np.arange(len(ranked))
    best = np.where(hits, rank, len(ranked)).argmin(axis=1)
    sigmas = orders[best]
    z = (spec.eigenvalues[sigmas][:, None, :] @ P[:, :, None])[:, 0, 0]
    return [_from_overlap(tuple(sigma), zk) for sigma, zk in zip(sigmas.tolist(), z.tolist())]


def mirror_entanglement(state: PureBipartiteState, spec: LUSpectrum) -> float:
    """1 - F for the given spectrum; zero iff Schmidt rank <= degeneracy."""
    return fidelity_exact(schmidt_spectrum(state), spec).me


def optimal_unitary(state: PureBipartiteState, spec: LUSpectrum) -> np.ndarray:
    """The least-perturbing local unitary on subsystem A.

    Diagonal in the eigenbasis of the reduced state rho_A, with the
    spectrum's eigenvalues assigned by the optimal permutation; hence it
    commutes with rho_A and achieves |<psi|(W x I)|psi>|^2 = F.  When
    dA > dB the kernel eigenvectors of rho_A (eigensolver order) absorb
    the leftover eigenvalues, which leaves F unchanged.  For degenerate
    rho_A the eigenbasis, and so W, is one deterministic valid choice.
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
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return 2.0 * (d - 1) * math.sin(math.pi / d) ** 2 / d


def linear_entropy_bounds(el: float, d: int) -> tuple[float, float]:
    """Sandwich for the stellar monotone at a given linear entropy.

    Returns (coefficient * el, el); the two coincide for d = 2, 3.
    """
    if not -1e-12 <= el <= 1.0 + 1e-12:
        raise ValueError(f"linear entropy {el!r} outside [0, 1]")
    return lower_bound_coefficient(d) * el, el


def unistochastic_audit(p: SchmidtSpectrum, spec: LUSpectrum, trials: int, seed: int) -> float:
    """Largest overlap any of ``trials`` random unitaries reaches.

    For Haar-random U, evaluates |sum_ij lambda_i p_j |u_ij|^2| (the
    trace of the rank-one mirror matrix p_i lambda_j against the
    unistochastic matrix of U) and returns the maximum; no unitary may
    beat the permutation optimum sqrt(F).
    """
    d = _check_dims(p, spec)
    if d > 8:
        raise ValueError(f"audit supports d <= 8, got {d}")
    mirror = np.outer(p.probs, spec.eigenvalues)
    rng = rng_for_seed(seed)
    max_value = 0.0
    remaining = int(trials)
    while remaining > 0:
        n = min(remaining, _AUDIT_CHUNK)
        u = haar_unitaries(d, n, rng)
        b = np.abs(u) ** 2
        vals = np.abs(np.einsum("ij,tji->t", mirror, b))
        max_value = max(max_value, float(vals.max()))
        remaining -= n
    return max_value
