"""Mirror-entanglement monotones via permutation optimization.

The maximal squared overlap between a pure bipartite state and its image
under a local unitary with fixed spectrum reduces to maximizing
|sum_i lambda_{sigma(i)} p_i| over permutations sigma, where p is the
Schmidt spectrum and lambda the unitary's eigenvalues.  Two optimizer
backends are provided: exhaustive enumeration (the oracle, capped at
d = 9) and an exact polynomial angle-sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectra import TWO_PI, LUSpectrum, stellar
from .states import PureBipartiteState, SchmidtSpectrum, haar_unitaries, rng_for_seed, schmidt_spectrum

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


def _solution(sigma, lam: np.ndarray, probs: np.ndarray) -> PermutationSolution:
    idx = np.asarray(sigma, dtype=np.intp)
    z = complex(lam[idx] @ probs)
    f = min(max(abs(z) ** 2, 0.0), 1.0)
    return PermutationSolution(tuple(int(s) for s in idx), f, 1.0 - f, z)


@lru_cache(maxsize=None)
def _all_permutations(d: int) -> np.ndarray:
    """All permutations of range(d) in lexicographic order, as index rows."""
    return np.array(list(itertools.permutations(range(d))), dtype=np.intp)


def fidelity_bruteforce(p: SchmidtSpectrum, spec: LUSpectrum, cap: int = BRUTE_FORCE_CAP) -> PermutationSolution:
    """Exhaustive optimum over all d! assignments (oracle backend).

    Ties are broken toward the lexicographically smallest sigma.
    """
    d = _check_dims(p, spec)
    if d > cap:
        raise ValueError(f"d = {d} exceeds the brute-force cap {cap}; use fidelity_exact")
    perms = _all_permutations(d)
    vals = np.abs(spec.eigenvalues[perms] @ p.probs)
    best = int(np.argmax(vals))  # first occurrence == lexicographically smallest
    return _solution(perms[best], spec.eigenvalues, p.probs)


def fidelity_exact(p: SchmidtSpectrum, spec: LUSpectrum) -> PermutationSolution:
    """Exact optimum via the angle sweep, polynomial in d.

    |z| = max over directions phi of Re(e^{-i phi} z); at fixed phi the
    rearrangement inequality pairs the sorted probabilities with the
    sorted projections Re(e^{-i phi} lambda).  The sort order changes
    only at the O(d^2) crossing angles arg(lambda_i - lambda_j) +- pi/2,
    so sampling every crossing plus the midpoints of consecutive arcs
    visits an optimal assignment; each candidate's |z| is then evaluated
    exactly and the best kept.
    """
    d = _check_dims(p, spec)
    lam = spec.eigenvalues
    probs = p.probs
    if d == 1:
        return _solution((0,), lam, probs)

    iu, ju = np.triu_indices(d, k=1)
    diffs = lam[iu] - lam[ju]
    diffs = diffs[np.abs(diffs) > 0.0]
    if diffs.size:
        base = np.angle(diffs)
        cands = np.mod(np.concatenate([base + 0.5 * np.pi, base - 0.5 * np.pi]), TWO_PI)
        cands = np.unique(cands)
        if cands.size > 1:
            mids = 0.5 * (cands[:-1] + cands[1:])
            wrap_mid = np.mod(0.5 * (cands[-1] + cands[0] + TWO_PI), TWO_PI)
            cands = np.concatenate([cands, mids, [wrap_mid]])
    else:
        cands = np.zeros(1)  # fully degenerate spectrum: any direction works

    keys = np.cos(spec.thetas[None, :] - cands[:, None])
    # Descending projections; stable sort breaks ties by original index.
    orders = np.argsort(-keys, axis=1, kind="stable")
    vals = np.abs(lam[orders] @ probs)
    top = vals.max()
    tied = np.nonzero(vals == top)[0]
    if tied.size > 1:
        # Lexicographically smallest sigma among the bitwise-equal maxima.
        best = tied[np.lexsort(orders[tied].T[::-1])[0]]
    else:
        best = tied[0]
    return _solution(orders[best], lam, probs)


def mirror_entanglement(state: PureBipartiteState, spec: LUSpectrum) -> float:
    """1 - F for the given spectrum; zero iff Schmidt rank <= degeneracy."""
    d = min(state.dA, state.dB)
    if spec.d != d:
        raise ValueError(f"spectrum dimension {spec.d} does not match min(dA, dB) = {d}")
    return fidelity_exact(schmidt_spectrum(state), spec).me


def stellar_entanglement(state: PureBipartiteState) -> float:
    """Mirror entanglement for the equispaced traceless spectrum.

    Evaluated through the cosine quadratic form
    1 - sum_ij cos(2*pi*(sigma_i - sigma_j)/d) p_i p_j at the optimal
    assignment, cross-validating the |z|^2 route used elsewhere.
    """
    p = schmidt_spectrum(state)
    d = p.d
    if d == 1:
        return 0.0
    sol = fidelity_exact(p, stellar(d))
    s = np.asarray(sol.sigma)
    cosm = np.cos(TWO_PI * (s[:, None] - s[None, :]) / d)
    return float(1.0 - p.probs @ cosm @ p.probs)


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
    padded = SchmidtSpectrum(state.dA, evals)
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


@dataclass(frozen=True)
class UnistochasticReport:
    """Outcome of the random-unitary audit against the permutation optimum."""

    trials: int
    max_value: float
    permutation_value: float
    ok: bool
    seed: int


def unistochastic_audit(p: SchmidtSpectrum, spec: LUSpectrum, trials: int, seed: int) -> UnistochasticReport:
    """Check that no random unitary beats the permutation optimum.

    For Haar-random U, evaluates |sum_ij lambda_i p_j |u_ij|^2| (the
    trace of the rank-one mirror matrix p_i lambda_j against the
    unistochastic matrix of U) and verifies the maximum never exceeds
    sqrt(F) + 1e-9.
    """
    d = _check_dims(p, spec)
    if d > 8:
        raise ValueError(f"audit supports d <= 8, got {d}")
    ref = math.sqrt(fidelity_bruteforce(p, spec).fidelity)
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
    return UnistochasticReport(int(trials), max_value, ref, max_value <= ref + 1e-9, int(seed))
