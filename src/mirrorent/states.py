"""Pure bipartite states, Schmidt spectra, and seeded random sampling.

All randomness goes through numpy's Philox generator, a counter-based
bit generator keyed by an explicit integer seed.  Independent streams
for sample ``i`` of a batch are derived with key ``seed + i``, so
batches can be generated in any order (or in parallel) and still
reproduce bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Silently renormalize inputs whose norm deviates by at most this much;
# reject anything worse as genuinely bad input.
NORM_TOL = 1e-6
# Eigenvalues below this count as zero when computing the Schmidt rank.
RANK_TOL = 1e-10
# Noise floor of simplex coordinates: tiny negative entries above it (an
# eigensolver's or a subtraction's rounding) are clamped to zero, anything
# below it is rejected as bad input.
_SIMPLEX_FLOOR = -1e-12


def check_simplex(values, sum_tol: float, what: str = "probabilities") -> tuple[np.ndarray, float]:
    """Validate a nonempty finite vector of nonnegative entries summing to 1.

    Entries down to the noise floor are clamped to zero; the sum must be
    within ``sum_tol`` of 1.  Returns the clamped vector, not renormalized,
    and its sum, so each caller keeps its own normalization.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{what} must be a nonempty vector")
    if np.any(v < _SIMPLEX_FLOOR):
        raise ValueError(f"{what} below the noise floor: min = {v.min()!r}")
    v = np.where(v < 0.0, 0.0, v)
    total = v.sum()
    # A NaN or inf entry makes the sum non-finite.
    if not math.isfinite(total):
        raise ValueError(f"{what} must be finite")
    if abs(total - 1.0) > sum_tol:
        raise ValueError(f"{what} sum to {total!r}, expected 1")
    return v, total


def rng_for_seed(seed: int) -> np.random.Generator:
    """Philox stream for an explicit integer seed."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


@dataclass(frozen=True, eq=False)
class PureBipartiteState:
    """Pure state of a dA x dB system, stored as the amplitude matrix.

    ``amplitudes[a, b]`` is the coefficient of the product basis vector
    ``|a>|b>``.  The matrix is normalized to unit Frobenius norm at
    construction; inputs off by more than ``NORM_TOL`` are rejected.
    """

    dA: int
    dB: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.dA < 1 or self.dB < 1:
            raise ValueError(f"dimensions must be >= 1, got ({self.dA}, {self.dB})")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.dA, self.dB):
            raise ValueError(
                f"amplitude matrix has shape {amp.shape}, expected ({self.dA}, {self.dB})"
            )
        norm = np.linalg.norm(amp)
        # A NaN or inf amplitude makes the norm non-finite.
        if not math.isfinite(norm):
            raise ValueError(f"state norm {float(norm)} is not finite")
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        amp = amp / norm
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def from_vector(cls, vec, dA: int, dB: int) -> "PureBipartiteState":
        """Build a state from a length dA*dB ket, ordered |a>|b> row-major."""
        vec = np.asarray(vec, dtype=complex).reshape(dA, dB)
        return cls(dA, dB, vec)

    def ket(self) -> np.ndarray:
        """Flattened state vector in the |a>|b> product basis."""
        return self.amplitudes.reshape(-1)

    def to_json(self) -> dict:
        amp = self.amplitudes.reshape(-1)
        return {
            "dims": [self.dA, self.dB],
            "re": [float(x) for x in amp.real],
            "im": [float(x) for x in amp.imag],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PureBipartiteState":
        try:
            dA, dB = (int(x) for x in obj["dims"])
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj["im"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed state object: {exc}") from exc
        if re.shape != (dA * dB,) or im.shape != (dA * dB,):
            raise ValueError("state arrays 're'/'im' must have length dA*dB")
        return cls(dA, dB, (re + 1j * im).reshape(dA, dB))


def load_state(path) -> PureBipartiteState:
    with open(path, "r", encoding="utf-8") as fh:
        return PureBipartiteState.from_json(json.load(fh))


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Eigenvalues of the reduced state, sorted non-increasing."""

    d: int
    probs: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (self.d,):
            raise ValueError(f"probs has shape {p.shape}, expected ({self.d},)")
        p, total = check_simplex(p, NORM_TOL)
        p = p / total
        if np.any(np.diff(p) > 0):
            raise ValueError("probs must be sorted in non-increasing order")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_probs(cls, probs) -> "SchmidtSpectrum":
        """Validate and canonicalize a raw probability vector (sorts it)."""
        p = np.sort(np.asarray(probs, dtype=float))[::-1].copy()
        return cls(len(p), p)

    @property
    def rank(self) -> int:
        """Number of probabilities above the rank tolerance."""
        return int(np.count_nonzero(self.probs > RANK_TOL))

    def to_json(self) -> dict:
        return {"d": self.d, "probs": [float(x) for x in self.probs]}


def schmidt_spectrum(state: PureBipartiteState) -> SchmidtSpectrum:
    """Eigenvalues of the reduced density matrix, sorted non-increasing.

    Diagonalizes the Gram matrix of the smaller subsystem (M M-dagger or
    M-dagger M, whichever is smaller); both share the nonzero spectrum.
    """
    M = state.amplitudes
    if state.dA <= state.dB:
        gram = M @ M.conj().T
    else:
        gram = M.conj().T @ M
    # eigh, not eigvalsh: a different LAPACK driver may move the last bits
    # of the eigenvalues, and with them every pinned output.
    evals = np.linalg.eigh(gram)[0]
    order = np.argsort(-evals, kind="stable")
    d = min(state.dA, state.dB)
    return SchmidtSpectrum(d, evals[order])


def random_pure(dA: int, dB: int, seed: int) -> PureBipartiteState:
    """Haar-random pure state: i.i.d. complex Gaussian amplitudes, normalized."""
    if dA < 1 or dB < 1:
        raise ValueError(f"dimensions must be >= 1, got ({dA}, {dB})")
    rng = rng_for_seed(seed)
    z = rng.standard_normal((dA, dB)) + 1j * rng.standard_normal((dA, dB))
    return PureBipartiteState(dA, dB, z / np.linalg.norm(z))


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of n Haar-distributed d x d unitaries (QR of Ginibre matrices).

    The R-diagonal phases are folded back into Q so the distribution is
    exactly Haar rather than QR-convention dependent.
    """
    z = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.einsum("tii->ti", r)
    q *= (diag / np.abs(diag))[:, None, :]
    return q


def haar_unitary(d: int, seed: int) -> np.ndarray:
    """Single Haar-distributed d x d unitary for an explicit seed."""
    return haar_unitaries(d, 1, rng_for_seed(seed))[0]


def linear_entropy(spectrum) -> float:
    """Normalized purity deficit d/(d-1) * (1 - sum p_i^2) in [0, 1].

    Accepts a SchmidtSpectrum or a bare probability vector.  Returns 0
    for d = 1 by convention (no bipartite correlations possible).
    """
    probs = spectrum.probs if isinstance(spectrum, SchmidtSpectrum) else np.asarray(spectrum, dtype=float)
    d = probs.size
    if d <= 1:
        return 0.0
    return float(d / (d - 1) * (1.0 - probs @ probs))
