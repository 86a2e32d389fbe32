"""Pure bipartite states, Schmidt spectra, and seeded random sampling.

All randomness goes through numpy's Philox generator, a counter-based
bit generator keyed by an explicit integer seed.  Independent streams
for sample ``i`` of a batch are derived with key ``seed + i``, so
batches can be generated in any order (or in parallel) and still
reproduce bit for bit.  The ``*_many`` functions work on stacks of
cases and give, row for row, the same bits as their one-case
counterparts; the stacked draws (states and Haar unitaries) re-key one
Philox generator from case to case and share one QR with its phase fold.
``map_blocks`` cuts the stacks and yields their values one block at a time,
``checked`` guards them, and
``PureBipartiteState.stack`` checks a stack of states once, as a whole.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

# Silently renormalize inputs whose norm deviates by at most this much;
# reject anything worse as genuinely bad input.
NORM_TOL = 1e-6
# Amplitudes (or probabilities) per block that ``map_blocks`` cuts, which the
# ``*_many`` functions evaluate as one stack: 512 states at dA = dB = 4, so
# the stacks of one block stay about a MiB at every dimension.
BLOCK_AMPLITUDES = 2**13
# Cases a block holds at least, up to 16 * BLOCK_AMPLITUDES amplitudes (2 MiB of complex128),
# so that ``checked`` redoes at most one case in this many on the one-case path: 32 at d = 64.
MIN_BLOCK_CASES = 32
# Noise floor of simplex coordinates: tiny negative entries above it (an
# eigensolver's or a subtraction's rounding) are clamped to zero, anything
# below it is rejected as bad input.
_SIMPLEX_FLOOR = -1e-12


def check_simplex(values, sum_tol: float, what: str = "probabilities", rows: bool = False,
                  descending: bool = False) -> tuple[np.ndarray, np.ndarray | float]:
    """Validate a nonempty finite vector of nonnegative entries summing to 1.

    With ``rows``, validate each row of a matrix instead.  Entries down
    to the noise floor are clamped to zero; each sum must be within
    ``sum_tol`` of 1; with ``descending`` the entries must also be
    non-increasing.  Returns the clamped values, not renormalized, and
    their sums (a column with ``rows``), so each caller keeps its own
    normalization.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 + rows or v.shape[-1] < 1:
        raise ValueError(f"{what} must be a matrix of nonempty rows" if rows else f"{what} must be a nonempty vector")
    if np.any(v < _SIMPLEX_FLOOR):
        raise ValueError(f"{what} below the noise floor: min = {float(v.min())!r}")
    v = np.where(v < 0.0, 0.0, v)
    with np.errstate(over="ignore"):
        total = v.sum(axis=-1, keepdims=rows)
    ok = abs(total - 1.0) <= sum_tol  # False for a NaN or inf sum
    if not ok.all():
        bad = float(np.ravel(total)[np.argmin(ok)])
        # A NaN or inf entry, or finite ones so large that the sum overflows, make it non-finite.
        if not math.isfinite(bad):
            raise ValueError(f"{what} must be finite and sum to 1, got sum {bad!r}")
        raise ValueError(f"{what} sum to {bad!r}, expected 1")
    if descending and np.any(np.diff(v, axis=-1) > 0):
        raise ValueError(f"{what} must be sorted in non-increasing order")
    return v, total


def check_count(name: str, value, low: int = 1, high: int | None = None) -> int:
    """``value``, a size, count, index or seed, as an int in ``[low, high]``, else a ``ValueError`` naming ``name``:
    ints, numpy integers and integral floats (JSON's ``2.0``) pass; bools, strings, NaN, inf and other floats fail."""
    if type(value) is not int and (isinstance(value, (bool, np.bool_)) or not (  # a plain int skips the type tests
            isinstance(value, (int, np.integer)) or isinstance(value, (float, np.floating)) and value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    n = int(value)
    if n < low or high is not None and n > high:
        raise ValueError(f"{name} must be >= {low}{'' if high is None else f' and <= {high}'}, got {n}")
    return n


def map_blocks(block_fn, n: int, amplitudes: int, threads: int = 1) -> Iterator:
    """Yield ``block_fn``'s value on each block of consecutive cases of ``range(n)``, in order, for cases that hold
    ``amplitudes`` each.  Lazily: nothing runs before the first value is asked for, and in-process a block runs
    only when its value is, so a caller that consumes each value as it comes holds one block at a time.
    A block holds ``BLOCK_AMPLITUDES`` amplitudes, or ``MIN_BLOCK_CASES`` cases if that is more and stays within
    16 * ``BLOCK_AMPLITUDES``, and at most ceil(n / workers) cases, so that no worker gets two blocks when they
    are cut down for the workers.  The workers are ``threads``, at most one per usable CPU; a pool starts only
    for more than one worker and more than one block, and lives until the last value is taken or the caller
    stops, which cancels the blocks not yet started."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    threads = min(threads, cpus)
    size = min(max(BLOCK_AMPLITUDES // amplitudes, MIN_BLOCK_CASES), 16 * BLOCK_AMPLITUDES // amplitudes)
    size = max(1, min(size, -(-n // max(1, threads))))
    blocks = [range(lo, min(lo + size, n)) for lo in range(0, n, size)]
    if threads > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(block_fn, blocks)
    else:
        yield from map(block_fn, blocks)


def checked(stack_fn, one_fn, items):
    """``stack_fn(items)``, one value per item, or ``[one_fn(x) for x in items]`` if its first differs from
    ``one_fn(items[0])`` as an array, bit for bit: a BLAS or LAPACK that rounded a stack unlike one matrix would do
    so on every row.  That one-case value comes first, so that a stack too large to allocate fails on one case."""
    if not len(items):
        return stack_fn(items)
    first = one_fn(items[0])
    values = stack_fn(items)
    return values if np.array_equal(values[0], first) else [first, *map(one_fn, items[1:])]


def rng_for_seed(seed: int) -> np.random.Generator:
    """Philox stream for an explicit integer seed, a Philox key in [0, 2**128 - 1]."""
    return np.random.Generator(np.random.Philox(key=check_count("seed", seed, 0, 2**128 - 1)))


def _check_norms(norms) -> None:
    """Reject a state norm (or any of a stack of them) that is not within ``NORM_TOL`` of 1."""
    ok = abs(norms - 1.0) <= NORM_TOL  # False for a NaN or inf norm
    if not ok.all():
        norm = float(np.ravel(norms)[np.argmin(ok)])
        # A NaN or inf amplitude, or finite ones so large that the norm overflows, make it non-finite.
        if not math.isfinite(norm):
            raise ValueError(f"state norm {norm} is not finite")
        raise ValueError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL}")


def frobenius_norms(z: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a ``(..., dA, dB)`` stack, as ``np.linalg.norm`` computes it, bit for bit for a
    C-contiguous stack.

    ``np.linalg.norm`` sums in memory order and this in row order, so column-major matrices can round otherwise
    (62 to 139 of 400 random ones at each dA, dB in 2..8).  The stacks this package builds are C-contiguous.
    """
    lead, size = z.shape[:-2], z.shape[-2] * z.shape[-1]
    re, im = z.real.reshape(*lead, 1, size), z.imag.reshape(*lead, 1, size)
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)).reshape(lead))


def _normalized(z: np.ndarray) -> np.ndarray:
    """A C-contiguous stack of amplitude matrices, each divided by its norm once ``_check_norms`` has passed them."""
    with np.errstate(over="ignore"):
        norms = frobenius_norms(z)
    _check_norms(norms)
    return z / norms[:, None, None]


@dataclass(frozen=True, eq=False)
class PureBipartiteState:
    """Pure state of a dA x dB system, stored as the amplitude matrix.

    ``amplitudes[a, b]`` is the coefficient of the product basis vector
    ``|a>|b>``.  The matrix is normalized to unit Frobenius norm at
    construction; inputs off by more than ``NORM_TOL`` are rejected.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex, order="C")  # np.linalg.norm sums in memory order
        if amp.ndim != 2 or amp.size < 1:
            raise ValueError(f"amplitudes must be a nonempty matrix, got shape {amp.shape}")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(amp)
        _check_norms(norm)
        amp = amp / norm
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def __array__(self, dtype=None, copy=None):
        """The read-only amplitude matrix itself, unless ``dtype`` or ``copy`` asks for a copy."""
        return np.array(self.amplitudes, dtype=dtype, copy=copy)

    @classmethod
    def stack(cls, amplitudes) -> list["PureBipartiteState"]:
        """One state per matrix of an ``(n, dA, dB)`` stack, row k bit for bit ``cls(amplitudes[k])``, whatever
        its layout: the stack is checked and normalized as a whole, and its states share it, read-only."""
        amp = np.ascontiguousarray(amplitudes, dtype=complex)
        if amp.ndim != 3 or amp.shape[1] < 1 or amp.shape[2] < 1:
            raise ValueError(f"amplitudes must be a stack of nonempty matrices, got shape {amp.shape}")
        amp = _normalized(amp)
        amp.setflags(write=False)
        states = []
        for row in amp:  # each row checked above, so not again by __post_init__
            state = object.__new__(cls)
            object.__setattr__(state, "amplitudes", row)
            states.append(state)
        return states

    @property
    def dA(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dB(self) -> int:
        return self.amplitudes.shape[1]

    @classmethod
    def from_json(cls, obj: dict) -> "PureBipartiteState":
        try:
            dA, dB = obj["dims"]
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj["im"], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed state object: {exc}") from exc
        dA, dB = check_count("state 'dims'", dA), check_count("state 'dims'", dB)
        if re.shape != (dA * dB,) or im.shape != (dA * dB,):
            raise ValueError("state arrays 're'/'im' must have length dA*dB")
        # Before re + 1j * im, where an inf in im makes numpy warn (0 * inf).
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise ValueError("state amplitudes must be finite")
        return cls((re + 1j * im).reshape(dA, dB))


def read_json(path):
    """The JSON value in the file at ``path``; a file that is not valid JSON is a ``ValueError`` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def load_state(path) -> PureBipartiteState:
    return PureBipartiteState.from_json(read_json(path))


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Eigenvalues of the reduced state, sorted non-increasing."""

    probs: np.ndarray

    def __post_init__(self):
        p, total = check_simplex(self.probs, NORM_TOL, descending=True)
        p = p / total
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def d(self) -> int:
        return self.probs.size

    @classmethod
    def from_probs(cls, probs) -> "SchmidtSpectrum":
        """Validate and canonicalize a raw probability vector (sorts it)."""
        return cls(np.sort(np.asarray(probs, dtype=float))[::-1])


def _gram(M: np.ndarray) -> np.ndarray:
    """Gram matrix of the smaller subsystem of an amplitude matrix (or of each of a stack)."""
    MH = M.conj().swapaxes(-1, -2)
    return M @ MH if M.shape[-2] <= M.shape[-1] else MH @ M


def schmidt_spectrum(state: PureBipartiteState) -> SchmidtSpectrum:
    """Eigenvalues of the reduced density matrix, sorted non-increasing.

    Diagonalizes the Gram matrix of the smaller subsystem (M M-dagger or
    M-dagger M, whichever is smaller); both share the nonzero spectrum.
    """
    # eigh, not eigvalsh: a different LAPACK driver may move the last bits
    # of the eigenvalues, and with them every pinned output.
    return SchmidtSpectrum.from_probs(np.linalg.eigh(_gram(state.amplitudes))[0])


def schmidt_probs_many(amplitudes: np.ndarray) -> np.ndarray:
    """Schmidt probabilities of a stack of states, one row per state.

    Row k equals ``schmidt_spectrum(state).probs`` bit for bit for a state
    whose amplitudes are ``amplitudes[k]``, such as ``random_pure(dA, dB,
    seeds[k])`` for the stack ``random_pure_many(dA, dB, seeds)``: stacked
    Gram products and a stacked ``eigh`` give the same bits as one matrix
    at a time.
    """
    return canonical_probs_many(np.linalg.eigh(_gram(amplitudes))[0])


def canonical_probs_many(rows) -> np.ndarray:
    """Each row as ``SchmidtSpectrum.from_probs(row).probs``, bit for bit: sorted, validated, divided by its sum."""
    p, total = check_simplex(np.sort(rows, axis=-1)[:, ::-1], NORM_TOL, rows=True, descending=True)
    return p / total


def random_pure(dA: int, dB: int, seed: int) -> PureBipartiteState:
    """Haar-random pure state: i.i.d. complex Gaussian amplitudes, normalized."""
    dA, dB = check_count("dA", dA), check_count("dB", dB)
    rng = rng_for_seed(seed)
    z = rng.standard_normal((dA, dB)) + 1j * rng.standard_normal((dA, dB))
    return PureBipartiteState(z / np.linalg.norm(z))


def _ginibre(d1: int, d2: int, seeds, columns: int | None = None) -> np.ndarray:
    """A d1 x d2 complex Gaussian matrix per integer seed, as ``random_pure`` and ``haar_unitaries`` draw
    theirs from ``rng_for_seed(seed)``, bit for bit: the real parts, then the imaginary parts.  With
    ``columns``, only each matrix's first ``columns`` columns, though every normal is still drawn, so that the
    stream of each key is the same: each case is drawn into one reused
    buffer, of which only those columns are kept.

    One bit generator is re-keyed from case to case, which gives the same
    stream as a new one per key at a fraction of the cost.
    """
    # One draw per case gives the stream two draws take; a thin one goes through one reused buffer.
    parts = np.empty((len(seeds), 2, d1, d2 if columns is None else columns))
    draw = None if columns is None else np.empty((2, d1, d2))
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    for k, seed in enumerate(seeds):
        seed = check_count("seed", seed, 0, 2**128 - 1)  # as rng_for_seed checks it; an int, not numpy's
        key[0], key[1] = seed % 2**64, seed >> 64
        bitgen.state = state  # counter 0 and an empty buffer, as a fresh Philox(key=seed)
        if draw is None:
            rng.standard_normal(out=parts[k])
        else:
            rng.standard_normal(out=draw)
            parts[k] = draw[:, :, :columns]
    return parts[:, 0] + 1j * parts[:, 1]


def random_pure_many(dA: int, dB: int, seeds, wrap: bool = False):
    """Amplitude matrices of Haar-random pure states, one per integer seed.

    Matrix k equals ``random_pure(dA, dB, seeds[k]).amplitudes`` bit for
    bit: each case draws from its own Philox key, and the stack is
    normalized twice, as ``random_pure`` and then ``PureBipartiteState``
    do.  With ``wrap``, the states themselves, from
    ``PureBipartiteState.stack``.
    """
    dA, dB = check_count("dA", dA), check_count("dB", dB)
    z = _ginibre(dA, dB, seeds)
    z = z / frobenius_norms(z)[:, None, None]
    return PureBipartiteState.stack(z) if wrap else _normalized(z)


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of complex Gaussian matrices: the Q of each QR, with the R-diagonal phases
    folded back into it, so that the distribution is exactly Haar rather than QR-convention dependent.  ``z`` is
    scaled in place: both callers pass a stack they have just drawn."""
    z /= np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.einsum("tii->ti", r)
    q *= (diag / np.abs(diag))[:, None, :]
    return q


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of n Haar-distributed d x d unitaries (QR of Ginibre matrices)."""
    return _haar(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))


def haar_unitaries_many(d: int, seeds, columns: int | None = None) -> np.ndarray:
    """Haar-distributed d x d unitaries, one per integer seed, from one stacked QR: matrix k equals
    ``haar_unitaries(d, 1, rng_for_seed(seeds[k]))[0]`` bit for bit, as numpy's QR factors each matrix alone.

    With ``columns``, the ``(n, d, columns)`` stack of each unitary's first ``columns`` columns, a Haar isometry:
    every normal is drawn, but only those columns are built and QR-factored.  Householder QR is column-local
    (Golub & Van Loan, *Matrix Computations*, 5.2): column j of Q and R depends only on the input's first
    j + 1 columns, so these are the full unitary's columns.  They are its bits too while LAPACK factors both
    shapes with its unblocked code and BLAS applies each reflector on one thread, as OpenBLAS 0.3.31 does up
    to d = 96 (up to d = 128, its blocking crossover, on one BLAS thread).  Past that the full factorization
    rounds otherwise: its threaded reflector updates from d = 97 on two threads, and its blocked code beyond
    the first panel of 32 columns from d = 129 (d = 132 with 33 columns, for one).  Callers that need the
    one-case bits check them, as ``checked`` does.
    """
    d = check_count("d", d)
    return _haar(_ginibre(d, d, seeds, None if columns is None else check_count("columns", columns, 1, d)))


def linear_entropy(spectrum):
    """Normalized purity deficit d/(d-1) * (1 - sum p_i^2) in [0, 1].

    Accepts a SchmidtSpectrum, a bare probability vector (both give a
    float) or a stack of probability rows (an array, one value per row).
    Returns 0 for d = 1 by convention (no bipartite correlations possible).
    """
    probs = spectrum.probs if isinstance(spectrum, SchmidtSpectrum) else np.asarray(spectrum, dtype=float)
    stack = probs.ndim == 2
    d = probs.shape[1] if stack else probs.size
    if d <= 1:
        return np.zeros(len(probs)) if stack else 0.0
    if stack:  # stacked dots: the same bits as one row at a time
        return d / (d - 1) * (1.0 - (probs[:, None, :] @ probs[:, :, None])[:, 0, 0])
    return float(d / (d - 1) * (1.0 - probs @ probs))
