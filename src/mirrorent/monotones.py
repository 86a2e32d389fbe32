"""Mirror-entanglement monotones via permutation optimization.

The maximal squared overlap between a pure bipartite state and its image under a local unitary with fixed spectrum
reduces to maximizing |sum_i lambda_{sigma(i)} p_i| over permutations sigma, where p is the Schmidt spectrum and lambda
the unitary's eigenvalues.  Three optimizer backends are provided: exhaustive enumeration (the oracle, capped at d = 9,
whose one walk, ``permutation_overlaps``, fills the |z| of all d! assignments in lexicographic order), an exact angle
sweep that evaluates every candidate order (``fidelity_exact`` up to d = ``COMPILED_SWEEP_CAP``), and an exact event
sweep that walks the same orders as adjacent transpositions (``fidelity_exact`` above it).  Every backend takes the
first maximum of its candidates' |z| (``argmax``); the first two hold their candidates in lexicographic order, so among
bitwise-equal maxima sigma is the lexicographically smallest, and the event sweep in sweep order.  The selection is by
d alone: the golden digests pin the compiled sweep's sigma and overlap bits up to d = 32, and the event sweep rounds
its running overlaps differently.  The cap of 32 is the largest that keeps those pins; cold, the event sweep is the
faster from about d = 16.  Both sweeps' spectrum-only parts are compiled once per ``LUSpectrum`` object and live as long
as it does, with one exception: the first call of one vector on an object above the cap compiles nothing.  It bounds
the directions that can hold the optimum, then builds and scans only the blocks of events there, with the bits of the
compiled sweep; a second call on the object, or a stack, compiles.
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

# The oracle's blocks order the last min(d, 7) entries: 7! rows, 709 KiB of eigenvalues at d = 9.
_BLOCK_ENTRIES = 7
# It fills and evaluates a block this many rows at a time: the buffers, at most 101 KiB (d = 9), stay under glibc's
# 128 KiB mmap threshold and are reused from the heap, where a whole block (645 KiB at d = 8) and its gather were
# mapped anew on every call, about 340 page faults a warm call at d = 8.
_CHUNK_ROWS = 720

# fidelity_exact uses the compiled sweep up to this d and the event sweep above it.
COMPILED_SWEEP_CAP = 32

# Phases closer than this (radians, circularly) are one phase to both sweeps,
# which cross the others with them together: far above the ~3e-15 rounding
# of a crossing angle, far below any claim tolerance in what it moves |z| by.
_EVENT_SNAP = 1e-13

# The event sweep scans its running overlaps in chunks of whole blocks of at most this many bytes: one chunk up to
# d = 128, and above it a buffer that stays in cache where the whole scan, 16 MiB at d = 1024, would not.
_SCAN_BYTES = 256 * 2**10

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
    """All permutations of range(t) in lexicographic order, as read-only index rows."""
    n = math.factorial(t)
    table = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(t))), np.intp, t * n).reshape(n, t)
    table.setflags(write=False)
    return table


def permutation_overlaps(probs, spec: LUSpectrum) -> np.ndarray:
    """|sum_i lambda_{sigma(i)} p_i| for every sigma, in lexicographic order of sigma.

    Exhaustive, so capped at d = ``BRUTE_FORCE_CAP``; ``probs`` must be a finite vector of length d and is used as
    given, neither sorted nor renormalized.  With t = min(d, ``_BLOCK_ENTRIES``), each prefix of d - t entries, in
    lexicographic order, fills a block with its eigenvalues followed by those of the t! orders of the other entries,
    ``_CHUNK_ROWS`` rows at a time, each one gemv: every row rounds as in one gemv over all d! rows.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (spec.d,):
        raise ValueError(f"probs must be a vector of length {spec.d}, got shape {probs.shape}")
    finite = np.isfinite(probs)
    if not finite.all():
        raise ValueError(f"probs must be finite, got {float(probs[np.argmin(finite)])}")
    d, lam = spec.d, spec.eigenvalues
    if d > BRUTE_FORCE_CAP:
        raise ValueError(f"d = {d} exceeds the brute-force cap {BRUTE_FORCE_CAP}; use fidelity_exact")
    t = min(d, _BLOCK_ENTRIES)
    table = _lex_table(t)
    rows = min(len(table), _CHUNK_ROWS)
    chunk, out = np.empty((rows, d), dtype=complex), np.empty(math.factorial(d))
    for row, prefix in zip(out.reshape(-1, len(table)), itertools.permutations(range(d), d - t)):
        chunk[:, :d - t] = lam[list(prefix)]
        rest = lam[np.delete(np.arange(d), prefix)]
        for lo in range(0, len(table), rows):
            chunk[:, d - t:] = rest[table[lo:lo + rows]]
            np.abs(chunk @ probs, out=row[lo:lo + rows])
    return out


def fidelity_bruteforce(p: SchmidtSpectrum, spec: LUSpectrum) -> PermutationSolution:
    """Exhaustive optimum over all d! assignments (oracle backend): the first maximum of ``permutation_overlaps``,
    so among bitwise-equal maxima sigma is the lexicographically smallest.  Its index k is read back as sigma: prefix
    k // t! of d - t entries, then order k % t! of the others."""
    d = _check_dims(p.d, spec)
    k = int(permutation_overlaps(p.probs, spec).argmax())
    n, t = _lex_table(min(d, _BLOCK_ENTRIES)).shape
    prefix = next(itertools.islice(itertools.permutations(range(d), d - t), k // n, None))
    return _solution(prefix + tuple(np.delete(np.arange(d), prefix)[_lex_table(t)[k % n]]), spec.eigenvalues, p.probs)


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
    order once, in lexicographic order; each ``phase_groups`` group at ``_EVENT_SNAP`` sweeps as its first phase.
    The candidate angles are the crossings, deduplicated by sorting, and the midpoints of the arcs between them;
    numpy.ma is never loaded."""
    d = spec.d
    group = phase_groups(spec.thetas, _EVENT_SNAP)
    iu, ju = np.triu_indices(d, k=1)
    diffs = spec.eigenvalues[group[iu]] - spec.eigenvalues[group[ju]]
    diffs = diffs[group[iu] != group[ju]]  # a pair in one group makes no crossing
    if diffs.size:
        base = np.angle(diffs)
        cands = np.mod(np.concatenate([base + 0.5 * np.pi, base - 0.5 * np.pi]), TWO_PI)
        # The +-pi/2 crossings of a nonzero difference differ: >= 2 arcs.  The distinct values, sorted, as
        # np.unique gives them (finite, and np.mod makes no -0.0), but without its np.ma check, which imports numpy.ma.
        cands = np.sort(cands)
        cands = cands[np.concatenate(([True], cands[1:] != cands[:-1]))]
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


def _event_list(spec: LUSpectrum) -> tuple[np.ndarray, ...]:
    """Every event of the event sweep, unsorted: ``(angle, up, down, rank)``.

    Every pair of eigenvalues with phases theta_a < theta_b swaps places in the sorted projections twice per turn:
    at the crossing angle m = (theta_a + theta_b) / 2, where b moves up, and at m + pi, where a does.  ``rank`` is
    every element's position at angle 0: below each one it will pass first, and below the equal phases of smaller
    index.  Each ``phase_groups`` group at ``_EVENT_SNAP`` shares its first phase here, so that two events of one
    element are never misordered by the rounding of their angles.  Ids are in the narrowest unsigned type.
    """
    d = spec.d
    group = phase_groups(spec.thetas, _EVENT_SNAP)
    th = spec.thetas[group]
    # The pairs a < b of distinct phases, read off masks of the d x d grid, so that nothing is gathered by narrow ids.
    pair = ~np.tri(d, dtype=bool)
    pair &= th[:, None] != th
    ids, above = np.broadcast_to(np.arange(d, dtype=np.min_scalar_type(d - 1)), pair.shape), th[:, None] > th
    hi, lo = np.where(above, ids.T, ids)[pair], np.where(above, ids, ids.T)[pair]
    del ids, above
    # The angles m, then m + pi less 2 pi where it reaches 2 pi: an exact subtraction, with np.mod's bits.
    mid = np.add.outer(th, th)[pair] * 0.5
    del pair
    pairs, angle = mid.size, np.concatenate([mid, mid + np.pi])
    del mid
    np.subtract(angle[pairs:], TWO_PI, out=angle[pairs:], where=angle[pairs:] >= TWO_PI)
    up, down = np.concatenate([hi, lo]), np.concatenate([lo, hi])
    del hi, lo
    # A pair's event at m comes first unless the one at m + pi wraps past 2 pi: two angles that never coincide.
    rank = np.bincount(np.where(angle[:pairs] < angle[pairs:], up[:pairs], down[:pairs]), minlength=d)
    by_group = np.argsort(group, kind="stable")
    rank[by_group] += np.arange(d) - np.searchsorted(group[by_group], group[by_group])
    return angle, up, down, rank


def _sweep_order(angle: np.ndarray, up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """The events in sweep order: by angle, then by up, then by down descending, so that at a shared angle equal
    phases (which keep their index order) are passed one at a time.  No two events share (up, down), so the order is
    total, and without equal angles one unstable sort finds it."""
    order = np.argsort(angle)
    ties = angle[order]
    return np.lexsort((~down, up, angle)) if (ties[1:] == ties[:-1]).any() else order


@_once_per_spectrum("_events")
def _compile_events(spec: LUSpectrum) -> tuple[np.ndarray, ...]:
    """The spectrum-only part of the event sweep: ``_event_blocks`` of every event of ``_event_list``, in sweep order.
    Building them peaks below what the first sweep then holds beside them (34 against 36 MiB at d = 1024)."""
    angle, up, down, rank = _event_list(spec)
    order = _sweep_order(angle, up, down)
    del angle
    up, down = up[order], down[order]
    del order
    return _event_blocks(spec.eigenvalues, up, down, rank)


def _event_blocks(lam: np.ndarray, up: np.ndarray, down: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(orders, ks, coef)`` of consecutive events in sweep order cut into blocks of d, from ``start``, every
    element's position before the first.  ``orders[c]`` is the order before block c; event j of block c swaps
    positions ``ks[c, j]`` and ``ks[c, j] + 1``, which changes the overlap by ``coef[c, j] * (p[k + 1] - p[k])``.
    Column 0 of every block, and the tail of the last, is a no-op with ``coef = 0``.  ``orders`` and ``ks`` keep
    ``up``'s narrow type: 18 bytes per event slot up to d = 256 and 20 above, 20 MiB in all at d = 1024."""
    d = start.size
    k = _event_positions(up, down, start)
    # Blocks of d events, the last padded with no-ops that swap position 0 with itself.
    nb = max(1, -(-up.size // d))
    k, up, down = (np.concatenate([x, np.zeros(nb * d - x.size, x.dtype)]).reshape(nb, d) for x in (k, up, down))
    # The order before each block, from every element's moves in earlier blocks.
    first = np.arange(0, nb * d, d)[:, None]
    moved = np.bincount((first + down).ravel(), minlength=nb * d)
    moved -= np.bincount((first + up).ravel(), minlength=nb * d)
    at = np.cumsum(moved.reshape(nb, d), axis=0)
    at -= moved.reshape(nb, d)
    at += start
    del moved
    orders = np.empty((nb, d), dtype=up.dtype)
    orders[np.arange(nb)[:, None], at] = np.arange(d, dtype=up.dtype)
    del at
    # Event j of block c is column j + 1 of row c; column 0 indexes element 0, so coef is lam[0] - lam[0] = 0 there.
    # Indexing, unlike take, casts the narrow ids to intp in buffers, and the real and imaginary parts subtract
    # apart as a complex subtraction does: the build holds coef and one real temporary.
    ks = np.zeros((nb, d + 1), dtype=up.dtype)
    ks[:, 1:] = down
    del down
    coef = lam[ks]
    ks[:, 1:] = up
    del up
    coef.real -= lam.real[ks]
    coef.imag -= lam.imag[ks]
    ks[:, 1:] = k
    return orders, ks, coef


def _event_positions(up: np.ndarray, down: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The position of ``down[e]`` before event e, where ``up[e]`` sits one place below it, in ``up``'s dtype, from
    ``rank``, every element's position before the first event: its rank plus its own moves so far, one running sum
    over the events sorted by element less the net moves of the elements before it (none over a full turn, in which
    an element meets every other one twice, once moving up and once down)."""
    d = rank.size
    elem = np.stack([up, down], axis=1).reshape(-1)
    # The sort's intp indices, narrowed at once: the largest array of the compile.
    by_elem = np.argsort(elem, kind="stable").astype(np.min_scalar_type(elem.size))
    counts = np.bincount(elem, minlength=d)
    net = 2 * np.bincount(down, minlength=d) - counts
    # Signed and wide enough that no running sum wraps, whatever the crossing order.
    small = np.min_scalar_type(-3 * d - (elem.size if net.any() else 0))
    del elem
    step = np.tile(np.array([-1, 1], dtype=small), up.size)[by_elem]
    run = np.cumsum(step, dtype=small)
    run -= step
    del step
    run += np.repeat((rank - np.cumsum(net) + net).astype(small), counts)
    pos = np.empty_like(run)
    pos[by_elem] = run
    del by_elem, run
    k = pos[1::2]
    if not (np.array_equal(np.sort(rank), np.arange(d)) and np.array_equal(pos[0::2], k + 1)):
        raise RuntimeError("event sweep: crossing order is inconsistent")
    return k.astype(up.dtype)


def _event_sweep(P: np.ndarray, spec: LUSpectrum, blocks=None) -> list[list[int]]:
    """The event sweep's optimal sigma for each row of a stack of probability vectors, O(d^2) work per row, over
    ``blocks``, two or more blocks of ``_event_blocks`` in sweep order, by default all of ``_compile_events``.

    The checkpoint eigenvalues ``lam[orders]`` are gathered once per call and not kept.  Each row's checkpoint overlaps
    are one gemv over every block, which rounds each row as any gemv of two or more of them does; each block then runs
    from its checkpoint, so the running sums drift only over one block's d events.  The events are scanned in chunks
    of whole blocks of at most ``_SCAN_BYTES`` of overlaps, and only a strictly larger |z| replaces the best so far, so
    the first of equal maxima wins, as in one argmax over all of them: never one of the last block's tail no-ops.
    Each step multiplies the probability difference, made complex, by ``coef``: the same bits as ``coef`` times the
    real difference, to the sign of a zero, without a mixed-type product."""
    orders, ks, coef = _compile_events(spec) if blocks is None else blocks
    nb, width = coef.shape
    rows = min(nb, max(1, _SCAN_BYTES // coef[0].nbytes))
    chunks = range(0, nb, rows)
    # take casts its narrow ids to intp one chunk at a time, and in clip mode (every id is in range) writes straight
    # into out, which raise mode would buffer.
    L = np.empty(orders.shape, dtype=complex)
    for c in chunks:
        spec.eigenvalues.take(orders[c:c + rows], out=L[c:c + rows], mode="clip")
    starts = [L @ probs for probs in P]
    del L  # before the scan's buffers, which can then take its memory
    # One chunk's overlaps and their moduli, reused for every chunk of every row.
    z, a = np.empty((rows, width), dtype=complex), np.empty((rows, width))
    flat = a.ravel()
    sigmas = []
    for probs, start in zip(P, starts):
        dp = (np.concatenate([probs[1:], [0.0]]) - probs).astype(complex)
        best = -1.0
        for c in chunks:
            zc = dp.take(ks[c:c + rows], out=z[:nb - c], mode="clip")
            zc *= coef[c:c + rows]
            np.cumsum(zc, axis=1, out=zc)
            zc += start[c:c + rows, None]
            i = int(np.abs(zc, out=a[:nb - c]).argmax())
            if flat[i] > best:
                best, at = flat[i], c * width + i
        block, j = divmod(at, width)
        sigma = orders[block].tolist()
        for i in ks[block, 1:j + 1].tolist():
            sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
        sigmas.append(sigma)
    return sigmas


def _window_keeps(w, za, zb, ha, hb, best: float, d: int) -> np.ndarray:
    """Whether each window of directions [a, b] of width w < pi may hold a vertex whose |z| the sweep rounds to
    ``best`` or more, from the vertices za, zb at a and b and their support values ha, hb.  Every vertex whose normal
    cone meets the window lies in the triangle of za, zb and X, where the support lines at a and b cross:
    |X|^2 = (ha - hb)^2 / sin(w)^2 + ha hb / cos(w / 2)^2.  8 d eps / w covers the rounding of X, and 1 + 1e-9 that
    of the sweep's running sums.  A zero width, a negative |X|^2 or a NaN keeps the window, and warns of nothing."""
    with np.errstate(all="ignore"):
        x2 = (ha - hb) ** 2 / np.sin(w) ** 2 + ha * hb / np.cos(0.5 * w) ** 2
        bound = np.maximum(np.maximum(np.abs(za), np.abs(zb)), np.sqrt(x2)) + 8 * d * np.finfo(float).eps / w
        return ~(bound * (1 + 1e-9) < best)


def _kept_windows(probs: np.ndarray, spec: LUSpectrum):
    """Branch and bound over directions: ``(starts, ends)`` of the windows where a vertex may reach the largest |z|,
    or None on a spectrum with ``phase_groups`` or where the first round keeps more than half of its 32.  The overlaps
    of all sigma span a convex polygon, whose vertex at direction phi is the sorted pairing there, with support value
    h(phi) = Re(e^{-i phi} z), and the largest |z| is a vertex.  Kept windows are halved until each spans ~4d events."""
    th, lam = spec.thetas, spec.eigenvalues
    if not np.array_equal(phase_groups(th, _EVENT_SNAP), np.arange(spec.d)):
        return None

    def vertices(phi):
        z = lam[np.argsort(-np.cos(th - phi[:, None]), axis=1)] @ probs
        return z, (z * np.exp(-1j * phi)).real

    a = np.arange(33) * (TWO_PI / 32)
    z, h = vertices(a[:-1])
    windows, best = (a[:-1], a[1:], z, np.append(z[1:], z[0]), h, np.append(h[1:], h[0])), np.abs(z).max()
    keep = _window_keeps(a[1:] - a[:-1], *windows[2:], best, spec.d)
    if 2 * np.count_nonzero(keep) > keep.size:
        return None
    while True:
        a, b, za, zb, ha, hb = windows = tuple(x[keep] for x in windows)
        if (b[0] - a[0]) * (spec.d - 1) <= 4 * TWO_PI:
            break
        m = 0.5 * (a + b)
        zm, hm = vertices(m)
        best = max(best, np.abs(zm).max())
        windows = tuple(np.concatenate(x) for x in ((a, m), (m, b), (za, zm), (zm, zb), (ha, hm), (hm, hb)))
        keep = _window_keeps(windows[1] - windows[0], *windows[2:], best, spec.d)
    return a, b


def _slot_blocks(lo: int, hi: int, d: int, events: int) -> np.ndarray:
    """The blocks of d events that hold slots lo..hi, slot s being the order after s events: it ends block
    (s - 1) // d, and starts block s // d at a multiple of d; slot 0 is also slot ``events``, which ends the last."""
    blocks = np.arange((lo - 1) // d, hi // d + 1) % max(1, -(-events // d))
    return np.append(blocks, 0) if hi == events else blocks


def _one_shot(probs: np.ndarray, spec: LUSpectrum):
    """``_event_sweep``'s sigma for one vector, from only the blocks that can hold its optimum; None where
    ``_kept_windows`` declines.  A kept window [a, b] needs the slots #(angle < a) .. #(angle <= b); ``np.partition``
    finds the angles of the first and last event of each run of their blocks, ``_sweep_order`` orders the events
    between them, ties included, and ``_event_blocks`` builds the run as ``_compile_events`` does, from the order at
    angle 0 moved by every earlier event: the same sigma, without sorting all events."""
    d, windows = spec.d, _kept_windows(probs, spec)
    if windows is None:
        return None
    angle, up, down, rank = _event_list(spec)
    E = angle.size
    need = np.zeros(-(-E // d), dtype=bool)
    for a, b in zip(*windows):
        need[_slot_blocks(np.count_nonzero(angle < a), np.count_nonzero(angle <= b), d, E)] = True
    edge = np.flatnonzero(np.diff(need, prepend=False, append=False)).tolist()  # where runs of blocks start and end
    runs = [(first * d, min(E, end * d)) for first, end in zip(edge[::2], edge[1::2])]
    part = np.partition(angle, [i for lo, hi in runs for i in (lo, hi - 1)])
    edges = [(part[lo], part[hi - 1]) for lo, hi in runs]
    del part
    built = []
    for (lo, hi), (first, last) in zip(runs, edges):
        sel = np.flatnonzero((angle >= first) & (angle <= last))
        sel = sel[_sweep_order(angle[sel], up[sel], down[sel])]
        # The moves before the run, the first `cut` of sel among them, each tied at the run's first angle; as every
        # element's moves over a turn sum to 0, counted on the smaller side.
        before, lower = angle < first, 2 * lo <= E
        cut, side = lo - np.count_nonzero(before), before if lower else ~before
        side[sel[:cut]] = lower
        sel = sel[cut:cut + hi - lo]
        moved = np.bincount(down[side], minlength=d) - np.bincount(up[side], minlength=d)
        built.append(_event_blocks(spec.eigenvalues, up[sel], down[sel], rank + moved if lower else rank - moved))
    # The checkpoint gemv has two rows or more, as over every block: a one-row product may round otherwise.
    blocks = [np.concatenate(x * (2 if np.count_nonzero(need) == 1 else 1)) for x in zip(*built)]
    return _event_sweep(probs[None], spec, blocks)[0]


def _event_sigmas(P: np.ndarray, spec: LUSpectrum) -> list[list[int]]:
    """``_event_sweep``'s sigma for each row of P; ``_one_shot``'s for one row on a spectrum not met before."""
    first = len(P) == 1 and not hasattr(spec, "_events") and not hasattr(spec, "_met")
    object.__setattr__(spec, "_met", True)
    sigma = _one_shot(P[0], spec) if first else None
    return _event_sweep(P, spec) if sigma is None else [sigma]


def fidelity_exact(p: SchmidtSpectrum, spec: LUSpectrum) -> PermutationSolution:
    """Exact optimum via an angle sweep, polynomial in d.

    |z| = max over directions phi of Re(e^{-i phi} z); at fixed phi the rearrangement inequality pairs the sorted
    probabilities with the sorted projections Re(e^{-i phi} lambda).  The sort order changes only at the O(d^2) crossing
    angles arg(lambda_i - lambda_j) +- pi/2, so visiting the order of every arc between them visits an optimal
    assignment.  The returned sigma's overlap is one fresh dot, so ``fidelity`` and ``overlap`` are exact for it.

    Up to d = ``COMPILED_SWEEP_CAP`` each distinct candidate order (at each crossing and at each arc's midpoint, at
    most d(d - 1) of them) is stored once and evaluated by one gemv: O(d^3) memory and work per vector.

    Above it the event sweep walks the arcs as adjacent transpositions, each changing the overlap by
    (lambda_a - lambda_b)(p_{k+1} - p_k), and keeps a checkpoint order every d events whose overlap is one exact gemv:
    O(d^2) memory and work per vector, 0.6 MiB kept at d = 192.  The first call on a spectrum object keeps nothing: it
    builds only the blocks that can hold the optimum, in 2.0 ms with a 0.64 MiB allocation peak at d = 192, and 32 ms
    with 20 MiB at d = 1024, where a call that compiles takes 4.8 ms and 205 ms (2 shared CPUs, numpy 2.4, one BLAS
    thread).  Its fixed cost, about 100 numpy calls, leaves it at parity with a compile near d = 48-64 (0.59 against
    0.56 ms at d = 48), and it pays from about d = 128.  The running overlaps carry rounding of order d * eps, so among
    equal optima, such as the stellar spectrum's rotations, sigma may differ from the compiled sweep's while the
    fidelity agrees to rounding.  For ties and the compiled parts see the module docstring.
    """
    if _check_dims(p.d, spec) > COMPILED_SWEEP_CAP:
        sigma = _event_sigmas(p.probs[None], spec)[0]
    else:
        orders, L = _compile_sweep(spec)
        sigma = orders[np.abs(L @ p.probs).argmax()]
    return _solution(sigma, spec.eigenvalues, p.probs)


def fidelity_exact_many(P, spec: LUSpectrum) -> PermutationSolutions:
    """``fidelity_exact`` for every row of a stack of Schmidt probability vectors.

    Each row must be non-increasing and sum to 1, and is used as given (not renormalized): a row equal to ``s.probs``
    of a ``SchmidtSpectrum`` ``s`` gives ``fidelity_exact(s, spec)`` bit for bit, in row k of each returned array.  Up
    to d = ``COMPILED_SWEEP_CAP`` the candidate overlaps of a row are one gemv of a stack, which rounds as the
    single-vector gemv does and ties as the module docstring says; the stack is evaluated at once, in memory that grows
    as rows times candidate orders, so callers bound it with ``states.map_blocks``.  Above it the event sweep gathers
    the checkpoint eigenvalues once for the stack and scans each row on its own; a one-row stack on a spectrum object
    met for the first time takes ``fidelity_exact``'s first-call path.  A row's overlap is one dot of its sigma.  An
    empty stack returns empty arrays before either backend compiles anything.
    """
    P = check_simplex(P, NORM_TOL, rows=True, descending=True)[0]
    d = _check_dims(P.shape[1], spec)
    if not len(P):
        sigmas = np.empty((0, d), dtype=np.intp)
    elif d > COMPILED_SWEEP_CAP:
        sigmas = np.array(_event_sigmas(P, spec), dtype=np.intp).reshape(P.shape)
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
