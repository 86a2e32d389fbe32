"""Local-unitary spectra: phase multisets on the unit circle.

A spectrum is stored canonically as its phases reduced mod 2*pi and
sorted ascending.  The gap coordinates (circular phase differences in
units of full turns, including the wrap-around gap) parameterize the
same data as a point on the probability simplex; entanglement monotones
built from a spectrum depend only on this gap structure, so spectra
that differ by a rigid rotation of all phases are equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .states import check_count, check_simplex, read_json

TWO_PI = 2.0 * np.pi

# Phases closer than this (circular distance, radians) count as equal
# when measuring degeneracy: well above floating noise, far below any
# intended gap.
DEGENERACY_TOL = 1e-9

_GAP_SUM_TOL = 1e-9


def _reduce_phases(thetas) -> np.ndarray:
    th = np.asarray(thetas, dtype=float)
    if th.ndim != 1:
        raise ValueError(f"phases must be a list of numbers, got shape {th.shape}")
    if not np.all(np.isfinite(th)):
        raise ValueError("phases must be finite")
    th = np.mod(th, TWO_PI)
    # np.mod can round a hair-below-zero input up to exactly 2*pi.
    th[th >= TWO_PI] = 0.0
    return np.sort(th)


@dataclass(frozen=True, eq=False)
class LUSpectrum:
    """Unimodular eigenvalue multiset {e^{i theta_j}} in canonical form.

    ``thetas`` are sorted ascending in [0, 2*pi); ``gaps`` are the
    consecutive phase differences in units of full turns, the last one
    wrapping around the circle, so they are nonnegative and sum to 1;
    ``eigenvalues`` are the e^{i theta_j}.
    """

    thetas: np.ndarray
    gaps: np.ndarray = field(init=False, repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        th = np.array(self.thetas, dtype=float)
        if th.ndim != 1 or th.size < 1:
            raise ValueError(f"thetas must be a nonempty vector, got shape {th.shape}")
        # Written so that a NaN phase fails the range test.
        if not np.all((th >= 0.0) & (th < TWO_PI)) or np.any(np.diff(th) < 0):
            raise ValueError("thetas must be sorted ascending within [0, 2*pi)")
        if th.size == 1:
            gaps = np.array([1.0])
        else:
            gaps = np.append(np.diff(th), th[0] + TWO_PI - th[-1]) / TWO_PI
        for name, a in (("thetas", th), ("gaps", gaps), ("eigenvalues", np.exp(1j * th))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __reduce__(self):
        # Rebuilt from the phases alone: the copy gets read-only arrays again,
        # and neither compiled sweep travels with it.
        return type(self), (self.thetas,)

    @property
    def d(self) -> int:
        return self.thetas.size

    @classmethod
    def from_phases(cls, thetas) -> "LUSpectrum":
        """Canonicalize an arbitrary phase list (mod 2*pi, sorted)."""
        return cls(_reduce_phases(thetas))

    @classmethod
    def from_gaps(cls, gaps) -> "LUSpectrum":
        """Spectrum from simplex coordinates, anchored at theta_1 = 0; a phase whose remaining
        gaps are all exactly 0 lands on theta_1 itself, not just below 2*pi."""
        g, total = check_simplex(gaps, _GAP_SUM_TOL, what="gaps")
        thetas = np.concatenate([[0.0], TWO_PI * np.cumsum(g[:-1]) / total])
        thetas[np.cumsum(g[::-1])[::-1] == 0.0] = 0.0
        return cls.from_phases(thetas)


def stellar(d: int) -> LUSpectrum:
    """Equispaced traceless spectrum: the d-th roots of (-1)^(d-1).

    Phases (d - 2j + 1) * pi / d for j = 1..d, canonicalized.  All gaps
    equal 1/d and the eigenvalues sum to zero for d >= 2.  Cached by the
    checked int, and shared: a spectrum is frozen.
    """
    return _stellar(check_count("d", d))


@lru_cache(maxsize=None)
def _stellar(d: int) -> LUSpectrum:
    j = np.arange(1, d + 1)
    return LUSpectrum.from_phases((d - 2 * j + 1) * np.pi / d)


def phase_groups(thetas: np.ndarray, tol: float) -> np.ndarray:
    """For each sorted phase, the index of the first phase of its group: a run whose circular gaps, across the
    0 / 2*pi seam too, are below ``tol`` <= 2*pi / d (as they sum to 2*pi, one is not); a group that wraps
    starts nearest 2*pi."""
    starts = np.flatnonzero(np.concatenate(([thetas[0] + TWO_PI - thetas[-1]], thetas[1:] - thetas[:-1])) >= tol)
    return starts[np.searchsorted(starts, np.arange(thetas.size), side="right") - 1]


def degeneracy(spec: LUSpectrum) -> int:
    """Maximum multiplicity of any eigenvalue: the largest ``phase_groups`` group at ``DEGENERACY_TOL``."""
    return int(np.bincount(phase_groups(spec.thetas, DEGENERACY_TOL)).max())


def is_faithful(spec: LUSpectrum) -> bool:
    """True iff the spectrum is fully nondegenerate."""
    return degeneracy(spec) == 1


def spectrum_from_json(obj: dict) -> LUSpectrum:
    """Parse {"d": d, "thetas": [...]} or {"d": d, "gaps": [...]} (exactly one)."""
    if not isinstance(obj, dict) or "d" not in obj:
        raise ValueError("spectrum object must contain 'd'")
    has_thetas = "thetas" in obj
    has_gaps = "gaps" in obj
    if has_thetas == has_gaps:
        raise ValueError("spectrum object must contain exactly one of 'thetas' or 'gaps'")
    d = check_count("d", obj["d"])
    try:
        spec = LUSpectrum.from_phases(obj["thetas"]) if has_thetas else LUSpectrum.from_gaps(obj["gaps"])
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed spectrum object: {exc}") from exc
    if spec.d != d:
        raise ValueError(f"spectrum length {spec.d} does not match d = {d}")
    return spec


def parse_spectrum_spec(text: str, d: int | None = None) -> LUSpectrum:
    """Parse a CLI spectrum string: 'stellar', 'gaps:0.2,0.3,0.5', 'file:PATH'."""
    text = text.strip()
    if text == "stellar":
        if d is None:
            raise ValueError("spectrum 'stellar' needs a dimension (supply --d or probabilities)")
        return stellar(d)
    if text.startswith("gaps:"):
        try:
            g = [float(x) for x in text[len("gaps:"):].split(",")]
        except ValueError as exc:
            raise ValueError(f"bad gaps list in spectrum spec {text!r}") from exc
        spec = LUSpectrum.from_gaps(g)
    elif text.startswith("file:"):
        spec = spectrum_from_json(read_json(text[len("file:"):]))
    else:
        raise ValueError(f"unrecognized spectrum spec {text!r}; expected 'stellar', 'gaps:...' or 'file:PATH'")
    if d is not None and spec.d != d:
        raise ValueError(f"spectrum has d = {spec.d}, expected {d}")
    return spec
