"""Local-unitary spectra: phase multisets on the unit circle.

A spectrum is stored canonically as its phases reduced mod 2*pi and
sorted ascending.  The gap coordinates (circular phase differences in
units of full turns, including the wrap-around gap) parameterize the
same data as a point on the probability simplex; entanglement monotones
built from a spectrum depend only on this gap structure, so spectra
that differ by a rigid rotation of all phases are equivalent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .states import check_simplex

TWO_PI = 2.0 * np.pi

# Phases closer than this (circular distance, radians) count as equal
# when measuring degeneracy: well above floating noise, far below any
# intended gap.
DEGENERACY_TOL = 1e-9

_GAP_SUM_TOL = 1e-9


def _reduce_phases(thetas) -> np.ndarray:
    th = np.asarray(thetas, dtype=float)
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
    wrapping around the circle, so they are nonnegative and sum to 1.
    """

    d: int
    thetas: np.ndarray
    gaps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        th = np.asarray(self.thetas, dtype=float)
        if th.shape != (self.d,):
            raise ValueError(f"thetas has shape {th.shape}, expected ({self.d},)")
        # Written so that a NaN phase fails the range test.
        if not np.all((th >= 0.0) & (th < TWO_PI)) or np.any(np.diff(th) < 0):
            raise ValueError("thetas must be sorted ascending within [0, 2*pi)")
        th = th.copy()
        th.setflags(write=False)
        object.__setattr__(self, "thetas", th)
        if self.d == 1:
            gaps = np.array([1.0])
        else:
            gaps = np.append(np.diff(th), th[0] + TWO_PI - th[-1]) / TWO_PI
        gaps.setflags(write=False)
        object.__setattr__(self, "gaps", gaps)

    @classmethod
    def from_phases(cls, thetas) -> "LUSpectrum":
        """Canonicalize an arbitrary phase list (mod 2*pi, sorted)."""
        th = _reduce_phases(thetas)
        return cls(len(th), th)

    @classmethod
    def from_gaps(cls, gaps) -> "LUSpectrum":
        """Spectrum from simplex coordinates, anchored at theta_1 = 0."""
        g, total = check_simplex(gaps, _GAP_SUM_TOL, what="gaps")
        thetas = np.concatenate([[0.0], TWO_PI * np.cumsum(g[:-1]) / total])
        return cls.from_phases(thetas)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.exp(1j * self.thetas)

    def to_json(self) -> dict:
        return {"d": self.d, "thetas": [float(x) for x in self.thetas]}


def stellar(d: int) -> LUSpectrum:
    """Equispaced traceless spectrum: the d-th roots of (-1)^(d-1).

    Phases (d - 2j + 1) * pi / d for j = 1..d, canonicalized.  All gaps
    equal 1/d and the eigenvalues sum to zero for d >= 2.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    j = np.arange(1, d + 1)
    return LUSpectrum.from_phases((d - 2 * j + 1) * np.pi / d)


def from_gaps(gaps) -> LUSpectrum:
    return LUSpectrum.from_gaps(gaps)


def degeneracy(spec: LUSpectrum, tol: float = DEGENERACY_TOL) -> int:
    """Maximum multiplicity of any eigenvalue.

    Phases closer than ``tol`` on the circle are clustered, including
    across the 0 / 2*pi seam.
    """
    d = spec.d
    if d == 1:
        return 1
    g = spec.gaps * TWO_PI  # circular gap after each phase, radians
    boundaries = np.nonzero(g >= tol)[0]
    if boundaries.size == 0:
        return d
    sizes = np.diff(boundaries)
    wrap = boundaries[0] + d - boundaries[-1]
    return int(max(sizes.max(initial=0), wrap))


def is_faithful(spec: LUSpectrum, tol: float = DEGENERACY_TOL) -> bool:
    """True iff the spectrum is fully nondegenerate."""
    return degeneracy(spec, tol) == 1


def spectrum_from_json(obj: dict) -> LUSpectrum:
    """Parse {"d": d, "thetas": [...]} or {"d": d, "gaps": [...]} (exactly one)."""
    if not isinstance(obj, dict) or "d" not in obj:
        raise ValueError("spectrum object must contain 'd'")
    has_thetas = "thetas" in obj
    has_gaps = "gaps" in obj
    if has_thetas == has_gaps:
        raise ValueError("spectrum object must contain exactly one of 'thetas' or 'gaps'")
    d = int(obj["d"])
    spec = LUSpectrum.from_phases(obj["thetas"]) if has_thetas else LUSpectrum.from_gaps(obj["gaps"])
    if spec.d != d:
        raise ValueError(f"spectrum length {spec.d} does not match d = {d}")
    return spec


def load_spectrum(path) -> LUSpectrum:
    with open(path, "r", encoding="utf-8") as fh:
        return spectrum_from_json(json.load(fh))


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
        spec = load_spectrum(text[len("file:"):])
    else:
        raise ValueError(f"unrecognized spectrum spec {text!r}; expected 'stellar', 'gaps:...' or 'file:PATH'")
    if d is not None and spec.d != d:
        raise ValueError(f"spectrum has d = {spec.d}, expected {d}")
    return spec
