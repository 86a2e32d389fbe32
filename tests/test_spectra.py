import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorent.spectra import (
    DEGENERACY_TOL,
    LUSpectrum,
    degeneracy,
    is_faithful,
    parse_spectrum_spec,
    phase_groups,
    spectrum_from_json,
    stellar,
)

TWO_PI = 2 * np.pi

properties = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Offsets of a near-duplicate from the phase it copies, on both sides of 1e-13 and of 1e-9.
NEAR = [0.0, 5e-324, 1e-16, 3e-15, 5e-14, 2e-13, 1e-11, 5e-10, 2e-9]


class TestStellar:
    def test_d2(self):
        np.testing.assert_allclose(stellar(2).thetas, [np.pi / 2, 3 * np.pi / 2], atol=1e-15)

    def test_d3_roots_of_unity(self):
        np.testing.assert_allclose(stellar(3).thetas, [0, TWO_PI / 3, 2 * TWO_PI / 3], atol=1e-15)

    def test_d4_roots_of_minus_one(self):
        expected = np.array([1, 3, 5, 7]) * np.pi / 4
        np.testing.assert_allclose(stellar(4).thetas, expected, atol=1e-15)
        assert abs(stellar(4).eigenvalues.sum()) < 1e-14

    def test_traceless_and_uniform_gaps(self):
        for d in range(2, 12):
            spec = stellar(d)
            assert abs(spec.eigenvalues.sum()) < 1e-13
            np.testing.assert_allclose(spec.gaps, np.full(d, 1.0 / d), atol=1e-15)

    def test_pairwise_differences_multiple_of_cell(self):
        spec = stellar(5)
        diffs = spec.thetas[None, :] - spec.thetas[:, None]
        ratio = diffs / (TWO_PI / 5)
        np.testing.assert_allclose(ratio, np.round(ratio), atol=1e-12)

    def test_d1(self):
        np.testing.assert_allclose(stellar(1).thetas, [0.0])

    def test_cached_by_the_checked_int(self):
        assert stellar(3.0) is stellar(3) and stellar(np.int64(3)) is stellar(3)

    def test_bool_rejected_after_an_equal_float_was_built(self):
        stellar(1.0)
        with pytest.raises(ValueError, match="^d must be an integer, got True$"):
            stellar(True)


class TestFromGaps:
    def test_uniform_matches_stellar_structure(self):
        for d in (2, 3, 4, 5):
            spec = LUSpectrum.from_gaps(np.full(d, 1.0 / d))
            np.testing.assert_allclose(spec.gaps, stellar(d).gaps, atol=1e-15)
            assert degeneracy(spec) == 1

    def test_degenerate_corner(self):
        spec = LUSpectrum.from_gaps([1.0, 0.0, 0.0])
        np.testing.assert_allclose(spec.thetas, [0.0, 0.0, 0.0], atol=1e-15)
        assert degeneracy(spec) == 3

    def test_two_degenerate(self):
        # one zero gap chains two phases together; the eigenvalue multiset
        # is {1, 1, -1} (the same gap cycle as {1, -1, -1} rotated)
        spec = LUSpectrum.from_gaps([0.5, 0.5, 0.0])
        np.testing.assert_allclose(np.sort(spec.thetas), [0.0, 0.0, np.pi], atol=1e-12)
        assert degeneracy(spec) == 2

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            spec = LUSpectrum.from_gaps(rng.dirichlet(np.ones(d)))
            again = LUSpectrum.from_gaps(spec.gaps)
            np.testing.assert_allclose(again.thetas, spec.thetas, atol=1e-12)

    def test_trailing_zero_gaps_put_their_phases_on_zero(self):
        # The remaining gaps of the last phases are exactly 0, so they coincide with theta_1 = 0 bit for bit,
        # where 2*pi*cumsum/total would round them to just below 2*pi.
        spec = LUSpectrum.from_gaps([0.1, 0.2, 0.7, 0.0, 0.0])
        assert spec.thetas[:3].tolist() == [0.0, 0.0, 0.0]
        assert spec.gaps[-1] > 0.0 and degeneracy(spec) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            LUSpectrum.from_gaps([0.7, -0.2, 0.5])
        with pytest.raises(ValueError):
            LUSpectrum.from_gaps([0.5, 0.4])  # sums to 0.9
        with pytest.raises(ValueError):
            LUSpectrum.from_gaps([np.nan, 1.0])


class TestCanonicalization:
    def test_idempotent_and_permutation_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d = int(rng.integers(2, 8))
            th = rng.uniform(0, TWO_PI, d)
            a = LUSpectrum.from_phases(th)
            b = LUSpectrum.from_phases(rng.permutation(th))
            c = LUSpectrum.from_phases(a.thetas)
            np.testing.assert_array_equal(a.thetas, b.thetas)
            np.testing.assert_array_equal(a.thetas, c.thetas)

    def test_global_shift_preserves_gap_cycle(self):
        # a rigid rotation of all phases rotates the gap sequence cyclically
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            th = np.sort(rng.uniform(0, TWO_PI, d))
            a = LUSpectrum.from_phases(th)
            b = LUSpectrum.from_phases(th + rng.uniform(0, TWO_PI))
            rotations = [np.roll(b.gaps, k) for k in range(d)]
            assert min(np.abs(r - a.gaps).max() for r in rotations) < 1e-12

    def test_global_shift_preserves_degeneracy(self):
        spec = LUSpectrum.from_gaps([0.5, 0.5, 0.0])
        shifted = LUSpectrum.from_phases(spec.thetas + 1.234)
        assert degeneracy(shifted) == degeneracy(spec) == 2

    def test_wraps_mod_two_pi(self):
        spec = LUSpectrum.from_phases([-np.pi / 2, np.pi / 2])
        np.testing.assert_allclose(spec.thetas, [np.pi / 2, 3 * np.pi / 2], atol=1e-15)

    def test_rejects_non_finite_phases(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                LUSpectrum.from_phases([bad, 1.0])
            with pytest.raises(ValueError):
                LUSpectrum([1.0, bad])


class TestDegeneracy:
    def test_stellar_nondegenerate(self):
        for d in range(2, 9):
            assert degeneracy(stellar(d)) == 1

    def test_identity_fully_degenerate(self):
        spec = LUSpectrum.from_phases(np.zeros(5))
        assert degeneracy(spec) == 5

    def test_pair(self):
        assert degeneracy(LUSpectrum.from_phases([0.0, np.pi, np.pi])) == 2

    def test_wrap_around_seam(self):
        spec = LUSpectrum.from_phases([0.0, 2.0, TWO_PI - 1e-10])
        assert degeneracy(spec) == 2

    def test_d1(self):
        assert degeneracy(stellar(1)) == 1


@st.composite
def clustered_phases(draw):
    """Sorted phases in [0, 2*pi) with near-duplicates, clusters across the seam, or all equal."""
    d = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return np.full(d, draw(st.sampled_from([0.0, 1.0, TWO_PI - 1e-15])))
    phases = []
    for _ in range(d):
        kind = draw(st.sampled_from(["fresh", "near", "near", "seam"]))
        if kind == "fresh" or not phases:
            phases.append(draw(st.floats(0.0, TWO_PI, exclude_max=True)))
        elif kind == "near":
            phases.append(phases[-1] + draw(st.sampled_from(NEAR)))
        else:  # just below 2*pi or at 0, next to a phase at the other end
            phases.append(draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from(NEAR)))
    return LUSpectrum.from_phases(phases).thetas


def reference_groups(thetas, tol):
    """O(d^2): walk back from each phase, circularly, while the gap before it is below ``tol``."""
    d = len(thetas)
    gap_before = [thetas[0] + TWO_PI - thetas[-1]] + [thetas[i] - thetas[i - 1] for i in range(1, d)]
    first = []
    for i in range(d):
        j = i
        while gap_before[j] < tol:
            j = (j - 1) % d
            assert j != i, "every gap is below tol"
        first.append(j)
    return first


def gap_degeneracy(spec):
    """The degeneracy formula phase_groups replaced: boundaries at gaps >= DEGENERACY_TOL, the seam run wrapped."""
    d = spec.d
    if d == 1:
        return 1
    boundaries = np.nonzero(spec.gaps * TWO_PI >= DEGENERACY_TOL)[0]
    if boundaries.size == 0:
        return d
    return int(max(np.diff(boundaries).max(initial=0), boundaries[0] + d - boundaries[-1]))


class TestPhaseGroups:
    @properties
    @given(thetas=clustered_phases(), tol=st.sampled_from([1e-13, DEGENERACY_TOL]))
    def test_matches_the_quadratic_reference(self, thetas, tol):
        assert phase_groups(thetas, tol).tolist() == reference_groups(thetas.tolist(), tol)

    @properties
    @given(thetas=clustered_phases())
    def test_degeneracy_is_the_largest_group(self, thetas):
        spec = LUSpectrum(thetas)
        assume(np.all(np.abs(spec.gaps * TWO_PI - DEGENERACY_TOL) > 1e-12))  # away from the boundary
        assert degeneracy(spec) == gap_degeneracy(spec)

    def test_seam_group_starts_nearest_two_pi(self):
        thetas = np.array([0.0, 1e-15, 2.0, 2.0 + 1e-14, TWO_PI - 1e-14])
        assert phase_groups(thetas, 1e-13).tolist() == [4, 4, 2, 2, 4]
        assert phase_groups(thetas, 1e-16).tolist() == [0, 1, 2, 3, 4]

    def test_one_group_and_one_phase(self):
        assert phase_groups(np.full(4, 3.0), 1e-9).tolist() == [0, 0, 0, 0]
        assert phase_groups(np.array([5.0]), 1e-9).tolist() == [0]


class TestFaithful:
    def test_stellar(self):
        assert is_faithful(stellar(4))

    def test_identity(self):
        assert not is_faithful(LUSpectrum.from_phases(np.zeros(3)))

    def test_partial(self):
        assert not is_faithful(LUSpectrum.from_phases([0.0, np.pi, np.pi]))


class TestSerialization:
    def test_json_thetas(self):
        spec = spectrum_from_json({"d": 2, "thetas": [0.0, np.pi]})
        np.testing.assert_allclose(spec.thetas, [0.0, np.pi])

    def test_json_gaps(self):
        spec = spectrum_from_json({"d": 3, "gaps": [0.2, 0.3, 0.5]})
        assert spec.d == 3

    def test_json_exactly_one_key(self):
        with pytest.raises(ValueError):
            spectrum_from_json({"d": 2, "thetas": [0.0, 1.0], "gaps": [0.5, 0.5]})
        with pytest.raises(ValueError):
            spectrum_from_json({"d": 2})

    def test_json_dim_mismatch(self):
        with pytest.raises(ValueError):
            spectrum_from_json({"d": 3, "thetas": [0.0, 1.0]})

    def test_parse_stellar(self):
        spec = parse_spectrum_spec("stellar", d=4)
        np.testing.assert_allclose(spec.thetas, stellar(4).thetas)
        with pytest.raises(ValueError):
            parse_spectrum_spec("stellar")

    def test_parse_gaps(self):
        spec = parse_spectrum_spec("gaps:0.2,0.3,0.5")
        assert spec.d == 3
        with pytest.raises(ValueError):
            parse_spectrum_spec("gaps:0.2,oops")

    def test_parse_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"d": 2, "gaps": [0.5, 0.5]}))
        spec = parse_spectrum_spec(f"file:{path}")
        assert spec.d == 2

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            parse_spectrum_spec("nonsense")

    def test_parse_dim_cross_check(self):
        with pytest.raises(ValueError):
            parse_spectrum_spec("gaps:0.5,0.5", d=3)
