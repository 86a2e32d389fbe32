import json

import numpy as np
import pytest

from mirrorent.states import (
    PureBipartiteState,
    SchmidtSpectrum,
    canonical_probs_many,
    check_simplex,
    haar_unitaries,
    linear_entropy,
    load_state,
    random_pure,
    random_pure_many,
    rng_for_seed,
    schmidt_probs_many,
    schmidt_spectrum,
)


def haar_unitary(d, seed):
    """One d x d Haar unitary, drawn from its own Philox key as ``locc.random_channel`` draws its dilation."""
    return haar_unitaries(d, 1, rng_for_seed(seed))[0]


def bell_state():
    return PureBipartiteState(np.array([[1, 0], [0, 1]]) / np.sqrt(2))


def state_json(state):
    """The state file object {dims, re, im} that ``load_state`` reads, amplitudes row-major."""
    amp = state.amplitudes.reshape(-1)
    return {"dims": [state.dA, state.dB], "re": amp.real.tolist(), "im": amp.imag.tolist()}


class TestPureBipartiteState:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            PureBipartiteState(np.zeros((0, 2)))

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            PureBipartiteState(np.eye(2))  # norm sqrt(2)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                PureBipartiteState(np.diag([bad, 0.5]))

    def test_renormalizes_small_drift(self):
        amp = np.zeros((2, 2), dtype=complex)
        amp[0, 0] = 1.0 + 5e-7
        state = PureBipartiteState(amp)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_rejects_large_drift(self):
        amp = np.zeros((2, 2), dtype=complex)
        amp[0, 0] = 1.001
        with pytest.raises(ValueError):
            PureBipartiteState(amp)

    def test_json_round_trip(self, tmp_path):
        state = random_pure(3, 4, seed=11)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_json(state)))
        loaded = load_state(path)
        assert loaded.dA == 3 and loaded.dB == 4
        np.testing.assert_allclose(loaded.amplitudes, state.amplitudes, atol=1e-15)

    def test_json_schema_keys(self):
        obj = state_json(bell_state())
        assert set(obj) == {"dims", "re", "im"}
        assert obj["dims"] == [2, 2]
        assert len(obj["re"]) == len(obj["im"]) == 4


class TestSchmidtSpectrum:
    def test_product_state(self):
        state = PureBipartiteState(np.reshape([1, 0, 0, 0], (2, 2)))
        np.testing.assert_allclose(schmidt_spectrum(state).probs, [1.0, 0.0], atol=1e-14)

    def test_bell_state(self):
        np.testing.assert_allclose(schmidt_spectrum(bell_state()).probs, [0.5, 0.5], atol=1e-14)

    def test_diagonal_amplitudes(self):
        # oracle: dense eigensolver on the explicit reduced matrix
        amp = np.diag([np.sqrt(0.7), np.sqrt(0.3)]).astype(complex)
        state = PureBipartiteState(amp)
        rho = amp @ amp.conj().T
        expected = np.sort(np.linalg.eigvalsh(rho))[::-1]
        got = schmidt_spectrum(state).probs
        np.testing.assert_allclose(got, expected, atol=1e-14)
        np.testing.assert_allclose(got, [0.7, 0.3], atol=1e-14)

    def test_larger_first_side_uses_b(self):
        sp = schmidt_spectrum(random_pure(5, 3, seed=2))
        assert sp.d == 3

    def test_lu_invariance(self):
        # multiset of probs unchanged by local rotations on either side
        state = random_pure(3, 4, seed=5)
        base = schmidt_spectrum(state).probs
        for k in range(5):
            ua = haar_unitary(3, seed=100 + k)
            ub = haar_unitary(4, seed=200 + k)
            rotated = PureBipartiteState(ua @ state.amplitudes @ ub)
            np.testing.assert_allclose(schmidt_spectrum(rotated).probs, base, atol=1e-10)

    def test_from_probs_sorts_and_validates(self):
        sp = SchmidtSpectrum.from_probs([0.2, 0.5, 0.3])
        np.testing.assert_allclose(sp.probs, [0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            SchmidtSpectrum.from_probs([0.7, 0.7])
        with pytest.raises(ValueError):
            SchmidtSpectrum.from_probs([1.5, -0.5])
        with pytest.raises(ValueError):
            SchmidtSpectrum.from_probs([np.nan, 0.5, 0.5])


class TestRandomPure:
    def test_deterministic(self):
        a = random_pure(2, 2, seed=42)
        b = random_pure(2, 2, seed=42)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_seeds_differ(self):
        a = random_pure(2, 2, seed=42)
        b = random_pure(2, 2, seed=43)
        assert np.abs(a.amplitudes - b.amplitudes).max() > 1e-3

    def test_scalar_space(self):
        state = random_pure(1, 1, seed=0)
        assert abs(abs(state.amplitudes[0, 0]) - 1.0) < 1e-12
        np.testing.assert_allclose(schmidt_spectrum(state).probs, [1.0])

    def test_rectangular_spectrum(self):
        sp = schmidt_spectrum(random_pure(4, 7, seed=3))
        assert sp.d == 4
        assert abs(sp.probs.sum() - 1.0) < 1e-10
        assert np.all(sp.probs >= 0)

    def test_full_rank_almost_surely(self):
        for d in (2, 3, 4):
            for i in range(100):
                sp = schmidt_spectrum(random_pure(d, d + 1, seed=1000 * d + i))
                assert sp.probs.min() > 1e-12

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            random_pure(0, 2, seed=1)


class TestStacks:
    """Each ``*_many`` row equals its one-case counterpart bit for bit."""

    SHAPES = [(1, 1), (1, 3), (3, 1), (2, 5), (5, 2), (4, 4), (6, 3), (9, 9)]

    @pytest.mark.parametrize("dA,dB", SHAPES)
    def test_random_pure_many(self, dA, dB):
        for seeds in (range(40), range(2**64 - 3, 2**64 + 3), range(2**128 - 4, 2**128)):
            stack = random_pure_many(dA, dB, seeds)
            assert stack.shape == (len(seeds), dA, dB)
            for amp, seed in zip(stack, seeds):
                assert amp.tobytes() == random_pure(dA, dB, seed).amplitudes.tobytes()

    @pytest.mark.parametrize("dA,dB", SHAPES)
    def test_schmidt_probs_many(self, dA, dB):
        probs = schmidt_probs_many(random_pure_many(dA, dB, range(3, 43)))
        for row, seed in zip(probs, range(3, 43)):
            assert row.tobytes() == schmidt_spectrum(random_pure(dA, dB, seed)).probs.tobytes()

    def test_canonical_probs_many(self):
        # Unsorted rows, rounding off the sum, a clamped tiny negative: each row as from_probs makes it.
        rows = np.random.default_rng(5).dirichlet(np.ones(5), size=30) * (1.0 + 1e-9)
        rows[3] = [0.0, 0.4, -1e-13, 0.6, 1e-13]
        for row, expected in zip(canonical_probs_many(rows), rows):
            assert row.tobytes() == SchmidtSpectrum.from_probs(expected).probs.tobytes()
        with pytest.raises(ValueError, match="sum to"):
            canonical_probs_many(np.array([[0.5, 0.5], [0.9, 0.3]]))

    def test_linear_entropy_rows(self):
        for d in (1, 2, 4, 8):
            probs = schmidt_probs_many(random_pure_many(d, d, range(30)))
            assert [float(x) for x in linear_entropy(probs)] == [linear_entropy(row) for row in probs]

    @pytest.mark.parametrize("key", [-1, 0, 2**64, 2**128 - 1, 2**128])
    def test_keys_rejected_as_rng_for_seed_rejects_them(self, key):
        try:
            rng_for_seed(key)
        except ValueError:
            with pytest.raises(ValueError):
                random_pure_many(2, 2, [key])
        else:
            random_pure_many(2, 2, [key])

    def test_numpy_integer_seeds(self):
        seeds = np.arange(2**62, 2**62 + 5, dtype=np.int64)
        stack = random_pure_many(2, 3, seeds)
        for amp, seed in zip(stack, seeds):
            assert amp.tobytes() == random_pure(2, 3, seed).amplitudes.tobytes()

    def test_no_seeds(self):
        assert random_pure_many(2, 3, range(0)).shape == (0, 2, 3)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            random_pure_many(0, 2, range(3))

    def test_check_simplex_rows(self):
        good = [0.5, 0.3, 0.2]
        v, total = check_simplex(np.array([good, good]), 1e-9, rows=True, descending=True)
        assert v.shape == (2, 3) and total.shape == (2, 1)
        for bad, message in (([0.5, 0.6, 0.1], "sum to 1.2"), ([0.5, np.nan, 0.5], "finite"),
                             ([1.5, -0.5, 0.0], "noise floor"), ([0.2, 0.3, 0.5], "non-increasing")):
            with pytest.raises(ValueError, match=message):
                check_simplex(np.array([good, bad, good]), 1e-9, rows=True, descending=True)
        with pytest.raises(ValueError):
            check_simplex(np.array(good), 1e-9, rows=True)
        with pytest.raises(ValueError):
            check_simplex(np.array([good]), 1e-9)


class TestLinearEntropy:
    def test_pure(self):
        assert linear_entropy(SchmidtSpectrum.from_probs([1.0, 0.0])) == 0.0

    def test_maximally_mixed(self):
        assert abs(linear_entropy(SchmidtSpectrum.from_probs([0.5, 0.5])) - 1.0) < 1e-15

    def test_rank2_in_d4(self):
        got = linear_entropy(SchmidtSpectrum.from_probs([0.5, 0.5, 0.0, 0.0]))
        assert abs(got - 2.0 / 3.0) < 1e-15

    def test_d1_convention(self):
        assert linear_entropy(SchmidtSpectrum.from_probs([1.0])) == 0.0
        assert linear_entropy(np.ones((3, 1))).tolist() == [0.0, 0.0, 0.0]

    def test_matches_formula_on_random(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(d))
            got = linear_entropy(p)
            assert 0.0 <= got <= 1.0 + 1e-12
            assert abs(got - d / (d - 1) * (1 - np.sum(p**2))) < 1e-14


class TestHaarUnitary:
    def test_unitarity(self):
        for d in (2, 3, 5):
            u = haar_unitary(d, seed=d)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(haar_unitary(3, seed=1), haar_unitary(3, seed=1))
