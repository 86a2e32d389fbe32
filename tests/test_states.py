import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorent.states import (
    PureBipartiteState,
    SchmidtSpectrum,
    canonical_probs_many,
    check_simplex,
    checked,
    frobenius_norms,
    haar_unitaries,
    haar_unitaries_many,
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

    @pytest.mark.parametrize("dA,dB", [(2, 2), (3, 5), (8, 7)])
    def test_bits_do_not_depend_on_memory_layout(self, dA, dB):
        # np.linalg.norm sums in memory order, so the state normalizes a C copy of its input, as ``stack`` does.
        M = random_pure_many(dA, dB, [dA * dB])[0] * (1.0 + 1e-7)  # off by up to NORM_TOL: the last bits move
        wide = np.zeros((dA, 2 * dB), dtype=complex)
        wide[:, ::2] = M
        expected = PureBipartiteState(M).amplitudes
        assert expected.tobytes() == PureBipartiteState.stack(M[None])[0].amplitudes.tobytes()
        for layout in (np.asfortranarray(M), M.T.copy().T, wide[:, ::2]):
            assert not layout.flags.c_contiguous
            amp = PureBipartiteState(layout).amplitudes
            assert amp.flags.c_contiguous and amp.tobytes() == expected.tobytes()

    def test_as_an_array_its_amplitudes(self):
        state = random_pure(3, 4, 5)
        assert np.asarray(state) is state.amplitudes and not np.asarray(state).flags.writeable
        assert np.asarray(state, dtype=complex) is state.amplitudes
        copy = np.array(state)
        assert copy is not state.amplitudes and copy.flags.writeable and np.array_equal(copy, state.amplitudes)
        assert np.asarray(state, dtype=np.complex64).dtype == np.complex64


class TestChecked:
    """``checked`` computes the one-case value of the first item before the stack, and falls back item by item."""

    @staticmethod
    def counted(fn, calls):
        def wrapper(x):
            calls.append(x)
            return fn(x)
        return wrapper

    def test_one_case_value_first(self):
        def stack_fn(items):
            raise AssertionError("the stack is not reached")

        def one_fn(x):
            raise MemoryError("one case")

        with pytest.raises(MemoryError, match="^one case$"):
            checked(stack_fn, one_fn, [1, 2, 3])

    def test_one_case_once_when_they_agree(self):
        calls, stacks = [], []
        values = checked(self.counted(lambda xs: [2.0 * x for x in xs], stacks),
                         self.counted(lambda x: 2.0 * x, calls), [1.0, 2.0, 3.0])
        assert values == [2.0, 4.0, 6.0] and calls == [1.0] and stacks == [[1.0, 2.0, 3.0]]

    def test_one_case_for_each_item_on_a_mismatch(self):
        calls = []
        items = [1.0, 2.0, 3.0, 4.0]
        values = checked(lambda xs: [np.nextafter(2.0 * x, 9.0) for x in xs], self.counted(lambda x: 2.0 * x, calls),
                         items)
        assert values == [2.0, 4.0, 6.0, 8.0] and calls == items

    def test_empty_items_call_only_the_stack(self):
        def one_fn(x):
            raise AssertionError("no item to compute")

        assert checked(lambda xs: np.zeros((0, 2)), one_fn, range(0)).shape == (0, 2)

    def test_states_compare_by_their_amplitudes(self):
        seeds = range(7, 13, 2)
        states = checked(lambda keys: random_pure_many(2, 3, keys, wrap=True), lambda key: random_pure(2, 3, key),
                         seeds)
        assert [s.amplitudes.tobytes() for s in states] == [random_pure(2, 3, k).amplitudes.tobytes() for k in seeds]
        off = [PureBipartiteState(np.nextafter(s.amplitudes.real, 1.0) + 1j * s.amplitudes.imag) for s in states]
        calls = []
        redone = checked(lambda keys: off, self.counted(lambda key: random_pure(2, 3, key), calls), seeds)
        assert calls == list(seeds) and [s.amplitudes.tobytes() for s in redone] == [s.amplitudes.tobytes()
                                                                                     for s in states]


class TestStateStack:
    """``PureBipartiteState.stack`` keeps every check ``PureBipartiteState`` makes, and its message, for each row."""

    @pytest.mark.parametrize("spoil, message", [
        (np.nan, "state norm nan is not finite"),
        (-np.inf, "state norm inf is not finite"),
        (1e200, "state norm inf is not finite"),
        (2.0, None),  # off-norm: the message names the row's own norm
    ], ids=["nan", "inf", "overflow", "off-norm"])
    def test_a_bad_row_in_the_middle(self, spoil, message):
        stack = random_pure_many(3, 2, range(5))
        stack[2, 1, 0] = spoil
        stack[4] *= 3.0  # a later bad row, whose norm is not the one reported
        with pytest.raises(ValueError) as alone:
            PureBipartiteState(stack[2])
        assert message is None or str(alone.value) == message
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing norm is the ValueError, not a RuntimeWarning
            with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
                PureBipartiteState.stack(stack)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 0, 3), (2, 3, 0), (1, 2, 2, 2)])
    def test_shape_errors(self, shape):
        with pytest.raises(ValueError, match=r"^amplitudes must be a stack of nonempty matrices, got shape"):
            PureBipartiteState.stack(np.ones(shape))

    def test_rows_as_one_state_at_a_time(self):
        # Off by up to NORM_TOL, so that the normalization changes the last bits.
        stack = random_pure_many(3, 4, range(6)) * (1.0 + 1e-7 * np.arange(1, 7))[:, None, None]
        before = stack.copy()
        states = PureBipartiteState.stack(stack)
        stack[0, 0, 0] = 2.0  # the caller's array stays the caller's, and writable
        assert len(states) == 6
        for state, amp in zip(states, before):
            assert not state.amplitudes.flags.writeable and state.dA == 3 and state.dB == 4
            assert state.amplitudes.tobytes() == PureBipartiteState(amp).amplitudes.tobytes() != amp.tobytes()
        assert PureBipartiteState.stack(np.zeros((0, 2, 2))) == []

    @pytest.mark.parametrize("shape", [(5, 1, 1), (4, 2, 7), (3, 8, 8), (2, 6, 6, 2, 3)])
    def test_frobenius_norms_as_linalg_norm(self, shape):
        z = np.random.default_rng(9).standard_normal((*shape, 2)) @ [1, 1j]
        norms = frobenius_norms(z)
        assert norms.shape == shape[:-2]
        for index in np.ndindex(shape[:-2]):
            assert norms[index].tobytes() == np.linalg.norm(z[index]).tobytes()


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

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(dA=st.integers(1, 5), dB=st.integers(1, 5), n=st.integers(1, 8),
           seed=st.one_of(st.integers(0, 2**64), st.integers(2**64, 2**128 - 16)))
    def test_wrapped_rows_on_stride_two_keys(self, dA, dB, n, seed):
        # The LOCC suite's states: keys seed + 2i, each wrapped once as random_pure wraps its own.
        seeds = range(seed, seed + 2 * n, 2)
        states = random_pure_many(dA, dB, seeds, wrap=True)
        stack = random_pure_many(dA, dB, seeds)
        assert len(states) == n
        for state, amp, key in zip(states, stack, seeds):
            assert state.amplitudes.tobytes() == random_pure(dA, dB, key).amplitudes.tobytes() == amp.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    def test_haar_unitaries_many(self, d):
        for seeds in (range(20), range(2**64 - 3, 2**64 + 3), range(2**128 - 4, 2**128)):
            stack = haar_unitaries_many(d, seeds)
            assert stack.shape == (len(seeds), d, d)
            for u, seed in zip(stack, seeds):
                assert u.tobytes() == haar_unitary(d, seed).tobytes()
        assert haar_unitaries_many(d, range(0)).shape == (0, d, d)

    @pytest.mark.parametrize("d,columns", [(1, 1), (2, 1), (5, 2), (12, 4), (12, 11), (24, 8), (48, 8), (96, 32)])
    def test_haar_isometries_many(self, d, columns):
        # The first columns alone, drawn and factored, are the full unitary's, bit for bit.
        for seeds in (range(1, 41, 2), range(2**64 - 3, 2**64 + 3), range(2**128 - 4, 2**128)):
            stack = haar_unitaries_many(d, seeds, columns)
            assert stack.shape == (len(seeds), d, columns)
            for v, seed in zip(stack, seeds):
                assert v.tobytes() == haar_unitary(d, seed)[:, :columns].tobytes()
        assert haar_unitaries_many(d, range(0), columns).shape == (0, d, columns)

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
        assert random_pure_many(2, 3, range(0), wrap=True) == []

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
