import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorent.locc import BRANCH_DROP, KrausChannel, apply_channel, monotonicity_trial, random_channel
from mirrorent.monotones import mirror_entanglement
from mirrorent.spectra import stellar
from mirrorent.states import PureBipartiteState, haar_unitaries, random_pure, rng_for_seed, schmidt_spectrum


def haar_unitary(d, seed):
    """One d x d Haar unitary, drawn from its own Philox key as ``locc.random_channel`` draws its dilation."""
    return haar_unitaries(d, 1, rng_for_seed(seed))[0]


def bell_state():
    return PureBipartiteState(np.array([[1, 0], [0, 1]]) / np.sqrt(2))


def apply_one_by_one(state, ch):
    """``apply_channel`` as it was written operator by operator: the reference for its stacked product."""
    M = state.amplitudes
    images = [a @ M if ch.side == "A" else M @ a.T for a in ch.operators]
    weights = [float(np.linalg.norm(N) ** 2) for N in images]
    return [(w, PureBipartiteState(N / np.sqrt(w))) for w, N in zip(weights, images) if w >= BRANCH_DROP]


stacked = settings(derandomize=True, database=None, deadline=None, max_examples=150)


class TestKrausChannel:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            KrausChannel("A", (np.eye(2) * 0.5,))

    def test_side_validated(self):
        with pytest.raises(ValueError):
            KrausChannel("C", (np.eye(2),))

    @pytest.mark.parametrize("op", [np.full((2, 2), np.nan), np.diag([np.inf, np.inf]), np.diag([1.0, -np.inf])])
    def test_non_finite_operators_rejected(self, op):
        with pytest.raises(ValueError, match="Kraus operators must be finite"):
            KrausChannel("A", [op])

    def test_identity_channel_ok(self):
        ch = KrausChannel("A", (np.eye(2),))
        assert ch.m == 1 and ch.dim == 2

    @pytest.mark.parametrize("stack", [False, True], ids=["tuple", "stack"])
    def test_operators_are_one_read_only_copy(self, stack):
        a = np.eye(2, dtype=complex)
        ops = a[None] if stack else (a,)
        ch = KrausChannel("A", ops)
        a[0, 0] = 2.0  # the caller's array stays the caller's, and writable
        assert isinstance(ch.operators, np.ndarray) and ch.operators.dtype == complex
        assert ch.operators.shape == (1, 2, 2) and not ch.operators.flags.writeable
        np.testing.assert_array_equal(ch.operators[0], np.eye(2))
        with pytest.raises(ValueError):
            ch.operators[0, 0, 0] = 2.0

    @pytest.mark.parametrize("ops, message", [
        ((), "channel needs at least one Kraus operator"),
        (np.zeros((0, 2, 2)), "channel needs at least one Kraus operator"),
        ((np.eye(2), np.eye(3)), "Kraus operators must be square matrices of equal size"),
        ((np.eye(2), np.zeros(2)), "Kraus operators must be square matrices of equal size"),
        ((np.ones((2, 3)) / np.sqrt(2),), "Kraus operators must be square matrices of equal size"),
        (np.eye(2), "Kraus operators must be square matrices of equal size"),
        ((np.eye(2) * 0.5,), r"Kraus completeness violated by 1\.0606601717798212$"),
        ((np.eye(2), np.eye(2)), r"Kraus completeness violated by 1\.4142135623730951$"),
        (np.full((1, 2, 2), 1e200), r"Kraus completeness violated by nan$"),
    ], ids=["empty", "empty-stack", "ragged", "ragged-rank", "non-square", "bare-2d", "incomplete", "overcomplete",
            "overflow"])
    def test_error_messages(self, ops, message):
        with pytest.raises(ValueError, match=message):
            KrausChannel("A", ops)


class TestRandomChannel:
    def test_single_operator_is_unitary(self):
        ch = random_channel(3, 1, "A", seed=0)
        a = ch.operators[0]
        np.testing.assert_allclose(a @ a.conj().T, np.eye(3), atol=1e-12)

    def test_completeness(self):
        for m in (2, 3):
            ch = random_channel(2, m, "B", seed=m)
            total = sum(a.conj().T @ a for a in ch.operators)
            np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_deterministic(self):
        a = random_channel(2, 2, "A", seed=5)
        b = random_channel(2, 2, "A", seed=5)
        for x, y in zip(a.operators, b.operators):
            np.testing.assert_array_equal(x, y)

    @stacked
    @given(dX=st.integers(1, 5), m=st.integers(1, 4), side=st.sampled_from("AB"), seed=st.integers(0, 2**32))
    def test_operators_are_the_dilation_blocks(self, dX, m, side, seed):
        u = haar_unitary(dX * m, seed)
        ops = random_channel(dX, m, side, seed).operators
        assert ops.shape == (m, dX, dX)
        for k in range(m):
            assert ops[k].tobytes() == u[k * dX:(k + 1) * dX, :dX].tobytes()


class TestApplyChannel:
    def test_identity(self):
        state = random_pure(2, 3, seed=1)
        branches = apply_channel(state, KrausChannel("A", (np.eye(2),)))
        assert len(branches) == 1
        w, out = branches[0]
        assert abs(w - 1.0) < 1e-12
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)

    def test_schmidt_basis_measurement_on_bell(self):
        ops = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        branches = apply_channel(bell_state(), KrausChannel("A", ops))
        assert len(branches) == 2
        for w, out in branches:
            assert abs(w - 0.5) < 1e-12
            assert abs(mirror_entanglement(out, stellar(2))) < 1e-12

    def test_unitary_preserves_spectrum(self):
        state = random_pure(3, 3, seed=2)
        u = haar_unitary(3, seed=3)
        (w, out), = apply_channel(state, KrausChannel("A", (u,)))
        assert abs(w - 1.0) < 1e-12
        np.testing.assert_allclose(
            schmidt_spectrum(out).probs, schmidt_spectrum(state).probs, atol=1e-10
        )

    def test_zero_weight_branch_dropped(self):
        state = PureBipartiteState(np.reshape([1, 0, 0, 0], (2, 2)))
        ops = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        branches = apply_channel(state, KrausChannel("A", ops))
        assert len(branches) == 1
        assert abs(branches[0][0] - 1.0) < 1e-12

    def test_weights_normalized_both_sides(self):
        state = random_pure(3, 4, seed=4)
        for side, dx in (("A", 3), ("B", 4)):
            branches = apply_channel(state, random_channel(dx, 3, side, seed=7))
            assert abs(sum(w for w, _ in branches) - 1.0) < 1e-10

    def test_nan_weights_rejected(self):
        # A channel whose operators turned non-finite after validation: the
        # weights' sum is NaN, which must not pass as "close to 1".
        ch = KrausChannel("A", (np.eye(2),))
        object.__setattr__(ch, "operators", np.full((1, 2, 2), np.nan))
        with pytest.raises(ValueError, match="branch weights sum to nan, expected 1"):
            apply_channel(random_pure(2, 2, seed=0), ch)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(random_pure(2, 3, seed=0), random_channel(3, 2, "A", seed=0))

    @stacked
    @given(dA=st.integers(1, 5), dB=st.integers(1, 5), m=st.integers(1, 4), side=st.sampled_from("AB"),
           seed=st.integers(0, 2**32))
    def test_stacked_product_equals_one_operator_at_a_time(self, dA, dB, m, side, seed):
        state = random_pure(dA, dB, seed)
        ch = random_channel(dA if side == "A" else dB, m, side, seed + 1)
        got, want = apply_channel(state, ch), apply_one_by_one(state, ch)
        assert [w for w, _ in got] == [w for w, _ in want]
        for (_, s), (_, t) in zip(got, want):
            assert s.amplitudes.tobytes() == t.amplitudes.tobytes()

    def test_dropped_branches_match_one_operator_at_a_time(self):
        # Projectors on either side, one of them onto a null branch of the product state.
        state = PureBipartiteState(np.reshape([1, 0, 0, 0, 0, 0], (2, 3)))
        for side, dX in (("A", 2), ("B", 3)):
            ch = KrausChannel(side, np.eye(dX)[:, None, :] * np.eye(dX)[:, :, None])
            got, want = apply_channel(state, ch), apply_one_by_one(state, ch)
            assert len(got) == len(want) == 1
            assert got[0][0] == want[0][0] and got[0][1].amplitudes.tobytes() == want[0][1].amplitudes.tobytes()


class TestMonotonicity:
    def test_unitary_slack_zero_any_spectrum(self):
        from mirrorent.spectra import LUSpectrum

        state = random_pure(3, 3, seed=8)
        rng = np.random.default_rng(10)
        specs = [stellar(3)] + [
            LUSpectrum.from_phases(rng.uniform(0, 2 * np.pi, 3)) for _ in range(4)
        ]
        for k, spec in enumerate(specs):
            trial = monotonicity_trial(state, random_channel(3, 1, "A", seed=k), spec)
            assert abs(trial.slack) < 1e-10

    def test_projective_measurement_destroys(self):
        ops = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        trial = monotonicity_trial(bell_state(), KrausChannel("A", ops), stellar(2))
        assert abs(trial.after) < 1e-12
        assert trial.slack >= 0.0
        assert abs(trial.before - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_sweep(self, d):
        spec = stellar(d)
        for i in range(100):
            state = random_pure(d, d, seed=9000 + i)
            side = "A" if i % 2 == 0 else "B"
            ch = random_channel(d, 2 + i % 2, side, seed=5000 + i)
            trial = monotonicity_trial(state, ch, spec)
            assert trial.slack >= -1e-9
