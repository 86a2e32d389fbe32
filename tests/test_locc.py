import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mirrorent.locc import (
    BRANCH_DROP,
    KrausChannel,
    apply_channel,
    monotonicity_trial,
    random_channel,
    random_channels,
)
from mirrorent.monotones import mirror_entanglement
from mirrorent.spectra import stellar
from mirrorent.states import (
    PureBipartiteState,
    haar_unitaries,
    haar_unitaries_many,
    random_pure,
    rng_for_seed,
    schmidt_spectrum,
)


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


def projectors(dX):
    """The measurement in the computational basis of a dX-dimensional side, one rank-one projector per outcome."""
    return np.eye(dX)[:, None, :] * np.eye(dX)[:, :, None]


def near_drop(state, side, weight):
    """``state`` with its first row (side A) or column (side B) rescaled to about ``weight`` of its norm squared,
    and the measurement of that side, whose first branch then weighs ``weight`` up to its last bits."""
    M = np.array(state.amplitudes if side == "A" else state.amplitudes.T)
    M[0] *= np.sqrt(weight) / np.linalg.norm(M[0])
    M[1:] *= np.sqrt(1 - weight) / np.linalg.norm(M[1:])
    return PureBipartiteState(M if side == "A" else M.T), KrausChannel(side, projectors(len(M)))


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
        (5.0, "Kraus operators must be square matrices of equal size"),
        ((np.eye(2) * 0.5,), r"Kraus completeness violated by 1\.0606601717798212$"),
        ((np.eye(2), np.eye(2)), r"Kraus completeness violated by 1\.4142135623730951$"),
        (np.full((1, 2, 2), 1e200), r"Kraus completeness violated by nan$"),
    ], ids=["empty", "empty-stack", "ragged", "ragged-rank", "non-square", "bare-2d", "scalar", "incomplete",
            "overcomplete", "overflow"])
    def test_error_messages(self, ops, message):
        with pytest.raises(ValueError, match=message):
            KrausChannel("A", ops)


class TestKrausStack:
    """``KrausChannel.stack`` keeps every check ``KrausChannel`` makes, and its message, for each set of the stack."""

    @pytest.mark.parametrize("spoil", ["nan", "inf", "incomplete", "overcomplete", "huge"])
    def test_a_bad_channel_in_the_middle(self, spoil):
        ops = random_channels(2, 3, range(5))  # a fresh, writable stack
        ops[2, 1, 0, 1] = {"nan": np.nan, "inf": -np.inf, "huge": 1e200}.get(spoil, ops[2, 1, 0, 1])
        if spoil in ("incomplete", "overcomplete"):
            ops[2] *= 0.9 if spoil == "incomplete" else 1.1
            ops[4] *= 0.5  # a later bad channel, whose error is not the one reported
        with pytest.raises(ValueError) as alone:
            KrausChannel("B", ops[2])
        with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
            KrausChannel.stack("B", ops)

    def test_overflow_is_an_error_not_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^Kraus completeness violated by nan$"):
                KrausChannel.stack("A", np.full((1, 1, 2, 2), 1e200))

    @pytest.mark.parametrize("side, ops, message", [
        ("C", np.eye(2)[None, None], "side must be 'A' or 'B', got 'C'"),
        ("A", np.zeros((2, 0, 2, 2)), "channel needs at least one Kraus operator"),
        ("A", np.eye(2)[None], "Kraus operators must be square matrices of equal size"),
        ("A", np.ones((1, 1, 2, 3)), "Kraus operators must be square matrices of equal size"),
    ], ids=["side", "empty", "one-set", "non-square"])
    def test_shape_errors(self, side, ops, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KrausChannel.stack(side, ops)

    def test_channels_share_one_read_only_copy(self):
        ops = random_channels(3, 2, range(4))
        before = ops.copy()
        channels = KrausChannel.stack("A", ops)
        ops[0, 0, 0, 0] = 2.0  # the caller's array stays the caller's, and writable
        assert [ch.side for ch in channels] == ["A"] * 4 and all(ch.m == 2 and ch.dim == 3 for ch in channels)
        for ch, op in zip(channels, before):
            assert not ch.operators.flags.writeable
            assert ch.operators.tobytes() == KrausChannel("A", op).operators.tobytes()
        assert KrausChannel.stack("B", random_channels(2, 3, [])) == []


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

    @stacked
    @given(dX=st.integers(1, 8), m=st.integers(1, 6), side=st.sampled_from("AB"),
           seeds=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**128 - 1)), min_size=1, max_size=6))
    @example(dX=8, m=6, side="B", seeds=[0, 2**64 - 1, 2**64, 2**128 - 1])
    def test_stacked_draw_is_random_channel(self, dX, m, side, seeds):
        # Keys from 2**64 up set both Philox key words; 2**128 - 1 is the largest.
        ops = random_channels(dX, m, seeds)
        assert ops.shape == (len(seeds), m, dX, dX)
        for k, seed in enumerate(seeds):
            assert ops[k].tobytes() == random_channel(dX, m, side, seed).operators.tobytes()

    # Every (dX, m) that ``verify all`` (d = 2..4, m = 2, 3) and the pinned LOCC reports (2 x 3 and 3 x 5
    # states) draw, on the suite's odd keys.
    @pytest.mark.parametrize("dX,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (3, 6), (5, 6)])
    def test_stacked_draw_at_the_suite_shapes(self, dX, m):
        seeds = range(1, 401, 2)
        ops = random_channels(dX, m, seeds)
        for k, seed in enumerate(seeds):
            assert ops[k].tobytes() == random_channel(dX, m, "A", seed).operators.tobytes()

    def test_stacked_draw_holds_the_isometry_not_the_unitary(self):
        # The stack is cut from each dilation's first dX columns; drawing all dX m columns would hold m times
        # as many complex entries, and the QR of the whole unitary more.
        seeds = range(1, 147, 2)
        peaks = []
        for draw in (lambda: random_channels(4, 3, seeds), lambda: haar_unitaries_many(12, seeds)):
            draw()
            tracemalloc.start()
            try:
                draw()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1] / 2

    def test_stacked_draw_holds_one_case_of_normals(self):
        # Every normal of a dilation is drawn, but into one reused buffer: the draw and its QR hold about four
        # isometry stacks (the draw, scaled in place, Q, R and their work), not also the (n, 2, 12, 12) stack of
        # normals, which is three isometry stacks more (a draw that holds it peaks at about six).
        seeds = range(1, 147, 2)
        random_channels(4, 3, seeds)
        tracemalloc.start()
        try:
            ops = random_channels(4, 3, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * ops.nbytes

    def test_stacked_draw_scales_in_place(self):
        # 224 KiB; a scaled copy of the draw before its QR took 264.
        random_channels(4, 3, range(73))
        tracemalloc.start()
        try:
            random_channels(4, 3, range(73))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 240 * 2**10

    def test_stacked_draw_of_no_seeds(self):
        assert random_channels(2, 3, []).shape == (0, 3, 2, 2)


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
    @given(dA=st.integers(1, 8), dB=st.integers(1, 8), m=st.integers(1, 6), side=st.sampled_from("AB"),
           seed=st.integers(0, 2**32), drop=st.one_of(st.none(), st.floats(0.5 * BRANCH_DROP, 2 * BRANCH_DROP)))
    # A first branch of weight BRANCH_DROP up to rounding: dropped at seed 0, kept at seed 4, on either side.
    @example(dA=3, dB=5, m=1, side="A", seed=0, drop=BRANCH_DROP)
    @example(dA=3, dB=5, m=1, side="A", seed=4, drop=BRANCH_DROP)
    @example(dA=4, dB=2, m=1, side="B", seed=0, drop=BRANCH_DROP)
    @example(dA=4, dB=2, m=1, side="B", seed=4, drop=BRANCH_DROP)
    # A weight that an array's ** 2 rounds otherwise than np.float64's ** (pow), on either side.
    @example(dA=3, dB=5, m=2, side="A", seed=229, drop=None)
    @example(dA=6, dB=2, m=4, side="B", seed=61, drop=None)
    def test_stacked_product_equals_one_operator_at_a_time(self, dA, dB, m, side, seed, drop):
        state = random_pure(dA, dB, seed)
        dX = dA if side == "A" else dB
        if drop is None:
            ch = random_channel(dX, m, side, seed + 1)
        else:  # weights next to BRANCH_DROP: keep or drop is decided by their last bits
            assume(dX > 1)
            state, ch = near_drop(state, side, drop)
        got, want = apply_channel(state, ch), apply_one_by_one(state, ch)
        assert [w for w, _ in got] == [w for w, _ in want]
        for (_, s), (_, t) in zip(got, want):
            assert s.amplitudes.tobytes() == t.amplitudes.tobytes()
            assert not s.amplitudes.flags.writeable

    def test_near_drop_examples_straddle_the_threshold(self):
        # The @examples above keep their point only while their first weight falls on either side of BRANCH_DROP.
        for side, dims in (("A", (3, 5)), ("B", (4, 2))):
            dropped = apply_one_by_one(*near_drop(random_pure(*dims, 0), side, BRANCH_DROP))
            kept = apply_one_by_one(*near_drop(random_pure(*dims, 4), side, BRANCH_DROP))
            assert len(kept) == len(dropped) + 1 and 0 < kept[0][0] - BRANCH_DROP < 1e-28

    def test_dropped_branches_match_one_operator_at_a_time(self):
        # Projectors on either side, one of them onto a null branch of the product state.
        state = PureBipartiteState(np.reshape([1, 0, 0, 0, 0, 0], (2, 3)))
        for side, dX in (("A", 2), ("B", 3)):
            ch = KrausChannel(side, projectors(dX))
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
