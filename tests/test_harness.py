import concurrent.futures
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorent import harness, states
from mirrorent.harness import (
    AUDITS,
    boundary_families_d4,
    bounds_suite,
    controlled_rank_probs,
    degenerate_spectrum,
    hierarchy_suite,
    locc_suite,
    locc_suites,
    majorization_suite,
    random_nondegenerate_spectrum,
    scatter,
    unistochastic_suite,
    upper_bound_witness,
    witness_suite,
)
from mirrorent.locc import (
    KrausChannel,
    apply_channel,
    monotonicity_trial,
    random_channel,
    random_channels,
    trial_values,
)
from mirrorent.monotones import fidelity_exact, fidelity_exact_many
from mirrorent.spectra import DEGENERACY_TOL, TWO_PI, degeneracy, stellar
from mirrorent.states import (
    PureBipartiteState,
    SchmidtSpectrum,
    linear_entropy,
    random_pure,
    random_pure_many,
    rng_for_seed,
    schmidt_spectrum,
)


def count_stacks(monkeypatch):
    """Sizes of the stacks ``harness`` evaluates from now on: one ``fidelity_exact_many`` call per block."""
    sizes = []

    def counted(P, spec):
        sizes.append(len(P))
        return fidelity_exact_many(P, spec)

    monkeypatch.setattr(harness, "fidelity_exact_many", counted)
    return sizes


def locc_trial_amplitudes(d, dB, m):
    """What ``locc_suite`` counts against the block budget for one trial: 1 + m states and a dilation isometry."""
    return (1 + m) * d * dB + m * max(d, dB) ** 2


def fake_pool(monkeypatch, cpus):
    """``cpus`` usable CPUs, and an in-process pool that records its workers and the blocks mapped on it."""
    started, mapped = [], []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            mapped.append(list(items))
            return map(fn, mapped[-1])

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(states.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return started, mapped


class TestGenerators:
    def test_degenerate_spectrum_has_exact_multiplicity(self):
        rng = rng_for_seed(0)
        for d in range(2, 7):
            for r in range(1, d + 1):
                spec = degenerate_spectrum(d, r, rng)
                assert degeneracy(spec) == r

    @pytest.mark.parametrize("d", [12, 16, 32, 64])
    def test_degenerate_spectrum_keeps_its_minimum_gap_at_large_d(self, d):
        # Above k = d - r + 1 = 9 positive gaps the minimum shrinks to 1/(k + 1) turn, so that they fit in one turn.
        for r in (1, 2, d):
            low = min(0.1, 1.0 / (d - r + 2))
            for seed in range(20):
                spec = degenerate_spectrum(d, r, rng_for_seed(seed))
                assert degeneracy(spec) == r
                gaps = np.sort(spec.gaps)
                assert np.all(gaps[:r - 1] * TWO_PI < DEGENERACY_TOL)  # the r - 1 coincident phases
                assert gaps[r - 1:].min() >= low - 1e-12  # the gaps -> phases -> gaps round trip rounds

    @pytest.mark.parametrize("d", range(2, 65))
    def test_degenerate_spectrum_phases_coincide_bit_for_bit(self, d):
        # Also where the zero gaps come last, so that the block sits at phase 0, across the seam.
        for r in range(1, d + 1):
            for seed in range(3):
                spec = degenerate_spectrum(d, r, rng_for_seed(seed))
                assert np.unique(spec.thetas, return_counts=True)[1].max() == r

    def test_controlled_rank(self):
        rng = rng_for_seed(1)
        for d in range(2, 7):
            for s in range(1, d + 1):
                p = controlled_rank_probs(d, s, rng)
                assert np.count_nonzero(p) == s
                assert p[p > 0].min() >= 0.01
                assert abs(p.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("s", [64, 150])
    def test_controlled_rank_gives_up_by_name(self, s):
        # A draw is kept with probability 1e-28 at s = 64 and never above s = 100, where the draws went on forever.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^no draw of s = {s} entries kept each >= 0.01 in 1000 tries$"):
            controlled_rank_probs(s, s, rng_for_seed(0))
        assert time.perf_counter() - start < 5

    def test_random_nondegenerate(self):
        for d in (2, 4, 6):
            assert degeneracy(random_nondegenerate_spectrum(d, seed=d)) == 1


class TestHierarchy:
    def test_small_sweep_passes(self):
        rep = hierarchy_suite(3, 2, trials=30, seed=0)
        assert rep.failures == 0 and rep.trials == 30

    def test_rank_two_vanishes_on_two_degenerate(self):
        rng = rng_for_seed(2)
        spec = degenerate_spectrum(3, 2, rng)
        p = SchmidtSpectrum.from_probs([0.6, 0.4, 0.0])
        assert fidelity_exact(p, spec).me <= 1e-12

    def test_rank_three_detected(self):
        rng = rng_for_seed(3)
        spec = degenerate_spectrum(3, 2, rng)
        p = SchmidtSpectrum.from_probs([0.5, 0.3, 0.2])
        assert fidelity_exact(p, spec).me > 1e-8

    def test_stellar_faithful_for_entangled(self):
        rep = hierarchy_suite(4, 1, trials=30, seed=4)
        assert rep.failures == 0

    def test_deterministic(self):
        a = hierarchy_suite(3, 2, trials=10, seed=5)
        b = hierarchy_suite(3, 2, trials=10, seed=5)
        assert a.to_dict() == b.to_dict()


class TestBounds:
    def test_small_runs_clean(self):
        for d in (2, 3, 4, 5):
            rep = bounds_suite(d, samples=50, seed=0)
            assert rep.failures == 0, rep.to_dict()

    def test_families(self):
        cases = boundary_families_d4()
        assert len(cases) == 63
        assert all(c["violation"] <= 0.0 for c in cases)
        rank2 = [c for c in cases if c["family"] == "rank2"]
        assert max(c["el"] for c in rank2) <= 2 / 3 + 1e-10


class TestWitness:
    def test_endpoints(self):
        q, estar, el = upper_bound_witness(4, 0.0)
        np.testing.assert_allclose(q, [1, 0, 0, 0], atol=1e-15)
        assert abs(estar) < 1e-12 and abs(el) < 1e-12
        q, estar, el = upper_bound_witness(4, 1.0)
        np.testing.assert_allclose(q, np.full(4, 0.25), atol=1e-15)
        assert abs(estar - 1.0) < 1e-12 and abs(el - 1.0) < 1e-12

    def test_half_value_d4(self):
        q, estar, el = upper_bound_witness(4, 0.5)
        c = np.sqrt(0.5)
        expected = np.full(4, (1 - c) / 4)
        expected[0] += c
        np.testing.assert_allclose(q, expected, atol=1e-12)
        np.testing.assert_allclose(q, [0.780330, 0.073223, 0.073223, 0.073223], atol=1e-6)
        assert abs(estar - 0.5) < 1e-10
        assert abs(el - 0.5) < 1e-10

    def test_suite_small(self):
        rep = witness_suite(d_values=(2, 3, 4, 5))
        assert rep.failures == 0

    @pytest.mark.parametrize("d", range(2, 65))
    def test_on_the_upper_edge(self, d):
        for s in np.linspace(0.0, 1.0, 11):
            _, estar, el = upper_bound_witness(d, float(s))
            assert abs(estar - s) <= 1e-12 and abs(el - s) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            upper_bound_witness(4, 1.5)


class TestScatter:
    def test_d2_on_diagonal(self):
        rows = scatter(2, samples=100, seed=0)
        assert np.abs(rows[:, 0] - rows[:, 1]).max() <= 1e-10

    def test_d1_zeros(self):
        rows = scatter(1, samples=10, seed=0)
        np.testing.assert_allclose(rows, 0.0, atol=1e-12)

    @pytest.mark.parametrize("d,dB", [(1, 1), (1, 4), (3, 1)])
    def test_product_states_exactly_zero(self, d, dB):
        # E_L is 0 by convention at local dimension 1, and E* = 1 - |lambda|^2 = 0.
        rows = scatter(d, samples=7, seed=2, dB=dB)
        assert rows.shape == (7, 2) and not rows.any()

    def test_no_samples(self):
        assert scatter(3, samples=0, seed=0).shape == (0, 2)

    def test_bitwise_reproducible(self):
        a = scatter(4, samples=50, seed=3)
        b = scatter(4, samples=50, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_block_seam_does_not_matter(self):
        # Row i depends on seed + i alone: a run that starts k cases later, so
        # that its blocks begin elsewhere, gives the same rows.
        n, k, seed = states.BLOCK_AMPLITUDES // 16 + 300, 517, 11
        np.testing.assert_array_equal(scatter(4, n, seed)[k:], scatter(4, n - k, seed + k))

    @pytest.mark.parametrize("d,dB", [(2, 5), (6, 3), (4, 4)])
    def test_rows_match_one_case_at_a_time(self, d, dB):
        seed = 21
        expected = []
        for i in range(30):
            sp = schmidt_spectrum(random_pure(d, dB, seed + i))
            expected.append((linear_entropy(sp), fidelity_exact(sp, stellar(min(d, dB))).me))
        np.testing.assert_array_equal(scatter(d, 30, seed, dB=dB), np.array(expected))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="--seed must be >= 0, got -1"):
            scatter(2, samples=3, seed=-1)

    def test_stacks_that_round_otherwise_give_the_one_case_rows(self, monkeypatch):
        # As if the stacked optimizer rounded unlike a single call: the first
        # row differs from the one-case path, so every row is recomputed.
        expected = scatter(3, 40, 5)

        def perturbed(P, spec):
            sols = fidelity_exact_many(P, spec)
            return sols._replace(me=sols.me + 1e-15)

        monkeypatch.setattr(harness, "fidelity_exact_many", perturbed)
        np.testing.assert_array_equal(scatter(3, 40, 5), expected)

    def test_sink_gets_each_block_as_it_is_made(self, monkeypatch):
        sizes = count_stacks(monkeypatch)
        blocks = []

        def sink(rows):
            blocks.append(rows)
            assert len(sizes) == len(blocks)  # this block's stack is made, the next one's not yet

        assert scatter(4, 1100, 3, sink=sink).shape == (0, 2)
        assert [rows.shape for rows in blocks] == [(512, 2), (512, 2), (76, 2)]
        np.testing.assert_array_equal(np.concatenate(blocks), scatter(4, 1100, 3))

    def test_a_later_block_that_rounds_otherwise_is_redone(self, monkeypatch):
        # Only the stack of the third block, cases 20..29, rounds unlike the
        # one-case path: row 0 agrees, and that block's own first row does not.
        monkeypatch.setattr(states, "BLOCK_AMPLITUDES", 9 * 10)  # ten cases a block at d = 3
        monkeypatch.setattr(states, "MIN_BLOCK_CASES", 1)
        expected = scatter(3, 40, 5)
        sizes = []

        def perturbed(P, spec):
            sizes.append(len(P))
            sols = fidelity_exact_many(P, spec)
            return sols._replace(me=sols.me + 1e-15) if len(sizes) == 3 else sols

        monkeypatch.setattr(harness, "fidelity_exact_many", perturbed)
        np.testing.assert_array_equal(scatter(3, 40, 5), expected)
        assert sizes == [10, 10, 10, 10]


class TestLocc:
    def test_small(self):
        rep = locc_suite(2, 2, kraus_count=2, trials=25, seed=0)
        assert rep.failures == 0
        assert rep.metrics["min_slack"] >= -1e-9
        assert rep.trials == 50  # both sides

    def test_deterministic(self):
        a = locc_suite(2, 2, kraus_count=2, trials=10, seed=1)
        b = locc_suite(2, 2, kraus_count=2, trials=10, seed=1)
        assert a.to_dict() == b.to_dict()

    @staticmethod
    def records(monkeypatch, *args):
        """Every trial's row of ``locc_suite(*args)`` with its violation, not only those its report keeps."""
        seen = []
        report = harness._report

        def capture(suite, seed, violation, row, metrics=None):
            seen.extend({**row(i), "violation": v} for i, v in enumerate(violation))
            return report(suite, seed, violation, row, metrics)

        monkeypatch.setattr(harness, "_report", capture)
        locc_suite(*args)
        return seen

    @pytest.mark.parametrize("d,dB", [(2, 3), (3, 2), (4, 4)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_trials_match_monotonicity_trial(self, monkeypatch, d, dB, m):
        # A small budget, so that blocks begin inside each side and one spans both.
        monkeypatch.setattr(states, "BLOCK_AMPLITUDES", 3 * locc_trial_amplitudes(d, dB, m))
        monkeypatch.setattr(states, "MIN_BLOCK_CASES", 1)
        trials, seed = 8, 13
        spec = stellar(min(d, dB))
        sizes = count_stacks(monkeypatch)
        recs = self.records(monkeypatch, d, dB, m, trials, seed)
        assert len(sizes) == 6  # 2 * trials cases, three a block
        assert [r["side"] for r in recs] == ["A"] * trials + ["B"] * trials
        for idx, rec in enumerate(recs):
            dX = d if idx < trials else dB
            ch = random_channel(dX, m, rec["side"], seed + 2 * idx + 1)
            expected = monotonicity_trial(random_pure(d, dB, seed + 2 * idx), ch, spec)
            assert (rec["before"], rec["after"], rec["slack"]) == tuple(expected)
            assert rec["violation"] == -expected.slack - 1e-9

    def test_block_seam_does_not_matter(self, monkeypatch):
        expected = locc_suite(3, 3, 2, 25, 4).to_dict()
        monkeypatch.setattr(states, "MIN_BLOCK_CASES", 1)
        # One trial a block, blocks of 5, one block.
        for budget, blocks in ((1, 50), (5 * locc_trial_amplitudes(3, 3, 2), 10), (2**20, 1)):
            monkeypatch.setattr(states, "BLOCK_AMPLITUDES", budget)
            sizes = count_stacks(monkeypatch)
            assert locc_suite(3, 3, 2, 25, 4).to_dict() == expected
            assert len(sizes) == blocks

    def test_validation_runs_per_block_not_per_trial(self, monkeypatch):
        # States, channels and branches are checked a stack at a time; only the first state of a block
        # and the first channel of each side it touches are drawn, and so checked, one object at a time.
        counts = {"blocks": 0, "states": 0, "channels": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(harness, "_locc_block", counted("blocks", harness._locc_block))
        monkeypatch.setattr(PureBipartiteState, "__post_init__", counted("states", PureBipartiteState.__post_init__))
        monkeypatch.setattr(KrausChannel, "__post_init__", counted("channels", KrausChannel.__post_init__))
        rep = locc_suite(4, 4, 3, 200, 0)
        assert rep.trials == 400 and 1 < counts["blocks"] <= 400 // states.MIN_BLOCK_CASES + 1
        # A block touches one side or both: at most one state and one channel more than blocks.
        assert counts["states"] <= counts["blocks"] + 1 and counts["channels"] <= counts["blocks"] + 1

    def test_locc_pool_blocks(self, monkeypatch):
        # locc-pool's 2 x 3000 trials at d = dB = 4, m = 3: a trial holds 4 states of 16 amplitudes and an
        # isometry of 48 entries, so a block of 8192 amplitudes holds 73 trials, and a two-worker run takes 83.
        sizes = []

        def fake_block(d, dB, m, specs, trials, seed, cases):
            sizes.append(len(cases))
            return np.ones((len(cases), len(specs), 2))

        monkeypatch.setattr(harness, "_locc_block", fake_block)
        _, mapped = fake_pool(monkeypatch, 2)
        assert locc_suite(4, 4, 3, 3000, 1, threads=2).trials == 6000
        assert len(mapped) == 1 and sizes == [73] * 82 + [6000 - 82 * 73]

    def test_dilation_past_the_blocking_crossover(self, monkeypatch):
        # At dX m = 132, LAPACK factors the whole dilation with its blocked code and the isometry with its
        # unblocked code, so columns past the first panel of 32 can round otherwise (they do on OpenBLAS 0.3.31).
        # A side whose first Kraus set differs then draws its three sets one channel at a time: time, not bytes.
        d, m, trials, seed = 33, 4, 3, 0
        firsts = (seed + 1, seed + 2 * trials + 1)  # the keys of side A's and side B's first channels
        agrees = [random_channels(d, m, [key])[0].tobytes() == random_channel(d, m, "A", key).operators.tobytes()
                  for key in firsts]
        one_case = []

        def one_case_channel(*args):
            one_case.append(args)
            return random_channel(*args)

        monkeypatch.setattr(harness, "random_channel", one_case_channel)
        recs = self.records(monkeypatch, d, d, m, trials, seed)
        spec = stellar(d)
        for idx, rec in enumerate(recs):
            ch = random_channel(d, m, rec["side"], seed + 2 * idx + 1)
            expected = monotonicity_trial(random_pure(d, d, seed + 2 * idx), ch, spec)
            assert (rec["before"], rec["after"], rec["slack"]) == tuple(expected)
        # One block: each side's first channel drawn one case at a time, and its other two if that one differs.
        assert len(one_case) == sum(1 if agree else trials for agree in agrees)

    @pytest.mark.parametrize("perturb", [None, "states", "channels"])
    def test_stacks_that_round_otherwise_give_the_one_case_report(self, monkeypatch, perturb):
        # As in the scatter: the first trial of each block differs from the
        # one-case path, so each block is redone one state at a time, from
        # the branches already drawn.  With a stacked draw one ulp off, only
        # that stage is also redrawn one trial at a time.
        monkeypatch.setattr(states, "BLOCK_AMPLITUDES", 3 * locc_trial_amplitudes(4, 4, 3))
        monkeypatch.setattr(states, "MIN_BLOCK_CASES", 1)
        expected = locc_suite(4, 4, 3, 10, 6).to_dict()
        calls, sizes, one_case, one_state = [], [], [], []

        def perturbed(P, spec):
            sizes.append(len(P))
            sols = fidelity_exact_many(P, spec)
            return sols._replace(me=sols.me + 1e-15)

        def counted(state, ch):
            calls.append(ch)
            return apply_channel(state, ch)

        def one_case_channel(*args):
            one_case.append(args)
            return random_channel(*args)

        def one_case_state(*args):
            one_state.append(args)
            return random_pure(*args)

        def ulp_off_states(dA, dB, seeds, wrap=False):
            wrapped = random_pure_many(dA, dB, seeds, wrap)
            off = [PureBipartiteState(np.nextafter(s.amplitudes.real, 1.0) + 1j * s.amplitudes.imag) for s in wrapped]
            assert not any(np.array_equal(s.amplitudes, o.amplitudes) for s, o in zip(wrapped, off))
            return off

        def ulp_off_channels(dX, m, seeds):
            ops = random_channels(dX, m, seeds)
            return np.nextafter(ops.real, 1.0) + 1j * ops.imag

        monkeypatch.setattr(harness, "fidelity_exact_many", perturbed)
        monkeypatch.setattr(harness, "apply_channel", counted)
        monkeypatch.setattr(harness, "random_channel", one_case_channel)
        monkeypatch.setattr(harness, "random_pure", one_case_state)
        if perturb == "states":
            monkeypatch.setattr(harness, "random_pure_many", ulp_off_states)
        elif perturb == "channels":
            monkeypatch.setattr(harness, "random_channels", ulp_off_channels)
        assert locc_suite(4, 4, 3, 10, 6).to_dict() == expected
        assert len(calls) == 20  # once per trial
        assert len(sizes) == 7  # blocks of three trials
        # The first state of each block is checked, and the first channel of each side of a block, the fourth
        # block's two sides (trials 9 | 10, 11) separately; a stage that differs redraws its other trials.
        assert len(one_state) == (20 if perturb == "states" else 7)
        assert len(one_case) == (20 if perturb == "channels" else 8)


class TestLoccSharedPass:
    """``locc_suites`` draws, branches and decomposes each trial once for all its spectra."""

    @staticmethod
    def specs(d):
        return [stellar(d)] + [random_nondegenerate_spectrum(d, 100 + k) for k in range(3)]

    @staticmethod
    def alone(d, dB, m, trials, seed, specs):
        return [locc_suite(d, dB, m, trials, seed, spec=spec).to_dict() for spec in specs]

    @pytest.mark.parametrize("d,dB", [(2, 3), (3, 2), (3, 3)])
    def test_each_report_equals_its_spectrum_alone(self, monkeypatch, d, dB):
        # A small budget, so that blocks begin inside each side and one spans both.
        monkeypatch.setattr(states, "BLOCK_AMPLITUDES", 3 * locc_trial_amplitudes(d, dB, 2))
        monkeypatch.setattr(states, "MIN_BLOCK_CASES", 1)
        specs = self.specs(min(d, dB))
        expected = self.alone(d, dB, 2, 8, 13, specs)
        calls, sizes = [], count_stacks(monkeypatch)
        monkeypatch.setattr(harness, "apply_channel", lambda state, ch: calls.append(ch) or apply_channel(state, ch))
        assert [rep.to_dict() for rep in locc_suites(d, dB, 2, 8, 13, specs)] == expected
        assert len(calls) == 16 and len(sizes) == 6 * len(specs)  # once per trial; per block, once per spectrum

    def test_pool(self, monkeypatch):
        specs = self.specs(3)
        expected = self.alone(3, 3, 3, 12, 2, specs)
        started, mapped = fake_pool(monkeypatch, 2)
        assert [rep.to_dict() for rep in locc_suites(3, 3, 3, 12, 2, specs, threads=2)] == expected
        assert started == [2] and [len(blocks) for blocks in mapped] == [2]

    def test_one_spectrum_that_rounds_otherwise(self, monkeypatch):
        # Only the perturbed spectrum's evaluation is redone, one trial at a time, from the branches already drawn.
        monkeypatch.setattr(states, "BLOCK_AMPLITUDES", 3 * locc_trial_amplitudes(3, 3, 2))
        monkeypatch.setattr(states, "MIN_BLOCK_CASES", 1)
        specs = self.specs(3)
        expected = self.alone(3, 3, 2, 10, 6, specs)
        evaluated = {id(spec): 0 for spec in specs}

        def perturbed(P, spec):
            sols = fidelity_exact_many(P, spec)
            return sols._replace(me=sols.me + 1e-15) if spec is specs[2] else sols

        def counted(state, branches, spec):
            evaluated[id(spec)] += 1
            return trial_values(state, branches, spec)

        monkeypatch.setattr(harness, "fidelity_exact_many", perturbed)
        monkeypatch.setattr(harness, "trial_values", counted)
        assert [rep.to_dict() for rep in locc_suites(3, 3, 2, 10, 6, specs)] == expected
        assert list(evaluated.values()) == [7, 7, 20, 7]  # 7 blocks of at most three trials

    def test_run_all_branches_each_trial_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "apply_channel", lambda state, ch: calls.append(ch) or apply_channel(state, ch))
        reports = harness.run_all(seed=0, scale=0.01)
        locc_keys = [key for key in reports if key.startswith("locc")]
        assert len(locc_keys) == 24 and all(reports[key].trials == 20 for key in locc_keys)
        assert len(calls) == 3 * 2 * 20  # per trial of each (d, m), not per spectrum
        # In report order: spectrum by spectrum, m = 2 then 3, at each d.
        assert locc_keys[:4] == [f"locc[d=2,dB=2,m={m}],spec{si}" for si in (0, 1) for m in (2, 3)]


class TestMajorizationSuite:
    def test_small(self):
        rep = majorization_suite(4, samples=25, subdiv=8, seed=0)
        assert rep.failures == 0
        assert rep.metrics["max_reproduce_err"] <= 1e-12
        assert rep.metrics["audited"] == AUDITS


class TestUnistochastic:
    def test_small(self):
        rep = unistochastic_suite(3, cases=20, trials=100, seed=0)
        assert rep.failures == 0
        assert rep.metrics["max_agree_err"] <= 1e-12
        assert rep.metrics["max_audit_excess"] <= 1e-9


class TestParallel:
    def test_threads_match_sequential(self):
        seq = bounds_suite(3, samples=40, seed=7, threads=1)
        par = bounds_suite(3, samples=40, seed=7, threads=2)
        assert seq.to_dict() == par.to_dict()

    def test_pool_capped_at_usable_cpus(self, monkeypatch):
        started, _ = fake_pool(monkeypatch, cpus=2)
        negate = lambda cases: [-i for i in cases]
        assert list(states.map_blocks(negate, 3, 1, threads=64)) == [[0, -1], [-2]]
        assert started == [2]
        monkeypatch.setattr(states.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert list(states.map_blocks(negate, 3, 1, threads=64)) == [[0, -1, -2]]
        assert started == [2]  # one usable CPU: no pool
        assert list(states.map_blocks(negate, 3, 1, threads=0)) == [[0, -1, -2]]  # a library caller's 0 runs in-process
        assert started == [2]

    @pytest.mark.parametrize("cpu_count,workers", [(2, [2]), (None, [])])
    def test_pool_capped_without_sched_getaffinity(self, monkeypatch, cpu_count, workers):
        # As on macOS and Windows: the cap falls back to os.cpu_count(), or to one CPU if that is unknown.
        started, mapped = fake_pool(monkeypatch, cpus=0)
        monkeypatch.delattr(states.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(states.os, "cpu_count", lambda: cpu_count)
        blocks = list(states.map_blocks(lambda cases: cases, 1000, 1, threads=1000))
        assert started == workers and mapped == ([blocks] if workers else [])
        assert blocks == ([range(0, 500), range(500, 1000)] if workers else [range(0, 1000)])

    @pytest.mark.parametrize("cpus,workers", [(1, []), (2, [2])], ids=["in-process", "pool"])
    def test_values_come_lazily(self, monkeypatch, cpus, workers):
        # Three blocks of 16, 16 and 8 cases; the fake pool maps lazily, as the in-process path does.
        started, _ = fake_pool(monkeypatch, cpus)
        ran = []
        values = states.map_blocks(lambda cases: ran.append(cases) or len(cases), 40, states.BLOCK_AMPLITUDES, 2)
        assert ran == [] and started == []  # nothing runs, and no pool starts, before a value is asked for
        assert next(values) == 16 and ran == [range(0, 16)]
        assert list(values) == [16, 8] and ran == [range(0, 16), range(16, 32), range(32, 40)]
        assert started == workers

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(n=st.integers(0, 5000), amplitudes=st.integers(1, 2**18), threads=st.integers(-1, 64),
           cpus=st.integers(1, 8))
    def test_blocks_cover_the_cases_once_in_order(self, n, amplitudes, threads, cpus):
        with pytest.MonkeyPatch.context() as mp:  # the in-process pool: no process starts
            started, mapped = fake_pool(mp, cpus)
            blocks = list(states.map_blocks(lambda cases: cases, n, amplitudes, threads))
        assert [i for block in blocks for i in block] == list(range(n))
        workers = min(threads, cpus)
        share = -(-n // max(1, workers))  # n / workers rounded up
        for block in blocks:
            assert len(block) <= max(states.BLOCK_AMPLITUDES // amplitudes, states.MIN_BLOCK_CASES)
            assert len(block) == 1 or len(block) <= 16 * states.BLOCK_AMPLITUDES // amplitudes
            assert len(block) <= share
        cap = max(1, min(max(states.BLOCK_AMPLITUDES // amplitudes, states.MIN_BLOCK_CASES),
                         16 * states.BLOCK_AMPLITUDES // amplitudes))
        if share <= cap:  # cut down for the workers: no worker gets two blocks
            assert len(blocks) <= max(1, workers)
        pooled = workers > 1 and len(blocks) > 1
        assert started == ([workers] if pooled else []) and mapped == ([blocks] if pooled else [])

    def test_blocks_cut_for_the_usable_cpus(self, monkeypatch):
        # 512 cases a block at d = 4: 2000 samples make four blocks for two workers, and
        # as many when 1000 threads are asked for on two usable CPUs.
        started, mapped = fake_pool(monkeypatch, cpus=2)
        rows = scatter(4, 2000, 0, threads=1000)
        blocks = [range(0, 512), range(512, 1024), range(1024, 1536), range(1536, 2000)]
        assert started == [2] and mapped == [blocks]
        np.testing.assert_array_equal(scatter(4, 2000, 0, threads=2), rows)
        assert started == [2, 2] and mapped == [blocks, blocks]

    def test_pool_matches_sequential(self, monkeypatch):
        # Two usable CPUs whatever the machine has, so every call below starts a real 2-worker pool,
        # and maps two blocks on it: the suites that stack nothing map blocks of cases too.
        started, mapped = [], []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

            def map(self, fn, blocks):
                mapped.append(len(blocks))
                return super().map(fn, blocks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(states.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        runs = {
            "hierarchy": lambda t: hierarchy_suite(3, 2, trials=12, seed=3, threads=t).to_dict(),
            "bounds": lambda t: bounds_suite(3, samples=20, seed=3, threads=t).to_dict(),
            "locc": lambda t: locc_suite(2, 3, kraus_count=2, trials=8, seed=3, threads=t).to_dict(),
            "unistochastic": lambda t: unistochastic_suite(3, cases=6, trials=20, seed=3, threads=t).to_dict(),
            "scatter": lambda t: scatter(3, samples=20, seed=3, threads=t).tolist(),
        }
        for name, run in runs.items():
            assert run(2) == run(1), name
        steps = {1: [], 2: []}
        reports = {t: majorization_suite(3, samples=AUDITS + 5, subdiv=4, seed=3, threads=t, steps=steps[t]).to_dict()
                   for t in (1, 2)}
        assert reports[2] == reports[1]
        assert steps[2] == steps[1] and {row[0] for row in steps[1]} == set(range(AUDITS))
        assert started == [2] * 6 and mapped == [2] * 6

    def test_scatter_threads(self):
        a = scatter(3, samples=40, seed=7, threads=1)
        b = scatter(3, samples=40, seed=7, threads=2)
        np.testing.assert_array_equal(a, b)


def finalize(suite, cases, seed, metrics=None):
    """The reducer ``_report`` replaced, over one record dict per case: the reference it must equal."""
    for rec in cases:
        rec["ok"] = rec["violation"] <= 0.0
    failures = [rec for rec in cases if not rec["ok"]]
    worst = max(cases, key=lambda rec: rec["violation"], default=None)  # the first of equal maxima
    details = failures if worst is None or worst in failures else failures + [worst]
    return harness.VerificationReport(
        suite=suite,
        trials=len(cases),
        failures=len(failures),
        worst_violation=float(worst["violation"]) if worst is not None else float("-inf"),
        details=details,
        seed=seed,
        metrics=metrics or {},
    )


violations = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, np.float64(0.5), np.float64(-1e-300)]),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
), max_size=12)


class TestReport:
    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(violations)
    def test_equals_the_per_case_reducer(self, violation):
        rep = harness._report("x", 3, violation, lambda i: {"case": i}, {"m": 1.0})
        ref = finalize("x", [{"case": i, "violation": v} for i, v in enumerate(violation)], 3, {"m": 1.0})
        assert (rep.trials, rep.failures, rep.details, rep.metrics) == (ref.trials, ref.failures, ref.details, ref.metrics)
        assert rep.worst_violation == ref.worst_violation and type(rep.worst_violation) is float
        assert all(type(row["violation"]) is float and type(row["ok"]) is bool for row in rep.details)

    @pytest.mark.parametrize("violation,kept,worst", [
        ([0.5, 0.5, -1.0], [0, 1], 0.5),  # every failure once; the worst is the first of them
        ([-1.0, -0.5, -0.5, 0.0], [3], 0.0),  # 0 passes
        ([-1.0, -0.5, -0.5], [1], -0.5),  # no failure: the first of equal maxima, passing
        ([0.0, np.float64(1e-300), -1.0], [1], 1e-300),
        ([-1e-300, 2.0, 1e-300], [1, 2], 2.0),  # the worst is failing, so not repeated
        ([], [], float("-inf")),
    ], ids=["equal-failures", "zero-passes", "passing-worst", "tiny-failure", "failing-worst-once", "no-cases"])
    def test_kept_rows(self, violation, kept, worst):
        rep = harness._report("x", 0, violation, lambda i: {"case": i})
        assert [row["case"] for row in rep.details] == kept and rep.worst_violation == worst
        assert rep.failures == sum(not row["ok"] for row in rep.details) == sum(not v <= 0 for v in violation)

    def test_rows_only_for_kept_cases(self):
        asked = []
        harness._report("x", 0, np.linspace(-1.0, 0.0, 1000), lambda i: asked.append(i) or {})
        assert asked == [999]


class TestIntegralFloatSeed:
    """A seed of 3.0 reaches every suite as the int 3, which ``check_seed`` returns."""

    def test_scatter(self):
        np.testing.assert_array_equal(scatter(4, 5, 2.0), scatter(4, 5, 2))

    def test_bounds_suite(self):
        rep = bounds_suite(2, 3, 2.0)
        assert rep.to_dict() == bounds_suite(2, 3, 2).to_dict() and type(rep.seed) is int

    @pytest.mark.parametrize("suite", [
        lambda seed: hierarchy_suite(2, 1, 2, seed),
        lambda seed: locc_suite(2, 2, 2, 2, seed),
        lambda seed: majorization_suite(2, 2, 2, seed),
        lambda seed: unistochastic_suite(2, 2, 2, seed),
    ], ids=["hierarchy", "locc", "majorization", "unistochastic"])
    def test_reports_record_the_int(self, suite):
        rep = suite(3.0)
        assert rep.seed == 3 and type(rep.seed) is int
        assert rep.to_dict() == suite(3).to_dict()

    def test_run_all_seed(self, monkeypatch):
        # run_all hands its first suite the int, which then stops the run.
        class Stop(Exception):
            pass

        def first_suite(d, samples, seed, threads):
            assert seed == 3 and type(seed) is int
            raise Stop

        monkeypatch.setattr(harness, "bounds_suite", first_suite)
        with pytest.raises(Stop):
            harness.run_all(seed=3.0, scale=0.001)
