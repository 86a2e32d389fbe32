import numpy as np
import pytest

from mirrorent.harness import (
    boundary_families_d4,
    bounds_suite,
    controlled_rank_probs,
    degenerate_spectrum,
    hierarchy_suite,
    locc_suite,
    majorization_suite,
    random_nondegenerate_spectrum,
    scatter,
    unistochastic_suite,
    upper_bound_witness,
    witness_suite,
)
from mirrorent.monotones import fidelity_exact
from mirrorent.spectra import degeneracy
from mirrorent.states import SchmidtSpectrum, rng_for_seed


class TestGenerators:
    def test_degenerate_spectrum_has_exact_multiplicity(self):
        rng = rng_for_seed(0)
        for d in range(2, 7):
            for r in range(1, d + 1):
                spec = degenerate_spectrum(d, r, rng)
                assert degeneracy(spec) == r

    def test_controlled_rank(self):
        rng = rng_for_seed(1)
        for d in range(2, 7):
            for s in range(1, d + 1):
                p = controlled_rank_probs(d, s, rng)
                assert np.count_nonzero(p) == s
                assert p[p > 0].min() >= 0.01
                assert abs(p.sum() - 1.0) < 1e-12

    def test_random_nondegenerate(self):
        for d in (2, 4, 6):
            assert degeneracy(random_nondegenerate_spectrum(d, seed=d)) == 1


class TestHierarchy:
    def test_small_sweep_passes(self):
        rep = hierarchy_suite(3, 2, trials=30, seed=0)
        assert rep.ok and rep.trials == 30

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
        assert rep.ok

    def test_deterministic(self):
        a = hierarchy_suite(3, 2, trials=10, seed=5)
        b = hierarchy_suite(3, 2, trials=10, seed=5)
        assert a.to_dict() == b.to_dict()


class TestBounds:
    def test_small_runs_clean(self):
        for d in (2, 3, 4, 5):
            rep = bounds_suite(d, samples=50, seed=0)
            assert rep.ok, rep.to_dict()

    def test_families(self):
        cases = boundary_families_d4()
        assert len(cases) == 63
        assert all(c["ok"] for c in cases)
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
        rep = witness_suite(d_values=(2, 3, 4, 5), s_values=np.linspace(0, 1, 6))
        assert rep.ok

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

    def test_bitwise_reproducible(self):
        a = scatter(4, samples=50, seed=3)
        b = scatter(4, samples=50, seed=3)
        np.testing.assert_array_equal(a, b)


class TestLocc:
    def test_small(self):
        rep = locc_suite(2, 2, kraus_count=2, trials=25, seed=0)
        assert rep.ok
        assert rep.metrics["min_slack"] >= -1e-9
        assert rep.trials == 50  # both sides

    def test_deterministic(self):
        a = locc_suite(2, 2, kraus_count=2, trials=10, seed=1)
        b = locc_suite(2, 2, kraus_count=2, trials=10, seed=1)
        assert a.to_dict() == b.to_dict()


class TestMajorizationSuite:
    def test_small(self):
        rep = majorization_suite(4, samples=25, subdiv=8, seed=0, audits=5)
        assert rep.ok
        assert rep.metrics["max_reproduce_err"] <= 1e-12
        assert rep.metrics["audited"] == 5


class TestUnistochastic:
    def test_small(self):
        rep = unistochastic_suite(3, cases=20, trials=100, seed=0)
        assert rep.ok
        assert rep.metrics["max_agree_err"] <= 1e-12
        assert rep.metrics["max_audit_excess"] <= 1e-9


class TestParallel:
    def test_threads_match_sequential(self):
        seq = bounds_suite(3, samples=40, seed=7, threads=1)
        par = bounds_suite(3, samples=40, seed=7, threads=2)
        assert seq.to_dict() == par.to_dict()

    def test_scatter_threads(self):
        a = scatter(3, samples=40, seed=7, threads=1)
        b = scatter(3, samples=40, seed=7, threads=2)
        np.testing.assert_array_equal(a, b)
