import numpy as np
import pytest

from mirrorent.majorization import (
    Transposition,
    TTransform,
    apply_chain,
    increment_audit,
    majorizes,
    ttransform_chain,
)
from mirrorent.monotones import fidelity_exact, lower_bound_coefficient
from mirrorent.spectra import stellar
from mirrorent.states import SchmidtSpectrum, linear_entropy


def chain_start(d):
    x = np.zeros(d)
    x[0] = 1.0
    return x


def estar_of(p):
    p = np.asarray(p, dtype=float)
    return fidelity_exact(SchmidtSpectrum.from_probs(p), stellar(p.size)).me


class TestMajorizes:
    def test_pure_majorizes_everything(self):
        assert majorizes([1, 0, 0], [0.5, 0.3, 0.2])
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(d))
            q = np.zeros(d)
            q[0] = 1.0
            assert majorizes(q, p)

    def test_uniform_is_bottom(self):
        assert not majorizes([1 / 3, 1 / 3, 1 / 3], [0.5, 0.3, 0.2])
        assert majorizes([0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3])

    def test_reflexive(self):
        assert majorizes([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])

    def test_transitive_on_random_triples(self):
        rng = np.random.default_rng(1)
        found = 0
        while found < 25:
            d = int(rng.integers(2, 6))
            a, b, c = (rng.dirichlet(np.ones(d)) for _ in range(3))
            if majorizes(a, b) and majorizes(b, c):
                assert majorizes(a, c)
                found += 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            majorizes([1, 0], [1, 0, 0])


class TestChainElements:
    def test_ttransform_matrix_doubly_stochastic(self):
        t = TTransform(4, 1, 3, 0.3)
        m = t.matrix()
        np.testing.assert_allclose(m.sum(axis=0), np.ones(4), atol=1e-15)
        np.testing.assert_allclose(m.sum(axis=1), np.ones(4), atol=1e-15)
        x = np.array([0.4, 0.3, 0.2, 0.1])
        np.testing.assert_allclose(m @ x, t.apply(x), atol=1e-15)

    def test_transposition_matrix(self):
        w = Transposition(3, 0, 2)
        x = np.array([0.5, 0.3, 0.2])
        np.testing.assert_allclose(w.matrix() @ x, [0.2, 0.3, 0.5], atol=1e-15)
        np.testing.assert_allclose(w.apply(x), [0.2, 0.3, 0.5], atol=1e-15)

    def test_t_normal_form_enforced(self):
        with pytest.raises(ValueError):
            TTransform(3, 0, 1, 0.7)
        with pytest.raises(ValueError):
            TTransform(3, 1, 1, 0.2)


class TestChain:
    def test_pure_target_empty(self):
        assert ttransform_chain([1.0, 0.0]) == []

    def test_simple_qubit(self):
        chain = ttransform_chain([0.7, 0.3])
        assert len(chain) == 1
        step = chain[0]
        assert isinstance(step, TTransform)
        assert {step.i, step.j} == {0, 1}
        assert abs(step.t - 0.3) < 1e-15

    def test_three_outcomes(self):
        chain = ttransform_chain([0.5, 0.3, 0.2])
        mixers = [c for c in chain if isinstance(c, TTransform)]
        assert len(mixers) <= 2
        out = apply_chain(chain, chain_start(3))
        np.testing.assert_allclose(out, [0.5, 0.3, 0.2], atol=1e-15)

    def test_random_targets_reproduced(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(d))
            chain = ttransform_chain(p)
            mixers = [c for c in chain if isinstance(c, TTransform)]
            assert len(mixers) <= d - 1
            assert all(c.t <= 0.5 for c in mixers)
            out = apply_chain(chain, chain_start(d))
            assert np.abs(out - p).max() < 1e-12

    def test_unsorted_target(self):
        p = [0.1, 0.6, 0.3]
        out = apply_chain(ttransform_chain(p), chain_start(3))
        np.testing.assert_allclose(out, p, atol=1e-14)

    def test_every_element_doubly_stochastic(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            for c in ttransform_chain(rng.dirichlet(np.ones(d))):
                m = c.matrix()
                np.testing.assert_allclose(m.sum(axis=0), np.ones(d), atol=1e-12)
                np.testing.assert_allclose(m.sum(axis=1), np.ones(d), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ttransform_chain([0.6, 0.6])
        with pytest.raises(ValueError):
            ttransform_chain([np.nan, 0.5, 0.5])


class TestIncrementAudit:
    def test_d2_steps_coincide(self):
        # at d = 2 both monotones are equal, so every substep matches
        records = increment_audit([0.5, 0.5], n_sub=16)
        assert records
        for rec in records:
            assert abs(rec.d_estar - rec.d_el) < 1e-12
            assert rec.ratio_ok

    def test_d4_uniform_endpoint(self):
        records = increment_audit([0.25, 0.25, 0.25, 0.25], n_sub=16)
        total = sum(r.d_estar for r in records)
        assert abs(total - 1.0) < 1e-9
        assert total >= 0.75 * sum(r.d_el for r in records) - 1e-9

    def test_d4_rank2_saturates_lower_bound(self):
        records = increment_audit([0.5, 0.5, 0.0, 0.0], n_sub=16)
        total_estar = sum(r.d_estar for r in records)
        total_el = sum(r.d_el for r in records)
        assert abs(total_estar - 0.5) < 1e-9
        assert abs(total_estar - 0.75 * total_el) < 1e-9

    def test_linear_entropy_nondecreasing(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            records = increment_audit(rng.dirichlet(np.ones(d)), n_sub=8)
            assert all(r.d_el >= -1e-12 for r in records)

    def test_totals_telescope_to_endpoint(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(d))
            records = increment_audit(p, n_sub=16)
            total_estar = sum(r.d_estar for r in records)
            total_el = sum(r.d_el for r in records)
            assert abs(total_estar - estar_of(p)) < 1e-9
            assert abs(total_el - linear_entropy(p)) < 1e-9

    def test_aggregate_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(d))
            records = increment_audit(p, n_sub=8)
            total_estar = sum(r.d_estar for r in records)
            total_el = sum(r.d_el for r in records)
            assert total_estar >= lower_bound_coefficient(d) * total_el - 1e-9
