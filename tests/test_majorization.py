import numpy as np
import pytest

from mirrorent import majorization, states
from mirrorent.majorization import StepRecord, TTransform, _substep_ts, apply_chain, increment_audit, ttransform_chain
from mirrorent.monotones import fidelity_exact, fidelity_exact_many, lower_bound_coefficient
from mirrorent.spectra import stellar
from mirrorent.states import SchmidtSpectrum, linear_entropy


def chain_start(d):
    x = np.zeros(d)
    x[0] = 1.0
    return x


def estar_of(p):
    p = np.asarray(p, dtype=float)
    return fidelity_exact(SchmidtSpectrum.from_probs(p), stellar(p.size)).me


def majorizes(q, p) -> bool:
    """True iff sorted partial sums of q dominate those of p, equal at the end."""
    cq = np.cumsum(np.sort(np.asarray(q, dtype=float))[::-1])
    cp = np.cumsum(np.sort(np.asarray(p, dtype=float))[::-1])
    if cq.shape != cp.shape:
        raise ValueError("vectors must have equal length")
    return bool(np.all(cq - cp >= -1e-12) and abs(cq[-1] - cp[-1]) <= 1e-12)


def step_matrix(step):
    """The doubly stochastic matrix (1-t) I + t W of a chain step, W the transposition of (i, j)."""
    w = np.eye(step.d)
    w[[step.i, step.j]] = w[[step.j, step.i]]
    return (1.0 - step.t) * np.eye(step.d) + step.t * w


def audit_one_case(p, n_sub):
    """``increment_audit`` one substep at a time: each vector from its step's start, then its two values."""
    target = np.asarray(p, dtype=float)
    d = target.size
    coeff = lower_bound_coefficient(d) if d >= 2 else 1.0

    def values(x):
        return fidelity_exact(SchmidtSpectrum.from_probs(x), stellar(d)).me, linear_entropy(x)

    x = chain_start(d)
    estar, el = values(x)
    records = []
    for step in ttransform_chain(target):
        if step.t == 1.0:
            x = step.apply(x)
            continue
        x0 = x
        for t_cum in _substep_ts(step.t, n_sub):
            x = TTransform(d, step.i, step.j, t_cum).apply(x0)
            new_estar, new_el = values(x)
            d_estar, d_el = new_estar - estar, new_el - el
            records.append(StepRecord(d_estar, d_el, d_estar >= coeff * d_el - 1e-9))
            estar, el = new_estar, new_el
    return records


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
        m = step_matrix(t)
        np.testing.assert_allclose(m.sum(axis=0), np.ones(4), atol=1e-15)
        np.testing.assert_allclose(m.sum(axis=1), np.ones(4), atol=1e-15)
        x = np.array([0.4, 0.3, 0.2, 0.1])
        np.testing.assert_allclose(m @ x, t.apply(x), atol=1e-15)

    def test_transposition_matrix(self):
        w = TTransform(3, 0, 2, 1.0)
        x = np.array([0.5, 0.3, 0.2])
        np.testing.assert_allclose(step_matrix(w) @ x, [0.2, 0.3, 0.5], atol=1e-15)
        np.testing.assert_allclose(w.apply(x), [0.2, 0.3, 0.5], atol=1e-15)

    def test_transposition_swaps_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            i, j = (int(k) for k in rng.choice(d, size=2, replace=False))
            x = rng.dirichlet(np.ones(d)) * rng.choice([1.0, 1e-300, 1e300])
            x[rng.integers(0, d)] = 0.0
            expected = x.copy()
            expected[[i, j]] = x[[j, i]]
            assert TTransform(d, i, j, 1.0).apply(x).tobytes() == expected.tobytes()

    def test_t_normal_form_enforced(self):
        with pytest.raises(ValueError):
            TTransform(3, 0, 1, 0.7)
        with pytest.raises(ValueError):
            TTransform(3, 0, 1, 1.5)
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
        mixers = [c for c in chain if c.t != 1.0]
        assert len(mixers) <= 2
        out = apply_chain(chain, chain_start(3))
        np.testing.assert_allclose(out, [0.5, 0.3, 0.2], atol=1e-15)

    def test_random_targets_reproduced(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(d))
            chain = ttransform_chain(p)
            mixers = [c for c in chain if c.t != 1.0]
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
                m = step_matrix(c)
                np.testing.assert_allclose(m.sum(axis=0), np.ones(d), atol=1e-12)
                np.testing.assert_allclose(m.sum(axis=1), np.ones(d), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ttransform_chain([0.6, 0.6])
        with pytest.raises(ValueError):
            ttransform_chain([np.nan, 0.5, 0.5])


class TestIncrementAudit:
    @pytest.mark.parametrize("n_sub", [0, -1, 2.5])
    def test_rejects_a_bad_substep_count(self, n_sub):
        with pytest.raises(ValueError, match="n_sub"):
            increment_audit([0.5, 0.5], n_sub=n_sub)

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

    @pytest.mark.parametrize("p,n_sub", [
        ([1.0], 8),  # d = 1: an empty chain
        ([1.0, 0.0], 8),  # the start vector itself
        ([0.7, 0.3], 16),
        ([0.1, 0.9], 5),  # a transposition first
        ([0.5, 0.5], 16),  # t = 1/2: the capped s-walk
        ([0.5, 0.25, 0.25], 7),  # two capped steps
        ([0.4, 0.35, 0.25], 9),  # t > 1/2: a transposition, then 1 - t
        ([0.2, 0.0, 0.8, 0.0], 12),  # zeros in the target
        ([0.25, 0.25, 0.25, 0.25], 1),
        ([0.1, 0.6, 0.3], 64),
    ])
    def test_matches_one_substep_at_a_time(self, p, n_sub):
        assert increment_audit(p, n_sub=n_sub) == audit_one_case(p, n_sub)

    def test_random_targets_match_one_substep_at_a_time(self):
        rng = np.random.default_rng(8)
        for d in range(2, 9):
            for alpha in (0.3, 1.0):
                p = rng.dirichlet(np.full(d, alpha))
                n_sub = int(rng.integers(1, 40))
                assert increment_audit(p, n_sub=n_sub) == audit_one_case(p, n_sub)

    @staticmethod
    def count_stacks(monkeypatch, perturb=0.0):
        """Sizes of the stacks the audit evaluates from now on; ``me`` of row k moved by ``perturb * (k + 1)``."""
        sizes = []

        def counted(P, spec):
            sizes.append(len(P))
            sols = fidelity_exact_many(P, spec)
            return sols._replace(me=sols.me + perturb * np.arange(1, len(P) + 1))

        monkeypatch.setattr(majorization, "fidelity_exact_many", counted)
        return sizes

    def test_stack_chunks_do_not_matter(self, monkeypatch):
        p, n_sub = [0.05, 0.3, 0.2, 0.45], 700
        expected = increment_audit(p, n_sub=n_sub)
        assert len(expected) == 3 * n_sub
        # One vector per stack, a chunk edge inside each step, one per step: the start vector and 2100 substeps.
        for budget, blocks in ((1, 2101), (4 * 37, 57), (4 * n_sub, 4)):
            monkeypatch.setattr(states, "BLOCK_AMPLITUDES", budget)
            sizes = self.count_stacks(monkeypatch)
            assert increment_audit(p, n_sub=n_sub) == expected
            assert len(sizes) == blocks
        assert expected == audit_one_case(p, n_sub)

    @pytest.mark.parametrize("budget,blocks", [(4 * 37, 6), (states.BLOCK_AMPLITUDES, 1)])
    def test_stacks_that_round_otherwise_give_the_one_case_records(self, monkeypatch, budget, blocks):
        # Each row moved by a different amount, so that the increments move too:
        # every stack's first row differs from the one-case path, so every block is redone.
        p, n_sub = [0.05, 0.3, 0.2, 0.45], 70
        expected = audit_one_case(p, n_sub)
        monkeypatch.setattr(states, "BLOCK_AMPLITUDES", budget)
        sizes = self.count_stacks(monkeypatch, perturb=1e-15)
        assert increment_audit(p, n_sub=n_sub) == expected
        assert len(sizes) == blocks
