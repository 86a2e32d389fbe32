import gc
import itertools
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorent import monotones
from mirrorent.harness import degenerate_spectrum
from mirrorent.monotones import (
    COMPILED_SWEEP_CAP,
    _compile_events,
    _compile_sweep,
    _event_sweep,
    _lex_table,
    _slot_blocks,
    _solution,
    _window_keeps,
    fidelity_bruteforce,
    fidelity_exact,
    fidelity_exact_many,
    linear_entropy_bounds,
    lower_bound_coefficient,
    mirror_entanglement,
    optimal_unitary,
    permutation_overlaps,
    unistochastic_audit,
)
from mirrorent.spectra import TWO_PI, LUSpectrum, stellar
from mirrorent.states import (
    PureBipartiteState,
    SchmidtSpectrum,
    linear_entropy,
    random_pure,
    rng_for_seed,
    schmidt_spectrum,
)


def probs(*values):
    return SchmidtSpectrum.from_probs(list(values))


def stellar_fidelity(P):
    """F = |sum_i p_i w^z(i)|^2, w = e^(2 pi i / d), z = (0, 1, -1, 2, -2, ...), for each non-increasing row of P:
    the optimum of ``stellar(d)``, whose equispaced eigenvalues take the zig-zag up to a rotation and a reflection."""
    k = np.arange(P.shape[1])
    z = (k + 1) // 2 * np.where(k % 2, 1, -1)
    return np.abs(P @ np.exp(2j * np.pi * z / P.shape[1])) ** 2


def bell_state():
    return PureBipartiteState(np.array([[1, 0], [0, 1]]) / np.sqrt(2))


def stellar_entanglement(state):
    """Stellar monotone in the cosine form of Giampaolo & Illuminati (PRA 76, 042301, 2007).

    1 - sum_ij cos(2*pi*(sigma_i - sigma_j)/d) p_i p_j at the optimal
    assignment: a second evaluator, cross-validating the |z|^2 route.
    """
    p = schmidt_spectrum(state)
    d = p.d
    if d == 1:
        return 0.0
    s = np.asarray(fidelity_exact(p, stellar(d)).sigma)
    cosm = np.cos(TWO_PI * (s[:, None] - s[None, :]) / d)
    return float(1.0 - p.probs @ cosm @ p.probs)


def slow_bruteforce(p, spec):
    """Independent oracle: plain python loop over all assignments."""
    best = -1.0
    for sigma in itertools.permutations(range(p.d)):
        z = sum(spec.eigenvalues[s] * pi for s, pi in zip(sigma, p.probs))
        best = max(best, abs(z) ** 2)
    return best


def assert_same_multiset(got, expected, tol):
    """Greedy nearest matching; valid when expected values are tol-separated."""
    pool = list(expected)
    for x in got:
        dists = [abs(x - y) for y in pool]
        k = int(np.argmin(dists))
        assert dists[k] < tol, f"{x} has no partner within {tol}"
        pool.pop(k)


class TestBruteforce:
    def test_pure_vector_any_spectrum(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 4):
            spec = LUSpectrum.from_phases(rng.uniform(0, 2 * np.pi, d))
            sol = fidelity_bruteforce(probs(*([1.0] + [0.0] * (d - 1))), spec)
            assert abs(sol.fidelity - 1.0) < 1e-14
            assert abs(sol.me) < 1e-14

    def test_bell_stellar(self):
        sol = fidelity_bruteforce(probs(0.5, 0.5), stellar(2))
        assert abs(sol.fidelity) < 1e-15
        assert abs(sol.me - 1.0) < 1e-15

    def test_biased_qubit(self):
        sol = fidelity_bruteforce(probs(0.75, 0.25), stellar(2))
        assert abs(sol.fidelity - 0.25) < 1e-14
        assert abs(sol.me - 0.75) < 1e-14

    def test_uniform_traceless(self):
        sol = fidelity_bruteforce(probs(0.25, 0.25, 0.25, 0.25), stellar(4))
        assert abs(sol.fidelity) < 1e-28
        assert abs(sol.me - 1.0) < 1e-14

    def test_cap(self):
        p = SchmidtSpectrum.from_probs(np.full(10, 0.1))
        with pytest.raises(ValueError, match="fidelity_exact"):
            fidelity_bruteforce(p, stellar(10))

    def test_matches_slow_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(d)))
            spec = LUSpectrum.from_phases(rng.uniform(0, 2 * np.pi, d))
            assert abs(fidelity_bruteforce(p, spec).fidelity - slow_bruteforce(p, spec)) < 1e-14

    def test_solution_invariants(self):
        sol = fidelity_bruteforce(probs(0.6, 0.3, 0.1), stellar(3))
        assert sorted(sol.sigma) == [0, 1, 2]
        assert abs(abs(sol.overlap) ** 2 - sol.fidelity) < 1e-12
        assert abs(sol.me - (1.0 - sol.fidelity)) < 1e-14


def oracle_vectors(d, rng):
    """A Dirichlet vector, one of ties (entries 1 or 2, normalized) and one with zeros after its first ceil(d/2)."""
    tied = np.sort(rng.integers(1, 3, d))[::-1].astype(float)
    head = -(-d // 2)
    zeros = np.concatenate([np.sort(rng.dirichlet(np.ones(head)))[::-1], np.zeros(d - head)])
    return [SchmidtSpectrum(v) for v in (np.sort(rng.dirichlet(np.ones(d)))[::-1], tied / tied.sum(), zeros)]


class TestPermutationBlocks:
    """The oracle's one walk gives every assignment's |z| in lexicographic order, with the bits of the one-table
    oracle, and the oracle's sigma is the first maximum's."""

    @pytest.mark.parametrize("d", range(1, 10))
    def test_blocks_enumerate_lexicographic_order(self, d):
        # One product per sigma, in itertools order: a block out of place or missing shows beyond rounding.
        rng = rng_for_seed(20 + d)
        spec, q = LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, d)), rng.dirichlet(np.ones(d))
        table = np.array(list(itertools.permutations(range(d))), dtype=np.intp)
        expected = np.abs(np.einsum("kj,j->k", spec.eigenvalues[table], q))
        np.testing.assert_allclose(permutation_overlaps(q, spec), expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_sigma_is_the_permutation_at_the_first_maximum(self, monkeypatch, d):
        # The oracle reads sigma back from the index k of the first maximum: permutation k in itertools order, for
        # every k up to d = 6, and above it for sampled k and those at the edges of the 7!-row blocks.
        n = math.factorial(d)
        rng = rng_for_seed(30 + d)
        ks = set(range(n)) if d <= 6 else {0, 5039, 5040, n - 5041, n - 5040, n - 1, *rng.choice(n, 40).tolist()}
        expected = {k: sigma for k, sigma in enumerate(itertools.permutations(range(d))) if k in ks}
        p = SchmidtSpectrum.from_probs(np.full(d, 1 / d))
        for k, sigma in expected.items():
            vals = np.zeros(n)
            vals[k] = vals[-1] = 1.0  # an equal maximum at the end loses
            monkeypatch.setattr(monotones, "permutation_overlaps", lambda probs, spec: vals)
            assert fidelity_bruteforce(p, stellar(d)).sigma == sigma

    def test_tables_are_read_only_and_cached(self):
        table = _lex_table(5)
        assert _lex_table(5) is table and not table.flags.writeable

    def test_no_table_above_seven_entries(self):
        # At d = 8 and 9 each block is a prefix in front of the orders of the last seven entries.
        _lex_table.cache_clear()
        for d in (8, 9):
            p = SchmidtSpectrum.from_probs(np.full(d, 1 / d))
            assert permutation_overlaps(p.probs, stellar(d)).shape == (math.factorial(d),)
            fidelity_bruteforce(p, stellar(d))
        assert _lex_table.cache_info().currsize == 1
        assert _lex_table(7).shape == (math.factorial(7), 7) and _lex_table.cache_info().currsize == 1

    @pytest.mark.parametrize("d", range(2, 10))
    def test_bits_of_the_full_table(self, d):
        # The oracle as it was: one d!-row table, every |overlap| from one gemv, the first maximum's solution.
        table = np.array(list(itertools.permutations(range(d))), dtype=np.intp)
        rng = rng_for_seed(10 + d)
        for spec in (stellar(d), LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, d)),
                     degenerate_spectrum(d, int(rng.integers(2, d + 1)), rng)):
            for p in oracle_vectors(d, rng):
                vals = np.abs(spec.eigenvalues[table] @ p.probs)
                assert permutation_overlaps(p.probs, spec).tobytes() == vals.tobytes()
                sol, ref = fidelity_bruteforce(p, spec), _solution(table[np.argmax(vals)], spec.eigenvalues, p.probs)
                assert (sol.sigma, sol.fidelity, sol.me, sol.overlap) == (ref.sigma, ref.fidelity, ref.me, ref.overlap)

    @staticmethod
    def first_call_peak(d):
        """Traced allocation peak of a first ``fidelity_bruteforce`` call at d, table build included."""
        p = SchmidtSpectrum.from_probs(rng_for_seed(d).dirichlet(np.ones(d)))
        _lex_table.cache_clear()
        tracemalloc.start()
        try:
            fidelity_bruteforce(p, stellar(d))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_first_call_at_d8_allocates_little(self):
        # One d!-row table and its gather took 8.2 MiB, the 8!-row table (2.5 MiB) with one slice's gather
        # 3.5 MiB, and the 7!-row table with one whole complex block 1.7; with 720-row chunks, about 0.75.
        assert self.first_call_peak(8) < 2 * 2**20

    def test_first_call_at_d9_allocates_little(self):
        # A d!-row table and its gather took 80.5 MiB, the 8!-row table with one block 3.9 MiB, and the 7!-row
        # table (276 KiB) with one whole complex block (709 KiB) 4.3; 720-row chunks and the 9! overlaps take 3.2.
        assert self.first_call_peak(9) < 10 * 2**20

    @pytest.mark.parametrize("d", [7, 8, 9])
    def test_a_warm_call_allocates_little_beside_its_vector(self, d):
        # A whole 7!-row block at a time took the complex block, its gather and the gemv's result beside the
        # d!-vector, 1.2 MiB at d = 8, the block and the gather each above glibc's 128 KiB mmap threshold and
        # mapped anew on every call; 720-row chunks take 0.17 MiB.
        rng = rng_for_seed(40 + d)
        spec, q = LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, d)), rng.dirichlet(np.ones(d))
        permutation_overlaps(q, spec)
        tracemalloc.start()
        try:
            permutation_overlaps(q, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * math.factorial(d) < 2**18

    @pytest.mark.parametrize("probs,spec", [([0.5, 0.3, 0.2], 4), ([[0.5, 0.5]], 2), (0.5, 1), ([], 1)])
    def test_overlaps_reject_a_vector_of_another_length(self, probs, spec):
        with pytest.raises(ValueError, match=r"probs must be a vector of length \d, got shape"):
            permutation_overlaps(probs, stellar(spec))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_overlaps_reject_a_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match=f"probs must be finite, got {bad}"):
            permutation_overlaps([1.0, bad], stellar(2))

    def test_overlaps_use_probs_as_given(self):
        # Neither sorted nor renormalized: each value is the raw vector's overlap.
        spec, q = LUSpectrum.from_phases([0.0, 1.0, 2.5]), [0.1, 0.7, 0.0]
        expected = [abs(sum(spec.eigenvalues[s] * qi for s, qi in zip(sigma, q)))
                    for sigma in itertools.permutations(range(3))]
        np.testing.assert_allclose(permutation_overlaps(q, spec), expected, rtol=1e-15, atol=0)


class TestExact:
    def test_identity_spectrum_trivial(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 4, 6):
            spec = LUSpectrum.from_phases(np.zeros(d))
            p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(d)))
            sol = fidelity_exact(p, spec)
            assert abs(sol.fidelity - 1.0) < 1e-14
            assert abs(sol.me) < 1e-14

    def test_matches_bruteforce_example(self):
        p = probs(0.5, 0.3, 0.2)
        fb = fidelity_bruteforce(p, stellar(3))
        fe = fidelity_exact(p, stellar(3))
        assert abs(fb.fidelity - fe.fidelity) < 1e-12

    def test_random_sweep_against_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(d)))
            spec = LUSpectrum.from_phases(rng.uniform(0, 2 * np.pi, d))
            fb = fidelity_bruteforce(p, spec)
            fe = fidelity_exact(p, spec)
            assert abs(fb.fidelity - fe.fidelity) < 1e-12
            assert abs(abs(fe.overlap) ** 2 - fe.fidelity) < 1e-12

    def test_degenerate_spectra_sweep(self):
        # exact zero gaps exercise the tie handling of the sweep
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            gaps = rng.dirichlet(np.ones(d))
            gaps[rng.integers(0, d, size=max(0, d // 2))] = 0.0
            gaps = gaps / gaps.sum() if gaps.sum() > 0 else np.full(d, 1.0 / d)
            spec = LUSpectrum.from_gaps(gaps)
            p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(d)))
            fb = fidelity_bruteforce(p, spec)
            fe = fidelity_exact(p, spec)
            assert abs(fb.fidelity - fe.fidelity) < 1e-12

    @pytest.mark.parametrize("d", range(2, 10))
    def test_near_equal_phases_against_bruteforce(self, d):
        # The pair sweeps as one phase, which can cost |z| no more than the pair's distance.
        rng = rng_for_seed(100 + d)
        for seed in range(20):
            for spec in near_degenerate(d, 1000 * d + seed):
                for alpha in (0.2, 1.0):
                    p = SchmidtSpectrum.from_probs(rng.dirichlet(np.full(d, alpha)))
                    assert abs(fidelity_exact(p, spec).fidelity - fidelity_bruteforce(p, spec).fidelity) <= 1e-15

    @pytest.mark.parametrize("d", range(2, 10))
    def test_group_across_the_seam_against_bruteforce(self, d):
        rng = rng_for_seed(200 + d)
        for seed in range(20):
            for spec in seam_wrapped(d, 1000 * d + seed):
                for alpha in (0.2, 1.0):
                    p = SchmidtSpectrum.from_probs(rng.dirichlet(np.full(d, alpha)))
                    assert abs(fidelity_exact(p, spec).fidelity - fidelity_bruteforce(p, spec).fidelity) <= 1e-15

    def test_permutation_invariance(self):
        base = fidelity_exact(probs(0.5, 0.3, 0.2), stellar(3)).fidelity
        assert fidelity_exact(probs(0.2, 0.5, 0.3), stellar(3)).fidelity == base

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            th = rng.uniform(0, 2 * np.pi, d)
            p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(d)))
            f0 = fidelity_exact(p, LUSpectrum.from_phases(th)).fidelity
            f1 = fidelity_exact(p, LUSpectrum.from_phases(th + rng.uniform(0, 2 * np.pi))).fidelity
            assert abs(f0 - f1) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_exact(probs(0.5, 0.5), stellar(3))


class TestCompiledSweep:
    compile = staticmethod(_compile_sweep)
    attr = "_sweep"
    d = 6

    def random_spectrum(self):
        return LUSpectrum.from_phases(np.random.default_rng(self.d).uniform(0, 2 * np.pi, self.d))

    def vector(self):
        return SchmidtSpectrum.from_probs(np.random.default_rng(1).dirichlet(np.ones(self.d)))

    def evaluate(self, p, spec):
        """``fidelity_exact`` as far as its compiled path."""
        return fidelity_exact(p, spec)

    def test_compiled_once_per_spectrum(self):
        spec = self.random_spectrum()
        self.evaluate(self.vector(), spec)
        assert self.compile(spec) is getattr(spec, self.attr)
        assert self.compile(spec) is self.compile(spec)
        assert self.compile(LUSpectrum(spec.thetas)) is not self.compile(spec)

    def test_dies_with_its_spectrum(self):
        spec = self.random_spectrum()
        self.evaluate(self.vector(), spec)
        ref = weakref.ref(spec)
        del spec
        gc.collect()
        assert ref() is None

    def test_read_only(self):
        spec = self.random_spectrum()
        self.evaluate(self.vector(), spec)
        for a in self.compile(spec):
            with pytest.raises(ValueError):
                a[0] = a[-1]

    @pytest.mark.parametrize("kind", ["stellar", "random"])
    def test_pickled_copy_is_rebuilt_read_only(self, kind):
        # The pool's workers receive spectra pickled, with the sweep compiled or not.
        spec = stellar(self.d) if kind == "stellar" else self.random_spectrum()
        p = self.vector()
        warm = self.evaluate(p, spec)
        copy = pickle.loads(pickle.dumps(spec))
        assert not hasattr(copy, self.attr)
        for name in ("thetas", "gaps", "eigenvalues"):
            a = getattr(copy, name)
            assert not a.flags.writeable, name
            assert a.tobytes() == getattr(spec, name).tobytes(), name
        cold = self.evaluate(p, copy)
        assert (cold.sigma, cold.fidelity, cold.overlap) == (warm.sigma, warm.fidelity, warm.overlap)


class TestCompiledEvents(TestCompiledSweep):
    """The event sweep's cache, which ``fidelity_exact`` builds above ``COMPILED_SWEEP_CAP`` (32) on its second call
    on a spectrum: the first takes the one-shot path, which keeps nothing."""

    compile = staticmethod(_compile_events)
    attr = "_events"
    d = COMPILED_SWEEP_CAP + 6

    def evaluate(self, p, spec):
        first = fidelity_exact(p, spec)
        second = fidelity_exact(p, spec)
        assert solution_bits(first) == solution_bits(second)
        return second

    def test_compiled_sweep_not_built(self):
        spec = self.random_spectrum()
        self.evaluate(self.vector(), spec)
        assert not hasattr(spec, "_sweep")


def near_degenerate(d, seed):
    """A random-phase spectrum with one adjacent pair made equal, and the same with that pair one ulp or 3e-15 apart."""
    rng = rng_for_seed(seed)
    thetas = np.sort(rng.uniform(0.0, TWO_PI, d))
    i = int(rng.integers(0, d - 1))
    thetas[i + 1] = thetas[i]
    near = thetas.copy()
    near[i + 1] = np.nextafter(thetas[i], 7.0) if seed % 2 else thetas[i] + 3e-15
    return LUSpectrum(thetas), LUSpectrum(near)


def seam_wrapped(d, seed):
    """Random phases with two of them at 0, and the same with one of the two at 2*pi - 1e-15 instead."""
    rest = rng_for_seed(seed).uniform(0.0, TWO_PI, d - 2)
    return (LUSpectrum.from_phases(np.concatenate([[0.0, 0.0], rest])),
            LUSpectrum.from_phases(np.concatenate([[0.0, TWO_PI - 1e-15], rest])))


class TestCompiledSweepOrders:
    """What ``_compile_sweep`` stores: each distinct candidate order once, in lexicographic order."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 16, 32, 64, 128])
    @pytest.mark.parametrize("kind", ["stellar", "random", "degenerate"])
    def test_distinct_sorted_permutations(self, d, kind):
        rng = rng_for_seed(d)
        spec = {
            "stellar": lambda: stellar(d),
            "random": lambda: LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, d)),
            "degenerate": lambda: degenerate_spectrum(d, max(1, d // 3), rng),
        }[kind]()
        orders, L = _compile_sweep(spec)
        assert orders.ndim == 2 and orders.shape[1] == d
        assert np.array_equal(np.sort(orders, axis=1), np.broadcast_to(np.arange(d), orders.shape))
        rows = [tuple(r) for r in orders.tolist()]
        assert all(a < b for a, b in zip(rows, rows[1:]))  # strictly increasing, so distinct
        assert np.array_equal(L, spec.eigenvalues[orders])

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32])
    def test_random_phases_keep_every_order_once(self, d):
        # d(d - 1) crossings split the circle into d(d - 1) arcs, each with its own order.
        spec = LUSpectrum.from_phases(rng_for_seed(d).uniform(0.0, TWO_PI, d))
        assert len(_compile_sweep(spec)[0]) == d * (d - 1)

    @pytest.mark.parametrize("d", range(3, 17))
    def test_near_equal_phases_keep_the_orders_of_equal_ones(self, d):
        # One adjacent pair one ulp or 3e-15 apart, well inside _EVENT_SNAP, sweeps as one phase.
        for seed in range(22):
            exact, near = near_degenerate(d, seed)
            assert np.array_equal(_compile_sweep(near)[0], _compile_sweep(exact)[0])

    @pytest.mark.parametrize("d", range(3, 17))
    def test_a_group_across_the_seam_keeps_the_orders_of_equal_phases(self, d):
        # Sorted, the wrapped pair is indices 0 and d - 1, with the others between; at 0 they are 0 and 1.
        at_zero_index = np.concatenate([[0], np.arange(2, d), [1]])
        for seed in range(20):
            exact, wrapped = seam_wrapped(d, seed)
            rows = at_zero_index[_compile_sweep(wrapped)[0]].tolist()
            assert sorted(rows) == _compile_sweep(exact)[0].tolist()

    @pytest.mark.parametrize("spec", [
        stellar(1), LUSpectrum(np.zeros(1)), LUSpectrum(np.zeros(5)), LUSpectrum.from_gaps([0.0, 0.0, 0.0, 1.0]),
    ], ids=["d1", "zero-d1", "zero-d5", "gaps"])
    def test_one_row_without_crossings(self, spec):
        orders, L = _compile_sweep(spec)
        assert orders.tolist() == [list(range(spec.d))]
        assert L.shape == (1, spec.d)


def solution_bits(sol):
    return sol.sigma, sol.fidelity.hex(), sol.me.hex(), sol.overlap.real.hex(), sol.overlap.imag.hex()


def row_bits(sols):
    """``solution_bits`` of every row of a ``fidelity_exact_many`` result."""
    rows = zip(sols.sigma.tolist(), sols.fidelity.tolist(), sols.me.tolist(), sols.overlap.tolist())
    return [(tuple(s), f.hex(), me.hex(), z.real.hex(), z.imag.hex()) for s, f, me, z in rows]


def compiled_fidelity(p, spec):
    """The compiled sweep's optimum: the largest |z| over every stored candidate order."""
    return float(np.abs(_compile_sweep(spec)[1] @ p.probs).max()) ** 2


def best_transposition_gain(sol, spec, p):
    """How much the best swap of two positions of sigma raises |z|: the benchmark's optimality check."""
    a = spec.eigenvalues[np.asarray(sol.sigma)]
    z = a @ p.probs
    swapped = z + (a[None, :] - a[:, None]) * (p.probs[:, None] - p.probs[None, :])
    return float(np.abs(swapped).max() - abs(z))


def event_vectors(d, rng):
    """Dirichlet, tied-block and zero-tailed probability vectors of dimension d."""
    tied = np.repeat(rng.dirichlet(np.ones(d // 4 + 1)), 4)[:d]
    zero_tailed = np.concatenate([rng.dirichlet(np.ones(d // 3)), np.zeros(d - d // 3)])
    return [SchmidtSpectrum.from_probs(v / v.sum()) for v in (rng.dirichlet(np.ones(d)), tied, zero_tailed)]


def unchunked_sweep(p, spec):
    """The event sweep's sigma from one argmax over every block's running overlaps, from the compiled arrays
    expanded to intp ids and the checkpoint eigenvalues lam[orders]."""
    orders, ks, coef = (a.astype(np.intp) if a.dtype.kind == "u" else a for a in _compile_events(spec))
    z = coef * (np.concatenate([p.probs[1:], [0.0]]) - p.probs)[ks]
    np.cumsum(z, axis=1, out=z)
    z += (spec.eigenvalues[orders] @ p.probs)[:, None]
    block, j = divmod(int(np.abs(z).argmax()), z.shape[1])
    sigma = orders[block].tolist()
    for i in ks[block, 1:j + 1].tolist():
        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
    return sigma


def one_hot(d, ones):
    """The first ``ones`` of d probabilities equal, the rest 0."""
    return SchmidtSpectrum.from_probs(np.concatenate([np.ones(ones), np.zeros(d - ones)]) / ones)


class TestEventSweep:
    @pytest.mark.parametrize("d", [33, 48, 64, 65, 96, 128])
    def test_matches_compiled_sweep(self, d):
        rng = rng_for_seed(d)
        half_zero_gaps = np.concatenate([np.zeros(d // 2), rng.dirichlet(np.ones(d - d // 2))])
        spectra = [stellar(d), LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, d)),
                   degenerate_spectrum(d, d - 3, rng), LUSpectrum.from_gaps(half_zero_gaps)]
        for spec in spectra:
            for p in event_vectors(d, rng):
                sol = fidelity_exact(p, spec)
                swept = _solution(_event_sweep(p.probs[None], spec)[0], spec.eigenvalues, p.probs)
                assert solution_bits(sol) == solution_bits(swept)
                assert sorted(sol.sigma) == list(range(d))
                assert abs(sol.fidelity - compiled_fidelity(p, spec)) <= 1e-12
                assert best_transposition_gain(sol, spec, p) <= 1e-12
                # The overlap is one fresh dot of the sigma returned.
                assert sol.overlap == complex(spec.eigenvalues[np.asarray(sol.sigma)] @ p.probs)

    def test_d192_no_transposition_is_better(self):
        rng = rng_for_seed(192)
        for spec in (stellar(192), LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, 192))):
            for p in event_vectors(192, rng):
                assert best_transposition_gain(fidelity_exact(p, spec), spec, p) <= 1e-12

    def test_d192_peak_allocation(self):
        rng = rng_for_seed(1192)
        p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(192)))
        spec = LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, 192))
        tracemalloc.start()
        try:
            fidelity_exact(p, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("scan", [1, 2**12, None], ids=["one-block", "few-blocks", "default"])
    @pytest.mark.parametrize("d", [64, 192])
    def test_chunks_keep_the_first_of_equal_maxima(self, monkeypatch, scan, d):
        # With p = (1, 0, ...) or (1/2, 1/2, 0, ...) the same |z| recurs, bit for bit, in many blocks: the scan must
        # take the first of them whether its chunks hold one block, a few, or the default (three chunks at d = 192).
        if scan is not None:
            monkeypatch.setitem(_event_sweep.__globals__, "_SCAN_BYTES", scan)
        rng = rng_for_seed(d)
        spectra = [stellar(d), LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, d)), degenerate_spectrum(d, d // 3, rng)]
        for spec in spectra:
            for p in (one_hot(d, 1), one_hot(d, 2), *event_vectors(d, rng)[:2]):
                assert _event_sweep(p.probs[None], spec)[0] == unchunked_sweep(p, spec)

    @pytest.mark.parametrize("d, id_bytes", [(256, 1), (1024, 2)])
    @pytest.mark.parametrize("kind", ["stellar", "random"])
    def test_keeps_narrow_arrays(self, d, id_bytes, kind):
        # One or two bytes for each of orders and ks and 16 for coef per event slot: no intp ids, no lam[orders].
        spec = stellar(d) if kind == "stellar" else LUSpectrum.from_phases(rng_for_seed(d).uniform(0.0, TWO_PI, d))
        orders, ks, coef = kept = _compile_events(spec)
        nb = len(coef)
        assert orders.shape == (nb, d) and ks.shape == coef.shape == (nb, d + 1)
        assert orders.dtype == ks.dtype == np.min_scalar_type(d - 1) and ks.itemsize == id_bytes
        assert coef.dtype == complex
        assert sum(a.nbytes for a in kept) <= (2 * id_bytes + 16) * nb * (d + 1)

    def test_d1024_first_call_peak_allocation(self):
        # The compile and the first sweep together: 36 MiB, where intp ids and a kept lam[orders] took 72.  The call
        # that compiles is the second on the spectrum: the first takes the one-shot path.
        rng = rng_for_seed(11024)
        p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(1024)))
        spec = LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, 1024))
        fidelity_exact(p, spec)
        tracemalloc.start()
        try:
            fidelity_exact(p, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("many", [False, True], ids=["one", "stack"])
    def test_backend_by_d_alone(self, many):
        # Up to COMPILED_SWEEP_CAP only the compiled sweep is built, above it only the event sweep: by a second call
        # on the spectrum, or a stack of two rows, since a first call of one vector takes the one-shot path.
        cap = COMPILED_SWEEP_CAP
        for d, built, absent in ((cap, "_sweep", "_events"), (cap + 1, "_events", "_sweep")):
            rng = rng_for_seed(d)
            p = event_vectors(d, rng)[0]
            for spec in (LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, d)), LUSpectrum(stellar(d).thetas)):
                if many:
                    fidelity_exact_many(np.array([p.probs, p.probs]), spec)
                else:
                    fidelity_exact(p, spec)
                    fidelity_exact(p, spec)
                assert hasattr(spec, built) and not hasattr(spec, absent)

    def test_nearly_equal_phases(self):
        # Phases one ulp apart, and a cluster across the 0 / 2*pi seam: their
        # crossings with a third phase round to the same or misordered angles.
        rng = rng_for_seed(7)
        base = rng.uniform(0.0, TWO_PI, 22)
        seam = [0.0, 1e-15, TWO_PI - 1e-15, TWO_PI - 3e-14]
        phases = np.concatenate([base, np.nextafter(base, 7.0), np.nextafter(np.nextafter(base, 7.0), 7.0), seam])
        spec = LUSpectrum.from_phases(phases)
        for p in event_vectors(spec.d, rng):
            sol = fidelity_exact(p, spec)
            assert abs(sol.fidelity - compiled_fidelity(p, spec)) <= 1e-12
            assert best_transposition_gain(sol, spec, p) <= 1e-12

    def test_no_crossing_and_one_two_block_crossing(self):
        # A fully degenerate spectrum, and two eigenvalues of multiplicity d/2.
        d = COMPILED_SWEEP_CAP + 2
        p = event_vectors(d, rng_for_seed(3))[0]
        two_level = [0.0] * (d // 2 - 1) + [0.4] + [0.0] * (d // 2 - 1) + [0.6]
        for spec in (LUSpectrum(np.zeros(d)), LUSpectrum.from_gaps(two_level)):
            assert abs(fidelity_exact(p, spec).fidelity - compiled_fidelity(p, spec)) <= 1e-12


def one_shot_vectors(d, rng):
    """Dirichlet, tied-block, zero-tailed, two-hot and peaked probability vectors of dimension d."""
    return [*event_vectors(d, rng), one_hot(d, 2), SchmidtSpectrum.from_probs(rng.dirichlet(np.full(d, 0.1)))]


def compiled_bits(p, phases):
    """``solution_bits`` of the compiled event sweep, on a spectrum of its own with the given phases."""
    spec = LUSpectrum.from_phases(phases)
    return solution_bits(_solution(_event_sweep(p.probs[None], spec)[0], spec.eigenvalues, p.probs))


# A window's width w and the support values ha, hb at its ends, whose |X|^2 as _window_keeps computes it rounds below 0.
NEGATIVE_X2 = (3.1415926511024317, 0.25197609741935245, -0.2519760978291458)


class TestOneShot:
    """A first call of one vector on a spectrum above ``COMPILED_SWEEP_CAP`` takes the one-shot path, which builds
    only the event blocks that can hold the optimum, unless it declines; either way sigma and the overlap have the
    bits of the compiled event sweep."""

    @pytest.mark.parametrize("d", [33, 48, 64, 96, 128, 192])
    def test_bits_of_the_compiled_sweep(self, d):
        rng = rng_for_seed(3300 + d)
        taken = []
        for _ in range(3):
            phases = rng.uniform(0.0, TWO_PI, d)
            for p in one_shot_vectors(d, rng):
                spec = LUSpectrum.from_phases(phases)
                assert solution_bits(fidelity_exact(p, spec)) == compiled_bits(p, phases)
                taken.append(not hasattr(spec, "_events"))
        # Every Dirichlet, tied and zero-tailed vector takes the path.
        assert all(t for k, t in enumerate(taken) if k % 5 < 3)

    @pytest.mark.parametrize("d", [33, 64, 96])
    def test_one_block_chunks_keep_the_first_of_equal_maxima(self, monkeypatch, d):
        # Probabilities tied in runs of 2, 3, 4 and 8 repeat a |z| bit for bit along and across blocks: scanned one
        # block per chunk, the path still takes the first of them, as one argmax over every block does.
        monkeypatch.setitem(_event_sweep.__globals__, "_SCAN_BYTES", 1)
        rng = rng_for_seed(3800 + d)
        taken = 0
        for _ in range(6):
            phases = rng.uniform(0.0, TWO_PI, d)
            for k in (2, 3, 4, 8):
                v = np.repeat(rng.dirichlet(np.ones(d // k + 1)), k)[:d]
                p, spec = SchmidtSpectrum.from_probs(v / v.sum()), LUSpectrum.from_phases(phases)
                assert list(fidelity_exact(p, spec).sigma) == unchunked_sweep(p, LUSpectrum.from_phases(phases))
                taken += not hasattr(spec, "_events")
        assert taken >= 18

    def test_shared_crossing_angles(self):
        # Distinct phases on a lattice of 4d points share many crossing angles, also across the edges of the blocks
        # the path needs: it sorts the ties as the compile does, and every Dirichlet, tied and zero-tailed vector
        # takes it.
        taken = []
        for d in (33, 48):
            rng = rng_for_seed(3400 + d)
            for _ in range(4):
                phases = rng.choice(4 * d, d, replace=False) * (TWO_PI / (4 * d))
                for p in one_shot_vectors(d, rng):
                    spec = LUSpectrum.from_phases(phases)
                    assert solution_bits(fidelity_exact(p, spec)) == compiled_bits(p, phases)
                    taken.append(not hasattr(spec, "_events"))
        assert all(t for k, t in enumerate(taken) if k % 5 < 3)

    def test_runs_at_shared_crossing_angles_are_blocks_of_the_compile(self, monkeypatch):
        # A run starts at its first slot, also where its first angle ties events before it: each block the path builds
        # is, bit for bit, a block of the compile.  The sweep is caught in the namespace of the _one_shot it runs.
        built, sweep = [], monotones._one_shot.__globals__["_event_sweep"]
        monkeypatch.setitem(monotones._one_shot.__globals__, "_event_sweep",
                            lambda P, spec, blocks=None: built.append(blocks) or sweep(P, spec, blocks))
        for d in (33, 48):
            rng = rng_for_seed(3900 + d)
            for _ in range(4):
                phases = rng.choice(4 * d, d, replace=False) * (TWO_PI / (4 * d))
                compiled = _compile_events(LUSpectrum.from_phases(phases))
                rows = {tuple(x.tobytes() for x in row) for row in zip(*compiled)}
                for p in one_shot_vectors(d, rng)[:3]:
                    built.clear()
                    fidelity_exact(p, LUSpectrum.from_phases(phases))
                    assert all(tuple(x.tobytes() for x in row) in rows for row in zip(*built[0]))

    @pytest.mark.parametrize("d", [33, 64, 128])
    @pytest.mark.parametrize("kind", ["stellar", "degenerate", "rounded", "one-hot", "flat"])
    def test_declined_inputs(self, d, kind):
        # Symmetric spectra and vectors keep more than half the first round's directions, and a spectrum with
        # phase_groups is never tried: phases rounded to 0.1 repeat (29 of 33 distinct at d = 33).
        rng = rng_for_seed(3400 + d)
        phases = {"stellar": stellar(d).thetas, "degenerate": degenerate_spectrum(d, 3, rng).thetas,
                  "rounded": np.round(rng.uniform(0.0, TWO_PI, d), 1)}.get(kind, rng.uniform(0.0, TWO_PI, d))
        vectors = {"one-hot": [one_hot(d, 1)], "flat": [one_hot(d, d)]}.get(kind, one_shot_vectors(d, rng))
        for p in vectors:
            spec = LUSpectrum.from_phases(phases)
            assert solution_bits(fidelity_exact(p, spec)) == compiled_bits(p, phases)
            assert hasattr(spec, "_events")

    def test_one_row_and_many_rows(self):
        rng = rng_for_seed(3500)
        for d in (48, 96):
            phases = rng.uniform(0.0, TWO_PI, d)
            vectors = one_shot_vectors(d, rng)
            stack = fidelity_exact_many(np.array([p.probs for p in vectors]), LUSpectrum.from_phases(phases))
            for p, row in zip(vectors, row_bits(stack)):
                one, many = LUSpectrum.from_phases(phases), LUSpectrum.from_phases(phases)
                assert solution_bits(fidelity_exact(p, one)) == row_bits(fidelity_exact_many(p.probs[None], many))[0]
                assert solution_bits(fidelity_exact(p, one)) == row

    def test_a_first_call_compiles_nothing_and_a_second_compiles(self):
        rng = rng_for_seed(3600)
        p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(64)))
        spec = LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, 64))
        first = fidelity_exact(p, spec)
        assert not hasattr(spec, "_events")
        second = fidelity_exact(p, spec)
        assert hasattr(spec, "_events") and solution_bits(first) == solution_bits(second)
        copy = pickle.loads(pickle.dumps(spec))  # a new object: its first call takes the path again
        assert solution_bits(fidelity_exact(p, copy)) == solution_bits(first) and not hasattr(copy, "_events")

    def test_d1024_keeps_nothing_and_peaks_low(self):
        # Against 36 MiB for the compile and first sweep (TestEventSweep.test_d1024_first_call_peak_allocation).
        rng = rng_for_seed(21024)
        p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(1024)))
        spec = LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, 1024))
        tracemalloc.start()
        try:
            fidelity_exact(p, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(vars(spec)) == {"thetas", "gaps", "eigenvalues", "_met"}
        assert peak < 24 * 2**20

    @pytest.mark.parametrize("d", [3, 5, 8, 12])
    def test_bound_holds_every_vertex_of_its_window(self, d):
        # Each vertex whose normal cone meets a window is the sorted pairing at a direction inside it; sampled at 65
        # directions per window, none lies above the bound, so a window holding one as large as best is kept.
        rng = rng_for_seed(3700 + d)
        for _ in range(20):
            th = np.sort(rng.uniform(0.0, TWO_PI, d))
            lam, probs = np.exp(1j * th), np.sort(rng.dirichlet(np.ones(d)))[::-1]

            def vertices(phi):
                z = lam[np.argsort(-np.cos(th - phi[..., None]), axis=-1)] @ probs
                return z, (z * np.exp(-1j * phi)).real

            a, w = rng.uniform(0.0, TWO_PI, 10), rng.uniform(0.0, 0.5, 10)
            top = np.abs(vertices(a[:, None] + w[:, None] * np.linspace(0.0, 1.0, 65))[0]).max(axis=1)
            assert _window_keeps(w, *vertices(a)[:1], *vertices(a + w)[:1], vertices(a)[1], vertices(a + w)[1],
                                 top, d).all()

    def test_degenerate_windows_are_kept_without_a_warning(self):
        w, ha, hb = NEGATIVE_X2
        assert (ha - hb) ** 2 / np.sin(w) ** 2 + ha * hb / np.cos(0.5 * w) ** 2 < 0
        one = np.ones(1)
        assert _window_keeps(w * one, 0 * one, 0 * one, ha * one, hb * one, 1.0, 8).all()  # a negative |X|^2
        assert _window_keeps(0 * one, one / 2, one / 2, one / 2, one / 2, 1.0, 8).all()  # zero width
        assert _window_keeps(one / 8, np.nan * one, one / 2, one / 2, one / 2, 1.0, 8).all()  # a NaN

    @pytest.mark.parametrize("d", [1, 3, 4, 7])
    def test_slot_blocks(self, d):
        # Slot s, the order after s events, sits at column (s - 1) % d + 1 of block (s - 1) // d and, at a multiple
        # of d, at column 0 of block s // d; slot 0 and slot `events` are one order, the one at angle 0.
        for events in range(1, 4 * d + 1):
            nb = -(-events // d)

            def blocks_of(s):
                same = {s, events} if s == 0 else {s, 0} if s == events else {s}
                return {(t - 1) // d for t in same if t > 0} | {t // d for t in same if t % d == 0 and t // d < nb}

            for lo in range(events + 1):
                for hi in range(lo, events + 1):
                    expected = set().union(*(blocks_of(s) for s in range(lo, hi + 1)))
                    assert set(_slot_blocks(lo, hi, d, events).tolist()) == expected, (events, lo, hi)


class TestExactMany:
    def test_large_d_rows_match_single_calls(self):
        # The inputs of the exact-optimizer pins of tests/test_golden.py, on both
        # sides of COMPILED_SWEEP_CAP: above it every row goes through the event sweep.
        for d in (16, 32, 64, 96):
            rng = rng_for_seed(d)
            vectors = [rng.dirichlet(np.ones(d)) for _ in range(3)] + [np.repeat(rng.dirichlet(np.ones(d // 4)), 4) / 4]
            spectra = [SchmidtSpectrum.from_probs(v) for v in vectors]
            stack = np.array([sp.probs for sp in spectra])
            for spec in (stellar(d), LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, d))):
                many = fidelity_exact_many(stack, spec)
                assert many.sigma.dtype == np.intp and many.sigma.shape == (4, d)
                assert row_bits(many) == [solution_bits(fidelity_exact(sp, spec)) for sp in spectra]

    def test_large_d_stack_is_one_sweep(self, monkeypatch):
        # The spectrum's share of the work, such as gathering the checkpoint eigenvalues, is done once per stack.
        calls = []
        sweep = monotones._event_sweep
        monkeypatch.setattr(monotones, "_event_sweep", lambda P, spec: calls.append(len(P)) or sweep(P, spec))
        d = COMPILED_SWEEP_CAP + 1
        rng = rng_for_seed(d)
        stack = np.array([p.probs for p in event_vectors(d, rng)])
        fidelity_exact_many(stack, stellar(d))
        assert calls == [len(stack)]

    def test_rows_do_not_depend_on_each_other(self):
        # Each row takes the first maximum of its own gemv row over the same stored orders.
        rng = np.random.default_rng(8)
        stack = np.array([SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(5))).probs for _ in range(40)])
        for spec in (stellar(5), LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, 5))):
            whole = row_bits(fidelity_exact_many(stack, spec))
            assert [row_bits(fidelity_exact_many(row[None], spec))[0] for row in stack] == whole

    def test_empty_stack(self):
        # Returned before either backend runs: the spectrum compiles nothing and is not marked as met.
        for d in (3, 16, COMPILED_SWEEP_CAP + 1, 256):
            spec = LUSpectrum.from_phases(stellar(d).thetas)  # not the cached object, which other tests compile
            many = fidelity_exact_many(np.empty((0, d)), spec)
            assert many.sigma.shape == (0, d) and many.sigma.dtype == np.intp
            assert many.overlap.shape == many.fidelity.shape == many.me.shape == (0,)
            assert set(vars(spec)) == {"thetas", "gaps", "eigenvalues"}

    @pytest.mark.parametrize("stack", [
        [[0.5, 0.5, 0.0]],  # dimension 3 against a d = 2 spectrum
        [0.5, 0.5],  # a vector, not a stack
        [[0.3, 0.7]],  # increasing
        [[0.6, 0.6]],  # sums to 1.2
        [[0.5, 0.5], [np.nan, 1.0]],
        [[1.5, -0.5]],  # below the noise floor
    ], ids=["dimension", "vector", "unsorted", "sum", "nan", "negative"])
    def test_rejects_bad_rows(self, stack):
        with pytest.raises(ValueError):
            fidelity_exact_many(np.array(stack), stellar(2))


class TestMirrorEntanglement:
    def test_product_state(self):
        state = PureBipartiteState(np.reshape([1, 0, 0, 0], (2, 2)))
        assert abs(mirror_entanglement(state, stellar(2))) < 1e-14

    def test_bell(self):
        assert abs(mirror_entanglement(bell_state(), stellar(2)) - 1.0) < 1e-14

    def test_rank2_embedded_d4(self):
        vec = np.zeros(16)
        vec[0] = vec[5] = 1.0 / np.sqrt(2)  # (|00> + |11>)/sqrt(2) in 4x4
        state = PureBipartiteState(vec.reshape(4, 4))
        assert abs(mirror_entanglement(state, stellar(4)) - 0.5) < 1e-12

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            mirror_entanglement(bell_state(), stellar(3))


class TestStellarEntanglement:
    def test_d2_equals_linear_entropy(self):
        for x in np.linspace(0, 1, 21):
            amp = np.diag([np.sqrt(x), np.sqrt(1 - x)]).astype(complex)
            state = PureBipartiteState(amp)
            got = stellar_entanglement(state)
            assert abs(got - 4 * x * (1 - x)) < 1e-12

    def test_doubly_degenerate_family_d4(self):
        for x in np.linspace(0, 1, 11):
            p = np.array([(1 + x) / 4, (1 + x) / 4, (1 - x) / 4, (1 - x) / 4])
            amp = np.diag(np.sqrt(p)).astype(complex)
            state = PureBipartiteState(amp)
            got = stellar_entanglement(state)
            assert abs(got - (1 - x**2 / 2)) < 1e-12
            # independent oracle
            assert abs((1 - got) - slow_bruteforce(schmidt_spectrum(state), stellar(4))) < 1e-12

    def test_threefold_family_equals_linear_entropy(self):
        for x in np.linspace(0, 1, 11):
            p = np.array([x / 3, x / 3, x / 3, 1 - x])
            amp = np.diag(np.sqrt(p)).astype(complex)
            state = PureBipartiteState(amp)
            el = linear_entropy(schmidt_spectrum(state))
            assert abs(stellar_entanglement(state) - el) < 1e-12

    def test_cosine_form_matches_overlap_form(self):
        for i in range(50):
            d = 2 + i % 5
            state = random_pure(d, d + 1, seed=400 + i)
            a = stellar_entanglement(state)
            b = mirror_entanglement(state, stellar(d))
            assert abs(a - b) < 1e-12

    def test_d1(self):
        assert stellar_entanglement(random_pure(1, 3, seed=1)) == 0.0


class TestOptimalUnitary:
    def overlap(self, state, W):
        # independent oracle: explicit (W x I) on the full ket
        big = np.kron(W, np.eye(state.dB))
        ket = state.amplitudes.reshape(-1)
        return ket.conj() @ big @ ket

    def test_product_state_invariant(self):
        state = PureBipartiteState(np.reshape([1, 0, 0, 0], (2, 2)))
        W = optimal_unitary(state, stellar(2))
        assert abs(abs(self.overlap(state, W)) - 1.0) < 1e-12

    def test_bell_orthogonal(self):
        W = optimal_unitary(bell_state(), stellar(2))
        assert abs(self.overlap(bell_state(), W)) < 1e-12

    def test_contracts_random_states(self):
        for i in range(40):
            d = 2 + i % 3
            state = random_pure(d, d, seed=500 + i)
            spec = stellar(d)
            W = optimal_unitary(state, spec)
            # unitarity
            assert np.linalg.norm(W @ W.conj().T - np.eye(d)) < 1e-10
            # commutes with the reduced state
            rho = state.amplitudes @ state.amplitudes.conj().T
            assert np.linalg.norm(W @ rho - rho @ W) < 1e-10
            # spectrum is the prescribed multiset
            assert_same_multiset(np.linalg.eigvals(W), spec.eigenvalues, 1e-10)
            # trace identity and fidelity
            f = fidelity_exact(schmidt_spectrum(state), spec).fidelity
            ov = self.overlap(state, W)
            assert abs(abs(ov) ** 2 - f) < 1e-10
            assert abs(ov - np.trace(W @ rho)) < 1e-12

    def test_larger_a_side_pads_kernel(self):
        state = random_pure(4, 2, seed=9)
        spec = stellar(4)
        W = optimal_unitary(state, spec)
        assert np.linalg.norm(W @ W.conj().T - np.eye(4)) < 1e-10
        rho = state.amplitudes @ state.amplitudes.conj().T
        assert np.linalg.norm(W @ rho - rho @ W) < 1e-10
        # padding with zero eigenvalues must not change the optimum
        padded = SchmidtSpectrum(np.append(schmidt_spectrum(state).probs, [0.0, 0.0]))
        f = fidelity_exact(padded, spec).fidelity
        assert abs(abs(self.overlap(state, W)) ** 2 - f) < 1e-10

    def test_requires_da_spectrum(self):
        with pytest.raises(ValueError):
            optimal_unitary(random_pure(4, 2, seed=1), stellar(2))

    def test_dimension_contracts_differ_from_mirror_entanglement(self):
        # For dA > dB, optimal_unitary takes a dA-point spectrum and mirror_entanglement a
        # min(dA, dB)-point one: no spectrum fits both, and their F differ.
        state = random_pure(4, 2, 0)
        f_unitary = abs(self.overlap(state, optimal_unitary(state, stellar(4)))) ** 2
        padded = SchmidtSpectrum(np.append(schmidt_spectrum(state).probs, [0.0, 0.0]))
        assert abs(f_unitary - fidelity_exact(padded, stellar(4)).fidelity) < 1e-10
        assert round(f_unitary, 4) == 0.7753
        assert round(1.0 - mirror_entanglement(state, stellar(2)), 4) == 0.5506
        with pytest.raises(ValueError, match="does not match Schmidt dimension 2"):
            mirror_entanglement(state, stellar(4))


class TestBounds:
    def test_coefficient_values(self):
        assert abs(lower_bound_coefficient(2) - 1.0) < 1e-15
        assert abs(lower_bound_coefficient(3) - 1.0) < 1e-15
        assert abs(lower_bound_coefficient(4) - 0.75) < 1e-15

    def test_bounds(self):
        lower, upper = linear_entropy_bounds(0.5, 4)
        assert abs(lower - 0.375) < 1e-15 and upper == 0.5

    @pytest.mark.parametrize("d", range(2, 65))
    def test_rank2_on_the_lower_edge(self, d):
        # p = (x, 1-x, 0, ...) pairs two adjacent stellar eigenvalues:
        # estar = 4x(1-x) sin^2(pi/d) = coeff(d) * E_L in every dimension.
        for x in np.linspace(0.0, 1.0, 11):
            p = SchmidtSpectrum.from_probs(np.concatenate([[x, 1.0 - x], np.zeros(d - 2)]))
            estar = fidelity_exact(p, stellar(d)).me
            assert abs(estar - lower_bound_coefficient(d) * linear_entropy(p)) <= 1e-12
            assert abs(estar - 4.0 * x * (1.0 - x) * np.sin(np.pi / d) ** 2) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_entropy_bounds(1.5, 4)
        with pytest.raises(ValueError):
            linear_entropy_bounds(0.5, 1)

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 64])
    def test_array_equals_the_scalar_calls(self, d):
        el = np.concatenate([[0.0, 1.0, -1e-12, 1.0 + 1e-12], rng_for_seed(d).uniform(0.0, 1.0, 200)])
        lower, upper = linear_entropy_bounds(el, d)
        scalar = [linear_entropy_bounds(e, d) for e in el.tolist()]
        assert all(type(x) is float for pair in scalar for x in pair)
        assert lower.tobytes() == np.array([lo for lo, _ in scalar]).tobytes()
        assert upper.tobytes() == np.array([up for _, up in scalar]).tobytes()

    @pytest.mark.parametrize("el,first", [([0.5, 1.5, -0.5], r"1\.5"), ([0.5, -0.5, 1.5], r"-0\.5"),
                                          ([[0.2, 0.3], [np.nan, 2.0]], "nan")])
    def test_array_error_names_the_first_out_of_range_entry(self, el, first):
        with pytest.raises(ValueError, match=rf"^linear entropy {first} outside \[0, 1\]$"):
            linear_entropy_bounds(np.array(el), 4)


class TestStellarClosedForm:
    """``fidelity_exact_many`` on ``stellar(d)`` against the closed form, at every d up to the compiled sweep's cap
    and, above it, where the event sweep has no other reference than the golden pins."""

    @pytest.mark.parametrize("d", [*range(2, COMPILED_SWEEP_CAP + 1), 33, 48, 64, 96, 128, 192, 256])
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 3.0])
    def test_matches_the_optimizer(self, d, alpha):
        rng = rng_for_seed(1000 * d + int(10 * alpha))
        P = -np.sort(-rng.dirichlet(np.full(d, alpha), size=2), axis=1)
        np.testing.assert_allclose(fidelity_exact_many(P, stellar(d)).fidelity, stellar_fidelity(P), rtol=0, atol=1e-14)


GRID = 4096


def grid_overlaps(p, spec):
    """h(phi) = p_desc . sort_desc Re(e^(-i phi) lambda) at ``GRID`` directions phi = 2 pi k / GRID.

    By the rearrangement inequality h(phi) is the best assignment's projection on phi, so max_phi h = |z*|, and
    on the grid max h <= |z*| <= max h / cos(pi / GRID) (Hardy, Littlewood & Polya, Inequalities, 10.2).  It
    shares nothing with the optimizer's sweeps: no crossings, events or ties.
    """
    phi = np.arange(GRID) * (2 * np.pi / GRID)
    projections = np.sort((np.exp(-1j * phi)[:, None] * spec.eigenvalues).real, axis=1)[:, ::-1]
    return projections @ np.sort(p)[::-1]


@st.composite
def oracle_cases(draw):
    """A Dirichlet weight vector at d = 10..256 and a random, degenerate, near-equal-phase or seam-wrapping spectrum."""
    d = draw(st.integers(10, 256))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = rng_for_seed(seed)
    spec = {
        "random": lambda: LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, d)),
        "stellar": lambda: stellar(d),
        "degenerate": lambda: degenerate_spectrum(d, int(rng.integers(2, d)), rng),
        "near-equal": lambda: near_degenerate(d, seed)[seed % 2],
        "seam": lambda: seam_wrapped(d, seed)[seed % 2],
    }[draw(st.sampled_from(["random", "stellar", "degenerate", "near-equal", "seam"]))]()
    return SchmidtSpectrum.from_probs(rng.dirichlet(np.full(d, draw(st.sampled_from([0.3, 1.0]))))), spec


class TestGridOracle:
    """``fidelity_exact`` against the sweep-free bound of ``grid_overlaps``, above brute force's reach."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(oracle_cases())
    def test_within_the_grid_bound(self, case):
        p, spec = case
        h = grid_overlaps(p.probs, spec).max()
        z = np.sqrt(fidelity_exact(p, spec).fidelity)
        assert h - 8 * p.d * np.finfo(float).eps <= z <= h / np.cos(np.pi / GRID) * (1 + 1e-14)

    def test_bound_brackets_brute_force(self):
        # At d = 8 the exhaustive optimum is a reference the bound must bracket too.
        rng = rng_for_seed(3)
        for _ in range(5):
            p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(8)))
            spec = LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, 8))
            h = grid_overlaps(p.probs, spec).max()
            z = np.sqrt(fidelity_bruteforce(p, spec).fidelity)
            assert h - 64 * np.finfo(float).eps <= z <= h / np.cos(np.pi / GRID) * (1 + 1e-14)


FIRST_ORDER_SPECTRA = {  # each a fresh object, so that no compiled sweep outlives its example
    "random": lambda d, rng: LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, d)),
    "stellar": lambda d, rng: LUSpectrum(stellar(d).thetas),
    "degenerate": lambda d, rng: degenerate_spectrum(d, int(rng.integers(1, d + 1)), rng),
}


@st.composite
def first_order_cases(draw):
    """A Dirichlet weight vector at d = 2..1024 and a random, stellar or degenerate spectrum."""
    d = draw(st.integers(2, 1024))
    rng = rng_for_seed(draw(st.integers(0, 2**32 - 1)))
    spec = FIRST_ORDER_SPECTRA[draw(st.sampled_from(sorted(FIRST_ORDER_SPECTRA)))](d, rng)
    return SchmidtSpectrum.from_probs(rng.dirichlet(np.full(d, draw(st.sampled_from([0.3, 1.0]))))), spec


def assert_no_adjacent_swap_gains(p, spec):
    """At phi* = arg z(sigma*), no adjacent swap in p-order may raise Re(e^(-i phi*) z), since |z| would rise
    with it: an O(d) check of ``fidelity_exact``'s optimum at any d."""
    sol = fidelity_exact(p, spec)
    proj = (np.exp(-1j * np.angle(sol.overlap)) * spec.eigenvalues).real
    s = np.asarray(sol.sigma)
    # Swapping sigma(i) and sigma(i + 1) moves z by (lambda_sigma(i+1) - lambda_sigma(i)) (p_i - p_(i+1)).
    gain = (proj[s[1:]] - proj[s[:-1]]) * (p.probs[:-1] - p.probs[1:])
    assert gain.max() <= 8 * p.d * np.finfo(float).eps


class TestFirstOrder:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(first_order_cases())
    def test_no_adjacent_swap_gains(self, case):
        assert_no_adjacent_swap_gains(*case)

    @pytest.mark.parametrize("kind", sorted(FIRST_ORDER_SPECTRA))
    def test_no_adjacent_swap_gains_at_d1024(self, kind):
        rng = rng_for_seed(1024)
        spec = FIRST_ORDER_SPECTRA[kind](1024, rng)
        assert_no_adjacent_swap_gains(SchmidtSpectrum.from_probs(rng.dirichlet(np.full(1024, 0.3))), spec)


class TestUnistochasticAudit:
    def test_pure_vector(self):
        p = probs(1.0, 0.0)
        max_value = unistochastic_audit(p, stellar(2), trials=200, seed=0)
        assert max_value <= np.sqrt(fidelity_bruteforce(p, stellar(2)).fidelity) + 1e-9
        assert max_value <= 1.0 + 1e-9

    def test_balanced_qubit_collapses(self):
        # row sums make every unistochastic value vanish identically here
        p = probs(0.5, 0.5)
        max_value = unistochastic_audit(p, stellar(2), trials=1000, seed=1)
        ref = np.sqrt(fidelity_bruteforce(p, stellar(2)).fidelity)
        assert ref < 1e-14
        assert max_value <= 1e-9
        assert max_value <= ref + 1e-9

    def test_random_p_stellar4(self):
        rng = np.random.default_rng(6)
        p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(4)))
        max_value = unistochastic_audit(p, stellar(4), trials=1000, seed=2)
        assert max_value <= np.sqrt(fidelity_bruteforce(p, stellar(4)).fidelity) + 1e-9

    def test_deterministic(self):
        p = probs(0.6, 0.4)
        a = unistochastic_audit(p, stellar(2), trials=100, seed=3)
        b = unistochastic_audit(p, stellar(2), trials=100, seed=3)
        assert a == b

    def test_dimension_cap(self):
        p = SchmidtSpectrum.from_probs(np.full(9, 1.0 / 9))
        with pytest.raises(ValueError):
            unistochastic_audit(p, stellar(9), trials=10, seed=0)

    @pytest.mark.parametrize("trials", [0, -1, 2.5])
    def test_rejects_a_bad_trial_count(self, trials):
        # Zero trials would report 0.0, a pass that checked nothing.
        with pytest.raises(ValueError, match="trials"):
            unistochastic_audit(probs(0.6, 0.4), stellar(2), trials=trials, seed=0)
