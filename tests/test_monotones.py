import itertools

import numpy as np
import pytest

from mirrorent.monotones import (
    fidelity_bruteforce,
    fidelity_exact,
    linear_entropy_bounds,
    lower_bound_coefficient,
    mirror_entanglement,
    optimal_unitary,
    stellar_entanglement,
    unistochastic_audit,
)
from mirrorent.spectra import LUSpectrum, stellar
from mirrorent.states import (
    PureBipartiteState,
    SchmidtSpectrum,
    linear_entropy,
    random_pure,
    schmidt_spectrum,
)


def probs(*values):
    return SchmidtSpectrum.from_probs(list(values))


def bell_state():
    return PureBipartiteState.from_vector(np.array([1, 0, 0, 1]) / np.sqrt(2), 2, 2)


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


class TestMirrorEntanglement:
    def test_product_state(self):
        state = PureBipartiteState.from_vector([1, 0, 0, 0], 2, 2)
        assert abs(mirror_entanglement(state, stellar(2))) < 1e-14

    def test_bell(self):
        assert abs(mirror_entanglement(bell_state(), stellar(2)) - 1.0) < 1e-14

    def test_rank2_embedded_d4(self):
        vec = np.zeros(16)
        vec[0] = vec[5] = 1.0 / np.sqrt(2)  # (|00> + |11>)/sqrt(2) in 4x4
        state = PureBipartiteState.from_vector(vec, 4, 4)
        assert abs(mirror_entanglement(state, stellar(4)) - 0.5) < 1e-12

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            mirror_entanglement(bell_state(), stellar(3))


class TestStellarEntanglement:
    def test_d2_equals_linear_entropy(self):
        for x in np.linspace(0, 1, 21):
            amp = np.diag([np.sqrt(x), np.sqrt(1 - x)]).astype(complex)
            state = PureBipartiteState(2, 2, amp)
            got = stellar_entanglement(state)
            assert abs(got - 4 * x * (1 - x)) < 1e-12

    def test_doubly_degenerate_family_d4(self):
        for x in np.linspace(0, 1, 11):
            p = np.array([(1 + x) / 4, (1 + x) / 4, (1 - x) / 4, (1 - x) / 4])
            amp = np.diag(np.sqrt(p)).astype(complex)
            state = PureBipartiteState(4, 4, amp)
            got = stellar_entanglement(state)
            assert abs(got - (1 - x**2 / 2)) < 1e-12
            # independent oracle
            assert abs((1 - got) - slow_bruteforce(schmidt_spectrum(state), stellar(4))) < 1e-12

    def test_threefold_family_equals_linear_entropy(self):
        for x in np.linspace(0, 1, 11):
            p = np.array([x / 3, x / 3, x / 3, 1 - x])
            amp = np.diag(np.sqrt(p)).astype(complex)
            state = PureBipartiteState(4, 4, amp)
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
        return state.ket().conj() @ big @ state.ket()

    def test_product_state_invariant(self):
        state = PureBipartiteState.from_vector([1, 0, 0, 0], 2, 2)
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
        padded = SchmidtSpectrum(4, np.append(schmidt_spectrum(state).probs, [0.0, 0.0]))
        f = fidelity_exact(padded, spec).fidelity
        assert abs(abs(self.overlap(state, W)) ** 2 - f) < 1e-10

    def test_requires_da_spectrum(self):
        with pytest.raises(ValueError):
            optimal_unitary(random_pure(4, 2, seed=1), stellar(2))


class TestBounds:
    def test_coefficient_values(self):
        assert abs(lower_bound_coefficient(2) - 1.0) < 1e-15
        assert abs(lower_bound_coefficient(3) - 1.0) < 1e-15
        assert abs(lower_bound_coefficient(4) - 0.75) < 1e-15

    def test_bounds(self):
        lower, upper = linear_entropy_bounds(0.5, 4)
        assert abs(lower - 0.375) < 1e-15 and upper == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_entropy_bounds(1.5, 4)
        with pytest.raises(ValueError):
            linear_entropy_bounds(0.5, 1)


class TestUnistochasticAudit:
    def test_pure_vector(self):
        rep = unistochastic_audit(probs(1.0, 0.0), stellar(2), trials=200, seed=0)
        assert rep.ok and rep.max_value <= 1.0 + 1e-9

    def test_balanced_qubit_collapses(self):
        # row sums make every unistochastic value vanish identically here
        rep = unistochastic_audit(probs(0.5, 0.5), stellar(2), trials=1000, seed=1)
        assert rep.permutation_value < 1e-14
        assert rep.max_value <= 1e-9
        assert rep.ok

    def test_random_p_stellar4(self):
        rng = np.random.default_rng(6)
        p = SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(4)))
        rep = unistochastic_audit(p, stellar(4), trials=1000, seed=2)
        assert rep.ok

    def test_deterministic(self):
        p = probs(0.6, 0.4)
        a = unistochastic_audit(p, stellar(2), trials=100, seed=3)
        b = unistochastic_audit(p, stellar(2), trials=100, seed=3)
        assert a == b

    def test_dimension_cap(self):
        p = SchmidtSpectrum.from_probs(np.full(9, 1.0 / 9))
        with pytest.raises(ValueError):
            unistochastic_audit(p, stellar(9), trials=10, seed=0)
