"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one [PASS] line with its measured runtime and its
budget, past pytest's output capture, and asserts the stated budget.
"""

import time

import numpy as np
import pytest

from mirrorent.cli import main
from mirrorent.harness import (
    boundary_families_d4,
    bounds_suite,
    hierarchy_suite,
    locc_suites,
    majorization_suite,
    random_nondegenerate_spectrum,
    unistochastic_suite,
    upper_bound_witness,
)
from mirrorent.monotones import (
    fidelity_exact,
    linear_entropy_bounds,
    lower_bound_coefficient,
    optimal_unitary,
    permutation_overlaps,
)
from mirrorent.spectra import stellar
from mirrorent.states import linear_entropy, random_pure, schmidt_spectrum


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, f"runtime {self.elapsed:.1f}s over budget {self.limit}s"


@pytest.fixture
def announce(capsys):
    def emit(n, text, budget):
        with capsys.disabled():
            print(f"\n[PASS] criterion {n}: {text} ({budget.elapsed:.1f}s of {budget.limit}s budget)")
    return emit


def test_criterion_01_low_dimension_coincidence(announce):
    with Budget(5) as b:
        worst = 0.0
        for d in (2, 3):
            spec = stellar(d)
            for i in range(1000):
                p = schmidt_spectrum(random_pure(d, d, seed=i))
                estar = fidelity_exact(p, spec).me
                worst = max(worst, abs(estar - linear_entropy(p)))
        assert worst <= 1e-10
    announce(1, f"d=2,3 coincidence, max |estar - el| = {worst:.2e} <= 1e-10", b)


def test_criterion_02_sandwich_bounds(announce):
    with Budget(60) as b:
        for d in range(2, 9):
            rep = bounds_suite(d, samples=10000, seed=0)
            assert rep.failures == 0, rep.to_dict()
            assert rep.metrics["min_upper_margin"] >= -1e-10
            assert rep.metrics["min_lower_margin"] >= -1e-10
    announce(2, "sandwich holds on 10000 random states for every d in 2..8", b)


def test_criterion_03_boundary_families_d4(announce):
    with Budget(1) as b:
        cases = boundary_families_d4()
        for case in cases:
            assert case["violation"] <= 0.0, case
        assert len(cases) == 3 * 21
    announce(3, "three d=4 boundary families match closed forms within 1e-10", b)


def test_criterion_04_degeneracy_rank_hierarchy(announce):
    with Budget(30) as b:
        for d in range(2, 7):
            for r in range(1, d + 1):
                rep = hierarchy_suite(d, r, trials=200, seed=0)
                assert rep.failures == 0, rep.to_dict()
    announce(4, "monotone vanishes iff rank <= degeneracy, 200 trials per (d, r)", b)


def test_criterion_05_optimizer_equivalence_and_audit(announce):
    with Budget(120) as b:
        for d in range(2, 9):
            rep = unistochastic_suite(d, cases=500, trials=1000, seed=0)
            assert rep.failures == 0, rep.to_dict()
            assert rep.metrics["max_agree_err"] <= 1e-12
            assert rep.metrics["max_audit_excess"] <= 1e-9
    announce(5, "exact = brute force within 1e-12; no unitary beats the optimum", b)


def test_criterion_06_locc_monotonicity(announce):
    with Budget(180) as b:
        min_slack = float("inf")
        for d in (2, 3, 4):
            specs = [stellar(d)] + [random_nondegenerate_spectrum(d, seed=100 + k) for k in range(3)]
            for m in (2, 3):
                for rep in locc_suites(d, d, kraus_count=m, trials=500, seed=0, specs=specs):  # one per spectrum
                    assert rep.failures == 0, rep.to_dict()
                    min_slack = min(min_slack, rep.metrics["min_slack"])
        assert min_slack >= -1e-9
    announce(6, f"LOCC slack never below -1e-9 (min {min_slack:.2e})", b)


def test_criterion_07_witness_family(announce):
    with Budget(10) as b:
        for d in range(2, 7):
            for s in np.linspace(0.0, 1.0, 11):
                q, estar, el = upper_bound_witness(d, float(s))
                assert abs(estar - s) <= 1e-10
                assert abs(el - s) <= 1e-10
                g = 1.0 - permutation_overlaps(q, stellar(d)) ** 2
                assert np.abs(g - s).max() <= 1e-10  # every permutation
    announce(7, "witness family gives estar = el = s, permutation independent", b)


def test_criterion_08_majorization_chains(announce):
    with Budget(60) as b:
        for d in range(2, 9):
            rep = majorization_suite(d, samples=1000, subdiv=64, seed=0)
            assert rep.failures == 0, rep.to_dict()
            assert rep.metrics["max_reproduce_err"] <= 1e-12
            assert rep.metrics["min_aggregate_margin"] >= -1e-9
    announce(8, "1000 chains per d reproduce targets; accumulated bound holds", b)


def test_criterion_09_optimal_unitary_contracts(announce):
    def multiset_gap(got, expected):
        pool = list(expected)
        worst = 0.0
        for x in got:
            dists = [abs(x - y) for y in pool]
            k = int(np.argmin(dists))
            worst = max(worst, dists[k])
            pool.pop(k)
        return worst

    with Budget(30) as b:
        for d in (2, 3, 4):
            spec = stellar(d)
            eye_b = np.eye(d)
            for i in range(500):
                state = random_pure(d, d, seed=i)
                W = optimal_unitary(state, spec)
                assert np.linalg.norm(W @ W.conj().T - np.eye(d)) <= 1e-10
                rho = state.amplitudes @ state.amplitudes.conj().T
                assert np.linalg.norm(W @ rho - rho @ W) <= 1e-10
                assert multiset_gap(np.linalg.eigvals(W), spec.eigenvalues) <= 1e-10
                ket = state.amplitudes.reshape(-1)
                overlap = ket.conj() @ np.kron(W, eye_b) @ ket
                f = fidelity_exact(schmidt_spectrum(state), spec).fidelity
                assert abs(abs(overlap) ** 2 - f) <= 1e-10
                assert abs(overlap - np.trace(W @ rho)) <= 1e-10
    announce(9, "optimal unitary: unitarity, commutation, spectrum, overlap = F", b)


def test_criterion_10_reproducible_sample(tmp_path, announce):
    with Budget(60) as b:
        paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
        for path in paths:
            code = main(["sample", "--d", "4", "--samples", "20000", "--seed", "0", "--out", str(path)])
            assert code == 0
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        rows = np.loadtxt(paths[0], delimiter=",", skiprows=1)
        assert rows.shape == (20000, 2)
        coeff = lower_bound_coefficient(4)
        el, estar = rows[:, 0], rows[:, 1]
        assert np.all(estar >= coeff * el - 1e-10)
        assert np.all(estar <= el + 1e-10)
        lower, upper = linear_entropy_bounds(float(el[0]), 4)
        assert lower <= estar[0] + 1e-10 <= upper + 2e-10
        # soft check: the cloud approaches both boundaries at this sample size
        assert (estar - coeff * el).min() < 0.05
        assert (el - estar).min() < 0.05
    announce(10, "20000-sample CSV byte-identical across runs, inside the sandwich", b)
