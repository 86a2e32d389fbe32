"""Structural properties of the monotone, checked with hypothesis.

For every spectrum, a pure-state LOCC monotone is a Schur-concave,
permutation-symmetric function of the Schmidt probabilities (Vidal,
J. Mod. Opt. 47, 355, 2000), invariant under local unitaries, and the
mirror monotone vanishes on product states.  It is also concave along
segments, being 1 minus a maximum of the convex functions |z_sigma|^2.
The runs are derandomized, so they test the same examples every time.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorent.harness import degenerate_spectrum
from mirrorent.majorization import TTransform
from mirrorent.monotones import (
    BRUTE_FORCE_CAP,
    _compile_sweep,
    _event_sweep,
    _one_shot,
    _solution,
    fidelity_bruteforce,
    fidelity_exact,
    fidelity_exact_many,
    mirror_entanglement,
)
from mirrorent.spectra import LUSpectrum, stellar
from mirrorent.states import PureBipartiteState, SchmidtSpectrum, haar_unitaries, random_pure, rng_for_seed

TOL = 1e-12

properties = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def haar_unitary(d, seed):
    """One d x d Haar unitary, drawn from its own Philox key as ``locc.random_channel`` draws its dilation."""
    return haar_unitaries(d, 1, rng_for_seed(seed))[0]


@st.composite
def probability_vectors(draw, min_d=1, max_d=8):
    d = draw(st.integers(min_d, max_d))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    assume(w.sum() > 0.0)
    return w / w.sum()


@st.composite
def spectra(draw, d):
    """Random phases, or a spectrum of a drawn degeneracy from the hierarchy suite."""
    if draw(st.booleans()):
        phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=d, max_size=d))
        return LUSpectrum.from_phases(phases)
    r = draw(st.integers(1, d))
    return degenerate_spectrum(d, r, rng_for_seed(draw(st.integers(0, 2**32 - 1))))


def me_of(p, spec):
    return fidelity_exact(SchmidtSpectrum.from_probs(p), spec).me


@properties
@given(st.data())
def test_exact_matches_bruteforce(data):
    p = data.draw(probability_vectors())
    spec = data.draw(spectra(p.size))
    sp = SchmidtSpectrum.from_probs(p)
    assert abs(fidelity_exact(sp, spec).fidelity - fidelity_bruteforce(sp, spec).fidelity) <= TOL


@properties
@given(st.data())
def test_event_sweep_matches_bruteforce(data):
    # The backend fidelity_exact uses above COMPILED_SWEEP_CAP, called directly at small d.
    p = data.draw(probability_vectors())
    spec = data.draw(st.one_of(st.just(stellar(p.size)), spectra(p.size)))
    sp = SchmidtSpectrum.from_probs(p)
    sol = _solution(_event_sweep(sp.probs[None], spec)[0], spec.eigenvalues, sp.probs)
    assert sorted(sol.sigma) == list(range(p.size))
    assert abs(sol.fidelity - fidelity_bruteforce(sp, spec).fidelity) <= TOL


@properties
@given(st.data())
def test_one_shot_matches_event_sweep_and_bruteforce(data):
    # The path fidelity_exact takes on its first call of one vector above COMPILED_SWEEP_CAP, called directly at
    # small d: where it does not decline, the compiled event sweep's sigma, on a spectrum object of its own.
    # Besides the shared strategies, Dirichlet vectors and uniform phases from a drawn seed, which the path rarely
    # declines.
    seeded = st.integers(0, 2**32 - 1).map(rng_for_seed)
    d = data.draw(st.integers(2, 12))
    p = data.draw(st.one_of(probability_vectors(min_d=d, max_d=d), seeded.map(lambda rng: rng.dirichlet(np.ones(d)))))
    spec = data.draw(st.one_of(st.just(stellar(d)), spectra(d),
                               seeded.map(lambda rng: LUSpectrum.from_phases(rng.uniform(0.0, 2 * np.pi, d)))))
    sp = SchmidtSpectrum.from_probs(p)
    sigma = _one_shot(sp.probs, spec)
    if sigma is not None:
        assert sigma == _event_sweep(sp.probs[None], LUSpectrum(spec.thetas))[0]
        if d <= BRUTE_FORCE_CAP:
            sol = _solution(sigma, spec.eigenvalues, sp.probs)
            assert abs(sol.fidelity - fidelity_bruteforce(sp, spec).fidelity) <= TOL


@properties
@given(st.data())
def test_symmetric_in_p(data):
    # A diagonal amplitude matrix holding a permuted sqrt(p) has the same
    # Schmidt probabilities, reached through the eigensolver.
    p = data.draw(probability_vectors(min_d=2))
    spec = data.draw(spectra(p.size))
    perm = data.draw(st.permutations(range(p.size)))
    state = PureBipartiteState(np.diag(np.sqrt(p[list(perm)])))
    assert abs(mirror_entanglement(state, spec) - me_of(p, spec)) <= TOL


@properties
@given(st.data())
def test_non_decreasing_under_t_transforms(data):
    p = data.draw(probability_vectors(min_d=2))
    d = p.size
    spec = data.draw(spectra(d))
    i, j = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    t = data.draw(st.floats(0.0, 0.5))
    q = TTransform(d, i, j, t).apply(p)
    assert me_of(q, spec) >= me_of(p, spec) - TOL


@properties
@given(st.data())
def test_zero_at_product_states(data):
    dA, dB = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    spec = data.draw(spectra(min(dA, dB)))
    parts = [
        np.array(data.draw(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=n, max_size=n)))
        for n in (dA, dB)
    ]
    amp = np.outer(*parts)
    norm = np.linalg.norm(amp)
    assume(norm > 1e-6)
    state = PureBipartiteState(amp / norm)
    assert mirror_entanglement(state, spec) <= TOL


@properties
@given(st.data())
def test_concave_along_segments(data):
    p = data.draw(probability_vectors())
    q = data.draw(probability_vectors(min_d=p.size, max_d=p.size))
    spec = data.draw(spectra(p.size))
    a = data.draw(st.floats(0.0, 1.0))
    assert me_of(a * p + (1 - a) * q, spec) >= a * me_of(p, spec) + (1 - a) * me_of(q, spec) - TOL


@properties
@given(st.data())
def test_invariant_under_local_unitaries(data):
    dA, dB = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 2**32 - 1))
    state = random_pure(dA, dB, seed)
    spec = data.draw(spectra(min(dA, dB)))
    u, v = haar_unitary(dA, seed + 1), haar_unitary(dB, seed + 2)
    moved = PureBipartiteState(u @ state.amplitudes @ v.T)
    assert abs(mirror_entanglement(moved, spec) - mirror_entanglement(state, spec)) <= TOL


def solution_bits(sol):
    return sol.sigma, sol.fidelity.hex(), sol.me.hex(), sol.overlap.real.hex(), sol.overlap.imag.hex()


@properties
@given(st.data())
def test_compiled_sweep_matches_a_fresh_spectrum(data):
    # The sweep compiled on one spectrum object and reused for a later vector
    # answers bit for bit as a newly built equal spectrum does on its first call.
    p = data.draw(probability_vectors())
    warmup = data.draw(probability_vectors(min_d=p.size, max_d=p.size))
    spec = data.draw(spectra(p.size))
    fidelity_exact(SchmidtSpectrum.from_probs(warmup), spec)
    sp = SchmidtSpectrum.from_probs(p)
    warm = fidelity_exact(sp, spec)
    assert solution_bits(warm) == solution_bits(fidelity_exact(sp, LUSpectrum(spec.thetas)))
    assert abs(warm.fidelity - fidelity_bruteforce(sp, spec).fidelity) <= TOL


@st.composite
def tied_probability_vectors(draw, d):
    """Probability vectors of dimension d whose weights repeat and vanish often."""
    weight = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 1.0))
    w = np.array(draw(st.lists(weight, min_size=d, max_size=d)))
    assume(w.sum() > 0.0)
    return w / w.sum()


@properties
@given(st.data())
def test_many_rows_match_single_calls(data):
    # Row k of the batched optimizer is fidelity_exact of the k-th spectrum, bit for bit,
    # on stellar, random-phase and degenerate spectra.
    d = data.draw(st.integers(1, 8))
    spec = data.draw(st.one_of(st.just(stellar(d)), spectra(d)))
    rows = [SchmidtSpectrum.from_probs(data.draw(tied_probability_vectors(d)))
            for _ in range(data.draw(st.integers(1, 12)))]
    many = fidelity_exact_many(np.array([sp.probs for sp in rows]), spec)
    for k, sp in enumerate(rows):
        row = (tuple(many.sigma[k].tolist()), float(many.fidelity[k]).hex(), float(many.me[k]).hex(),
               many.overlap[k].real.hex(), many.overlap[k].imag.hex())
        assert row == solution_bits(fidelity_exact(sp, spec))


@properties
@given(st.data())
def test_sigma_is_the_lexicographically_smallest_bitwise_maximum(data):
    # The compiled sweep's tie rule, from its stored rows, for one case and for a stack.
    d = data.draw(st.one_of(st.integers(1, 8), st.sampled_from([16, 32])))
    spec = data.draw(st.one_of(st.just(stellar(d)), spectra(d)))
    rows = [SchmidtSpectrum.from_probs(data.draw(tied_probability_vectors(d)))
            for _ in range(data.draw(st.integers(1, 4)))]
    orders, L = _compile_sweep(spec)
    many = fidelity_exact_many(np.array([sp.probs for sp in rows]), spec)
    for k, sp in enumerate(rows):
        vals = np.abs(L @ sp.probs)
        expected = min(tuple(order) for order in orders[vals == vals.max()].tolist())
        assert fidelity_exact(sp, spec).sigma == expected
        assert tuple(many.sigma[k].tolist()) == expected
