"""Structural properties of the monotone, checked with hypothesis.

For every spectrum, a pure-state LOCC monotone is a Schur-concave,
permutation-symmetric function of the Schmidt probabilities (Vidal,
J. Mod. Opt. 47, 355, 2000), and the mirror monotone vanishes on
product states.  The runs are derandomized, so they test the same
examples every time.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorent.harness import degenerate_spectrum
from mirrorent.majorization import TTransform
from mirrorent.monotones import fidelity_bruteforce, fidelity_exact, mirror_entanglement
from mirrorent.spectra import LUSpectrum
from mirrorent.states import PureBipartiteState, SchmidtSpectrum, rng_for_seed

TOL = 1e-12

properties = settings(derandomize=True, database=None, deadline=None, max_examples=150)


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
def test_symmetric_in_p(data):
    # A diagonal amplitude matrix holding a permuted sqrt(p) has the same
    # Schmidt probabilities, reached through the eigensolver.
    p = data.draw(probability_vectors(min_d=2))
    spec = data.draw(spectra(p.size))
    perm = data.draw(st.permutations(range(p.size)))
    state = PureBipartiteState(p.size, p.size, np.diag(np.sqrt(p[list(perm)])))
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
    state = PureBipartiteState(dA, dB, amp / norm)
    assert mirror_entanglement(state, spec) <= TOL
