"""One range check for every size, count, index and seed: ``states.check_count``.

Every public entry point that takes one passes it through ``check_count``,
which returns it as an int and rejects bools, non-integral values and values
out of range with a ``ValueError`` that names the argument.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorent import harness, locc, majorization, monotones, spectra, states
from mirrorent.states import SchmidtSpectrum, check_count, rng_for_seed

NAME = "--count"

properties = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def bound(low, high):
    return f">= {low}" if high is None else f">= {low} and <= {high}"


@properties
@given(value=st.integers(-2**130, 2**130), low=st.integers(-2**130, 2**130),
       span=st.one_of(st.none(), st.integers(0, 2**130)))
def test_integral_values_pass_in_range_and_fail_outside(value, low, span):
    high = None if span is None else low + span
    forms = [value]
    if -2**63 <= value < 2**63:
        forms.append(np.int64(value))
    if float(value) == value:
        forms += [float(value), np.float64(value)]
    for form in forms:
        if low <= value and (high is None or value <= high):
            n = check_count(NAME, form, low, high)
            assert n == value and type(n) is int
        else:
            with pytest.raises(ValueError) as exc:
                check_count(NAME, form, low, high)
            assert str(exc.value) == f"{NAME} must be {bound(low, high)}, got {value}"


@properties
@given(value=st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.floats().filter(lambda x: not x.is_integer()),  # NaN and inf included
    st.floats(width=32).filter(lambda x: not x.is_integer()).map(np.float32),
    st.text(),
    st.none(),
    st.lists(st.integers(), max_size=2),
))
def test_everything_else_fails_however_wide_the_range(value):
    with pytest.raises(ValueError) as exc:
        check_count(NAME, value, -2**200, 2**200)
    assert str(exc.value) == f"{NAME} must be an integer, got {value!r}"


P2 = SchmidtSpectrum.from_probs([0.5, 0.5])

# entry point -> (a call of it with the value under test, the argument's name, a value below its range)
ENTRY_POINTS = {
    "rng_for_seed": (lambda v: rng_for_seed(v), "seed", -1),
    "random_pure-dA": (lambda v: states.random_pure(v, 2, 0), "dA", 0),
    "random_pure-dB": (lambda v: states.random_pure(2, v, 0), "dB", 0),
    "random_pure-seed": (lambda v: states.random_pure(2, 2, v), "seed", -1),
    "random_pure_many-dA": (lambda v: states.random_pure_many(v, 2, [0]), "dA", 0),
    "random_pure_many-dB": (lambda v: states.random_pure_many(2, v, [0]), "dB", 0),
    "random_pure_many-seed": (lambda v: states.random_pure_many(2, 2, [0, v]), "seed", -1),
    "from_json-dims": (lambda v: states.PureBipartiteState.from_json({"dims": [1, v], "re": [1.0], "im": [0.0]}),
                       "state 'dims'", 0),
    # The body of stellar: its cache would answer stellar(True) with a stellar(1.0) built earlier.
    "stellar": (lambda v: spectra.stellar.__wrapped__(v), "d", 0),
    "spectrum_from_json-d": (lambda v: spectra.spectrum_from_json({"d": v, "thetas": [0.0]}), "d", 0),
    "lower_bound_coefficient": (monotones.lower_bound_coefficient, "d", 1),
    "unistochastic_audit-trials": (lambda v: monotones.unistochastic_audit(P2, spectra.stellar(2), v, 0), "trials", 0),
    "random_channel-dX": (lambda v: locc.random_channel(v, 2, "A", 0), "dX", 0),
    "random_channel-m": (lambda v: locc.random_channel(2, v, "A", 0), "m", 0),
    "increment_audit-n_sub": (lambda v: majorization.increment_audit([0.5, 0.5], n_sub=v), "n_sub", 0),
    "TTransform-i": (lambda v: majorization.TTransform(3, v, 2, 0.5), "i", -1),
    "TTransform-j": (lambda v: majorization.TTransform(3, 0, v, 0.5), "j", -1),
    "degenerate_spectrum-r": (lambda v: harness.degenerate_spectrum(4, v, rng_for_seed(0)), "r", 0),
    "controlled_rank_probs-s": (lambda v: harness.controlled_rank_probs(4, v, rng_for_seed(0)), "s", 0),
    "upper_bound_witness-d": (lambda v: harness.upper_bound_witness(v, 0.5), "d", 1),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("kind", ["bool", "fraction", "below"])
def test_entry_point_rejects_by_name(entry, kind):
    call, name, below = ENTRY_POINTS[entry]
    value = {"bool": True, "fraction": 2.5, "below": below}[kind]
    with pytest.raises(ValueError) as exc:
        call(value)
    if kind == "below":
        assert str(exc.value).startswith(f"{name} must be >= ")
        assert str(exc.value).endswith(f", got {below}")
    else:
        assert str(exc.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("call,message", [
    (lambda: harness.degenerate_spectrum(4, 5, rng_for_seed(0)), "r must be >= 1 and <= 4, got 5"),
    (lambda: harness.controlled_rank_probs(4, 5, rng_for_seed(0)), "s must be >= 1 and <= 4, got 5"),
    (lambda: majorization.TTransform(3, 0, 3, 0.5), "j must be >= 0 and <= 2, got 3"),
    (lambda: majorization.TTransform(3, 1, 1, 0.5), "indices (1, 1) must differ"),
    (lambda: monotones.unistochastic_audit(SchmidtSpectrum.from_probs(np.full(9, 1 / 9)), spectra.stellar(9), 10, 0),
     "d must be >= 1 and <= 8, got 9"),
    (lambda: rng_for_seed(2**128), f"seed must be >= 0 and <= {2**128 - 1}, got {2**128}"),
    (lambda: states.random_pure_many(2, 2, [2**128]), f"seed must be >= 0 and <= {2**128 - 1}, got {2**128}"),
], ids=["r-above-d", "s-above-d", "index-above-d", "indices-equal", "audit-d-above-8", "seed-2**128",
        "many-seed-2**128"])
def test_upper_bounds_and_their_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_integral_floats_are_used_as_ints():
    # JSON's 2.0 is a size: each entry point gets the int, as it would from 2.
    step = majorization.TTransform(3, 0.0, np.int64(2), 0.5)
    assert (type(step.i), type(step.j)) == (int, int)
    np.testing.assert_array_equal(step.apply([1.0, 0.0, 0.0]), [0.5, 0.0, 0.5])
    np.testing.assert_array_equal(spectra.stellar(3.0).thetas, spectra.stellar(3).thetas)
    np.testing.assert_array_equal(states.random_pure(2.0, 3.0, 5.0).amplitudes, states.random_pure(2, 3, 5).amplitudes)
    np.testing.assert_array_equal(states.random_pure_many(2, 3, [np.float64(5)]), states.random_pure_many(2, 3, [5]))
    np.testing.assert_array_equal(harness.scatter(4.0, 5.0, 0, dB=np.int64(3)), harness.scatter(4, 5, 0, dB=3))
