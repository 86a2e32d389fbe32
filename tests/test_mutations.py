"""Pinned mutations: each case patches one defect in at the name a test reads, and that test must fail.

A refactor can weaken a test until it no longer catches the defect it was written for, and the suite stays
green; these cases keep each claim true.  A test that claims to catch a defect adds its mutation here.
"""

import inspect
import textwrap

import pytest

from mirrorent import harness, locc, monotones, states

import test_harness
import test_locc
import test_monotones
import test_states


def mutant(module, name, old, new):
    """``module.name`` rebuilt from its source with ``old``, which must occur there once, replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, f"{old!r} is not in {name} once"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


def test_bruteforce_replacing_its_best_on_a_tie(monkeypatch):
    # The last of equal maxima in different blocks would win, not the lexicographically smallest sigma.
    monkeypatch.setattr(test_monotones, "fidelity_bruteforce",
                        mutant(monotones, "fidelity_bruteforce", "vals[k] > best", "vals[k] >= best"))
    with pytest.raises(AssertionError):
        test_monotones.TestPermutationBlocks().test_bits_of_the_full_table(8)


def test_blocks_without_the_last_one(monkeypatch):
    blocks = test_monotones._permutation_blocks
    monkeypatch.setattr(test_monotones, "_permutation_blocks", lambda d: [b.copy() for b in blocks(d)][:-1])
    with pytest.raises(AssertionError):
        test_monotones.TestPermutationBlocks().test_blocks_enumerate_lexicographic_order(8)


def test_checked_without_its_fallback(monkeypatch):
    # A stack that rounds unlike the one-case path would be returned as it is.
    monkeypatch.setattr(harness, "checked", mutant(states, "checked", "np.array_equal(values[0], first)", "True"))
    with pytest.raises(AssertionError):
        test_harness.TestScatter().test_stacks_that_round_otherwise_give_the_one_case_rows(monkeypatch)


def test_map_blocks_without_its_cpu_count_fallback(monkeypatch):
    # Without sched_getaffinity, as on macOS and Windows, the pool would be capped at one CPU, not os.cpu_count().
    monkeypatch.setattr(states, "map_blocks", mutant(states, "map_blocks", "(os.cpu_count() or 1)", "1"))
    with pytest.raises(AssertionError):
        test_harness.TestParallel().test_pool_capped_without_sched_getaffinity(monkeypatch, 2, [2])


def test_state_stack_without_errstate(monkeypatch):
    # An overflowing norm would raise numpy's RuntimeWarning, which the test turns into an error, not the ValueError.
    monkeypatch.setattr(states, "_normalized", mutant(states, "_normalized", 'with np.errstate(over="ignore"):',
                                                      "if True:"))
    with pytest.raises(RuntimeWarning):
        test_states.TestStateStack().test_a_bad_row_in_the_middle(1e200, "state norm inf is not finite")


def test_apply_channel_squaring_an_array(monkeypatch):
    # An array's ** 2 rounds some weights otherwise than Python's pow, which the one-operator reference uses.
    monkeypatch.setattr(test_locc, "apply_channel", mutant(
        locc, "apply_channel", "[norm ** 2 for norm in frobenius_norms(images).tolist()]",
        "(frobenius_norms(images) ** 2).tolist()"))
    # Its two examples of such a weight, one per side, run as plain calls: hypothesis refuses a second executor.
    test = test_locc.TestApplyChannel.test_stacked_product_equals_one_operator_at_a_time.hypothesis.inner_test
    for dA, dB, m, side, seed in ((3, 5, 2, "A", 229), (6, 2, 4, "B", 61)):
        with pytest.raises(AssertionError):
            test(test_locc.TestApplyChannel(), dA=dA, dB=dB, m=m, side=side, seed=seed, drop=None)
