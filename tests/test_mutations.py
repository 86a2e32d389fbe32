"""Pinned mutations: each case patches one defect in at the name a test reads, and that test must fail.

A refactor can weaken a test until it no longer catches the defect it was written for, and the suite stays
green; these cases keep each claim true.  A test that claims to catch a defect adds its mutation here.
"""

import inspect
import textwrap

import pytest

from mirrorent import harness, monotones, states

import test_harness
import test_monotones


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
