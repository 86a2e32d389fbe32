"""Pinned mutations: each case patches one defect in at the name a test reads, and that test must fail.

A refactor can weaken a test until it no longer catches the defect it was written for, and the suite stays
green; these cases keep each claim true.  A test that claims to catch a defect adds its mutation here.
"""

import inspect
import textwrap

import numpy as np
import pytest

from mirrorent import cli, harness, locc, monotones, spectra, states
from mirrorent.states import SchmidtSpectrum, rng_for_seed

import test_cli
import test_golden
import test_harness
import test_locc
import test_monotones
import test_spectra
import test_states


def mutant(module, name, old, new):
    """``module.name`` rebuilt from its source with ``old``, which must occur there once, replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, f"{old!r} is not in {name} once"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


def test_bruteforce_replacing_its_best_on_a_tie(monkeypatch):
    # The last of equal maxima would win, not the lexicographically smallest sigma.
    monkeypatch.setattr(test_monotones, "fidelity_bruteforce", mutant(
        monotones, "fidelity_bruteforce", "int(permutation_overlaps(p.probs, spec).argmax())",
        "math.factorial(d) - 1 - int(permutation_overlaps(p.probs, spec)[::-1].argmax())"))
    with pytest.raises(AssertionError):
        test_monotones.TestPermutationBlocks().test_bits_of_the_full_table(8)


def test_blocks_without_the_last_one(monkeypatch):
    # The overlaps of the last prefix would be left unwritten.
    monkeypatch.setattr(test_monotones, "permutation_overlaps", mutant(
        monotones, "permutation_overlaps", "itertools.permutations(range(d), d - t))",
        "list(itertools.permutations(range(d), d - t))[:-1])"))
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


@pytest.mark.parametrize("scale", ["1 - 1e-12", "1 + 1e-6"])
def test_fidelity_scaled(monkeypatch, scale):
    # Where a grid direction is optimal, as on this degenerate spectrum at d = 14, F * (1 - 1e-12) falls below
    # the grid bound's lower edge (8 d eps) and F * (1 + 1e-6) above its upper one (a factor 1 / cos(pi / 4096)).
    monkeypatch.setattr(monotones, "_solution", mutant(monotones, "_solution", "f = _fidelity(z)",
                                                       f"f = _fidelity(z) * ({scale})"))
    rng = rng_for_seed(14)
    p = SchmidtSpectrum.from_probs(rng.dirichlet(np.full(14, 0.3)))
    case = p, harness.degenerate_spectrum(14, int(rng.integers(2, 14)), rng)
    test = test_monotones.TestGridOracle.test_within_the_grid_bound.hypothesis.inner_test
    with pytest.raises(AssertionError):
        test(test_monotones.TestGridOracle(), case=case)


@pytest.mark.parametrize("kind", ["random", "stellar"])
def test_sigma_with_its_middle_entries_swapped(monkeypatch, kind):
    # At d = 1024 the event sweep's sigma, with sigma(511) and sigma(512) exchanged: swapping them back gains.
    monkeypatch.setattr(monotones, "_solution", mutant(
        monotones, "_solution", "idx = np.asarray(sigma, dtype=np.intp)",
        "idx = np.asarray(sigma, dtype=np.intp).copy(); m = idx.size // 2; idx[[m - 1, m]] = idx[[m, m - 1]]"))
    with pytest.raises(AssertionError):
        test_monotones.TestFirstOrder().test_no_adjacent_swap_gains_at_d1024(kind)


def test_kraus_stack_reporting_the_last_bad_channel(monkeypatch):
    # The stack would name the later incomplete channel's error, not the first one's, which the set alone gives.
    monkeypatch.setattr(locc, "_kraus_stack", mutant(locc, "_kraus_stack", "np.ravel(errs)[np.argmin(ok)]",
                                                     "np.ravel(errs)[ok.size - 1 - np.argmin(np.ravel(ok)[::-1])]"))
    with pytest.raises(AssertionError):
        test_locc.TestKrausStack().test_a_bad_channel_in_the_middle("incomplete")


def test_phase_groups_without_the_seam_run(monkeypatch):
    # A first gap of 2 pi always starts a group at phase 0, so a group that wraps the seam would split in two.
    monkeypatch.setattr(test_spectra, "phase_groups", mutant(
        spectra, "phase_groups", "thetas[0] + TWO_PI - thetas[-1]", "TWO_PI"))
    with pytest.raises(AssertionError):
        test_spectra.TestPhaseGroups().test_seam_group_starts_nearest_two_pi()


CHUNK_MUTATIONS = pytest.mark.parametrize("old, new", [("flat[i] > best", "flat[i] >= best"), ("c * width + i", "i")],
                                          ids=["last-of-equal-maxima", "no-chunk-offset"])


@CHUNK_MUTATIONS
def test_event_sweep_chunks_in_a_tie(monkeypatch, old, new):
    # Chunks of one block: a later block's equal |z| would win, or a later chunk's best would name a block of the first.
    monkeypatch.setattr(test_monotones, "_event_sweep", mutant(monotones, "_event_sweep", old, new))
    with pytest.raises(AssertionError):
        test_monotones.TestEventSweep().test_chunks_keep_the_first_of_equal_maxima(monkeypatch, 1, 64)


@CHUNK_MUTATIONS
def test_event_sweep_chunks_in_the_pin(monkeypatch, old, new):
    # The default chunks, three at d = 192, where the stellar spectrum's equal maxima fall in different chunks.
    monkeypatch.setattr(monotones, "_event_sweep", mutant(monotones, "_event_sweep", old, new))
    with pytest.raises(AssertionError):
        test_golden.test_exact_event_pin()


def test_output_replacing_a_fifo(monkeypatch, capsys, tmp_path):
    # Every existing --out would be replaced by a regular file, a FIFO or a device too.
    monkeypatch.setattr(cli, "_Output", mutant(cli, "_Output", "os.path.exists(path) and not os.path.isfile(path)",
                                               "False"))
    with pytest.raises(AssertionError):
        test_cli.TestSample().test_a_fifo_is_written_in_place(capsys, tmp_path)


def test_output_committed_on_failure(monkeypatch, capsys, tmp_path):
    # The temp file would replace an existing --out or --csv also when the command fails.
    monkeypatch.setattr(cli, "_Output", mutant(cli, "_Output", "if exc_type is None and self.tmp:", "if self.tmp:"))
    with pytest.raises(AssertionError):
        test_cli.TestOutputsBeforeWork().test_a_failed_command_keeps_an_existing_file(capsys, monkeypatch, tmp_path)


def test_event_compile_keeping_intp_orders(monkeypatch):
    # Checkpoint orders widened back to intp, eight bytes per slot where one does.
    monkeypatch.setattr(monotones, "_event_blocks", mutant(
        monotones, "_event_blocks", "return orders, ks, coef", "return orders.astype(np.intp), ks, coef"))
    with pytest.raises(AssertionError):
        test_monotones.TestEventSweep().test_keeps_narrow_arrays(256, 1, "random")


def test_direction_bound_of_the_support_values_alone(monkeypatch):
    # The max(h) / cos(w / 2) form bounds the support values inside a window, not the |z| of the vertices there.
    monkeypatch.setattr(test_monotones, "_window_keeps", mutant(
        monotones, "_window_keeps", "np.maximum(np.maximum(np.abs(za), np.abs(zb)), np.sqrt(x2))",
        "np.maximum(ha, hb) / np.cos(0.5 * w)"))
    with pytest.raises(AssertionError):
        test_monotones.TestOneShot().test_bound_holds_every_vertex_of_its_window(5)


@pytest.mark.parametrize("old, new", [("(lo - 1) // d", "lo // d"), ("np.append(blocks, 0) if hi == events else blocks",
                                                                       "blocks")],
                         ids=["without-the-event-before-the-window", "without-the-wrap-block"])
def test_slot_blocks_dropping_a_block(monkeypatch, old, new):
    # A window's first slot at a block's edge would lose the block it ends, and a window that reaches 2 pi block 0,
    # which holds the same order as the end of the last block.
    monkeypatch.setattr(test_monotones, "_slot_blocks", mutant(monotones, "_slot_blocks", old, new))
    with pytest.raises(AssertionError):
        test_monotones.TestOneShot().test_slot_blocks(4)


def test_one_shot_scan_keeping_the_last_of_equal_maxima(monkeypatch):
    # Tied probabilities repeat a |z| bit for bit across blocks: scanned one block per chunk, the one-shot path would
    # return a later sigma.  The test sets the chunk size in the namespace of the _event_sweep it names.
    scan = mutant(monotones, "_event_sweep", "flat[i] > best", "flat[i] >= best")
    monkeypatch.setattr(monotones, "_event_sweep", scan)
    monkeypatch.setattr(test_monotones, "_event_sweep", scan)
    with pytest.raises(AssertionError):
        test_monotones.TestOneShot().test_one_block_chunks_keep_the_first_of_equal_maxima(monkeypatch, 33)


def test_one_shot_declining_at_a_tie_across_a_block_edge(monkeypatch):
    # Lattice phases tie crossing angles across the edges of the blocks the path needs, where it would compile.
    monkeypatch.setattr(monotones, "_one_shot", mutant(
        monotones, "_one_shot", "        side[sel[:cut]] = lower\n",
        "        if sel.size > hi - lo:\n            return None\n        side[sel[:cut]] = lower\n"))
    with pytest.raises(AssertionError):
        test_monotones.TestOneShot().test_shared_crossing_angles()


def test_one_shot_without_the_cut(monkeypatch):
    # A run built from the first event at its first angle, not from its first slot, would start out of place.  The
    # sigma often stays right, as the optimum rarely sits in a run's last few events; its blocks do not.
    monkeypatch.setattr(monotones, "_one_shot", mutant(
        monotones, "_one_shot", "cut, side = lo - np.count_nonzero(before),", "cut, side = 0,"))
    with pytest.raises(AssertionError):
        test_monotones.TestOneShot().test_runs_at_shared_crossing_angles_are_blocks_of_the_compile(monkeypatch)


def test_locc_pass_evaluating_every_spectrum_on_the_first(monkeypatch):
    # Each spectrum of a shared LOCC pass would get the first spectrum's E*, stacked and one case at a time alike.
    monkeypatch.setattr(harness, "_locc_block", mutant(harness, "_locc_block", "for spec in specs]",
                                                       "for spec in specs[:1] * len(specs)]"))
    with pytest.raises(AssertionError):
        test_harness.TestLoccSharedPass().test_each_report_equals_its_spectrum_alone(monkeypatch, 2, 3)


def test_oracle_blocks_evaluated_whole(monkeypatch):
    # Each 7!-row block would be filled and evaluated at once, in buffers mapped anew on every call at d >= 7.
    monkeypatch.setattr(test_monotones, "permutation_overlaps", mutant(
        monotones, "permutation_overlaps", "rows = min(len(table), _CHUNK_ROWS)", "rows = len(table)"))
    with pytest.raises(AssertionError):
        test_monotones.TestPermutationBlocks().test_a_warm_call_allocates_little_beside_its_vector(8)
