import hashlib
import json
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from mirrorent import harness, locc
from mirrorent.cli import VERIFY_FLAGS, VERIFY_SUITES, main
from mirrorent.monotones import _compile_sweep, fidelity_exact, linear_entropy_bounds
from mirrorent.spectra import parse_spectrum_spec
from mirrorent.states import SchmidtSpectrum, random_pure


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_probs_stellar(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--probs", "0.5,0.5", "--spectrum", "stellar")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["me"] - 1.0) < 1e-12
        assert abs(obj["el"] - 1.0) < 1e-12
        assert abs(obj["fidelity"]) < 1e-12
        assert sorted(obj["sigma"]) == [0, 1]
        assert set(obj["bounds"]) == {"lower", "upper"}

    def test_state_file(self, capsys, tmp_path):
        state = random_pure(3, 4, seed=2)
        path = tmp_path / "state.json"
        amp = state.amplitudes.reshape(-1)
        path.write_text(json.dumps({"dims": [state.dA, state.dB], "re": amp.real.tolist(), "im": amp.imag.tolist()}))
        code, out, _ = run_cli(capsys, "compute", "--state", str(path))
        assert code == 0
        obj = json.loads(out)
        assert 0.0 <= obj["me"] <= 1.0
        assert obj["bounds"]["lower"] <= obj["me"] + 1e-10 <= obj["bounds"]["upper"] + 2e-10

    def test_gaps_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--probs", "0.6,0.4", "--spectrum", "gaps:0.5,0.5")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["me"] - 4 * 0.6 * 0.4) < 1e-12

    @pytest.mark.parametrize("spectrum", ["stellar", "gaps:" + ",".join(["0"] * 50 + ["0.02"] * 50)],
                             ids=["stellar", "zero-gaps"])
    def test_above_the_compiled_sweep_cap(self, capsys, spectrum):
        # 100 weights: fidelity_exact runs the event sweep, checked against the compiled one.
        weights = np.random.default_rng(100).dirichlet(np.ones(100))
        code, out, _ = run_cli(capsys, "compute", "--probs", ",".join(map(repr, weights.tolist())), "--spectrum", spectrum)
        assert code == 0
        obj = json.loads(out)
        p = SchmidtSpectrum.from_probs(weights)
        compiled = float(np.abs(_compile_sweep(parse_spectrum_spec(spectrum, d=100))[1] @ p.probs).max()) ** 2
        assert abs(obj["me"] - (1.0 - compiled)) <= 1e-12
        assert sorted(obj["sigma"]) == list(range(100))

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--spectrum", "stellar")
        assert code == 1
        assert err.startswith("error: ")
        assert "\n" not in err.strip("\n")

    def test_bad_probs(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--probs", "0.9,oops")
        assert code == 1 and err.startswith("error: ")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--state", "/nonexistent/state.json")
        assert code == 1 and err.startswith("error: ")


class TestSpectrumCommand:
    def test_stellar_d4(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--d", "4", "--spectrum", "stellar")
        assert code == 0
        obj = json.loads(out)
        np.testing.assert_allclose(obj["thetas"], np.array([1, 3, 5, 7]) * np.pi / 4, atol=1e-12)
        np.testing.assert_allclose(obj["gaps"], [0.25] * 4, atol=1e-15)
        assert obj["degeneracy"] == 1 and obj["faithful"] is True

    def test_gaps_kind(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--spectrum", "gaps:0.5,0.5,0")
        assert code == 0
        obj = json.loads(out)
        assert obj["degeneracy"] == 2 and obj["faithful"] is False

    def test_stellar_needs_d(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--spectrum", "stellar")
        assert code == 1 and err.startswith("error: ")


class TestSample:
    def test_csv_schema_and_reproducibility(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "sample", "--d", "4", "--samples", "50", "--seed", "0", "--out", str(path)
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[0] == "el,estar"
        assert len(lines) == 51
        el, estar = map(float, lines[1].split(","))
        assert 0 <= estar <= el + 1e-10

    def test_rows_above_the_compiled_sweep_cap(self, capsys, tmp_path):
        # The stacked rows equal the one-case path, so the block's recheck keeps them.
        out = tmp_path / "s.csv"
        assert run_cli(capsys, "sample", "--d", "70", "--samples", "3", "--seed", "4", "--out", str(out))[0] == 0
        expected = [harness._scatter_case(70, 70, 4, i) for i in range(3)]
        np.testing.assert_array_equal(harness._scatter_block(70, 70, 4, range(3)), expected)
        assert out.read_text().split("\n")[1:4] == [f"{float(el)!r},{float(estar)!r}" for el, estar in expected]

    def test_atomic_write_leaves_no_temp(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        run_cli(capsys, "sample", "--d", "2", "--samples", "5", "--out", str(out))
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert leftovers == [] and out.exists()

    def test_failed_write_names_the_out_path(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code, stdout, err = run_cli(capsys, "sample", "--d", "2", "--samples", "5", "--out", str(out))
        assert (code, stdout, err) == (1, "", f"error: cannot write {out}: No such file or directory\n")
        assert os.listdir(tmp_path) == []


class TestVerify:
    def test_bounds_d2_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bounds", "--d", "2", "--trials", "100")
        assert code == 0
        obj = json.loads(out)
        assert obj["tool_version"]
        assert obj["seed"] == 0
        (rep,) = obj["results"].values()
        assert rep["failures"] == 0
        assert rep["trials"] == 100

    def test_hierarchy(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hierarchy", "--d", "3", "--trials", "15")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["results"]) == 3  # r = 1, 2, 3

    def test_witness(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "witness", "--d", "3")
        assert code == 0

    def test_locc(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "locc", "--d", "2", "--trials", "10", "--kraus-count", "2"
        )
        assert code == 0
        (rep,) = json.loads(out)["results"].values()
        assert "min_slack" in rep["metrics"] and "mean_slack" in rep["metrics"]

    def test_majorization_with_csv(self, capsys, tmp_path):
        csv = tmp_path / "steps.csv"
        code, out, _ = run_cli(
            capsys, "verify", "majorization", "--d", "3", "--trials", "5",
            "--subdiv", "8", "--csv", str(csv),
        )
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "sample,d_estar,d_el,ratio_ok"
        assert len(lines) > 1

    def test_failed_csv_write_names_the_path_and_leaves_no_temp(self, capsys, tmp_path):
        # The temp file is made beside the directory, and renaming it onto the directory fails.
        csv = tmp_path / "steps.csv"
        csv.mkdir()
        code, _, err = run_cli(capsys, "verify", "majorization", "--d", "2", "--trials", "2", "--subdiv", "2",
                               "--csv", str(csv))
        assert (code, err) == (1, f"error: cannot write {csv}: Is a directory\n")
        assert os.listdir(tmp_path) == ["steps.csv"] and os.listdir(csv) == []

    def test_unistochastic(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "unistochastic", "--d", "2", "--cases", "10", "--trials", "50"
        )
        assert code == 0

    def test_identical_invocations_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(capsys, "verify", "bounds", "--d", "3", "--trials", "25", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "nonsense")
        assert code == 1

    def test_csv_rows_are_the_suite_audits(self, capsys, tmp_path, monkeypatch):
        calls = []
        audit = harness.increment_audit
        monkeypatch.setattr(harness, "increment_audit", lambda *a, **k: calls.append(a) or audit(*a, **k))
        code, _, _ = run_cli(
            capsys, "verify", "majorization", "--trials", "30", "--subdiv", "8",
            "--csv", str(tmp_path / "steps.csv"),
        )
        assert code == 0
        assert len(calls) == harness.AUDITS

    def test_zero_samples_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "majorization", "--d", "3", "--trials", "0")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def raised_lower_bound(el, d):
    lower, upper = linear_entropy_bounds(el, d)
    return lower + 0.05, upper


def lowered_estar(p, spec):
    return types.SimpleNamespace(me=fidelity_exact(p, spec).me - 0.05)


class TestSuiteFailure:
    """A suite whose cases fail: the report still goes to stdout, and one ``error:`` line names the worst case."""

    @pytest.mark.parametrize("binding,fake,argv,failures,worst,sha256", [
        ("linear_entropy_bounds", raised_lower_bound, ["bounds", "--d", "4", "--trials", "60", "--seed", "1"], 15,
         '{"el": 0.583702922216619, "estar": 0.4577854687031735, "ok": false, "violation": 0.029991722859290644}',
         "d40993386ea101e2de62c1b9c534ee7212a37138ddfff85ddb0492f01641dc8c"),
        # The one-case check sees the lowered value, so every scatter row is evaluated one case at a time.
        ("fidelity_exact", lowered_estar, ["bounds", "--d", "4", "--trials", "60", "--seed", "1"], 78,
         '{"el": 0.3600000000000003, "estar": 0.3099999999999999, "family": "threefold", "ok": false, '
         '"violation": 0.04999999990000043, "x": 0.15000000000000002}',
         "050fcbb219f22f0bd4db7110d7966befa485e984191294f42e806b42f98bf99b"),
        ("unistochastic_audit", lambda *args, **kwargs: 2.0,
         ["unistochastic", "--d", "3", "--cases", "5", "--trials", "2", "--seed", "1"], 5,
         '{"agree_err": 0.0, "audit_excess": 1.4364165920317116, "ok": false, "violation": 1.4364165910317115}',
         "0cdeebea24dd5455f8ce52507fd84ebee24b3653159c1458f4c56a2c5584eade"),
    ], ids=["bounds-lower", "bounds-families", "unistochastic-audit"])
    def test_exit_2(self, capsys, monkeypatch, binding, fake, argv, failures, worst, sha256):
        monkeypatch.setattr(harness, binding, fake)
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert err == f"error: verification failed ({failures} case(s)); worst: {worst}\n"
        (rep,) = json.loads(out)["results"].values()
        assert rep["failures"] == len(rep["details"]) == failures
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


NON_FINITE_FILES = {
    "state_nan": '{"dims": [2, 2], "re": [NaN, 0, 0, 0.5], "im": [0, 0, 0, 0]}',
    "thetas_nan": '{"d": 2, "thetas": [NaN, 1.0]}',
    "thetas_inf": '{"d": 2, "thetas": [Infinity, 1.0]}',
    "state_im_inf": '{"dims": [2, 2], "re": [0.5, 0, 0, 0.5], "im": [Infinity, 0, 0, 0]}',
    "state_huge": '{"dims": [2, 2], "re": [1e200, 0, 0, 1e200], "im": [0, 0, 0, 0]}',
}


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
class TestNonFiniteInput:
    """NaN or inf input, or finite input whose sum or norm overflows, ends in exit 1 with a single error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--probs", "nan,0.5,0.5"],
            ["spectrum", "--spectrum", "gaps:nan,1"],
            ["compute", "--probs", "0.5,0.5", "--spectrum", "gaps:nan,1"],
            ["compute", "--state", "{state_nan}"],
            ["compute", "--probs", "0.5,0.5", "--spectrum", "file:{thetas_nan}"],
            ["spectrum", "--spectrum", "file:{thetas_inf}"],
            ["compute", "--probs", "1e308,1e308"],
            ["spectrum", "--spectrum", "gaps:1e308,1e308"],
            ["compute", "--state", "{state_im_inf}"],
            ["compute", "--state", "{state_huge}"],
        ],
        ids=["probs-nan", "spectrum-gaps-nan", "compute-gaps-nan", "state-file-nan",
             "spectrum-file-nan", "spectrum-file-inf", "probs-sum-overflow", "spectrum-gaps-sum-overflow",
             "state-file-im-inf", "state-file-norm-overflow"],
    )
    def test_rejected(self, capsys, tmp_path, argv):
        paths = {}
        for name, text in NON_FINITE_FILES.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestErrorValues:
    """A value quoted in an error line reads as a plain number, not as a numpy scalar's repr."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--probs", "0.5,0.6"],
            ["spectrum", "--spectrum", "gaps:1e308,-1e308"],
            ["compute", "--state", "{state}"],
        ],
        ids=["probs-sum", "gaps-below-floor", "state-norm-underflow"],
    )
    def test_plain_numbers(self, capsys, tmp_path, argv):
        state = tmp_path / "state.json"
        state.write_text('{"dims": [2, 2], "re": [1e-200, 0, 0, 1e-200], "im": [0, 0, 0, 0]}')
        code, out, err = run_cli(capsys, *(a.format(state=state) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "np.float64(" not in err


class TestRejectedArguments:
    """Out-of-range counts, sizes and scales end in exit 1 with one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "all", "--scale", "inf"],
            ["verify", "all", "--scale", "nan"],
            ["verify", "all", "--scale", "0"],
            ["verify", "all", "--scale", "-3"],
            ["verify", "locc", "--d", "3", "--db", "0"],
            ["sample", "--d", "3", "--db", "0", "--samples", "0"],
            ["sample", "--d", "2", "--samples", "5", "--threads", "0"],
            ["verify", "bounds", "--d", "2", "--threads", "-1"],
            ["verify", "nonsense"],
            ["verify", "bounds", "--kraus-count", "7"],
            ["sample", "--d", "x", "--samples", "3"],
            ["sample", "--d", "3"],
            ["verify", "hierarchy", "--d", "0"],
            ["verify", "hierarchy", "--d", "-2"],
        ],
        ids=["scale-inf", "scale-nan", "scale-zero", "scale-negative", "locc-db-zero",
             "sample-db-zero", "sample-threads-zero", "verify-threads-negative",
             "unknown-suite", "foreign-flag", "non-integer-d", "missing-samples",
             "hierarchy-d-zero", "hierarchy-d-negative"],
    )
    def test_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCountErrors:
    """A count or size out of range names the flag that sets it and its value, before any case runs."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["verify", "bounds", "--d", "2", "--trials", "-1"], "--trials"),
            (["verify", "bounds", "--d", "1"], "--d"),
            (["verify", "hierarchy", "--d", "3", "--trials", "0"], "--trials"),
            (["verify", "locc", "--kraus-count", "0"], "--kraus-count"),
            (["verify", "locc", "--kraus-count", "0", "--threads", "2"], "--kraus-count"),
            (["verify", "locc", "--d", "2", "--trials", "0"], "--trials"),
            (["verify", "locc", "--d", "0"], "--d"),
            (["verify", "locc", "--d", "3", "--db", "-1"], "--db"),
            (["verify", "locc", "--d", "0", "--spectrum", "gaps:0.5,0.5"], "--d"),
            (["verify", "locc", "--d", "2", "--db", "0", "--spectrum", "gaps:0.5,0.5"], "--db"),
            (["verify", "majorization", "--subdiv", "0"], "--subdiv"),
            (["verify", "majorization", "--trials", "-5"], "--trials"),
            (["verify", "majorization", "--d", "1"], "--d"),
            (["verify", "unistochastic", "--cases", "0"], "--cases"),
            (["verify", "unistochastic", "--trials", "0"], "--trials"),
            (["verify", "witness", "--d", "1"], "--d"),
            (["verify", "witness", "--d", "0"], "--d"),
            (["verify", "hierarchy", "--d", "9"], "--d"),
            (["verify", "hierarchy", "--d", "4", "--r", "0"], "--r"),
            (["verify", "hierarchy", "--d", "4", "--r", "5"], "--r"),
            (["verify", "unistochastic", "--d", "1"], "--d"),
            (["verify", "unistochastic", "--d", "9"], "--d"),
            (["spectrum", "--d", "0"], "--d"),
            (["sample", "--d", "0", "--samples", "3"], "--d"),
            (["sample", "--d", "2", "--db", "0", "--samples", "3"], "--db"),
            (["sample", "--d", "2", "--samples", "-1"], "--samples"),
            (["sample", "--d", "2", "--samples", "3", "--seed", "-1"], "--seed"),
            (["verify", "all", "--seed", "-1"], "--seed"),
            (["verify", "bounds", "--seed", "-1"], "--seed"),
            (["verify", "hierarchy", "--seed", "-1"], "--seed"),
            (["verify", "locc", "--seed", "-1"], "--seed"),
            (["verify", "majorization", "--seed", "-1"], "--seed"),
            (["verify", "unistochastic", "--seed", "-1"], "--seed"),
        ],
        ids=["bounds-trials", "bounds-d", "hierarchy-trials", "locc-kraus-count", "locc-kraus-count-pool",
             "locc-trials", "locc-d", "locc-db", "locc-d-spectrum", "locc-db-spectrum", "majorization-subdiv",
             "majorization-trials", "majorization-d", "unistochastic-cases", "unistochastic-trials", "witness-d1",
             "witness-d0", "hierarchy-d-above", "hierarchy-r-zero", "hierarchy-r-above-d", "unistochastic-d1",
             "unistochastic-d-above", "spectrum-d", "sample-d", "sample-db", "sample-samples", "sample-seed",
             "all-seed", "bounds-seed", "hierarchy-seed", "locc-seed", "majorization-seed", "unistochastic-seed"],
    )
    def test_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{flag} must be >= " in err
        assert err.rstrip().endswith(f"got {argv[argv.index(flag) + 1]}")


# command -> (its argv with small counts, the Philox keys it derives from --seed)
SEED_KEYS = {
    "sample": (["sample", "--d", "2", "--samples", "2"], 2),
    # The LOCC spectra of `all` take seed + 100 + k + attempt: k < 3, attempt < 100.
    "all": (["verify", "all", "--scale", "1e-9"], 202),
    "bounds": (["verify", "bounds", "--d", "2", "--trials", "3"], 3),
    "hierarchy": (["verify", "hierarchy", "--d", "2", "--trials", "3"], 3),
    "locc": (["verify", "locc", "--d", "2", "--trials", "2"], 8),  # two keys a trial, on each side
    "majorization": (["verify", "majorization", "--d", "2", "--trials", "3", "--subdiv", "2"], 3),
    "unistochastic": (["verify", "unistochastic", "--d", "2", "--cases", "2", "--trials", "2"], 4),
}


# command -> (its argv without its count, the count's flag, a value whose Philox keys pass 2**128 from seed 0)
COUNT_KEYS = {
    "sample": (["sample", "--d", "2"], "--samples", str(10**39)),
    "all": (["verify", "all"], "--scale", "1e+40"),
    "bounds": (["verify", "bounds", "--d", "2"], "--trials", str(10**39)),
    "hierarchy": (["verify", "hierarchy", "--d", "2"], "--trials", str(10**39)),
    "locc": (["verify", "locc", "--d", "2"], "--trials", str(10**38)),  # four keys a trial
    "majorization": (["verify", "majorization", "--d", "2", "--subdiv", "2"], "--trials", str(10**39)),
    "unistochastic": (["verify", "unistochastic", "--d", "2", "--trials", "2"], "--cases", str(2**127 + 1)),
}


def no_map(monkeypatch):
    """The block functions ``harness`` asks ``map_blocks`` to map from now on, none of which runs."""
    mapped = []
    monkeypatch.setattr(harness, "map_blocks", lambda block_fn, n, amplitudes, threads=1: mapped.append(block_fn))
    return mapped


class TestOutputsBeforeWork:
    """Each --out/--csv gets its temp file before the command does any work, and keeps none when it fails."""

    @pytest.mark.parametrize("argv,flag", [
        (["verify", "bounds", "--d", "2", "--trials", "3"], "--out"),
        (["verify", "majorization", "--d", "2", "--trials", "2", "--subdiv", "2"], "--csv"),
        (["sample", "--d", "4", "--samples", "5"], "--out"),
    ], ids=["bounds-out", "majorization-csv", "sample-out"])
    def test_unwritable_path_fails_before_any_case(self, capsys, monkeypatch, tmp_path, argv, flag):
        mapped = no_map(monkeypatch)
        path = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, *argv, flag, str(path))
        assert (code, out, err) == (1, "", f"error: cannot write {path}: No such file or directory\n")
        assert mapped == [] and os.listdir(tmp_path) == []

    def test_a_failed_command_leaves_no_file(self, capsys, tmp_path):
        # --out and --csv are staged, then the spectrum is rejected.
        code, _, err = run_cli(capsys, "verify", "locc", "--d", "2", "--spectrum", "gaps:1", "--trials", "2",
                               "--out", str(tmp_path / "x.json"))
        assert (code, err) == (1, "error: spectrum has d = 1, expected 2\n")
        code, _, err = run_cli(capsys, "verify", "majorization", "--d", "1", "--csv", str(tmp_path / "y.csv"),
                               "--out", str(tmp_path / "x.json"))
        assert (code, err) == (1, "error: --d must be >= 2, got 1\n")
        assert os.listdir(tmp_path) == []


class TestSeedRange:
    """The last Philox key a command derives from --seed must stay below 2**128."""

    @pytest.mark.parametrize("command", SEED_KEYS)
    def test_rejected_by_name_before_any_case(self, capsys, monkeypatch, command):
        argv, keys = SEED_KEYS[command]
        mapped = no_map(monkeypatch)
        seed = 2**128 - keys + 1
        code, out, err = run_cli(capsys, *argv, "--seed", str(seed))
        assert code == 1 and out == "" and mapped == []
        assert err.startswith(f"error: --seed must be <= {seed - 1} ") and err.count("\n") == 1
        assert err.rstrip().endswith(f"got {seed}")

    @pytest.mark.parametrize("argv,flag,value", [*COUNT_KEYS.values(), (["verify", "all"], "--scale", "1e+305")],
                             ids=[*COUNT_KEYS, "all-overflow"])
    def test_count_too_large_for_any_seed_names_its_flag(self, capsys, monkeypatch, argv, flag, value):
        # At --scale 1e+305 the scaled counts would overflow a float to inf.
        assert COUNT_KEYS.keys() == SEED_KEYS.keys()
        mapped = no_map(monkeypatch)
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert code == 1 and out == "" and mapped == []
        assert err.startswith(f"error: {flag} must be ") and err.count("\n") == 1
        assert err.rstrip().endswith(f"got {value}")
        assert re.search(r"-\d", err) is None  # no negative bound

    @pytest.mark.parametrize("command", SEED_KEYS)
    def test_largest_seed_runs(self, capsys, command):
        argv, keys = SEED_KEYS[command]
        code, out, _ = run_cli(capsys, *argv, "--seed", str(2**128 - keys))
        assert code == 0
        if command != "sample":
            assert json.loads(out)["seed"] == 2**128 - keys


class TestOutOfMemory:
    def test_one_error_line(self, capsys, monkeypatch):
        # The first draw of the dilation of 100000 Kraus operators at d = 2 is 298 GiB
        # of float64, as numpy would report it; never allocate it here.  A block checks
        # its first trial's one-case draw before it draws the stack, whose real and
        # imaginary parts together would be 596 GiB.
        def no_memory(d, n, rng):
            raise MemoryError(f"Unable to allocate {8 * n * d * d / 2**30:.0f} GiB")

        def no_memory_stacked(d, seeds, columns=None):
            raise MemoryError(f"Unable to allocate {16 * len(seeds) * d * d / 2**30:.0f} GiB")

        monkeypatch.setattr(locc, "haar_unitaries", no_memory)
        monkeypatch.setattr(locc, "haar_unitaries_many", no_memory_stacked)
        code, out, err = run_cli(capsys, "verify", "locc", "--d", "2", "--trials", "1", "--kraus-count", "100000")
        assert code == 1 and out == ""
        assert err == "error: Unable to allocate 298 GiB\n"


MALFORMED_FILES = {
    "spectrum-d-null": ("spectrum", '{"d": null, "thetas": [0, 1]}'),
    "spectrum-thetas-object": ("spectrum", '{"d": 2, "thetas": {"a": 1}}'),
    "spectrum-gaps-object": ("spectrum", '{"d": 2, "gaps": {"a": 1}}'),
    "spectrum-d-fractional": ("spectrum", '{"d": 2.7, "thetas": [0, 1]}'),
    "spectrum-d-inf": ("spectrum", '{"d": Infinity, "thetas": [0, 1]}'),
    "spectrum-thetas-scalar": ("spectrum", '{"d": 1, "thetas": 5}'),
    "spectrum-gaps-scalar": ("spectrum", '{"d": 1, "gaps": 1}'),
    "state-dims-fractional": ("state", '{"dims": [2, 2.5], "re": [1, 0, 0, 0, 0], "im": [0, 0, 0, 0, 0]}'),
    "state-dims-null": ("state", '{"dims": [2, null], "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}'),
    "state-dims-negative": ("state", '{"dims": [-2, -2], "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}'),
    "state-dims-minus-one": ("state", '{"dims": [-1, -1], "re": [1], "im": [0]}'),
}


class TestMalformedFiles:
    """A spectrum or state file of the wrong types ends in exit 1 with one error line."""

    @pytest.mark.parametrize("name", MALFORMED_FILES)
    def test_rejected(self, capsys, tmp_path, name):
        kind, text = MALFORMED_FILES[name]
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = ["spectrum", "--spectrum", f"file:{path}"] if kind == "spectrum" else ["compute", "--state", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["state-dims-negative", "state-dims-minus-one"])
    def test_nonpositive_dims_named(self, capsys, tmp_path, name):
        # Their products match the array lengths, so only a check of dims itself catches them.
        path = tmp_path / "input.json"
        path.write_text(MALFORMED_FILES[name][1])
        code, _, err = run_cli(capsys, "compute", "--state", str(path))
        dim = json.loads(MALFORMED_FILES[name][1])["dims"][0]
        assert (code, err) == (1, f"error: state 'dims' must be >= 1, got {dim}\n")

    @pytest.mark.parametrize("kind", ["state", "spectrum"])
    def test_invalid_json_names_the_file(self, capsys, tmp_path, kind):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        argv = ["compute", "--state", str(path)] if kind == "state" else ["spectrum", "--spectrum", f"file:{path}"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)\n"

    def test_scalar_thetas_named_as_phases(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(MALFORMED_FILES["spectrum-thetas-scalar"][1])
        code, _, err = run_cli(capsys, "spectrum", "--spectrum", f"file:{path}")
        assert code == 1 and "phases" in err


# A small value for every verify flag; --csv and --out get paths in the test.
FLAG_VALUES = {"--d": "2", "--db": "2", "--r": "1", "--trials": "2", "--cases": "2", "--kraus-count": "2",
               "--subdiv": "2", "--spectrum": "stellar", "--seed": "1", "--threads": "1", "--scale": "0.001"}
FOREIGN_FLAGS = [(suite, flag) for suite, (_, flags) in VERIFY_SUITES.items()
                 for flag in VERIFY_FLAGS if flag not in (*flags, "--out")]


class TestVerifyFlags:
    """Each verify suite accepts only the flags it reads and echoes only those in params."""

    def test_foreign_flag_count(self):
        assert len(FOREIGN_FLAGS) == 53  # 13 flags x 7 suites, less the 38 pairs the suites read

    @pytest.mark.parametrize("suite,flag", FOREIGN_FLAGS)
    def test_foreign_flag_rejected(self, capsys, suite, flag):
        code, out, err = run_cli(capsys, "verify", suite, flag, FLAG_VALUES.get(flag, "x"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("suite", VERIFY_SUITES)
    def test_params_echo_read_flags(self, capsys, tmp_path, suite):
        _, flags = VERIFY_SUITES[suite]
        values = {**FLAG_VALUES, "--csv": str(tmp_path / "steps.csv")}
        argv = [a for flag in flags for a in (flag, values[flag])]
        code, _, _ = run_cli(capsys, "verify", suite, *argv, "--out", str(tmp_path / "report.json"))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        expected = {flag[2:].replace("-", "_") for flag in flags if flag != "--csv"} | {"command", "suite"}
        if suite == "all":  # pinned by the verify-all digest
            expected |= {"trials", "cases", "kraus_count", "subdiv"}
        assert set(report["params"]) == expected
        assert report["seed"] == (1 if "--seed" in flags else 0)


class TestEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "roots.json"
        proc = subprocess.run(
            [sys.executable, "-m", "mirrorent", "spectrum", "--d", "2", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(out.read_text())
        np.testing.assert_allclose(obj["thetas"], [np.pi / 2, 3 * np.pi / 2], atol=1e-12)

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
