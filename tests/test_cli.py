import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mirrorent.cli import main
from mirrorent.states import random_pure


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
        path.write_text(json.dumps(state.to_json()))
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
        code, out, _ = run_cli(capsys, "spectrum", "--d", "4", "--kind", "stellar")
        assert code == 0
        obj = json.loads(out)
        np.testing.assert_allclose(obj["thetas"], np.array([1, 3, 5, 7]) * np.pi / 4, atol=1e-12)
        np.testing.assert_allclose(obj["gaps"], [0.25] * 4, atol=1e-15)
        assert obj["degeneracy"] == 1 and obj["faithful"] is True

    def test_gaps_kind(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "gaps", "--gaps", "0.5,0.5,0")
        assert code == 0
        obj = json.loads(out)
        assert obj["degeneracy"] == 2 and obj["faithful"] is False

    def test_stellar_needs_d(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--kind", "stellar")
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

    def test_atomic_write_leaves_no_temp(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        run_cli(capsys, "sample", "--d", "2", "--samples", "5", "--out", str(out))
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert leftovers == [] and out.exists()


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
            capsys, "verify", "majorization", "--d", "3", "--samples", "5",
            "--subdiv", "8", "--csv", str(csv),
        )
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "sample,d_estar,d_el,ratio_ok"
        assert len(lines) > 1

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

    def test_zero_samples_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "majorization", "--d", "3", "--samples", "0")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


NON_FINITE_FILES = {
    "state_nan": '{"dims": [2, 2], "re": [NaN, 0, 0, 0.5], "im": [0, 0, 0, 0]}',
    "thetas_nan": '{"d": 2, "thetas": [NaN, 1.0]}',
    "thetas_inf": '{"d": 2, "thetas": [Infinity, 1.0]}',
}


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
class TestNonFiniteInput:
    """NaN or inf input ends in exit 1 with a single error line, never in output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--probs", "nan,0.5,0.5"],
            ["spectrum", "--kind", "gaps", "--gaps", "nan,1"],
            ["compute", "--probs", "0.5,0.5", "--spectrum", "gaps:nan,1"],
            ["compute", "--state", "{state_nan}"],
            ["compute", "--probs", "0.5,0.5", "--spectrum", "file:{thetas_nan}"],
            ["spectrum", "--kind", "file", "--file", "{thetas_inf}"],
        ],
        ids=["probs-nan", "spectrum-gaps-nan", "compute-gaps-nan", "state-file-nan",
             "spectrum-file-nan", "spectrum-file-inf"],
    )
    def test_rejected(self, capsys, tmp_path, argv):
        paths = {}
        for name, text in NON_FINITE_FILES.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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
