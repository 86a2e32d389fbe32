"""The benchmark calls the library by name; each call must keep working.

``perfbench/tracer.py`` wraps the functions named in its ``LAYERS`` and
``SUITES`` tables plus ``harness.run_all`` and ``cli.main``, and reads
``KrausChannel.m``; ``perfbench/workloads.py`` builds spectra and solves
them through the library.  A rename or a changed signature would otherwise
break only benchmark runs, whose tests are not part of this suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from mirrorent import cli, harness
from mirrorent.locc import KrausChannel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered first: dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves():
    tracer = load_perfbench("tracer")
    for module, name in tracer.LAYERS.values():
        obj = importlib.import_module(f"mirrorent.{module}")
        for part in name.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name
    for name in tracer.SUITES.values():
        assert callable(getattr(harness, name)), name
    assert callable(harness.run_all) and callable(cli.main)
    assert isinstance(KrausChannel.m, property)


def test_traced_run_feeds_the_hooks(tmp_path):
    tracer = load_perfbench("tracer").Tracer()
    try:
        tracer.install()
        assert cli.main(["verify", "locc", "--d", "2", "--trials", "2", "--out", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["locc.apply_channel.calls"] == 4  # two trials on each side
    assert metrics["monotones.fidelity_exact.calls"] > 0
    assert 0.0 < metrics["locc.apply_channel.branch_keep_frac"] <= 1.0
    assert metrics["harness.locc.wall_s"] > 0.0
    assert metrics["cli.self_s"] > 0.0


@pytest.mark.parametrize("name,sizes", [
    ("exact-large-d", {"vectors": ((8, 2), (16, 1))}),
    ("scatter-d4", {"samples": 20, "recheck_every": 5}),
])
def test_workloads_run_clean(tmp_path, name, sizes):
    workload = load_perfbench("workloads").from_request({"workload": name, "sizes": sizes})
    out = tmp_path / "out"
    assert workload.execute(0, out) == 0
    assert workload.failures(out.read_bytes(), 0) == 0
