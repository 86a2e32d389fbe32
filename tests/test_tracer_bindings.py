"""The benchmark's tracer binds program functions by name; each must resolve.

``perfbench/tracer.py`` wraps the functions named in its ``LAYERS`` and
``SUITES`` tables plus ``harness.run_all`` and ``cli.main``, and reads
``KrausChannel.m``.  A rename would otherwise break only traced benchmark
runs, whose tests are not part of this suite.
"""

import importlib
import importlib.util
from pathlib import Path

from mirrorent import cli, harness
from mirrorent.locc import KrausChannel

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves():
    tracer = load_tracer()
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
    tracer = load_tracer().Tracer()
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
