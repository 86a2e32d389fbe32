"""No module of the package imports another module's private (underscore) name,
and no module writes a range check of its own.

A name that two modules share is part of the package's API and is public;
``from .monotones import _helper`` would hide such a dependency.  Every size,
count, index and seed goes through ``states.check_count``, the one place whose
``ValueError`` reads "must be >=" or "must be an integer".
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mirrorent"


def private_imports(path):
    """(line, module, name) of every ``from <package module> import _name`` in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("mirrorent"):
            continue  # another package's names
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append((node.lineno, "." * node.level + (node.module or ""), name))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_import(path):
    assert private_imports(path) == []


def test_detects_a_private_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import __version__\nfrom .monotones import _all_permutations, fidelity_exact\n"
                    "from mirrorent.harness import _each\nfrom os import _exit\n")
    assert private_imports(path) == [(2, ".monotones", "_all_permutations"), (3, "mirrorent.harness", "_each")]


RANGE_CHECK_WORDING = ("must be >=", "must be an integer")


def hand_written_range_checks(path):
    """(line, message text) of every ``raise ValueError(...)`` in ``path`` worded as a range check,
    outside ``check_count`` in a ``states.py``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = set()
    if path.name == "states.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "check_count":
                allowed.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)) or id(node) in allowed:
            continue
        if getattr(node.exc.func, "id", None) != "ValueError":
            continue
        # The literal parts of the message, f-strings' included.
        text = "".join(n.value for n in ast.walk(node.exc) if isinstance(n, ast.Constant) and isinstance(n.value, str))
        if any(wording in text for wording in RANGE_CHECK_WORDING):
            found.append((node.lineno, text))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_hand_written_range_check(path):
    assert hand_written_range_checks(path) == []


def test_detects_a_hand_written_range_check(tmp_path):
    probe = """def check_count(n):
    raise ValueError(f"n must be >= 1, got {n}")


def size(d):
    if d != int(d):
        raise ValueError("d must be an integer, got " + repr(d))
    if d > 8:
        raise ValueError(f"d must be <= 8, got {d}")
"""
    for name in ("probe.py", "states.py"):
        path = tmp_path / name
        path.write_text(probe)
        expected = [(7, "d must be an integer, got ")]
        if name == "probe.py":  # only states.check_count may word it so
            expected.insert(0, (2, "n must be >= 1, got "))
        assert sorted(hand_written_range_checks(path)) == expected
