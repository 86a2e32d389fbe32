"""No module of the package imports another module's private (underscore) name.

A name that two modules share is part of the package's API and is public;
``from .monotones import _helper`` would hide such a dependency.
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
                    "from mirrorent.harness import _pmap\nfrom os import _exit\n")
    assert private_imports(path) == [(2, ".monotones", "_all_permutations"), (3, "mirrorent.harness", "_pmap")]
