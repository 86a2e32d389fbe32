"""The README's Python example runs as documented, so an API change that breaks it fails here, and its table of
``verify`` suites lists the flags each suite reads."""

import re
from pathlib import Path

from mirrorent.cli import VERIFY_SUITES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    exec(compile(example, str(README), "exec"), {})


def test_verify_suite_table_is_the_cli_s():
    (table,) = re.findall(r"^\| suite \| flags \|\n\| --- \| --- \|\n((?:\|.*\n)+)", README.read_text(encoding="utf-8"),
                          flags=re.M)
    rows = [re.fullmatch(r"\| `([\w-]+)` \| `([^`]*)` \|", line).groups() for line in table.splitlines()]
    assert [(name, tuple(flags.split())) for name, flags in rows] == [
        (name, flags) for name, (_, flags) in VERIFY_SUITES.items()]
