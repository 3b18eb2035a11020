"""Only `mpoly` knows how a polynomial's terms are stored.

Every other module under src/qabel works through MPoly's public methods:
none reads the term table `._t` or builds a polynomial with `MPoly._raw`.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qabel"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "mpoly.py")


def _term_table_uses(path: Path) -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ("_t", "_raw"):
            hits.append(f"{path.name}:{node.lineno}: .{node.attr}")
    return hits


def test_modules_found():
    assert {p.name for p in MODULES} >= {"operators.py", "series.py", "qcomb.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_term_table_access_outside_mpoly(path):
    assert _term_table_uses(path) == []
