"""Only the owning module knows how its values are stored.

Every other module under src/qabel works through public methods: none reads
MPoly's term table `._t` or builds a polynomial with `MPoly._raw`, and none
reads QRat's stored power of q, numerator and denominator or builds a
QRat with `QRat._make`.  None imports or names qfield's Kronecker chunk
codec either: `mpoly` reaches the chunks only through the Laurent lane,
`_laurent_word`, `_laurent_pack` and `_laurent_unpack`.  Nor does any name
the integer-polynomial kernels `_pmul`, `_pgcd`, `_heu_gcd` or `_prs_gcd`:
they take operands with nonzero constant terms and split no power of q
off, so only QRat, which keeps that power apart, calls them.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qabel"
ALL_MODULES = sorted(SRC.glob("*.py"))

# Owning module -> the private attribute names no other module may touch.
# The QRat list names the storage of every form it has had, so a module
# written against an older form is caught too.
PRIVATE = {
    "mpoly.py": ("_t", "_raw"),
    "qfield.py": ("_v", "_n", "_d", "_c", "_np", "_dp", "_make"),
}

# The chunk width rule, pack and read-back of qfield.
CHUNK_CODEC = ("_CODES", "_chunk_bytes", "_kpack", "_kdigits")
# The integer-polynomial multiply and gcd of qfield.
KERNELS = ("_pmul", "_pgcd", "_heu_gcd", "_prs_gcd")


def _others(owner: str) -> list[Path]:
    return [p for p in ALL_MODULES if p.name != owner]


def _private_uses(path: Path, owner: str) -> list[str]:
    names = PRIVATE[owner]
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in names:
            hits.append(f"{path.name}:{node.lineno}: .{node.attr}")
    return hits


def test_modules_found():
    assert {p.name for p in _others("mpoly.py")} >= {"operators.py", "series.py", "qcomb.py", "cli.py"}


@pytest.mark.parametrize("path", _others("mpoly.py"), ids=lambda p: p.name)
def test_no_term_table_access_outside_mpoly(path):
    assert _private_uses(path, "mpoly.py") == []


@pytest.mark.parametrize("path", _others("qfield.py"), ids=lambda p: p.name)
def test_no_qrat_storage_access_outside_qfield(path):
    assert _private_uses(path, "qfield.py") == []


# The field that holds the name, for each node that names something.
_NAMED = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _name_uses(path: Path, names: tuple[str, ...]) -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        field = _NAMED.get(type(node))
        if field and getattr(node, field) in names:
            hits.append(f"{path.name}:{node.lineno}: {getattr(node, field)}")
    return hits


@pytest.mark.parametrize("path", _others("qfield.py"), ids=lambda p: p.name)
def test_no_chunk_codec_outside_qfield(path):
    assert _name_uses(path, CHUNK_CODEC) == []


def test_chunk_codec_is_found_in_qfield():
    assert {h.rsplit(" ", 1)[1] for h in _name_uses(SRC / "qfield.py", CHUNK_CODEC)} == set(CHUNK_CODEC)


@pytest.mark.parametrize("path", _others("qfield.py"), ids=lambda p: p.name)
def test_no_kernel_outside_qfield(path):
    assert _name_uses(path, KERNELS) == []


def test_kernels_are_found_in_qfield():
    assert {h.rsplit(" ", 1)[1] for h in _name_uses(SRC / "qfield.py", KERNELS)} == set(KERNELS)
