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

Two rules inside a module.  qcomb's shifted product `qprod` and the atom
coefficients `qprod_coeffs` it multiplies out name neither `qbinom` nor
`qfac`, because the registry checks `qprod` against `qbinom`-weighted sums.
And operators' `qderiv` names neither: it multiplies its q-integers out, so
the q-Pincherle residual, built from `qderiv`, does not test `qbinom`'s
q-Pascal sum against itself.
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
# The shifted product of qcomb and what it must not read.
QPROD = ("qprod", "qprod_coeffs")
GAUSSIAN = ("qbinom", "qfac")


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


def _functions(path: Path, funcs: tuple[str, ...]) -> list[ast.FunctionDef]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in funcs]


def _name_uses(path: Path, names: tuple[str, ...], funcs: tuple[str, ...] = ()) -> list[str]:
    """Each node of the module, or of its top-level functions `funcs` when
    given, that names one of `names`."""
    roots = _functions(path, funcs) if funcs else [ast.parse(path.read_text(), filename=str(path))]
    hits = []
    for node in (n for root in roots for n in ast.walk(root)):
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


def test_qprod_names_no_gaussian_binomial():
    assert sorted(f.name for f in _functions(SRC / "qcomb.py", QPROD)) == sorted(QPROD)
    assert _name_uses(SRC / "qcomb.py", GAUSSIAN, QPROD) == []
    # elsewhere in qcomb both names are in use, so the walk would see them
    assert {h.rsplit(" ", 1)[1] for h in _name_uses(SRC / "qcomb.py", GAUSSIAN)} == set(GAUSSIAN)


def test_qderiv_names_no_gaussian_binomial():
    assert [f.name for f in _functions(SRC / "operators.py", ("qderiv",))] == ["qderiv"]
    assert _name_uses(SRC / "operators.py", GAUSSIAN, ("qderiv",)) == []
    # elsewhere in operators both names are in use, so the walk would see them
    assert {h.rsplit(" ", 1)[1] for h in _name_uses(SRC / "operators.py", GAUSSIAN)} == set(GAUSSIAN)
