"""The counting tool `tools/kernel_paths.py`: every workload it runs keeps its
checks in process (`--jobs 1`), `path_of` sorts operand pairs by `_pmul`'s
paths, in `_pmul`'s order, and `count` fills every table and then puts the
real functions back."""
import importlib
import os

import pytest

from qabel import mpoly, qfield

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    return importlib.import_module


def test_workloads_run_in_process(tool):
    paths = tool("kernel_paths")
    for name, workload in paths.WORKLOADS.items():
        argvs = paths.serial_argvs(name, 13)
        assert len(argvs) == len(workload.commands(13))
        for argv, cmd in zip(argvs, workload.commands(13)):
            assert len(argv) == len(cmd.argv)
            for i, (a, b) in enumerate(zip(argv, cmd.argv)):
                assert a == ("1" if i and argv[i - 1] == "--jobs" else b)
    assert any("--jobs" in argv for argv in paths.serial_argvs("verify-extended", 13))


# An operand that carries a power of q is multiplied as it is, so the last
# three cases, shifted forms of the monomial and window cases, take the
# schoolbook sum.
@pytest.mark.parametrize("f, g, path", [
    ((), (1, 2), "zero"),
    ((1,), (0, 3, 3), "unit"),
    ((5,), (1, 2, 3), "monomial"),
    ((7, 7, 7), (1, 2, 3, 4), "window"),
    ((1, 2, 3), (-4,) * 20, "window"),
    ((4, 4), (4, 4), "window"),
    ((1, 2), (3, 4, 5), "schoolbook"),
    (tuple(range(1, 9)), tuple(range(2, 12)), "word"),
    (tuple(range(1, 9)), (2**70,) + tuple(range(2, 12)), "bytes"),
    ((0, 0, 5), (1, 2, 3), "schoolbook"),
    ((0, 7, 7, 7), (1, 2, 3, 4), "schoolbook"),
    ((1, 2, 3), (0,) + (-4,) * 20, "schoolbook"),
])
def test_pmul_path_order(tool, f, g, path):
    assert tool("kernel_paths").path_of(f, g) == path


def test_count_fills_every_table_and_restores(tool):
    paths = tool("kernel_paths")
    attrs = [(qfield, name) for name in ("_pmul", "_pgcd", "_heu_gcd", "_prs_gcd", "_primitive")]
    attrs += [(qfield.QRat, name) for name in ("__mul__", "__rmul__", "__add__", "__radd__")]
    attrs += [(mpoly, "_packed_dot")]
    before = [getattr(owner, name) for owner, name in attrs]
    # verify's results may sit in warm caches; expand's rational values always reach _pgcd
    counts = paths.count([["verify", "--id", "3.4", "--max-n", "3"], ["expand", "(x + a/(1-q))^3 - x/(1+q)"]])
    assert sum(counts["pmul", p] for p in paths.PMUL_PATHS) > 0
    assert sum(counts["pgcd", p] for p in paths.PGCD_PATHS) > 0
    assert sum(counts[col] for col in paths.QRAT_COLUMNS) > 0
    assert all(getattr(owner, name) is fn for (owner, name), fn in zip(attrs, before))
