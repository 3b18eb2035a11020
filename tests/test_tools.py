"""The counting tools under `tools/`: every workload they run keeps its checks
in process (`--jobs 1`), and `pmul_paths.path_of` sorts operand pairs by
`_pmul`'s paths, in `_pmul`'s order."""
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    return importlib.import_module


def test_workloads_run_in_process(tool):
    rows = tool("workload_rows")
    for name, workload in rows.WORKLOADS.items():
        argvs = rows.serial_argvs(name, 13)
        assert len(argvs) == len(workload.commands(13))
        for argv, cmd in zip(argvs, workload.commands(13)):
            assert len(argv) == len(cmd.argv)
            for i, (a, b) in enumerate(zip(argv, cmd.argv)):
                assert a == ("1" if i and argv[i - 1] == "--jobs" else b)
    assert any("--jobs" in argv for argv in rows.serial_argvs("verify-extended", 13))


@pytest.mark.parametrize("f, g, path", [
    ((), (1, 2), "zero"),
    ((1,), (0, 3, 3), "unit"),
    ((0, 0, 5), (1, 2, 3), "monomial"),
    ((0, 7, 7, 7), (1, 2, 3, 4), "window"),
    ((1, 2, 3), (0,) + (-4,) * 20, "window"),
    ((4, 4), (4, 4), "window"),
    ((1, 2), (3, 4, 5), "schoolbook"),
    (tuple(range(1, 9)), tuple(range(2, 12)), "word"),
    (tuple(range(1, 9)), (2**70,) + tuple(range(2, 12)), "bytes"),
])
def test_pmul_path_order(tool, f, g, path):
    assert tool("pmul_paths").path_of(f, g) == path
