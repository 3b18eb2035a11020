"""The CLI's outputs against the digests pinned in `tests/outputs.sha256`.

Each line of that file is one command of `tools/outputs.py` and the sha256
of its stdout, stderr and exit code.  The test reruns every command
in-process through the tool's own `commands()` and `digest()`, so a change
that alters any byte of any output, or an exit code, names each command it
altered.  After a deliberate output change, re-pin with
`python3 tools/outputs.py > tests/outputs.sha256`.
"""
import importlib.util
import io
import os

from qabel.cli import run_command

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location("outputs_tool", os.path.join(ROOT, "tools", "outputs.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_outputs_match_pinned_digests():
    tool = _load_tool()
    pinned = {}
    with open(os.path.join(ROOT, "tests", "outputs.sha256")) as fh:
        for line in fh:
            sha, cmd = line.rstrip("\n").split(" ", 1)
            pinned[cmd] = sha
    cmds = tool.commands()
    assert sorted(" ".join(c) for c in cmds) == sorted(pinned)
    changed = []
    for argv in cmds:
        err = io.StringIO()
        out, code = run_command(argv, stderr=err)
        if tool.digest(out, err.getvalue(), code) != pinned[" ".join(argv)]:
            changed.append(" ".join(argv))
    assert not changed, f"output changed for {len(changed)} command(s): {changed}"
