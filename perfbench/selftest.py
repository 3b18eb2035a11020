"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Fault injection: with G_2 given one wrong coefficient (faults.py),
   fail_frac rises above 0 on a reduced verify-default, and the poly-G,
   expand and lagrange oracles each name the failure.
2. Smoke: every workload at its tiny size, untraced and traced, runs
   correct and prints every metric of BENCHMARK.json with its unit, both in
   the report and in the result line; verify-default's report adds the
   per-check latencies.
3. A hook whose target is missing leaves its metrics absent and the run
   intact, and the count of hooked names drops.
4. Without the program's sources the benchmark exits non-zero and prints
   no result.

Exits 0 when every check holds.  Takes about a minute.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def fault_injection() -> None:
    res = run.run_workload("verify-default", 0, 1, False, size="tiny", corrupt=True, quiet=True)
    expect(res["failed"] > 0 and any("checks did not pass" in r for r in res["reasons"]),
           f"corrupted G_2: verify-default fails {res['failed']} of {res['attempted']} checks")
    res = run.run_workload("poly-G", 0, 1, False, size="tiny", corrupt=True, quiet=True)
    expect(res["failed"] > 0 and any("oracle: G_2" in r for r in res["reasons"]),
           "corrupted G_2: the poly-G oracle fails")
    res = run.run_workload("expand-lagrange", 0, 1, False, size="tiny", corrupt=True, quiet=True)
    for key, needle in [("expand", "oracle: sum c_k G_k"), ("--mode plain", "oracle: sum c_n"),
                        ("--mode general", "oracle: sum c_n"), ("--mode buermann", "digest")]:
        expect(any(key in r and needle in r for r in res["reasons"]),
               f"corrupted coefficient 2: {key} is caught ({needle})")
    expect(res["failed"] == res["attempted"], "corrupted run: every expand-lagrange command fails")


def smoke() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        for name in workloads.WORKLOADS:
            proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                                  cwd=run.ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            got = {k: m["unit"] for k, m in result.get("metrics", {}).items()}
            report = "\n".join(lines[:-1])
            if trace == 0 and workloads.WORKLOADS[name].check_latency:
                declared_in_report = dict(declared, check_ms_p50="ms", check_ms_p98="ms")
            else:
                declared_in_report = declared
            printed = all(f" {k} " in report and f" {u} " in report for k, u in declared_in_report.items())
            expect(proc.returncode == 0 and result.get("correct") is True and got == declared and printed,
                   f"smoke {name} --trace {trace}: correct, {len(declared)} metrics with units")


def tolerant_hooks() -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import qabel.cli as cli
    import tracing

    renamed = [(layer, mod, ["_pgcd_renamed"] if attrs == ["_pgcd"] else attrs, kind, extra)
               for layer, mod, attrs, kind, extra in tracing.HOOKS]
    tracer = tracing.Tracer(renamed)
    tracer.install()
    try:
        _, code = cli.run_command(["poly", "G", "3"])
    finally:
        tracer.uninstall()
    vals = run.layer_values(tracer.summary())
    every = sum(len(attrs) for _, _, attrs, _, _ in tracing.HOOKS)
    expect(code == 0 and "qfield.pgcd.calls" not in vals and "qfield.pmul.calls" in vals
           and vals["trace.hooked_names"] == every - 1
           and tracer.missing == [("qfield.pgcd", "qabel.qfield._pgcd_renamed")],
           "a renamed kernel: its metrics are absent, one name fewer is hooked, the run completes")


def without_sources() -> None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "poly-G", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without sources: exit {proc.returncode}, no result line")


def main() -> int:
    fault_injection()
    smoke()
    tolerant_hooks()
    without_sources()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
