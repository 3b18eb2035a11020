"""qabel benchmark: cold-start CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --pin                     # re-pin the stdout digests

Closed loop, one client: run.py starts one fresh interpreter per run of
the workload, one at a time; each imports `qabel.cli` and calls
`run_command` for the workload's commands with the program's caches cold.
Runs repeat until `--seconds` is used up; timings are medians over them.

With `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
runs alternate untraced and traced (see tracing.py) and the result holds
the per-layer metrics.  Every output is checked (workloads.py); the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 15  # import-only interpreters per run, for setup_s
RUN_BUDGET_S = 170  # one workload run must end within 180 s; its children share this

# (name, unit, in the result line).  Check latencies exist on
# verify-default only, so they are in the report but not the result line,
# which carries each end-to-end metric on every workload.
END_TO_END = [
    ("wall_s", "s", True),
    ("setup_s", "s", True),
    ("peak_rss_mb", "MB", True),
    ("check_ms_p50", "ms", False),
    ("check_ms_p98", "ms", False),
]

# Per-layer metrics: (name, unit, in the result line).  A self time that
# reads 0 on a workload that never reaches the layer is shown in the report
# only; the result line carries that layer's call count instead, so every
# value in it is measured on every workload.
PER_LAYER = [
    ("qfield.pmul.calls", "count", True),
    ("qfield.pmul.self_s", "s", True),
    ("qfield.pmul.max_deg", "count", True),
    ("qfield.pmul.max_bits", "bits", True),
    ("qfield.pgcd.calls", "count", True),
    ("qfield.pgcd.self_s", "s", True),
    ("qfield.pgcd.trivial_frac", "ratio", True),
    ("qfield.pgcd.unit_frac", "ratio", True),
    ("qfield.prem.calls", "count", True),
    ("qfield.prem.self_s", "s", False),
    ("qfield.divexact.self_s", "s", True),
    ("qfield.qrat.add.calls", "count", True),
    ("qfield.qrat.add.self_s", "s", True),
    ("qfield.qrat.mul.calls", "count", True),
    ("qfield.qrat.mul.self_s", "s", True),
    ("qfield.qrat.new.calls", "count", True),
    ("qfield.qrat.str.calls", "count", True),
    ("qfield.qrat.str.self_s", "s", False),
    ("qcomb.qint.hit_frac", "ratio", True),
    ("qcomb.qfac.hit_frac", "ratio", True),
    ("qcomb.qbinom.hit_frac", "ratio", True),
    ("qcomb.cache_entries", "count", True),
    ("mpoly.mul.calls", "count", True),
    ("mpoly.mul.self_s", "s", True),
    ("mpoly.mul.terms_max", "count", True),
    ("mpoly.add.self_s", "s", True),
    ("mpoly.scale.self_s", "s", True),
    ("mpoly.subst.calls", "count", True),
    ("mpoly.subst.self_s", "s", False),
    ("mpoly.str.calls", "count", True),
    ("mpoly.str.self_s", "s", False),
    ("series.mul.calls", "count", True),
    ("series.mul.self_s", "s", False),
    ("series.div.calls", "count", True),
    ("series.div.self_s", "s", False),
    ("series.abel_sum.calls", "count", True),
    ("series.abel_sum.self_s", "s", False),
    ("series.ps_exp.calls", "count", True),
    ("series.ps_exp.self_s", "s", False),
    ("operators.qderiv.calls", "count", True),
    ("operators.qderiv.self_s", "s", False),
    ("operators.dseries_apply.calls", "count", True),
    ("operators.dseries_apply.self_s", "s", False),
    ("operators.delta_op.calls", "count", True),
    ("operators.delta_op.self_s", "s", False),
    ("operators.Qn_apply.calls", "count", True),
    ("operators.Qn_apply.self_s", "s", False),
    ("abel.abel_poly.hit_frac", "ratio", True),
    ("abel.abel_poly.calls", "count", True),
    ("abel.abel_poly.self_s", "s", False),
    ("abel.abel_expand.calls", "count", True),
    ("abel.abel_expand.self_s", "s", False),
    ("abel.lagrange_coeffs.calls", "count", True),
    ("abel.lagrange_coeffs.self_s", "s", False),
    ("registry.check.calls", "count", True),
    ("registry.check.self_s", "s", False),
    ("registry.concurrency", "ratio", True),
    ("cli.parse.self_s", "s", True),
    ("cli.render.calls", "count", True),
    ("cli.render.self_s", "s", False),
    ("trace.overhead_frac", "ratio", True),
    ("trace.hooked_names", "count", True),
]


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong program result)."""


# --------------------------------------------------------------------------
# Child processes.
# --------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run one fresh interpreter to completion and return its report."""
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("the run exceeded its time budget") from None
    if proc.returncode != 0 or not proc.stdout:
        raise BenchError(f"run exited with code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(argvs: list, seconds: float, trace: bool, spans_out: str | None,
            deadline: float) -> tuple[list, dict]:
    """Set-up samples, then rounds of runs until the next round would overrun."""
    spawn({"commands": []}, deadline)  # compiles the bytecode; not measured
    setup = [spawn({"commands": []}, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    kinds = [False, True] if trace else [False]
    runs: dict[bool, list] = {k: [] for k in kinds}
    last: dict[bool, float] = {}
    start = time.perf_counter()
    while True:
        for k in kinds:
            t0 = time.perf_counter()
            spec = {"commands": argvs, "trace": k}
            if k and spans_out and not runs[k]:
                spec["spans_out"] = spans_out
            runs[k].append(spawn(spec, deadline))
            last[k] = time.perf_counter() - t0
        if time.perf_counter() - start + sum(last.values()) > seconds:
            return setup, runs


# --------------------------------------------------------------------------
# Metrics.
# --------------------------------------------------------------------------

def percentile(xs: list[float], p: int) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def end_to_end(wl, setup: list, runs: list) -> dict:
    """Medians over runs.  Per-check latency percentiles are taken within
    each run and only where checks run one at a time (see workloads.py)."""
    setup_all = setup + [r["setup_s"] for r in runs]
    out = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), len(runs)),
        "setup_s": (statistics.median(setup_all), len(setup_all)),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), len(runs)),
    }
    lat = [[s * 1000 for s in r["check_s"]] for r in runs if r["check_s"]] if wl.check_latency else []
    if lat:
        n = sum(len(x) for x in lat)
        out["check_ms_p50"] = (statistics.median(percentile(x, 50) for x in lat), n)
        out["check_ms_p98"] = (statistics.median(percentile(x, 98) for x in lat), n)
    return out


def layer_values(t: dict) -> dict:
    """Per-layer metrics of one traced run; a layer whose hooks are all
    missing is left out (reported as absent)."""
    hooked = {layer for layer, _ in t["patched"]}
    stats, extras, caches = t["stats"], t["extras"], t["caches"]
    out = {}
    for name, _, _ in PER_LAYER:
        layer, key = name.rsplit(".", 1)
        st = stats.get(layer, {"calls": 0, "self_s": 0.0})
        ex = extras.get(layer, {})
        if key in ("calls", "self_s") and layer in hooked:
            out[name] = st[key]
        elif key in ("max_deg", "max_bits", "terms_max") and layer in hooked:
            out[name] = ex.get(key, 0)
        elif key in ("trivial_frac", "unit_frac") and layer in hooked:
            out[name] = ex.get(key[:-5], 0) / st["calls"] if st["calls"] else 0.0
        elif key == "hit_frac" and layer in caches:
            c = caches[layer]
            looked = c["hits"] + c["misses"]
            out[name] = c["hits"] / looked if looked else 0.0
        elif name == "qcomb.cache_entries":
            sizes = [c["size"] for k, c in caches.items() if k.startswith("qcomb.")]
            if sizes:
                out[name] = sum(sizes)
        elif name == "registry.concurrency" and "registry.check" in hooked:
            out[name] = t["concurrency"]
        elif name == "trace.hooked_names":
            out[name] = len(t["patched"])
    return out


def per_layer(traced: list, untraced: list) -> tuple[dict, list]:
    vals = [layer_values(r["trace"]) for r in traced]
    out = {}
    for name, _, _ in PER_LAYER:
        xs = [v[name] for v in vals if name in v]
        if xs:
            out[name] = (statistics.median(xs), len(xs))
    wall_t = statistics.median(r["wall_s"] for r in traced)
    wall_u = statistics.median(r["wall_s"] for r in untraced)
    out["trace.overhead_frac"] = (wall_t / wall_u - 1, len(traced))
    layers = {}
    for r in traced:
        for layer, st in r["trace"]["stats"].items():
            layers.setdefault(layer, []).append(st["self_s"])
    top = sorted(((statistics.median(v), k) for k, v in layers.items()), reverse=True)[:5]
    return out, top


# --------------------------------------------------------------------------
# Environment record.
# --------------------------------------------------------------------------

def environment(seed: int) -> dict:
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "qabel")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "git_commit": commit, "src_sha256": src.hexdigest()[:16], "nproc": os.cpu_count(),
            "python": platform.python_version(), "cpu": cpu}


# --------------------------------------------------------------------------
# Entry points.
# --------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 corrupt: bool = False, quiet: bool = False) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    wl = workloads.WORKLOADS[name]
    cmds = wl.commands(seed, size)
    argvs = [list(c.argv) for c in cmds]
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{name}-{size}-seed{seed}"
    spans_out = os.path.join(OUT_DIR, f"spans-{tag}.jsonl") if trace else None
    if corrupt:
        setup, runs = [], {False: [spawn({"commands": argvs, "corrupt": True}, deadline)]}
    else:
        setup, runs = measure(argvs, seconds, trace, spans_out, deadline)

    pins = workloads.load_pins()
    points = workloads.oracle_points(seed)
    attempted = failed = 0
    reasons: list[str] = []
    first: dict[int, str] = {}
    for i, r in enumerate(runs[False] + runs.get(True, [])):
        for j, (cmd, res) in enumerate(zip(cmds, r["commands"])):
            f, why = workloads.check_command(cmd, res, points, pins, deep=(i == 0))
            if cmd.kind == "expand" and res["code"] == 0:
                digest = workloads.stdout_digest(cmd, res["stdout"])
                if first.setdefault(j, digest) != digest:
                    why.append("stdout differs between runs")
                    f = max(f, 1)
            attempted += cmd.ops
            failed += f
            reasons += [f"{cmd.key[:60]}: {w}" for w in why]

    if trace:
        metrics, top = per_layer(runs[True], runs[False])
        spec = PER_LAYER
    else:
        metrics, top = end_to_end(wl, setup, runs[False]), []
        spec = [m for m in END_TO_END if m[2] or wl.check_latency]
    result = {"workload": name, "size": size, "env": environment(seed), "seconds": seconds,
              "wall_samples": [r["wall_s"] for r in runs[False]], "attempted": attempted,
              "failed": failed, "reasons": sorted(set(reasons)), "top_layers": top,
              "metrics": {k: {"value": metrics[k][0], "unit": u, "n": metrics[k][1], "reported": rep}
                          for k, u, rep in spec if k in metrics},
              "absent": [k for k, _, _ in spec if k not in metrics]}
    with open(os.path.join(OUT_DIR, f"result-{tag}-trace{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if not quiet:
        _print_human(result)
    return result


def _print_human(res: dict) -> None:
    print(f"workload {res['workload']}  size {res['size']}  env {json.dumps(res['env'])}")
    for name, m in res["metrics"].items():
        note = "" if m["reported"] else "  (report only)"
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:6s} n={m['n']}{note}")
    for name in res["absent"]:
        print(f"  {name:34s} {'absent':>14s}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'fail_frac':34s} {frac:>14.6g} {'ratio':6s} n={res['attempted']}")
    if res["top_layers"]:
        print("  top layers by self time: " + ", ".join(f"{k} {v:.3f} s" for v, k in res["top_layers"]))
    for why in res["reasons"]:
        print(f"  FAIL {why}")


def _print_table(results: list[dict]) -> None:
    """One row per workload: the end-to-end metrics, fail_frac, top layer."""
    print()
    print(f"{'workload':16s}" + "".join(f"{k + ' (' + u + ')':>20s}" for k, u, _ in END_TO_END)
          + f"{'fail_frac':>12s}  top layer (traced self time)")
    for untraced, traced in zip(results[::2], results[1::2]):
        m = untraced["metrics"]
        cells = "".join(f"{m[k]['value']:>12.5g} n={m[k]['n']:<5d}" if k in m else f"{'-':>20s}"
                        for k, _, _ in END_TO_END)
        frac = (untraced["failed"] + traced["failed"]) / (untraced["attempted"] + traced["attempted"])
        top = traced["top_layers"][0] if traced["top_layers"] else (0.0, "-")
        print(f"{untraced['workload']:16s}{cells}{frac:>12.4g}  {top[1]} {top[0]:.3f} s")


def pin() -> None:
    """Record the stdout digest of every unseeded command at both sizes."""
    pins = {}
    for wl in workloads.WORKLOADS.values():
        for size in wl.sizes:
            cmds = [c for c in wl.commands(0, size) if c.kind != "expand"]
            r = spawn({"commands": [list(c.argv) for c in cmds]}, time.monotonic() + RUN_BUDGET_S)
            for cmd, res in zip(cmds, r["commands"]):
                if res["code"] != 0:
                    raise BenchError(f"{cmd.key} exited {res['code']}; not pinning")
                pins[cmd.key] = workloads.stdout_digest(cmd, res["stdout"])
    with open(workloads.PINS_FILE, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qabel", "cli.py")):
        print(f"error: no qabel sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.pin:
            pin()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload == "all":
            results = [run_workload(name, args.seed, args.seconds, trace, args.size)
                       for name in workloads.WORKLOADS for trace in (False, True)]
            _print_table(results)
            return 1 if any(r["failed"] for r in results) else 0
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in res["metrics"].items() if m["reported"]}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
