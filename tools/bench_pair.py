"""Paired benchmark runs of two checkouts, summarized per workload and metric.

    python3 tools/bench_pair.py run --parent DIR --change DIR --workload poly-G \\
        --pairs 10 --logs LOGDIR [--seed 0] [--seconds 25] [--trace 0]
    python3 tools/bench_pair.py summarize --logs LOGDIR --out BENCH_<n>.json

`run` runs `perfbench/run.py` in the parent and the change checkout in turn,
alternating which side goes first, and saves each run's stdout as
LOGDIR/<workload>.trace<T>.<side>.<pair>.out.  Both sides get the same
seed and run length.

`summarize` reads every saved run: the result line (the last line of
stdout, one JSON object) and the environment on the report's first line.
For each workload, trace setting and metric it writes each side's median
and quartiles over its runs, and the number of pairs the change won.  A
pair is won when the change reads strictly better, in the direction that
`BENCHMARK.json` gives for the metric (lower when it names none).
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
LOG_NAME = re.compile(r"^(?P<workload>.+)\.trace(?P<trace>[01])\.(?P<side>parent|change)\.(?P<pair>\d+)\.out$")


def run(args) -> int:
    os.makedirs(args.logs, exist_ok=True)
    roots = {"parent": args.parent, "change": args.change}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=roots[side], capture_output=True, text=True)
            name = f"{args.workload}.trace{args.trace}.{side}.{pair}.out"
            with open(os.path.join(args.logs, name), "w") as fh:
                fh.write(proc.stdout)
            if proc.returncode != 0:
                print(f"{name}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            wall = result["metrics"].get("wall_s", {}).get("value", "-")
            print(f"{name}: correct {result['correct']} wall_s {wall}", flush=True)
    return 0


def _quartiles(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


def _better() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(args) -> int:
    runs: dict = {}
    for name in sorted(os.listdir(args.logs)):
        m = LOG_NAME.match(name)
        if not m:
            continue
        with open(os.path.join(args.logs, name)) as fh:
            lines = fh.read().splitlines()
        key = (m["workload"], int(m["trace"]))
        env = json.loads(lines[0].split(" env ", 1)[1])
        runs.setdefault(key, {}).setdefault(m["side"], {})[int(m["pair"])] = (json.loads(lines[-1]), env)
    better = _better()
    out = []
    for (workload, trace), sides in sorted(runs.items()):
        pairs = sorted(set(sides.get("parent", {})) & set(sides.get("change", {})))
        if not pairs:
            continue
        entry = {"workload": workload, "trace": trace, "pairs": len(pairs), "sides": {}, "metrics": {}}
        for side in SIDES:
            results = [sides[side][p][0] for p in pairs]
            env = {k: v for k, v in sides[side][pairs[0]][1].items() if k != "seed"}
            entry["sides"][side] = {"env": env, "seeds": sorted({sides[side][p][1]["seed"] for p in pairs}),
                                    "all_correct": all(r["correct"] for r in results),
                                    "attempted": sum(r["attempted"] for r in results),
                                    "failed": sum(r["failed"] for r in results)}
        for metric, first in sides["parent"][pairs[0]][0]["metrics"].items():
            vals = {s: [sides[s][p][0]["metrics"][metric]["value"] for p in pairs] for s in SIDES}
            direction = better.get(metric, "lower")
            sign = -1 if direction == "higher" else 1
            won = sum(sign * c < sign * p for p, c in zip(vals["parent"], vals["change"]))
            entry["metrics"][metric] = {"unit": first["unit"], "better": direction,
                                        "parent": _quartiles(vals["parent"]),
                                        "change": _quartiles(vals["change"]),
                                        "pairs_won": won}
        out.append(entry)
    with open(args.out, "w") as fh:
        json.dump({"workloads": out}, fh, indent=1)
        fh.write("\n")
    for e in out:
        for metric, m in e["metrics"].items():
            print(f"{e['workload']:16s} trace{e['trace']} {metric:28s} parent {m['parent']['median']:<12.6g}"
                  f" change {m['change']['median']:<12.6g} won {m['pairs_won']}/{e['pairs']}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="alternate run.py between two checkouts")
    p_run.add_argument("--parent", required=True)
    p_run.add_argument("--change", required=True)
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--pairs", type=int, default=10)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--seconds", type=float, default=25)
    p_run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p_run.add_argument("--logs", required=True)
    p_sum = sub.add_parser("summarize", help="write the per-metric summary of saved runs")
    p_sum.add_argument("--logs", required=True)
    p_sum.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    return run(args) if args.command == "run" else summarize(args)


if __name__ == "__main__":
    sys.exit(main())
