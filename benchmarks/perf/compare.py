"""``run.py --sets N``: is the benchmark steady enough to judge a change?

Runs every workload ``RUNS`` times per set, every run at the same ``--seed``,
so that a set's spread (the distance between the first and third quartile as a
share of the median) is run-to-run noise and nothing else.  Prints per
workload × end-to-end metric each set's median and spread, the relative
difference of the last set's median from the first's in the *worse* direction,
and the metric's bound from ``BENCHMARK.json``.  One traced run per set, at
the next seed, supplies the count metrics, which must repeat exactly, and
checks that no op fails on a second seed.

Verdicts: ``agree`` (difference and every spread within the bound),
``DISAGREE`` (the last median is worse than the first by more than the bound)
and ``unresolved`` (a spread exceeds the bound, so the pair cannot be told
apart — never reported as unchanged).  Exit code 0 only when every pair
agrees, every count is identical and no op failed.  The report goes to
stdout: ``run.py --sets 2 > benchmarks/perf/REPORT.md``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Runs per set: the guide's ten, enough for quartiles.
RUNS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its result object (last stdout line)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def worse_by(first: float, last: float, better: str) -> float:
    """How much worse ``last`` is than ``first``, as a share of ``first``."""
    change = (last - first) / first
    return change if better == "lower" else -change


def verdict(spreads: list[float], worse: float, bound: float) -> str:
    """``unresolved`` before ``DISAGREE``: a difference read through a spread
    wider than the bound says nothing either way."""
    if max(spreads) > bound:
        return "unresolved"
    return "DISAGREE" if worse > bound else "agree"


def main(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [args.workload] if args.workload else \
        [w["name"] for w in bench["workloads"]]
    print(f"# {args.sets} sets x {RUNS} runs at seed {args.seed}, "
          f"--seconds {args.seconds:g}; traced runs at seed {args.seed + 1}\n",
          flush=True)
    ok = True
    for workload in workloads:
        sets, counts = [], []
        for _ in range(args.sets):
            runs = [run_once(workload, args.seed, args.seconds, 0)
                    for _ in range(RUNS)]
            traced = run_once(workload, args.seed + 1, args.seconds, 1)
            ok &= all(r["correct"] and r["failed"] == 0 for r in [*runs, traced])
            sets.append(runs)
            counts.append({name: m["value"] for name, m in traced["metrics"].items()
                           if m["unit"] == "count"})
        lines = [f"## {workload}",
                 "| metric | " + " | ".join(
                     f"median {i + 1} | spread {i + 1}" for i in range(args.sets))
                 + " | worse by | bound | verdict |",
                 "|---|" + "---|" * (2 * args.sets + 3)]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            worse = worse_by(medians[0], medians[-1], metric["better"])
            result = verdict(spreads, worse, bound)
            ok &= result == "agree"
            cells = " | ".join(f"{m:.5g} {metric['unit']} | {s:.2%}"
                               for m, s in zip(medians, spreads))
            lines.append(f"| {name} | {cells} | {worse:+.2%} | {bound:.0%} | "
                         f"{result} |")
        lines += ["", "every run, in the order made:"]
        for metric in bench["end_to_end"]:
            for index, runs in enumerate(sets):
                values = " ".join(f"{r['metrics'][metric['name']]['value']:.5g}"
                                  for r in runs)
                lines.append(f"- {metric['name']} set {index + 1}: {values}")
        differing = sorted(k for k in counts[0]
                           if any(c.get(k) != counts[0][k] for c in counts[1:]))
        ok &= not differing
        failed = sum(r["failed"] for runs in sets for r in runs)
        attempted = sum(r["attempted"] for runs in sets for r in runs)
        lines += ["",
                  f"counts ({len(counts[0])} metrics, traced run): "
                  + ("identical across sets" if not differing
                     else "DIFFER: " + ", ".join(differing)),
                  f"ops: attempted {attempted}, failed {failed}", ""]
        print("\n".join(lines), flush=True)
    print("result: " + ("every pair agrees" if ok else "NOT steady"))
    return 0 if ok else 1
