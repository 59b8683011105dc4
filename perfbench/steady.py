#!/usr/bin/env python3
"""Steadiness check: runs one workload N times in two back-to-back sets.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seconds 20]
                                [--first-seed 1] [--trace 0]

Run i of set A uses seed first-seed + i and run i of set B seed
first-seed + N + i, so both sets vary the inputs the way repeated
benchmark runs do. For every metric it prints each set's median and
quartiles (statistics.quantiles, n=4), the interquartile spread as a share
of the median, and the change of set B's median against set A's. With
--bounds BENCHMARK.json it also marks every end-to-end metric whose spread
or median change exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: float, trace: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    p = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, check=False)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"run failed: workload {workload} seed {seed} "
                         f"(exit {p.returncode})")
    return json.loads(lines[-1])


def summary(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--bounds", help="BENCHMARK.json to check bounds against")
    args = ap.parse_args()

    bounds = {}
    if args.bounds:
        spec = json.loads(Path(args.bounds).read_text())
        bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    sets = []
    for s in range(2):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            r = one_run(args.workload, seed, args.seconds, args.trace)
            results.append(r)
            print(f"set {'AB'[s]} seed {seed}: attempted {r['attempted']} "
                  f"failed {r['failed']} correct {r['correct']}", flush=True)
        sets.append(results)

    ok = True
    print(f"\nworkload {args.workload}: {args.runs} runs per set")
    print(f"{'metric':34} {'A median':>12} {'A q1..q3':>25} {'A iqr%':>7} "
          f"{'B median':>12} {'B iqr%':>7} {'B-A %':>7}")
    for name in sets[0][0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in sets[0]]
        b = [r["metrics"][name]["value"] for r in sets[1]]
        qa, qb = summary(a), summary(b)
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        flag = ""
        if name in bounds:
            bound, better = bounds[name]
            worse = change if better == "lower" else -change
            spread_bad = name != "setup_s" and max(qa[3], qb[3]) > bound
            if spread_bad or worse > bound:
                flag = "  EXCEEDS bound %.3f" % bound
                ok = False
        print(f"{name:34} {qa[1]:12.6g} {qa[0]:12.6g}..{qa[2]:<12.6g} "
              f"{100 * qa[3]:6.1f}% {qb[1]:12.6g} {100 * qb[3]:6.1f}% "
              f"{100 * change:+6.1f}%{flag}")
    for s, rs in enumerate(sets):
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print(f"set {'AB'[s]}: failed share per run {shares}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
