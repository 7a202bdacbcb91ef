"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --first-seed 100 --out set1.json
    python3 perfbench/steadiness.py --compare set1.json set2.json

The first form runs ``perfbench/run.py --trace 0`` with ten seeds in a row on
every workload of ``BENCHMARK.json``, one run at a time, and prints for each
end-to-end metric its median, quartiles and spread: the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median, next to the metric's bound in ``BENCHMARK.json``.
The second form compares the medians of two such sets against the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def run_set(spec, first_seed):
    out = {}
    for name in (w["name"] for w in spec["workloads"]):
        per_metric, failed_share = {}, set()
        for seed in range(first_seed, first_seed + RUNS):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed_share.add(result["failed"] / result["attempted"])
            for key, m in result["metrics"].items():
                per_metric.setdefault(key, []).append(m["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in per_metric.items()}, flush=True)
        out[name] = {"failed_shares": sorted(failed_share), "metrics": {}}
        for key, values in per_metric.items():
            out[name]["metrics"][key] = {"values": values, **quartiles(values)}
    return out


def report(spec, result):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for name, block in result.items():
        for key, q in block["metrics"].items():
            ratio = q["spread"] / bounds[key]
            if key != "setup_s":
                worst = max(worst, ratio)
            print(f"{name:15s} {key:12s} median {q['median']:.6g}  q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  "
                  f"spread {q['spread']:.4f}  bound {bounds[key]}  spread/bound {ratio:.2f}")
    print(f"largest spread/bound outside setup_s: {worst:.2f}")


def compare(spec, first, second):
    better = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    ok = True
    for name in first:
        for key, q in first[name]["metrics"].items():
            direction, bound = better[key]
            a, b = q["median"], second[name]["metrics"][key]["median"]
            worse = (b - a) / a if direction == "lower" else (a - b) / a
            ok &= worse <= bound
            print(f"{name:15s} {key:12s} {a:.6g} -> {b:.6g}  worse by {worse:+.4f}  bound {bound}")
        if first[name]["failed_shares"] != second[name]["failed_shares"]:
            ok = False
            print(f"{name}: failed share differs")
    print("sets agree within the bounds" if ok else "sets DISAGREE beyond a bound")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--out", default=None, help="write the set as JSON here")
    p.add_argument("--compare", nargs=2, metavar="SET", default=None)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        first, second = (json.loads(Path(f).read_text()) for f in args.compare)
        return 0 if compare(spec, first, second) else 1
    result = run_set(spec, args.first_seed)
    report(spec, result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
