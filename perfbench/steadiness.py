"""Steadiness report: repeat the benchmark and show how much each metric moves.

Run from the root of a checkout::

    python3 perfbench/steadiness.py --runs 10 --first-seed 1
    python3 perfbench/steadiness.py --runs 5 --workloads serve-mix

For every workload it runs ``perfbench/run.py`` once per seed (seeds
``first-seed .. first-seed + runs - 1``), plus one repeat of the first seed
to show that a seed always yields the same input digest.  It then prints,
for each end-to-end metric, the median over the runs and the interquartile
range as a share of the median (``statistics.quantiles(values, n=4)``),
next to a third of the metric's bound from ``BENCHMARK.json``, and tallies
which op class the p50 and p90 ranks fell in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0):
    """One benchmark run; returns (result object, info object)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    info = next(json.loads(line[5:]) for line in reversed(lines)
                if line.startswith("info "))
    return json.loads(lines[-1]), info


def spread(values) -> tuple[float, float]:
    """(median, IQR / median) as the acceptance check computes them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    args = parser.parse_args(argv)
    config = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = args.workloads or [w["name"] for w in config["workloads"]]
    steady = True
    for workload in names:
        results, infos = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, info = run_once(workload, seed, seconds)
            results.append(result)
            infos.append(info)
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"digest={info['digest']}", flush=True)
        _, again = run_once(workload, args.first_seed, seconds)
        digests = [i["digest"] for i in infos]
        same_seed = again["digest"] == digests[0]
        distinct = len(set(digests)) == len(digests)
        print(f"\n{workload}: {len(results)} runs of {seconds} s, "
              f"samples/run {sorted({i['samples'] for i in infos})}, "
              f"above p90/run {sorted({i['above_p90'] for i in infos})}")
        print(f"  digest: same seed -> same digest: {same_seed}; "
              f"distinct seeds -> distinct digests: {distinct}")
        print(f"  {'metric':18s} {'median':>12s} {'IQR/median':>11s} {'bound/3':>8s}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            limit = bounds[name] / 3
            flag = "" if name == "setup_s" or rel < limit else "  <-- over"
            steady &= bool(flag == "")
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:18s} {med:12.4f} {rel:11.4f} {limit:8.4f} {unit}{flag}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in values))
        print(f"  error_rate per run: {[i['error_rate'] for i in infos]}")
        for q in ("p50", "p90"):
            tally = Counter(i[f"{q}_class"] for i in infos)
            print(f"  {q} rank fell in: " + ", ".join(
                f"{cls} x{n}" for cls, n in tally.most_common()))
        steady &= same_seed and distinct and all(r["correct"] for r in results)
        print(flush=True)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
