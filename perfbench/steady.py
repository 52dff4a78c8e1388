"""Steadiness check: two sets of benchmark runs of the same code must agree.

    python3 perfbench/steady.py

Run from the root of a speechaug checkout. Reads BENCHMARK.json and runs
its command with ``--trace 0`` ten times on each of its workloads in turn,
each run with a new seed (1001 upwards), and does so for two sets. For each
end-to-end metric on each workload it prints the median, the quartiles and
the spread, which is the distance between the quartiles as a share of the
median. It exits 1 when a run fails or is not correct, when a spread exceeds
the metric's bound, when the two sets' medians differ by more than the bound,
or when the share of failed operations differs between sets. Spreads above a
third of the bound are flagged as thin margins. The raw results go to
.bench_work/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10
SETS = 2
FIRST_SEED = 1001


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n{proc.stdout}")
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    seed = FIRST_SEED
    for s in range(SETS):
        for w in workloads:
            results[w].append([])
            for _ in range(RUNS):
                r = run_once(bench["command"], w, seed, bench["run_seconds"])
                results[w][s].append(r)
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: {shown}", flush=True)
                seed += 1

    ok = True
    for w in workloads:
        print(f"\n{w}")
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in results[w]}
        if len(shares) != 1:
            print(f"  FAIL failed share differs between sets: {sorted(shares)}")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(results[w]):
                median, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in runs])
                medians.append(median)
                flag = ""
                if spread > bound:
                    flag, ok = "  FAIL spread above bound", False
                elif spread > bound / 3:
                    flag = "  (thin: spread above a third of the bound)"
                print(f"  set {s + 1} {name:12s} median {median:10.4f} {m['unit']:9s} "
                      f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.2%} bound {bound:.0%}{flag}")
            change = abs(medians[1] - medians[0]) / medians[0]
            if change > bound:
                print(f"  FAIL {name}: the set medians differ by {change:.2%}, bound {bound:.0%}")
                ok = False

    out = Path(".bench_work")
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
