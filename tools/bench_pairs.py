"""Paired benchmark runs of two checkouts, summarised into one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json
                                 --workload path-dense [--workload ...]
                                 --seeds 1 2 ... --seconds 40

For each workload and each seed it runs ``perfbench/run.py --trace 0`` once
in each checkout, one after the other, alternating which side runs first,
so each seed gives one pair of runs measured close together in time.  The
output holds every run's end-to-end metrics, and for each metric both
sides' medians and quartiles, the number of pairs each side won (ties count
for neither), and whether the gap between the medians exceeds the parent's
interquartile range.  It also keeps each checkout's run record: Python
version, CPU, commit and a hash of its ``src/cab``.  A run that fails or
reports failed checks stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``--trace 0`` run in ``checkout``: its run record and its result."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    record, result = json.loads(out[-2])["record"], json.loads(out[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"error: {checkout} {workload} seed {seed}: failed checks {result}")
    return record, result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list[dict], better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
        stats = {side: spread(values[side]) for side in SIDES}
        gap = stats["parent"]["median"] - stats["change"]["median"]
        out[name] = {
            "better": direction,
            **stats,
            "change_wins": sum(g > 0 for g in gains),
            "parent_wins": sum(g < 0 for g in gains),
            "median_change_pct": -100 * gap / stats["parent"]["median"],
            "gap_exceeds_parent_iqr": abs(gap) > stats["parent"]["iqr"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    report = {"seconds": args.seconds, "seeds": args.seeds, "checkouts": {}, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                record, result = run_once(checkouts[side], workload, seed, args.seconds)
                pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
                report["checkouts"][side] = {
                    "dir": str(checkouts[side]),
                    **{k: record[k] for k in ("python", "cpu", "nproc", "commit", "source_sha256")},
                }
                print(workload, seed, side, json.dumps(pair[side]), flush=True)
            pairs.append(pair)
        report["workloads"][workload] = {"pairs": pairs, "metrics": summarise(pairs, better)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")  # kept after each workload
    return 0


if __name__ == "__main__":
    sys.exit(main())
