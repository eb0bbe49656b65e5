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
version, CPU, commit and a hash of its ``src/cab``.

For each workload it then runs ``perfbench/run.py --trace 1`` once in each
checkout at the first seed, records the per-layer metrics that count work,
and lists the names whose values differ between the sides.  Times, the
garbage-collection count and the tracing overhead are left out: they vary
between identical runs.

Last, for each seed it times ``python -m cab.cli verify --suite S --seed 7
--json`` in a fresh process, once in each checkout for each of the five
suites, alternating which side runs first, and summarises each suite's wall
times under ``verify_suites`` as above.  The path suite is the largest real
cost, and no benchmark workload runs it.  A run that fails, reports failed
checks, or prints other output than the other side's stops the script with
exit code 1.

Then it times the Tier-1 command, ``python -m pytest -q
--continue-on-collection-errors`` with the checkout's ``src`` first on
``PYTHONPATH``, once in each checkout, and keeps each side's seconds and
pass count under ``tier1``.  A side whose suite fails stops the script with
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
# traced metrics that differ between identical runs
UNSTEADY = ("runtime.gc.collections", "trace.overhead_ratio")
VERIFY_SUITES = ("axioms", "coalgebra", "nalgebra", "matching", "path")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One ``--trace`` 0 or 1 run in ``checkout``: its run record and its result."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    record, result = json.loads(out[-2])["record"], json.loads(out[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"error: {checkout} {workload} seed {seed}: failed checks {result}")
    return record, result


def verify_once(checkout: Path, suite: str) -> tuple[float, str]:
    """One fresh-process ``cab verify`` of ``suite`` in ``checkout``: its wall
    seconds and its standard output."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "cab.cli", "verify", "--suite", suite, "--seed", "7", "--json"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return time.perf_counter() - start, out


def tier1_once(checkout: Path) -> dict:
    """One run of the Tier-1 command in ``checkout``: its wall seconds and
    the number of tests that passed."""
    path = os.pathsep.join(filter(None, [str(checkout.resolve() / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *TIER1], cwd=checkout, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    seconds = time.perf_counter() - start
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    passed = re.search(r"(\d+) passed", summary)
    if done.returncode or not passed:
        raise SystemExit(f"error: {checkout}: the Tier-1 suite failed: {summary}")
    return {"seconds": seconds, "passed": int(passed.group(1))}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def steady_counts(result: dict) -> dict:
    """The traced metrics of ``result`` that are the same on identical runs."""
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if not name.endswith(("_s", ".s")) and name not in UNSTEADY
    }


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
                record, result = run_once(checkouts[side], workload, seed, args.seconds, 0)
                pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
                report["checkouts"][side] = {
                    "dir": str(checkouts[side]),
                    **{k: record[k] for k in ("python", "cpu", "nproc", "commit", "source_sha256")},
                }
                print(workload, seed, side, json.dumps(pair[side]), flush=True)
            pairs.append(pair)
        traced = {"seed": args.seeds[0]}
        for side in SIDES:
            _, result = run_once(checkouts[side], workload, args.seeds[0], args.seconds, 1)
            traced[side] = steady_counts(result)
        names = set(traced["parent"]) | set(traced["change"])
        traced["differ"] = sorted(n for n in names if traced["parent"].get(n) != traced["change"].get(n))
        print(workload, "traced counts differ:", traced["differ"], flush=True)
        report["workloads"][workload] = {
            "pairs": pairs, "metrics": summarise(pairs, better), "traced": traced,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")  # kept after each workload

    pairs = []
    for i, seed in enumerate(args.seeds):
        pair = {"seed": seed, "parent": {}, "change": {}}
        for j, suite in enumerate(VERIFY_SUITES):
            order = SIDES if (i + j) % 2 == 0 else SIDES[::-1]
            outputs = {}
            for side in order:
                pair[side][suite], outputs[side] = verify_once(checkouts[side], suite)
            if outputs["parent"] != outputs["change"]:
                raise SystemExit(f"error: verify --suite {suite} prints differently on the two sides")
            print("verify", suite, seed, {side: pair[side][suite] for side in SIDES}, flush=True)
        pairs.append(pair)
    report["verify_suites"] = {
        "command": "python -m cab.cli verify --suite S --seed 7 --json",
        "pairs": pairs, "metrics": summarise(pairs, dict.fromkeys(VERIFY_SUITES, "lower")),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")

    report["tier1"] = {"command": " ".join(("python", *TIER1))}
    for side in SIDES:
        report["tier1"][side] = tier1_once(checkouts[side])
        print("tier1", side, report["tier1"][side], flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
