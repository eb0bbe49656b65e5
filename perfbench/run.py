"""The cab benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload {verify-trees,prim-basis,path-dense}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it reads ``src/cab`` there and writes
only under ``.perfbench_out/``.  Every measurement runs in a fresh,
single-threaded interpreter (``worker.py``), because ``cab``'s memo caches
can only be emptied by starting a new process.

With ``--trace 0`` it prints the end-to-end metrics: set-up time, the cold
pass, the warm passes that follow it, per-evaluation percentiles of the cold
pass, and peak memory.  Measuring processes run in turn for about
``--seconds``, and each evaluation is charged its median time over the
identical passes they make (see ``README.md``).  With
``--trace 1`` it runs one untraced cold pass and one traced cold pass and
prints the per-layer metrics.  Both print a run record
line, then the result as the last line of standard output.  A wrong output
counts as a failed check; a process that cannot run gives no result and a
nonzero exit code.
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
from pathlib import Path

STARTED = time.monotonic()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("verify-trees", "prim-basis", "path-dense")
# warm passes after the cold pass in each measuring process
WARM_PASSES = {"verify-trees": 1, "prim-basis": 2, "path-dense": 1}
MIN_PROCESSES = 3
SETUP_SAMPLES = 8
TIME_LIMIT_S = 170.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    False: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    True: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}


class BenchError(Exception):
    pass


def pass_s(times: dict) -> float:
    """The time of one pass: its evaluations and its verdict steps."""
    return sum(times["eval_s"]) + sum(times["verdict_s"])


def typical(passes: list[dict]) -> dict:
    """Per evaluation and per verdict step, the median time over identical
    passes.  The passes do the same work in the same order, so what this
    filters out is the slowdown the host imposed on some of them."""
    return {
        key: [statistics.median(times) for times in zip(*(p[key] for p in passes))]
        for key in ("eval_s", "verdict_s")
    }


def calibration_s() -> float:
    """Time of a fixed pure-Python loop; context for host speed, not a metric."""
    t0 = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = STARTED + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        # every start reads bytecode caches written by the first, unmeasured
        # one, whatever the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, mode: str, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise BenchError("out of time before the next measurement")
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        cmd += extra
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--started", repr(started)], capture_output=True,
                                  text=True, timeout=remaining, env=self.env, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"{mode} process printed no result") from exc

    def end_to_end(self) -> tuple[dict, dict]:
        self.spawn("setup")  # writes the bytecode caches; not measured
        warm_passes = str(WARM_PASSES[self.workload])
        started, runs = time.monotonic(), []
        # start measuring processes while the next one is expected to end
        # within --seconds, and at least MIN_PROCESSES of them
        while len(runs) < MIN_PROCESSES or (
            time.monotonic() + (time.monotonic() - started) / len(runs)
            <= started + self.seconds
        ):
            runs.append(self.spawn("run", "--warm-passes", warm_passes))
        setups = [run["setup_s"] for run in runs]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.spawn("setup")["setup_s"])
        cold = [run["cold"] for run in runs]
        warm = [p for run in runs for p in run["warm"]]
        cold_typical = typical(cold)
        cold_ms = [t * 1e3 for t in cold_typical["eval_s"]]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": pass_s(cold_typical),
            "warm_s": pass_s(typical(warm)),
            "eval_p50_ms": statistics.median(cold_ms),
            "eval_p99_ms": statistics.quantiles(cold_ms, n=100, method="inclusive")[98],
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        }
        digests = {run["digest"] for run in runs}
        detail = {
            "processes": len(runs),
            "setup_samples_s": setups,
            "cold_pass_s": [pass_s(p) for p in cold],
            "eval_count": len(cold_ms),
            "warm_pass_s": [pass_s(p) for p in warm],
            "digest": sorted(digests),
            "cache_entries": runs[0]["cache_entries"],
        }
        counts = {
            "attempted": sum(run["attempted"] for run in runs) + 1,
            "failed": sum(run["failed"] for run in runs) + (len(digests) != 1),
        }
        return values, {**counts, **detail}

    def traced(self) -> tuple[dict, dict]:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{self.workload}-seed{self.seed}.json"
        base = self.spawn("cold")
        traced = self.spawn("traced", "--spans-out", str(spans))
        values = dict(traced["per_layer"])
        values["runtime.gc.collections"] = base["gc_collections"]
        values["runtime.gc.s"] = base["gc_s"]
        values["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
        same = base["digest"] == traced["digest"]
        detail = {
            "untraced_wall_s": base["wall_s"],
            "traced_wall_s": traced["wall_s"],
            "traced_outputs_match": same,
            "digest": base["digest"],
            "spans_file": str(spans.relative_to(ROOT)),
        }
        counts = {
            "attempted": base["attempted"] + traced["attempted"] + 1,
            "failed": base["failed"] + traced["failed"] + (not same),
        }
        return values, {**counts, **detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cab" / "__init__.py").is_file():
        print(f"error: no cab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_sha256(),
        "calibration_s": calibration_s(),
    }
    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            values, detail = runner.traced()
        else:
            values, detail = runner.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = detail.pop("attempted"), detail.pop("failed")
    record.update(detail, fail_ratio=failed / attempted)
    units = UNITS[bool(args.trace)]
    if set(values) != set(units):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
