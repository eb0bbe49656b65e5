"""One benchmark process: set up a workload, run its passes, check, report.

``run.py`` starts this script in a fresh interpreter for every measurement,
because ``cab``'s memo caches can only be emptied by a new process.  The
last line of standard output is one JSON object.

Modes:
  setup   set up only; report the set-up time
  run     set up, a cold pass, then --warm-passes warm passes on the same
          inputs; report the time of every evaluation and verdict step of
          every pass
  cold    set up and a cold pass only
  traced  set up and a cold pass with every layer wrapped by the tracer
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

# memo cache -> (module, dict name, the function whose calls it serves)
CACHES = {
    "algebra.circle_cache": ("algebra", "_CIRCLE_CACHE", "algebra.circle_trees"),
    "infinitesimal.coproduct_cache": ("infinitesimal", "_COPRODUCT_CACHE", "infinitesimal.coproduct_tree"),
    "infinitesimal.projector_cache": ("infinitesimal", "_PROJECTOR_CACHE", "infinitesimal._projector_tree"),
}
SUITE_FUNCTIONS = {s: f"verify.suite_{s}" for s in workloads.VERIFY_SUITES}


def cache_entries() -> dict:
    return {
        name: len(getattr(importlib.import_module(f"cab.{mod}"), attr, ()))
        for name, (mod, attr, _) in CACHES.items()
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(tracer: tracing.Tracer, before: dict, after: dict) -> dict:
    calls, extra = tracer.calls, tracer.extra
    out = {f"{layer}.self_s": tracer.self_s[layer][0] for layer in tracing.LAYERS}

    add_calls = calls("linear.LinComb.__add__") + calls("linear.LinComb.__sub__")
    copied = extra.get("linear.add.copied_terms", 0)
    right = extra.get("linear.add.right_terms", 0)
    out["linear.add.calls"] = add_calls
    out["linear.add.copied_terms"] = copied
    out["linear.add.useful_ratio"] = right / (copied + right) if copied + right else 0.0
    out["linear.scale.calls"] = calls("linear.LinComb.__mul__")
    out["linear.rank.s"] = tracer.inclusive_s("linear.rank")
    out["linear.rank.rows"] = extra.get("linear.rank.rows", 0)
    out["trees.tree.new"] = calls("trees.Tree.__init__")
    out["algebra.circle_trees.calls"] = calls("algebra.circle_trees")
    out["infinitesimal.coproduct_tree.calls"] = calls("infinitesimal.coproduct_tree")
    for cache, (_, _, fn) in CACHES.items():
        n = calls(fn)
        out[f"{cache}.entries"] = after[cache]
        out[f"{cache}.hit_ratio"] = (n - (after[cache] - before[cache])) / n if n else 0.0
    out["matching.word.new"] = calls("matching.Word.__init__")
    out["paths.path.new"] = calls("paths.Path.__init__")
    pairs = calls("paths._mul_paths") + calls("paths._circ_paths")
    out["paths.basis_pairs"] = pairs
    out["paths.useful_pair_ratio"] = extra.get("paths.useful_pairs", 0) / pairs if pairs else 0.0
    for suite, fn in SUITE_FUNCTIONS.items():
        out[f"verify.{suite}.s"] = tracer.inclusive_s(fn)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "run", "cold", "traced"])
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--warm-passes", type=int, default=1,
                        help="warm passes after the cold pass in run mode")
    parser.add_argument("--tiny", action="store_true", help="the self-test size")
    args = parser.parse_args(argv)

    gc_watch = tracing.GcWatch()
    gc.callbacks.append(gc_watch)
    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    result = {"setup_s": time.monotonic() - args.started}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    before = cache_entries()
    gc_watch.reset()
    if args.mode == "traced":
        tracer = tracing.Tracer().install()
        try:
            cold = workload.run_pass(tracer.bench)
        finally:
            tracer.uninstall()
    else:
        cold = workload.run_pass()
    after = cache_entries()
    result["gc_collections"] = gc_watch.collections
    result["gc_s"] = gc_watch.seconds
    attempted, failed = workload.check(cold.outputs)
    digest = workload.digest(cold.outputs)
    result.update(wall_s=cold.wall_s, digest=digest, cache_entries=after)

    if args.mode == "run":
        result["cold"] = {"eval_s": cold.eval_s, "verdict_s": cold.verdict_s}
        result["warm"] = []
        cold = None  # warm passes start without the cold outputs alive
        for _ in range(args.warm_passes):
            p = workload.run_pass()
            result["warm"].append({"eval_s": p.eval_s, "verdict_s": p.verdict_s})
            a, f = workload.check(p.outputs)
            attempted += a + 1
            failed += f + (workload.digest(p.outputs) != digest)
            p = None  # the next pass starts without these outputs alive

    if tracer is not None:
        result["per_layer"] = per_layer(tracer, before, after)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.span_records()))
    result.update(attempted=attempted, failed=failed, peak_rss_mb=peak_rss_mb())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
