"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))


def _traced_pass(workload):
    tracer = tracing.Tracer().install()
    try:
        return workload.run_pass(tracer.bench), tracer
    finally:
        tracer.uninstall()


def _bindings() -> dict:
    """Every object reachable as a module, class or module-dict attribute of cab."""
    out = {}
    for name in ("cab",) + tuple(f"cab.{layer}" for layer in tracing.LAYERS):
        mod = importlib.import_module(name)
        for attr, obj in vars(mod).items():
            out[(name, attr)] = obj
            if isinstance(obj, type):
                for member, value in vars(obj).items():
                    out[(name, attr, member)] = value
            elif type(obj) is dict and not attr.startswith("__") and not attr.endswith("_CACHE"):
                for key, value in obj.items():
                    out[(name, attr, repr(key))] = value
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_match(name):
    workload = workloads.WORKLOADS[name](3, tiny=True)
    plain = workload.run_pass()
    traced, tracer = _traced_pass(workload)
    assert workload.digest(traced.outputs) == workload.digest(plain.outputs)
    assert workload.check(traced.outputs)[1] == 0
    assert sum(st[0] for st in tracer.stats.values()) > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_uninstall_restores_every_binding(name):
    workload = workloads.WORKLOADS[name](3, tiny=True)
    before = _bindings()
    _, tracer = _traced_pass(workload)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.calls("cli.main") or name != "verify-trees"


def test_wrapping_covers_copied_bindings_and_suite_table():
    from cab import algebra, infinitesimal, verify

    tracer = tracing.Tracer().install()
    try:
        assert infinitesimal.circle is algebra.circle
        assert hasattr(infinitesimal.circle, "__wrapped__")
        assert all(hasattr(fn, "__wrapped__") for fn in verify.SUITES.values())
    finally:
        tracer.uninstall()
    assert not hasattr(infinitesimal.circle, "__wrapped__")
    assert not any(hasattr(fn, "__wrapped__") for fn in verify.SUITES.values())


def test_wrong_reference_is_caught():
    workload = workloads.VerifyTrees(3, tiny=True)
    outputs = workload.run_pass().outputs
    assert workload.check(outputs)[1] == 0
    wrong = json.loads(json.dumps(workload.reference))
    wrong["matching"][0][2] += " (altered)"
    attempted, failed = workloads.VerifyTrees(3, tiny=True, reference=wrong).check(outputs)
    assert failed / attempted > 0


def test_wrong_path_product_is_caught():
    workload = workloads.PathDense(3, tiny=True)
    outputs = workload.run_pass().outputs
    index = next(i for i, (product, _) in enumerate(outputs) if product)
    product, zero = outputs[index]
    outputs[index] = (product + product, zero)
    assert workload.check(outputs)[1] == 1


def _worker(*args) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--tiny",
           "--started", repr(time.monotonic()), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["prim-basis", "path-dense"])
def test_traced_counts_repeat_exactly(name):
    runs = [_worker("--workload", name, "--seed", "5", "--mode", "traced") for _ in range(2)]
    counts = [
        {k: v for k, v in run["per_layer"].items() if not k.endswith("_s") and not k.endswith(".s")}
        for run in runs
    ]
    assert counts[0] == counts[1]
    assert runs[0]["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
