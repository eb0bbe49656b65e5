"""Record the reference outputs that ``verify-trees`` checks against.

    python3 perfbench/record_reference.py 1 2 3

Runs the suites of the full and the tiny (self-test) size for each seed
given and writes the ``[name, ok, detail]`` triples to
``reference/verify-trees.json``.  The triples do not
depend on the seed (the details name sweep sizes, not sampled inputs), so
the script refuses to write when two seeds disagree.
"""

from __future__ import annotations

import json
import sys

import workloads


def record(seeds: list[int], tiny: bool) -> dict:
    recorded = None
    for seed in seeds:
        workload = workloads.VerifyTrees(seed, tiny=tiny, reference={})
        suites = {}
        for suite, code, stdout in workload.run_pass().outputs:
            if code != 0:
                raise SystemExit(f"seed {seed}: suite {suite} exited with {code}")
            suites[suite] = workload.triples(stdout)
        if recorded is not None and suites != recorded:
            raise SystemExit(f"seed {seed} gives other triples than seed {seeds[0]}")
        recorded = suites
    return recorded


def main(seeds: list[int]) -> int:
    lines = [f'{{"seeds_recorded": {json.dumps(seeds)},']
    for size in ("full", "tiny"):
        suites = record(seeds, tiny=size == "tiny")
        body = ",\n".join(
            f' {json.dumps(suite)}: [\n  '
            + ",\n  ".join(json.dumps(t, ensure_ascii=False) for t in triples)
            + "\n ]"
            for suite, triples in suites.items()
        )
        lines.append(f'"{size}": {{\n{body}\n}}' + ("," if size == "full" else ""))
    lines.append("}")
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(workloads.REFERENCE.parents[2] / "src"))
    sys.exit(main([int(s) for s in sys.argv[1:]] or [7]))
