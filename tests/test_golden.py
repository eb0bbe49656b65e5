"""Byte-for-byte CLI output, pinned against recorded files.

Each case runs ``cab`` in-process and compares stdout with
``tests/golden/<name>.out``.  The files were recorded before any change to
how coefficients are represented, so a performance change that alters one
rendered byte fails here.  To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "mul-star": ["mul", "--op", "star:1/2,-3", "(a(b))", "(b,a)"],
    "mul-star-json": ["mul", "--op", "star:1/2,-3", "(a(b))", "(b,a)", "--json"],
    "coproduct": ["coproduct", "(a(b),c(a,b),a)"],
    "prim-basis-json": ["prim-basis", "--degree", "4", "--colors", "2", "--json"],
    "nop": ["nop", "--n", "3", "(a)", "(b(a))", "(c,a)"],
    "normalize": ["normalize", "(d(c(a,b(a))),e)"],
    "word-mul": ["word-mul", "--op", "dot", "a|b.c", "c|d"],
    "path-mul": ["path", "mul", "--points", "a,b,x,y", "p[a,x,y]", "p[y,b]"],
    "path-circ": ["path", "circ", "--points", "a,b,x,y", "p[a,x,y]", "p[y,x,b]"],
    "path-mul-zero": ["path", "mul", "--points", "a,b", "p[a,b]", "p[a,b]"],
    "path-mul-zero-json": ["path", "mul", "--points", "a,b", "p[a,b]", "p[a,b]", "--json"],
    "path-circ-zero": ["path", "circ", "--points", "a,b", "p[a,b]", "p[a,b]"],
    "path-circ-zero-json": ["path", "circ", "--points", "a,b", "p[a,b]", "p[a,b]", "--json"],
    "path-coproduct": ["path", "coproduct", "--points", "a,b,x,y", "p[a,x,y,b]"],
    "trees-enum": ["trees", "enum", "--degree", "3", "--colors", "a,b"],
    "trees-enum-json": ["trees", "enum", "--degree", "3", "--colors", "2", "--json"],
    "dims": ["dims", "--max", "8", "--colors", "2"],
    "dims-16-3-json": ["dims", "--max", "16", "--colors", "3", "--json"],
    "verify-coalgebra": ["verify", "--suite", "coalgebra", "--max-degree", "3", "--seed", "7"],
    "verify-coalgebra-json": [
        "verify", "--suite", "coalgebra", "--max-degree", "3", "--seed", "7", "--json",
    ],
    "verify-axioms-5": ["verify", "--suite", "axioms", "--max-degree", "5", "--seed", "3"],
    "verify-matching-5": ["verify", "--suite", "matching", "--max-degree", "5", "--seed", "3"],
    "verify-axioms-json": [
        "verify", "--suite", "axioms", "--max-degree", "4", "--seed", "7", "--json",
    ],
    "verify-nalgebra-json": [
        "verify", "--suite", "nalgebra", "--max-degree", "4", "--seed", "7", "--json",
    ],
    "verify-matching-json": [
        "verify", "--suite", "matching", "--max-degree", "4", "--seed", "7", "--json",
    ],
}


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = _run(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in CASES.items():
        code, out = _run(argv)
        if code:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
