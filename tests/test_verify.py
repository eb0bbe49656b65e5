"""``cab.verify``: the check builder, which law each check reports, and the
sweep domains against the loops they replace."""

import itertools
import os
import subprocess
import sys
from functools import partial

import pytest

from cab import paths as pth
from cab import verify
from cab.matching import enumerate_words
from cab.trees import enumerate_trees
from cab.verify import (
    Check, _check, _graded, suite_axioms, suite_coalgebra, suite_matching, suite_nalgebra, suite_path,
)


def test_check_runs_every_law_on_every_input_lazily_in_order():
    log = []

    def inputs():
        for i in range(3):
            log.append(("draw", i))
            yield i, 10 * i

    def law(tag, fails_on):
        return lambda i, j: log.append((tag, i, j)) or i in fails_on

    check = _check(7, "c", lambda n, bad: f"{n} inputs, {bad} failures",
                   inputs(), law("p", {1}), law("q", {1, 2}))
    assert log == [
        ("draw", 0), ("p", 0, 0), ("q", 0, 0),
        ("draw", 1), ("p", 1, 10), ("q", 1, 10),
        ("draw", 2), ("p", 2, 20), ("q", 2, 20),
    ]
    assert check == Check("c", False, "3 inputs, 3 failures")
    assert _check(7, "d", "fixed", [(1, 2)], lambda i, j: 0) == Check("d", True, "fixed")
    assert _check(7, "e", "fixed", [], law("r", set())) == Check("e", False, "fixed")  # shows nothing


def inputs_seen(patch, suite, name, alone):
    """The rendered argument tuples that the laws of check ``name`` see in a
    run of ``suite``, with the other checks run or, if ``alone``, returned
    unevaluated.  ``patch(verify, "_check", spy)`` installs the spy."""
    seen = []

    def spy(seed, check_name, detail, inputs, *laws):
        if check_name == name:
            laws = (lambda *args: seen.append(repr(args)), *laws)
        elif alone:
            return Check(check_name, True)
        return _check(seed, check_name, detail, inputs, *laws)

    patch(verify, "_check", spy)
    suite()
    return seen


ONE_RANDOM_CHECK_PER_SUITE = {
    "lie-brackets": suite_axioms,
    "primitives-closed-under-nops": suite_coalgebra,
    "auxiliary-identities": suite_nalgebra,
    "polynomial-matching-laws": suite_matching,
}


@pytest.mark.parametrize("name", ONE_RANDOM_CHECK_PER_SUITE)
def test_random_check_draws_the_same_inputs_alone_as_in_its_suite(monkeypatch, name):
    suite = partial(ONE_RANDOM_CHECK_PER_SUITE[name], max_degree=3)
    in_suite = inputs_seen(monkeypatch.setattr, suite, name, False)
    assert in_suite
    assert inputs_seen(monkeypatch.setattr, suite, name, True) == in_suite


def test_random_check_draws_the_same_inputs_under_any_hash_seed():
    code = (
        "import test_verify; from cab import verify;"
        "print(test_verify.inputs_seen(setattr, lambda: verify.suite_coalgebra(max_degree=3),"
        " 'primitives-closed-under-nops', True))"
    )
    path = os.pathsep.join([os.path.dirname(__file__), *sys.path])
    runs = [
        subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for seed in ("0", "1")
    ]
    assert runs[0] == runs[1] != "[]\n"


def _failing(checks):
    return sorted(c.name for c in checks if not c.ok)


def test_split_axiom_checks_report_only_their_own_law(monkeypatch):
    assert _failing(suite_axioms(max_degree=3)) == []
    monkeypatch.setattr(verify, "compatibility_law", lambda *args: True)
    assert _failing(suite_axioms(max_degree=3)) == ["compatibility-exhaustive", "compatibility-random"]


def test_split_coalgebra_checks_report_only_their_own_law(monkeypatch):
    # the exhaustive inputs are single trees, so only the random elements fail
    monkeypatch.setattr(verify, "coassociativity_law", lambda m, x: len(x) == 2)
    assert _failing(suite_coalgebra(max_degree=3)) == ["coassociativity"]


def _pairs_by_loops(pool, total, cap=None):
    """Graded pairs as nested loops over the degrees: the reference for `_graded`."""
    degrees = sorted(pool)
    return [
        (t, w)
        for da in degrees
        for db in degrees
        if da + db <= total
        for t in pool[da][:cap]
        for w in pool[db][:cap]
    ]


def _triples_by_loops(pool, total, cap=None):
    degrees = sorted(pool)
    return [
        xyz
        for da, db, dc in itertools.product(degrees, repeat=3)
        if da + db + dc <= total
        for xyz in itertools.product(pool[da][:cap], pool[db][:cap], pool[dc][:cap])
    ]


TREES = {n: enumerate_trees(n, ["a"]) for n in range(1, 6)}
WORDS = {n: enumerate_words(n, ["a", "b"]) for n in range(1, 5)}
COLORED = {n: enumerate_trees(n, ["a", "b"]) for n in range(1, 5)}


@pytest.mark.parametrize(
    "pool, cap", [(TREES, None), (WORDS, None), (COLORED, 4)], ids=["trees", "words", "capped"]
)
@pytest.mark.parametrize("total", range(1, 9))
def test_graded_equals_the_nested_loops(pool, cap, total):
    capped = {d: keys[:cap] for d, keys in pool.items()}
    assert list(_graded(capped, 1, total)) == [
        (t,) for d in sorted(pool) if d <= total for t in pool[d][:cap]
    ]
    assert list(_graded(capped, 2, total)) == _pairs_by_loops(pool, total, cap)
    assert list(_graded(capped, 3, total)) == _triples_by_loops(pool, total, cap)


def test_path_sweep_counts_every_chained_triple():
    S = ("a", "b")
    basis = pth.enumerate_paths(S, 2)
    chained = sum(
        p.points[-1] == q.points[0] and q.points[-1] == r.points[0]
        for p, q, r in itertools.product(basis, repeat=3)
    )
    assert chained == 5488
    checks = {c.name: c for c in suite_path(points=S, max_interior=1)}
    check = checks["path-associativity-exhaustive"]
    assert check.ok
    assert check.detail == f"both products on {chained} chained basis triples, interior <= 2"
