"""Planted faults: one wrong basis map fails exactly the checks that read it.

Each case replaces one basis map with ``monkeypatch`` and runs one suite.
The suites reach the maps through the model records, which are built from
the modules' current bindings, so a record built once and kept would let a
fault pass unseen.  The memo caches are fresh for each run, so no faulty
entry leaks into a later run or test.
"""

import pytest

from cab import infinitesimal, matching, paths, verify
from cab.linear import LinComb, Tensor


def drop_first_cut(orig):
    """The path coproduct without its p[a,b] ⊗ p term, on paths of 3+ points."""

    def faulty(p):
        out = orig(p)
        if len(p) < 3:
            return out
        return out - LinComb.term(Tensor(paths.Path((p[0], p[-1])), p))

    return faulty


def block_cuts_only(orig):
    """The word coproduct with only the cuts between blocks."""
    return lambda w: LinComb(
        (Tensor(matching.Word(w[:i]), matching.Word(w[i:])), 1) for i in range(1, len(w))
    )


FAULTS = {
    "path-coproduct": (
        paths, "_coproduct_path", drop_first_cut,
        lambda: verify.suite_path(points=("a", "b"), max_interior=2),
        ["path-bimatching-diagnostic", "path-coassociativity", "path-coderivation",
         "path-mult-diagnostic-circ", "path-mult-diagnostic-dot"],
    ),
    "tree-coproduct": (
        infinitesimal, "coproduct_tree",
        lambda orig: lambda t: -1 * orig(t) if t.degree >= 3 else orig(t),
        lambda: verify.suite_coalgebra(max_degree=4),
        ["closed-vs-recursive-coproduct", "coassociativity", "infinitesimal-circle",
         "infinitesimal-dot", "joni-rota-star", "primitives-closed-under-nops",
         "projector-idempotent-primitive", "projector-series-crosscheck"],
    ),
    "word-coproduct": (
        matching, "_coproduct_word", block_cuts_only,
        lambda: verify.suite_matching(max_degree=4),
        ["coproduct-commuting-square", "word-star-joni-rota"],
    ),
}


def fresh_caches(monkeypatch):
    for module, name in ((infinitesimal, "_COPRODUCT_CACHE"), (infinitesimal, "_PROJECTOR_CACHE"),
                         (paths, "_COPRODUCT_PATH_CACHE")):
        monkeypatch.setattr(module, name, {})


def failing(checks):
    return sorted(c.name for c in checks if not c.ok)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_planted_fault_fails_exactly_the_checks_that_read_the_map(monkeypatch, fault):
    module, name, plant, run, expected = FAULTS[fault]
    fresh_caches(monkeypatch)
    assert failing(run()) == []
    fresh_caches(monkeypatch)
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    assert failing(run()) == expected
