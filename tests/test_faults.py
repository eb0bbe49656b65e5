"""Planted faults: one wrong basis map fails exactly the checks that read it.

Each case replaces one basis map, operation, enumerator or count with
``monkeypatch`` and runs one suite.  The suites reach the maps through the model records, which
are built from the modules' current bindings, so a record built once and
kept would let a fault pass unseen.  ``verify`` binds ``enumerate_trees`` by
``from … import``, so that fault patches ``verify``'s binding.  Every memo
is emptied before each run and after the test, so no faulty entry leaks
into a later run or test.  Every check of ``cab verify --suite all`` is in
some row's set.
"""

import json
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from cab import algebra, infinitesimal, matching, paths, verify
from cab.linear import LinComb, Tensor, bilinear_keys, clear_memos, linear_map
from cab.trees import is_irreducible, parse_tree


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


def keep_glued_point(orig):
    """The path product keeping the glued point when ``p`` has 3+ points."""
    return lambda p, q: orig(p, q) if len(p) < 3 or p[-1] != q[0] else paths.Path(p + q[1:])


def halve_from_degree_5(orig):
    """The circle product halved where the degrees sum to 5 or more."""
    return lambda t, w: orig(t, w) * Fraction(1, 2) if t.degree + w.degree >= 5 else orig(t, w)


def r_plus_r_squared(orig):
    """R(eᵢ) + R(R(eᵢ)): multiplication by X + X² on the polynomials, still a
    right semi-homomorphism, so the algebra builds."""

    def faulty(self, i):
        r = orig(self, i)
        return r + linear_map(partial(orig, self), r)

    return faulty


def drop_last_left_term(orig):
    """``bilinear`` without the last term, in text order, of a left factor
    with 3 or more terms; the basis sweeps use one-term factors only."""

    def faulty(f, x, y):
        if len(x) >= 3:
            key, c = x.sorted_items()[-1]
            x = x - LinComb.term(key, c)
        return orig(f, x, y)

    return faulty


FAULTS = {
    "circle-product": (
        algebra, "circle_trees",
        lambda orig: lambda t, w: (
            -1 * orig(t, w) if not is_irreducible(w) and t.degree + w.degree >= 4 else orig(t, w)
        ),
        lambda: verify.suite_axioms(max_degree=4),
        ["circle-associativity-exhaustive", "circle-associativity-random", "compatibility-exhaustive",
         "compatibility-random", "evaluate-homomorphism", "lie-brackets",
         "star-associativity-random-weights"],
    ),
    "path-product": (
        paths, "_mul_paths", keep_glued_point,
        lambda: verify.suite_path(points=("a", "b"), max_interior=2),
        ["path-R-semihom", "path-associativity-exhaustive", "path-bimatching-diagnostic",
         "path-laws-random-lincombs", "path-matching-laws-exhaustive", "path-mult-diagnostic-dot",
         "path-unit"],
    ),
    "tree-enumeration": (
        verify, "enumerate_trees",
        lambda orig: lambda n, colors: orig(n, colors)[:-1] if n >= 3 else orig(n, colors),
        lambda: verify.suite_axioms(max_degree=4),
        ["catalan-basis-counts"],
    ),
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
    "n-op": (
        infinitesimal, "n_op",
        lambda orig: lambda xs: 2 * orig(xs) if len(xs) >= 4 else orig(xs),
        lambda: verify.suite_nalgebra(max_degree=4),
        ["auxiliary-identities", "relations-R1-and-low-degree", "relations-R2-R3-reconstructed"],
    ),
    "word-circle": (
        matching, "m_circ",
        lambda orig: lambda u, w: matching.m_dot(u, w) if len(u) >= 2 else orig(u, w),
        lambda: verify.suite_matching(max_degree=4),
        ["composition-homomorphism", "quotient-homomorphism", "tensor-square-star-associative",
         "word-matching-laws-exhaustive", "word-star-joni-rota"],
    ),
    "path-coproduct-edges": (
        paths, "_coproduct_path",
        lambda orig: lambda p: 2 * orig(p) if len(p) == 2 else orig(p),
        lambda: verify.suite_path(points=("a", "b"), max_interior=2),
        ["path-bimatching-diagnostic", "path-coassociativity", "path-coderivation", "path-grouplike",
         "path-mult-diagnostic-circ", "path-mult-diagnostic-dot"],
    ),
    "circle-scale": (
        algebra, "circle_trees", halve_from_degree_5,
        lambda: verify.suite_axioms(max_degree=4),
        ["circle-associativity-random", "circle-degree-and-integrality", "compatibility-random",
         "evaluate-homomorphism", "lie-brackets", "star-associativity-random-weights"],
    ),
    "circle-scale-coproduct": (
        algebra, "circle_trees", halve_from_degree_5,
        lambda: verify.suite_coalgebra(max_degree=4),
        ["coproduct-well-defined-combination", "joni-rota-star", "primitives-closed-under-nops"],
    ),
    "compositions": (
        matching, "compositions",
        lambda orig: lambda n: orig(n)[:-1] if n >= 3 else orig(n),
        lambda: verify.suite_matching(max_degree=4),
        ["composition-count"],
    ),
    "projector": (
        infinitesimal, "_projector_tree",
        lambda orig: lambda t: LinComb.zero() if t == parse_tree("(b(a(a)))") else orig(t),
        lambda: verify.suite_nalgebra(max_degree=4),
        ["primitive-basis-ranks"],
    ),
    "catalan": (
        infinitesimal, "catalan",
        lambda orig: lambda n: orig(n) + (n == 7),
        lambda: verify.suite_nalgebra(max_degree=4),
        ["dimension-report"],
    ),
    "tensor-square-star": (
        matching, "tensor_square_star",
        lambda orig: lambda x, y, dot_fn, circ_fn: bilinear_keys(matching._legwise(dot_fn, circ_fn), x, y),
        lambda: verify.suite_matching(max_degree=4),
        ["polynomial-bimatching", "tensor-square-negative-control"],
    ),
    "semihom-r": (
        matching.SemiHomAlgebra, "_r_key", r_plus_r_squared,
        lambda: verify.suite_matching(max_degree=4),
        ["polynomial-bimatching", "polynomial-coderivation"],
    ),
    "finite-circ": (
        algebra.FinAlgebra, "circ",
        lambda orig: lambda self, x, y: -orig(self, x, y),
        lambda: verify.suite_matching(max_degree=4),
        ["left-multiplication-semihom", "polynomial-bimatching"],
    ),
    "finite-bilinear": (
        algebra, "bilinear", drop_last_left_term,
        lambda: verify.suite_matching(max_degree=4),
        ["polynomial-matching-laws"],
    ),
}


@pytest.fixture
def fresh_caches():
    """Empty every memo now, when called, and at teardown.  A faulted run
    fills the original memos too, because their recursion calls the patched
    global."""
    clear_memos()
    yield clear_memos
    clear_memos()


def failing(checks):
    return sorted(c.name for c in checks if not c.ok)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_planted_fault_fails_exactly_the_checks_that_read_the_map(monkeypatch, fresh_caches, fault):
    module, name, plant, run, expected = FAULTS[fault]
    assert failing(run()) == []
    fresh_caches()
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    assert failing(run()) == expected


def test_every_check_has_a_fault_that_fails_it():
    golden = Path(__file__).parent / "golden" / "verify-all-json.out"
    names = {check["name"] for check in json.loads(golden.read_text())}
    assert set().union(*(row[-1] for row in FAULTS.values())) == names
