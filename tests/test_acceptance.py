"""Acceptance criteria, one test per criterion.

Exact arithmetic throughout: every equality asserted here is literal (the
tolerance is zero), and the runtime bounds are asserted alongside.  Each test
prints one pass line; run with ``pytest -s tests/test_acceptance.py`` to see
them inline.
"""

import itertools
import random
import time
from functools import partial

from cab.linear import (
    LinComb,
    Tensor,
    bimatching_law,
    coassociativity_law,
    coderivation_law,
    infinitesimal_law,
    multiplicativity_law,
    rank,
    tensor,
)
from cab.trees import catalan, enumerate_trees
from cab.algebra import circle, dot
from cab.infinitesimal import (
    _free_prim_dims,
    coproduct,
    coproduct_closed,
    n_aux_residual,
    n_relation_residual,
    primitive_basis,
    tree_model,
)
from cab import matching as mat
from cab import paths as pth
from cab.verify import _random_primitive_tuple, suite_path

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def report(num, desc, elapsed, bound):
    assert elapsed < bound, f"criterion {num} took {elapsed:.1f}s (bound {bound}s)"
    print(f"PASS criterion {num}: {desc} [{elapsed:.1f}s < {bound}s]")


def test_criterion_1_catalan_basis_counts():
    t0 = time.time()
    for n in range(1, 11):
        assert len(enumerate_trees(n, ["a"])) == CATALAN[n]
    report(1, "tree-basis counts match Catalan numbers for n = 1..10", time.time() - t0, 10)


def test_criterion_2_associativity_and_compatibility():
    t0 = time.time()
    pool1 = {n: enumerate_trees(n, ["a"]) for n in range(1, 5)}
    n_exhaustive = 0
    for da, db, dc in itertools.product(range(1, 5), repeat=3):
        if da + db + dc > 6:
            continue
        for t, u, w in itertools.product(pool1[da], pool1[db], pool1[dc]):
            x, y, z = LinComb.term(t), LinComb.term(u), LinComb.term(w)
            assert circle(circle(x, y), z) == circle(x, circle(y, z))
            lhs = circle(x, dot(y, z)) + dot(x, circle(y, z))
            rhs = dot(circle(x, y), z) + circle(dot(x, y), z)
            assert lhs == rhs
            n_exhaustive += 1

    rng = random.Random(7)
    pool2 = {n: enumerate_trees(n, ["a", "b"]) for n in range(1, 6)}
    for _ in range(500):
        while True:
            da, db, dc = (rng.randint(1, 5) for _ in range(3))
            if da + db + dc <= 7:
                break
        x, y, z = (LinComb.term(rng.choice(pool2[d])) for d in (da, db, dc))
        assert circle(circle(x, y), z) == circle(x, circle(y, z))
        lhs = circle(x, dot(y, z)) + dot(x, circle(y, z))
        rhs = dot(circle(x, y), z) + circle(dot(x, y), z)
        assert lhs == rhs
    report(2, f"associativity + compatibility: {n_exhaustive} exhaustive one-color triples "
              "(degree <= 6) and 500 random colored triples (degree <= 7)",
           time.time() - t0, 60)


def test_criterion_3_coalgebra_suite():
    t0 = time.time()
    pool = {n: enumerate_trees(n, ["a"]) for n in range(1, 8)}
    model = tree_model()
    for n in range(1, 8):
        for t in pool[n]:
            x = LinComb.term(t)
            assert coassociativity_law(model, x).is_zero
            assert coproduct_closed(t) == coproduct(x)
    n_pairs = 0
    for da in range(1, 7):
        for db in range(1, 8 - da):
            for t, w in itertools.product(pool[da], pool[db]):
                x, y = LinComb.term(t), LinComb.term(w)
                assert infinitesimal_law(model, 1, x, y).is_zero
                assert infinitesimal_law(model._replace(dot=circle), 1, x, y).is_zero
                n_pairs += 1
    report(3, "coassociativity, closed = recursive, both infinitesimal laws "
              f"({n_pairs} pairs), exhaustive to degree 7",
           time.time() - t0, 60)


def test_criterion_4_primitive_dimensions():
    t0 = time.time()
    for d, colors in ((1, ["a"]), (2, ["a", "b"])):
        for n in range(1, 7):
            assert rank(primitive_basis(n, colors)) == d**n * catalan(n - 1)
    report(4, "rank of the primitive basis is d^n c_(n-1) for n <= 6, d in {1,2}",
           time.time() - t0, 120)


def test_criterion_5_n_algebra_relations():
    t0 = time.time()
    rng = random.Random(7)
    gens = [LinComb.term(t) for t in enumerate_trees(1, ["a", "b"])]
    prims = {1: primitive_basis(1, ["a", "b"]), 2: primitive_basis(2, ["a", "b"])}

    # R1(2..6), then low2, low3, low4: each is R3(n, r) on n + r − 1 arguments
    for n, r in [(n, 2) for n in range(2, 7)] + [(3, 2), (2, 3), (3, 3)]:
        arity = n + r - 1
        for xs in itertools.product(gens, repeat=arity):
            assert n_relation_residual(n, r, list(xs)).is_zero
        for _ in range(100):
            xs = _random_primitive_tuple(rng, prims, arity)
            assert n_relation_residual(n, r, xs).is_zero

    # the paper's two lemmas are the induction identities on three arguments
    for name, arities in (("ind_i", [3]), ("ind_ii", [3]),
                          ("ind_i", [2, 3, 4, 5]), ("ind_ii", [2, 3, 4, 5])):
        for arity in arities:
            for xs in itertools.product(gens, repeat=arity):
                assert n_aux_residual(name, list(xs)).is_zero
            for _ in range(100):
                xs = _random_primitive_tuple(rng, prims, arity)
                assert n_aux_residual(name, xs).is_zero
    report(5, "R1(n <= 6), low-degree relations, and auxiliary identities on all "
              "generator tuples and 100 random primitive tuples each",
           time.time() - t0, 120)


def test_criterion_6_structure_theorem_dimensions():
    t0 = time.time()

    def comps(n):
        if n == 0:
            yield ()
            return
        for first in range(1, n + 1):
            for rest in comps(n - first):
                yield (first,) + rest

    for d in (1, 2, 3):
        for n in range(1, 11):
            total = 0
            for comp in comps(n):
                prod = 1
                for m in comp:
                    prod *= d**m * CATALAN[m - 1]
                total += prod
            assert total == d**n * CATALAN[n]

    free_dims = _free_prim_dims(12)
    assert all(free_dims[n] == catalan(n - 1) for n in range(1, 13))
    report(6, "cofree composition sum reproduces d^n c_n (n <= 10, d <= 3); "
              "free-primitive recursion reproduces c_(n-1) (n <= 12)",
           time.time() - t0, 5)


def test_criterion_7_matching_suite():
    t0 = time.time()
    words = {n: mat.enumerate_words(n, ["a", "b"]) for n in range(1, 6)}
    n_triples = 0
    for da, db, dc in itertools.product(range(1, 6), repeat=3):
        if da + db + dc > 7:
            continue
        for u, v, w in itertools.product(words[da], words[db], words[dc]):
            assert mat.m_circ(mat.m_dot(u, v), w) == mat.m_dot(u, mat.m_circ(v, w))
            assert mat.m_dot(mat.m_circ(u, v), w) == mat.m_circ(u, mat.m_dot(v, w))
            n_triples += 1

    rng = random.Random(7)
    small = words[1] + words[2] + words[3]
    for _ in range(50):
        xs = []
        for _ in range(3):
            x = LinComb.term(rng.choice(small))
            if rng.random() < 0.5:
                x = x + LinComb.term(rng.choice(small)) * rng.randint(-2, 2)
            xs.append(x)
        x, y, z = xs
        assert mat.word_star(mat.word_star(x, y), z) == mat.word_star(x, mat.word_star(y, z))
        resid = mat.word_coproduct(mat.word_star(x, y))  # no x⊗y term subtracted
        for key, c in mat.word_coproduct(x).items():
            resid = resid - tensor(LinComb.term(key.legs[0]),
                                   mat.word_star(LinComb.term(key.legs[1]), y)) * c
        for key, c in mat.word_coproduct(y).items():
            resid = resid - tensor(mat.word_star(x, LinComb.term(key.legs[0])),
                                   LinComb.term(key.legs[1])) * c
        assert resid.is_zero

    from cab.infinitesimal import coproduct as tree_coproduct

    for n in range(1, 7):
        for t in enumerate_trees(n, ["a", "b"] if n <= 3 else ["a"]):
            x = LinComb.term(t)
            lhs = mat.word_coproduct(LinComb.term(mat.normalize(t)))
            rhs = LinComb.zero()
            for key, c in tree_coproduct(x).items():
                rhs = rhs + LinComb.term(
                    Tensor(mat.normalize(key.legs[0]), mat.normalize(key.legs[1])), c)
            assert lhs == rhs

    counts = [len(mat.compositions(n)) for n in range(1, 13)]
    assert counts == [2 ** (n - 1) for n in range(1, 13)]
    print("NOTE criterion 7: degree-n word-basis dimension enumerates to 2^(n-1); "
          "the 2^n figure stated elsewhere does not match the enumeration")
    report(7, f"matching laws exact on {n_triples} word triples (degree <= 7), star "
              "associative with Joni-Rota law, commuting square to degree 6, "
              "composition counts flagged",
           time.time() - t0, 60)


def test_criterion_8_semihom_polynomial_example():
    t0 = time.time()
    A = mat.truncated_polynomial_algebra(8)
    for n in range(7):
        assert not coderivation_law(A.model, A.basis(n))
    n_pairs = 0
    for i in range(8):
        for j in range(8):
            if i + j + 1 >= 8:
                continue  # the product would cross the truncation
            assert not bimatching_law(A.model, A.basis(i), A.basis(j))
            n_pairs += 1
    report(8, f"truncated polynomials (m = 8): R is a coderivation and "
              f"Δ(x∘y) = Δ(x)∗Δ(y) on all {n_pairs} truncation-safe basis pairs",
           time.time() - t0, 5)


def test_criterion_9_path_suite():
    t0 = time.time()
    checks = suite_path(points=("a", "b", "x"), max_interior=4, seed=7)
    failures = [c for c in checks if not c.ok]
    assert not failures, failures

    # the multiplicativity diagnostic reproduces the derived nonzero residual
    x = LinComb.term(pth.Path(("a", "x")))
    y = LinComb.term(pth.Path(("x", "b")))
    model = pth.path_model()
    square = partial(mat.tensor_square_dot, dot_fn=pth._circ_paths)
    got = multiplicativity_law(model._replace(dot=model.circ, square_dot=square), x, y)
    expected = (
        LinComb.term(Tensor(pth.Path(("a", "b")), pth.Path(("a", "x", "b"))))
        + LinComb.term(Tensor(pth.Path(("a", "x", "b")), pth.Path(("a", "b"))))
        - LinComb.term(Tensor(pth.Path(("a", "x", "b")), pth.Path(("a", "x", "b"))))
    )
    assert got == expected
    report(9, f"path suite over |S| = 3, interior <= 4 ({len(checks)} checks) with the "
              "pinned nonzero multiplicativity residual",
           time.time() - t0, 120)


def test_criterion_10_negative_control():
    t0 = time.time()
    left_zero = lambda p, q: p
    right_zero = lambda p, q: q
    x = LinComb.term(Tensor("u", "u"))
    z = LinComb.term(Tensor("v", "v"))
    lhs = mat.tensor_square_star(
        mat.tensor_square_star(x, x, left_zero, right_zero), z, left_zero, right_zero)
    rhs = mat.tensor_square_star(
        x, mat.tensor_square_star(x, z, left_zero, right_zero), left_zero, right_zero)
    assert lhs - rhs, "the harness failed to detect a non-compatible pair"
    report(10, "tensor-square star on a non-compatible pair reports a nonzero "
               "associativity residual (harness is not vacuous)",
           time.time() - t0, 5)
