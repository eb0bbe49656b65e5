"""Machine verification sweeps over the algebraic laws.

Each suite runs a battery of exhaustive and seeded-random checks and returns
one ``Check`` per claim.  Everything is exact arithmetic, so "pass" always
means the residual was literally zero (or, for the diagnostics and the
negative control, that the reported value matched the derivation).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .linear import LinComb, Tensor, linear_map, rank, tensor
from .trees import Tree, catalan, enumerate_trees
from .algebra import FinAlgebra, circle, dot, evaluate, lie_bracket, star
from . import infinitesimal as inf
from . import matching as mat
from . import paths as pth

DEFAULT_SEED = 7


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _tree_pool(max_degree: int, colors) -> dict[int, list[Tree]]:
    return {n: enumerate_trees(n, colors) for n in range(1, max_degree + 1)}


def _random_tree(rng, pool, degree):
    return LinComb.term(rng.choice(pool[degree]))


def _random_degrees(rng, k, total):
    while True:
        ds = [rng.randint(1, total - k + 1) for _ in range(k)]
        if sum(ds) <= total:
            return ds


# --------------------------------------------------------------------------
# axioms: the two products


def suite_axioms(max_degree: int = 6, seed: int = DEFAULT_SEED, random_triples: int = 500):
    checks = []
    rng = random.Random(seed)

    counts_ok = all(
        len(enumerate_trees(n, ["a"])) == catalan(n) for n in range(1, 9)
    ) and len(enumerate_trees(2, ["a", "b"])) == 4 * 2
    checks.append(Check("catalan-basis-counts", counts_ok, "degrees 1..8, d in {1,2}"))

    pool1 = _tree_pool(max(1, max_degree - 2), ["a"])
    assoc_bad = compat_bad = 0
    n_triples = 0
    degrees = range(1, max_degree - 1)
    for da, db, dc in itertools.product(degrees, repeat=3):
        if da + db + dc > max_degree:
            continue
        for x, y, z in itertools.product(pool1[da], pool1[db], pool1[dc]):
            ex, ey, ez = LinComb.term(x), LinComb.term(y), LinComb.term(z)
            if circle(circle(ex, ey), ez) != circle(ex, circle(ey, ez)):
                assoc_bad += 1
            lhs = circle(ex, dot(ey, ez)) + dot(ex, circle(ey, ez))
            rhs = dot(circle(ex, ey), ez) + circle(dot(ex, ey), ez)
            if lhs != rhs:
                compat_bad += 1
            n_triples += 1
    checks.append(
        Check("circle-associativity-exhaustive", assoc_bad == 0,
              f"{n_triples} one-color triples, total degree <= {max_degree}")
    )
    checks.append(
        Check("compatibility-exhaustive", compat_bad == 0,
              f"{n_triples} one-color triples, total degree <= {max_degree}")
    )

    # the later sweeps draw degrees up to 5 whatever the exhaustive bound is
    pool2 = _tree_pool(max(5, max_degree + 1), ["a", "b"])
    assoc_bad = compat_bad = 0
    for _ in range(random_triples):
        da, db, dc = _random_degrees(rng, 3, max_degree + 1)
        ex = _random_tree(rng, pool2, da)
        ey = _random_tree(rng, pool2, db)
        ez = _random_tree(rng, pool2, dc)
        if circle(circle(ex, ey), ez) != circle(ex, circle(ey, ez)):
            assoc_bad += 1
        lhs = circle(ex, dot(ey, ez)) + dot(ex, circle(ey, ez))
        rhs = dot(circle(ex, ey), ez) + circle(dot(ex, ey), ez)
        if lhs != rhs:
            compat_bad += 1
    checks.append(
        Check("circle-associativity-random", assoc_bad == 0,
              f"{random_triples} colored triples (d=2), total degree <= {max_degree + 1}")
    )
    checks.append(
        Check("compatibility-random", compat_bad == 0,
              f"{random_triples} colored triples (d=2), total degree <= {max_degree + 1}")
    )

    bad = 0
    weight_pairs = [
        (rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for _ in range(5)
    ]
    for alpha, beta in weight_pairs:
        for _ in range(20):
            da, db, dc = _random_degrees(rng, 3, 5)
            ex = _random_tree(rng, pool2, da)
            ey = _random_tree(rng, pool2, db)
            ez = _random_tree(rng, pool2, dc)
            if star(star(ex, ey, alpha, beta), ez, alpha, beta) != star(
                ex, star(ey, ez, alpha, beta), alpha, beta
            ):
                bad += 1
    checks.append(Check("star-associativity-random-weights", bad == 0,
                        "5 rational weight pairs x 20 triples"))

    bad = 0
    for da in range(1, 5):
        for db in range(1, 5):
            if da + db > 6:
                continue
            for t in pool2[da][: 12]:
                for w in pool2[db][: 12]:
                    product = circle(LinComb.term(t), LinComb.term(w))
                    for key, c in product.items():
                        if key.degree != da + db or c.denominator != 1:
                            bad += 1
    checks.append(Check("circle-degree-and-integrality", bad == 0,
                        "degree additive, integer coefficients"))

    bad = 0
    for _ in range(60):
        da, db, dc = _random_degrees(rng, 3, 5)
        ex = _random_tree(rng, pool2, da)
        ey = _random_tree(rng, pool2, db)
        ez = _random_tree(rng, pool2, dc)
        for kind in ("dot", "circle", "sum"):
            if lie_bracket(kind, ex, ex):
                bad += 1
            jac = (
                lie_bracket(kind, lie_bracket(kind, ex, ey), ez)
                + lie_bracket(kind, lie_bracket(kind, ey, ez), ex)
                + lie_bracket(kind, lie_bracket(kind, ez, ex), ey)
            )
            if jac:
                bad += 1
    checks.append(Check("lie-brackets", bad == 0, "antisymmetry + Jacobi, 60 triples x 3 brackets"))

    target = _poly_fin_algebra(6)
    assign = {"a": target.vector([0, 1, 0, 0, 0, 0]), "b": target.vector([1, 0, 1, 0, 0, 0])}
    bad = 0
    for _ in range(60):
        da, db = _random_degrees(rng, 2, 5)
        x = _random_tree(rng, pool2, da)
        y = _random_tree(rng, pool2, db)
        fx, fy = evaluate(target, assign, x), evaluate(target, assign, y)
        if evaluate(target, assign, dot(x, y)) != target.dot(fx, fy):
            bad += 1
        if evaluate(target, assign, circle(x, y)) != target.circ(fx, fy):
            bad += 1
    checks.append(Check("evaluate-homomorphism", bad == 0,
                        "both products, 60 pairs into a validated target"))
    return checks


def _poly_fin_algebra(m: int) -> FinAlgebra:
    """Truncated polynomials with x∘y = x·X·y; a compatible pair of products."""
    dot_table = [
        [[1 if k == i + j else 0 for k in range(m)] for j in range(m)] for i in range(m)
    ]
    circ_table = [
        [[1 if k == i + j + 1 else 0 for k in range(m)] for j in range(m)] for i in range(m)
    ]
    return FinAlgebra(dot_table, circ_table)


# --------------------------------------------------------------------------
# coalgebra: coproduct, infinitesimal laws, projector


def suite_coalgebra(max_degree: int = 7, seed: int = DEFAULT_SEED):
    checks = []
    rng = random.Random(seed)
    pool1 = _tree_pool(max_degree, ["a"])
    pool2 = _tree_pool(5, ["a", "b"])  # random sweeps draw degrees up to 5

    coassoc_bad = closed_bad = 0
    n_trees = 0
    for n in range(1, max_degree + 1):
        for t in pool1[n]:
            x = LinComb.term(t)
            if inf.coassociativity_residual(x):
                coassoc_bad += 1
            if inf.coproduct_closed(t) != inf.coproduct(x):
                closed_bad += 1
            n_trees += 1
    for _ in range(40):
        x = _random_tree(rng, pool2, rng.randint(1, 5)) + _random_tree(
            rng, pool2, rng.randint(1, 5)
        ) * rng.randint(-3, 3)
        if inf.coassociativity_residual(x):
            coassoc_bad += 1
    checks.append(Check("coassociativity", coassoc_bad == 0,
                        f"{n_trees} one-color trees to degree {max_degree} + 40 random colored elements"))
    checks.append(Check("closed-vs-recursive-coproduct", closed_bad == 0,
                        f"{n_trees} one-color trees to degree {max_degree}"))

    dot_bad = circ_bad = 0
    n_pairs = 0
    for da in range(1, max_degree):
        for db in range(1, max_degree):
            if da + db > max_degree - 1:
                continue
            for t, w in itertools.product(pool1[da], pool1[db]):
                x, y = LinComb.term(t), LinComb.term(w)
                if inf.infinitesimal_residual("dot", x, y):
                    dot_bad += 1
                if inf.infinitesimal_residual("circle", x, y):
                    circ_bad += 1
                n_pairs += 1
    checks.append(Check("infinitesimal-dot", dot_bad == 0,
                        f"{n_pairs} basis pairs, total degree <= {max_degree - 1}"))
    checks.append(Check("infinitesimal-circle", circ_bad == 0,
                        f"{n_pairs} basis pairs, total degree <= {max_degree - 1}"))

    bad = 0
    for _ in range(40):
        da, db = _random_degrees(rng, 2, 6)
        x = _random_tree(rng, pool2, min(da, 5))
        y = _random_tree(rng, pool2, min(db, 5))
        if inf.infinitesimal_residual(("star", -1, 1), x, y):
            bad += 1
    checks.append(Check("joni-rota-star", bad == 0,
                        "star(-1,1) has no x⊗y term; 40 random pairs"))

    bad = 0
    for _ in range(30):
        da, db, dc = _random_degrees(rng, 3, 6)
        x = _random_tree(rng, pool2, min(da, 5))
        y = _random_tree(rng, pool2, min(db, 5))
        z = _random_tree(rng, pool2, min(dc, 5))
        combo = (
            circle(dot(x, y), z) + dot(circle(x, y), z)
            - dot(x, circle(y, z)) - circle(x, dot(y, z))
        )
        if inf.coproduct(combo):
            bad += 1
    checks.append(Check("coproduct-well-defined-combination", bad == 0,
                        "Δ of the compatibility combination vanishes; 30 triples"))

    e_bad = series_bad = 0
    for n in range(1, min(max_degree, 6) + 1):
        for t in pool1[n]:
            x = LinComb.term(t)
            ex = inf.primitive_projector(x)
            if inf.primitive_projector(ex) != ex or inf.coproduct(ex):
                e_bad += 1
            if inf.primitive_projector_series(x) != ex:
                series_bad += 1
    for _ in range(30):
        da, db = _random_degrees(rng, 2, 5)
        x = dot(_random_tree(rng, pool2, da), _random_tree(rng, pool2, db))
        if inf.primitive_projector(x):
            e_bad += 1
    checks.append(Check("projector-idempotent-primitive", e_bad == 0,
                        "e∘e = e, Δ∘e = 0, e kills dot products"))
    checks.append(Check("projector-series-crosscheck", series_bad == 0,
                        "recursion equals the alternating-sign series"))

    bad = 0
    prims = {
        n: inf.primitive_basis(n, ["a", "b"]) for n in (1, 2)
    }
    for arity in range(2, 6):
        for _ in range(10):
            ps = []
            budget = 8
            for _ in range(arity):
                deg = 2 if (budget > arity and rng.random() < 0.3) else 1
                budget -= deg
                ps.append(rng.choice(prims[deg]))
            if inf.coproduct(inf.n_op(arity, ps)):
                bad += 1
    checks.append(Check("primitives-closed-under-nops", bad == 0,
                        "Δ(N_n(p₁..pₙ)) = 0 for primitive arguments, n <= 5"))
    return checks


# --------------------------------------------------------------------------
# nalgebra: relations, primitive basis, dimensions


def _random_primitive_tuple(rng, prims, arity, budget=8):
    ps = []
    remaining = budget
    for i in range(arity):
        slots_left = arity - i - 1
        can_take_two = remaining - 2 >= slots_left
        deg = 2 if (can_take_two and rng.random() < 0.3) else 1
        remaining -= deg
        ps.append(rng.choice(prims[deg]))
    return ps


def suite_nalgebra(max_n: int = 6, seed: int = DEFAULT_SEED, random_tuples: int = 100):
    checks = []
    rng = random.Random(seed)
    gens = [LinComb.term(t) for t in enumerate_trees(1, ["a", "b"])]
    prims = {n: inf.primitive_basis(n, ["a", "b"]) for n in (1, 2)}

    relations = [("R1", n) for n in range(2, max_n + 1)] + ["low2", "low3", "low4"]
    bad = 0
    n_evals = 0
    for rel in relations:
        arity = inf.n_relation_arity(rel)
        for xs in itertools.product(gens, repeat=arity):
            if inf.n_relation_residual(rel, list(xs)):
                bad += 1
            n_evals += 1
        for _ in range(random_tuples):
            xs = _random_primitive_tuple(rng, prims, arity)
            if inf.n_relation_residual(rel, xs):
                bad += 1
            n_evals += 1
    checks.append(Check("relations-R1-and-low-degree", bad == 0,
                        f"R1(2..{max_n}) + low2..low4; {n_evals} evaluations"))

    bad = 0
    n_evals = 0
    for rel in [("R2", 3), ("R2", 4), ("R2", 5), ("R3", 3, 3), ("R3", 3, 4), ("R3", 4, 3), ("R3", 4, 4)]:
        arity = inf.n_relation_arity(rel)
        for xs in itertools.product(gens[:1], repeat=arity):
            if inf.n_relation_residual(rel, list(xs)):
                bad += 1
            n_evals += 1
        for _ in range(max(10, random_tuples // 4)):
            xs = _random_primitive_tuple(rng, prims, arity)
            if inf.n_relation_residual(rel, xs):
                bad += 1
            n_evals += 1
    checks.append(Check("relations-R2-R3-reconstructed", bad == 0,
                        f"index-repaired general forms; {n_evals} evaluations"))

    bad = 0
    n_evals = 0
    for name in ("lemma_i", "lemma_ii"):
        for xs in itertools.product(gens, repeat=3):
            if inf.n_aux_residual(name, list(xs)):
                bad += 1
            n_evals += 1
        for _ in range(random_tuples):
            if inf.n_aux_residual(name, _random_primitive_tuple(rng, prims, 3)):
                bad += 1
            n_evals += 1
    for name in ("ind_i", "ind_ii"):
        for arity in range(2, 6):
            for xs in itertools.product(gens, repeat=arity):
                if inf.n_aux_residual(name, list(xs)):
                    bad += 1
                n_evals += 1
            for _ in range(random_tuples // 2):
                if inf.n_aux_residual(name, _random_primitive_tuple(rng, prims, arity)):
                    bad += 1
                n_evals += 1
    checks.append(Check("auxiliary-identities", bad == 0,
                        f"lemma and induction identities; {n_evals} evaluations"))

    bad = []
    for d, colors in ((1, ["a"]), (2, ["a", "b"])):
        for n in range(1, max_n + 1):
            got = rank(inf.primitive_basis(n, colors))
            want = d**n * catalan(n - 1)
            if got != want:
                bad.append((d, n, got, want))
    checks.append(Check("primitive-basis-ranks", not bad,
                        f"rank = d^n c_(n-1) for n <= {max_n}, d in {{1,2}}" + (f"; failures {bad}" if bad else "")))

    ok = True
    for d in (1, 2, 3):
        rows = inf.dimension_report(10, d)
        ok = ok and all(r.prim_ok and r.cofree_ok for r in rows)
    free_dims = inf._free_prim_dims(12)
    ok = ok and all(free_dims[n] == catalan(n - 1) for n in range(1, 13))
    checks.append(Check("dimension-report", ok,
                        "composition recursion and cofree sum match Catalan data, n <= 10, d <= 3"))
    return checks


# --------------------------------------------------------------------------
# matching: words, quotient, tensor square, semi-homomorphisms


def suite_matching(max_degree: int = 7, seed: int = DEFAULT_SEED):
    checks = []
    rng = random.Random(seed)
    words = {
        n: mat.enumerate_words(n, ["a", "b"])
        for n in range(1, max(5, max_degree - 1))
    }

    bad = 0
    n_triples = 0
    for da in range(1, max_degree - 1):
        for db in range(1, max_degree - 1):
            for dc in range(1, max_degree - 1):
                if da + db + dc > max_degree:
                    continue
                for u, v, w in itertools.product(words[da], words[db], words[dc]):
                    if mat.m_circ(mat.m_dot(u, v), w) != mat.m_dot(u, mat.m_circ(v, w)):
                        bad += 1
                    if mat.m_dot(mat.m_circ(u, v), w) != mat.m_circ(u, mat.m_dot(v, w)):
                        bad += 1
                    if mat.m_dot(mat.m_dot(u, v), w) != mat.m_dot(u, mat.m_dot(v, w)):
                        bad += 1
                    if mat.m_circ(mat.m_circ(u, v), w) != mat.m_circ(u, mat.m_circ(v, w)):
                        bad += 1
                    n_triples += 1
    checks.append(Check("word-matching-laws-exhaustive", bad == 0,
                        f"{n_triples} word triples (d=2), total degree <= {max_degree}, laws hold on the nose"))

    bad = 0
    for _ in range(60):
        xs = []
        for _ in range(3):
            deg = rng.randint(1, 4)
            x = LinComb.term(rng.choice(words[deg])) * rng.randint(1, 3)
            if rng.random() < 0.5:
                x = x + LinComb.term(rng.choice(words[rng.randint(1, 4)])) * rng.randint(-2, 2)
            xs.append(x)
        x, y, z = xs
        if mat.word_star(mat.word_star(x, y), z) != mat.word_star(x, mat.word_star(y, z)):
            bad += 1
        left = linear_map(
            lambda k: tensor(LinComb.term(k.legs[0]), mat.word_star(LinComb.term(k.legs[1]), y)),
            mat.word_coproduct(x),
        )
        right = linear_map(
            lambda k: tensor(mat.word_star(x, LinComb.term(k.legs[0])), LinComb.term(k.legs[1])),
            mat.word_coproduct(y),
        )
        if mat.word_coproduct(mat.word_star(x, y)) - left - right:
            bad += 1
    checks.append(Check("word-star-joni-rota", bad == 0,
                        "∗ = ∘ − · associative with no x⊗y coproduct term; 60 random triples"))

    trees2 = _tree_pool(5, ["a", "b"])
    bad = 0
    n_pairs = 0
    for da in range(1, 6):
        for db in range(1, 6):
            if da + db > 6:
                continue
            for t in trees2[da][: 16]:
                for w in trees2[db][: 16]:
                    x, y = LinComb.term(t), LinComb.term(w)
                    if mat.normalize_lin(dot(x, y)) != mat.word_dot(
                        mat.normalize_lin(x), mat.normalize_lin(y)
                    ):
                        bad += 1
                    if mat.normalize_lin(circle(x, y)) != mat.word_circ(
                        mat.normalize_lin(x), mat.normalize_lin(y)
                    ):
                        bad += 1
                    n_pairs += 1
    checks.append(Check("quotient-homomorphism", bad == 0,
                        f"normalize intertwines both products; {n_pairs} pairs"))

    bad = 0
    n_trees = 0
    for n in range(1, 7):
        for t in enumerate_trees(n, ["a", "b"] if n <= 3 else ["a"]):
            lhs = mat.word_coproduct(LinComb.term(mat.normalize(t)))
            rhs = inf.coproduct(LinComb.term(t)).map_keys(
                lambda key: Tensor(mat.normalize(key.legs[0]), mat.normalize(key.legs[1]))
            )
            if lhs != rhs:
                bad += 1
            n_trees += 1
    checks.append(Check("coproduct-commuting-square", bad == 0,
                        f"word coproduct of the image = image of the tree coproduct; {n_trees} trees to degree 6"))

    counts = [len(mat.compositions(n)) for n in range(1, 13)]
    ok = counts == [2 ** (n - 1) for n in range(1, 13)]
    checks.append(Check("composition-count", ok,
                        "enumerated 2^(n-1) for n <= 12; NOTE: differs from the stated 2^n"))

    hom_bad = 0
    for u, v in itertools.product(words[1] + words[2] + words[3], repeat=2):
        cu, cv = mat.word_shape(u), mat.word_shape(v)
        if mat.word_shape(mat.m_dot(u, v)) != mat.comp_dot(cu, cv):
            hom_bad += 1
        if mat.word_shape(mat.m_circ(u, v)) != mat.comp_circ(cu, cv):
            hom_bad += 1
    checks.append(Check("composition-homomorphism", hom_bad == 0,
                        "block shapes intertwine word and composition products"))

    bad = 0
    for _ in range(40):
        ts = []
        for _ in range(3):
            w1 = rng.choice(words[rng.randint(1, 3)])
            w2 = rng.choice(words[rng.randint(1, 3)])
            t = LinComb.term(Tensor(w1, w2))
            if rng.random() < 0.5:
                t = t + LinComb.term(
                    Tensor(rng.choice(words[rng.randint(1, 3)]), rng.choice(words[rng.randint(1, 3)]))
                ) * rng.randint(-2, 2)
            ts.append(t)
        x, y, z = ts
        lhs = mat.tensor_square_star(
            mat.tensor_square_star(x, y, mat.word_key_dot, mat.word_key_circ),
            z, mat.word_key_dot, mat.word_key_circ)
        rhs = mat.tensor_square_star(
            x, mat.tensor_square_star(y, z, mat.word_key_dot, mat.word_key_circ),
            mat.word_key_dot, mat.word_key_circ)
        if lhs != rhs:
            bad += 1
    checks.append(Check("tensor-square-star-associative", bad == 0,
                        "40 random triples in the word dialgebra tensor square"))

    left_zero = lambda p, q: LinComb.term(p)
    right_zero = lambda p, q: LinComb.term(q)
    x = LinComb.term(Tensor("u", "u"))
    z = LinComb.term(Tensor("v", "v"))
    lhs = mat.tensor_square_star(
        mat.tensor_square_star(x, x, left_zero, right_zero), z, left_zero, right_zero)
    rhs = mat.tensor_square_star(
        x, mat.tensor_square_star(x, z, left_zero, right_zero), left_zero, right_zero)
    residual = lhs - rhs
    checks.append(Check("tensor-square-negative-control", bool(residual),
                        f"non-compatible pair reports nonzero associativity residual: {residual}"))

    checks.extend(_semihom_checks(rng))
    return checks


def _semihom_checks(rng) -> list[Check]:
    checks = []
    m = 8
    A = mat.truncated_polynomial_algebra(m)

    bad = sum(
        0 if A.mat_is_zero(A.coderivation_residual(A.basis(n))) else 1
        for n in range(m - 1)
    )
    checks.append(Check("polynomial-coderivation", bad == 0,
                        f"Δ(R(Xⁿ)) matches for n <= {m - 2} (truncation-safe inputs)"))

    bad = 0
    n_pairs = 0
    for i in range(m):
        for j in range(m):
            if i + j + 1 >= m:
                continue
            if not A.mat_is_zero(A.bimatching_residual(A.basis(i), A.basis(j))):
                bad += 1
            if not A.mat_is_zero(A.mult_residual(A.basis(i), A.basis(j))):
                bad += 1
            n_pairs += 1
    checks.append(Check("polynomial-bimatching", bad == 0,
                        f"Δ(x∘y) = Δ(x)∗Δ(y) and Δ(x·y) = Δ(x)·Δ(y) on {n_pairs} truncation-safe basis pairs"))

    bad = 0
    for _ in range(30):
        x = tuple(rng.randint(-2, 2) for _ in range(m))
        y = tuple(rng.randint(-2, 2) for _ in range(m))
        z = tuple(rng.randint(-2, 2) for _ in range(m))
        if A.circ(A.dot(x, y), z) != A.dot(x, A.circ(y, z)):
            bad += 1
        if A.dot(A.circ(x, y), z) != A.circ(x, A.dot(y, z)):
            bad += 1
        if A.circ(A.circ(x, y), z) != A.circ(x, A.circ(y, z)):
            bad += 1
    checks.append(Check("polynomial-matching-laws", bad == 0,
                        "the induced pair is a matching dialgebra; 30 random triples"))

    # R(x) = a·x on a tiny group algebra (basis 1, g with g² = 1)
    dot_table = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    B = mat.left_multiplication_semihom(dot_table, [1, 1])
    bad = 0
    for _ in range(20):
        x = tuple(rng.randint(-2, 2) for _ in range(2))
        y = tuple(rng.randint(-2, 2) for _ in range(2))
        a = B.r(B.basis(0))
        if B.circ(x, y) != B.dot(x, B.dot(a, y)):
            bad += 1
    checks.append(Check("left-multiplication-semihom", bad == 0,
                        "R(x) = a·x induces x∘y = x·a·y"))
    return checks


# --------------------------------------------------------------------------
# path algebra


def suite_path(points=("a", "b", "x"), max_interior: int = 4, seed: int = DEFAULT_SEED):
    checks = []
    rng = random.Random(seed)
    S = tuple(points)
    e = pth.path_unit(S)

    basis_small = pth.enumerate_paths(S, 2)
    basis_full = pth.enumerate_paths(S, max_interior)

    bad = 0
    for p in basis_full:
        x = LinComb.term(p)
        if pth.path_mul(e, x) != x or pth.path_mul(x, e) != x:
            bad += 1
    checks.append(Check("path-unit", bad == 0,
                        f"e = Σ p[i,i] is a two-sided unit on {len(basis_full)} basis paths"))

    # chained triples keep the sweep meaningful: unmatched endpoints give 0 = 0
    interiors = [()]
    for k in range(1, 3):
        interiors.extend(itertools.product(S, repeat=k))
    assoc_bad = match_bad = 0
    n_triples = 0
    for a, b, c, d in itertools.product(S, repeat=4):
        for i1, i2, i3 in itertools.product(interiors, repeat=3):
            p = LinComb.term(pth.Path((a,) + i1 + (b,)))
            q = LinComb.term(pth.Path((b,) + i2 + (c,)))
            r = LinComb.term(pth.Path((c,) + i3 + (d,)))
            if pth.path_mul(pth.path_mul(p, q), r) != pth.path_mul(p, pth.path_mul(q, r)):
                assoc_bad += 1
            if pth.path_circ(pth.path_circ(p, q), r) != pth.path_circ(p, pth.path_circ(q, r)):
                assoc_bad += 1
            if pth.path_circ(pth.path_mul(p, q), r) != pth.path_mul(p, pth.path_circ(q, r)):
                match_bad += 1
            if pth.path_mul(pth.path_circ(p, q), r) != pth.path_circ(p, pth.path_mul(q, r)):
                match_bad += 1
            n_triples += 1
    checks.append(Check("path-associativity-exhaustive", assoc_bad == 0,
                        f"both products on {n_triples} chained basis triples, interior <= 2"))
    checks.append(Check("path-matching-laws-exhaustive", match_bad == 0,
                        f"both matching laws on {n_triples} chained basis triples, interior <= 2"))

    bad = 0
    for _ in range(120):
        xs = []
        for _ in range(3):
            x = LinComb.term(rng.choice(basis_full)) * rng.randint(1, 3)
            if rng.random() < 0.6:
                x = x + LinComb.term(rng.choice(basis_full)) * rng.randint(-2, 2)
            xs.append(x)
        x, y, z = xs
        if pth.path_mul(pth.path_mul(x, y), z) != pth.path_mul(x, pth.path_mul(y, z)):
            bad += 1
        if pth.path_circ(pth.path_circ(x, y), z) != pth.path_circ(x, pth.path_circ(y, z)):
            bad += 1
        if pth.path_circ(pth.path_mul(x, y), z) != pth.path_mul(x, pth.path_circ(y, z)):
            bad += 1
        if pth.path_mul(pth.path_circ(x, y), z) != pth.path_circ(x, pth.path_mul(y, z)):
            bad += 1
    checks.append(Check("path-laws-random-lincombs", bad == 0,
                        f"120 random linear-combination triples, interior <= {max_interior}"))

    bad = 0
    for p, q in itertools.product(basis_small, repeat=2):
        x, y = LinComb.term(p), LinComb.term(q)
        if pth.path_R(pth.path_mul(x, y)) != pth.path_mul(pth.path_R(x), y):
            bad += 1
        if pth.path_circ(x, y) != pth.path_mul(x, pth.path_R(y)):
            bad += 1
    checks.append(Check("path-R-semihom", bad == 0,
                        f"R(x·y) = R(x)·y and x∘y = x·R(y) on {len(basis_small) ** 2} basis pairs"))

    bad = 0
    for a in S:
        for b in S:
            p = LinComb.term(pth.Path((a, b)))
            if pth.path_coproduct(p) != tensor(p, p):
                bad += 1
    checks.append(Check("path-grouplike", bad == 0, "Δ(p[a,b]) = p[a,b] ⊗ p[a,b]"))

    coassoc_bad = coder_bad = 0
    for p in basis_full:
        x = LinComb.term(p)
        if pth.path_coassociativity_residual(x):
            coassoc_bad += 1
        if pth.path_coderivation_residual(x):
            coder_bad += 1
    checks.append(Check("path-coassociativity", coassoc_bad == 0,
                        f"exhaustive on {len(basis_full)} paths, interior <= {max_interior}"))
    checks.append(Check("path-coderivation", coder_bad == 0,
                        f"Δ∘R = (R⊗id + id⊗R)∘Δ exhaustively on {len(basis_full)} paths"))

    dot_resid_bad = 0
    for p, q in itertools.product(basis_small, repeat=2):
        if pth.path_mult_residual(LinComb.term(p), LinComb.term(q), "dot"):
            dot_resid_bad += 1
    checks.append(Check("path-mult-diagnostic-dot", True,
                        f"Δ(x·y) − Δ(x)·Δ(y): zero on all {len(basis_small) ** 2} swept pairs"
                        if dot_resid_bad == 0 else
                        f"Δ(x·y) − Δ(x)·Δ(y): nonzero on {dot_resid_bad} pairs"))

    x = LinComb.term(pth.Path(("a", "x")))
    y = LinComb.term(pth.Path(("x", "b")))
    got = pth.path_mult_residual(x, y, "circ")
    expected = LinComb(
        [
            (Tensor(pth.Path(("a", "b")), pth.Path(("a", "x", "b"))), 1),
            (Tensor(pth.Path(("a", "x", "b")), pth.Path(("a", "b"))), 1),
            (Tensor(pth.Path(("a", "x", "b")), pth.Path(("a", "x", "b"))), -1),
        ]
    )
    checks.append(Check("path-mult-diagnostic-circ", got == expected,
                        "componentwise ∘-multiplicativity fails on p[a,x], p[x,b] with the derived residual"))

    bi_bad = 0
    n_pairs = 0
    for p, q in itertools.product(basis_small, repeat=2):
        if pth.path_bimatching_residual(LinComb.term(p), LinComb.term(q)):
            bi_bad += 1
        n_pairs += 1
    if not pth.path_bimatching_residual(e, e):
        n_pairs += 1
    checks.append(Check("path-bimatching-diagnostic", True,
                        f"Δ(x∘y) − Δ(x)∗Δ(y): zero on all {n_pairs} swept pairs (incl. e,e)"
                        if bi_bad == 0 else
                        f"Δ(x∘y) − Δ(x)∗Δ(y): nonzero on {bi_bad} pairs"))
    return checks


# --------------------------------------------------------------------------

SUITES = {
    "axioms": suite_axioms,
    "coalgebra": suite_coalgebra,
    "nalgebra": suite_nalgebra,
    "matching": suite_matching,
    "path": suite_path,
}


def run_suites(names, max_degree: int | None = None, seed: int = DEFAULT_SEED) -> list[Check]:
    """Run the named suites; ``max_degree`` rescales the exhaustive bounds."""
    checks = []
    for name in names:
        fn = SUITES[name]
        kwargs = {"seed": seed}
        if max_degree is not None:
            if name in ("axioms", "coalgebra", "matching"):
                kwargs["max_degree"] = max_degree
            elif name == "nalgebra":
                kwargs["max_n"] = min(max_degree, 6)
        checks.extend(fn(**kwargs))
    return checks
