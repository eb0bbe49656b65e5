"""Machine verification sweeps over the algebraic laws.

Each suite runs a battery of exhaustive and seeded-random checks and returns
one ``Check`` per claim.  Everything is exact arithmetic, so "pass" always
means the residual was literally zero (or, for the diagnostics and the
negative control, that the reported value matched the derivation).  Most
checks are one ``_sweep`` of laws, written once in ``linear``, over lazily
generated inputs.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .linear import (
    LinComb,
    Tensor,
    associativity_fails,
    compatibility_fails,
    homomorphism_fails,
    infinitesimal_law,
    matching_fails,
    rank,
    tensor,
)
from .trees import Tree, catalan, enumerate_trees
from .algebra import circle, dot, evaluate, lie_bracket, star
from . import infinitesimal as inf
from . import matching as mat
from . import paths as pth

DEFAULT_SEED = 7


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _sweep(inputs, *laws) -> tuple[int, list[int]]:
    """Apply every law to every argument tuple of ``inputs``.

    A law returns something true when it fails: a nonzero residual or a
    failing predicate.  Returns the number of inputs and each law's failure
    count.  ``inputs`` is consumed lazily, so a generator that draws from an
    rng draws in the same order as a loop evaluating each input in turn.
    """
    n = 0
    failures = [0] * len(laws)
    for args in inputs:
        n += 1
        for i, law in enumerate(laws):
            if law(*args):
                failures[i] += 1
    return n, failures


def _tree_pool(max_degree: int, colors) -> dict[int, list[Tree]]:
    return {n: enumerate_trees(n, colors) for n in range(1, max_degree + 1)}


def _random_tree(rng, pool, degree):
    return LinComb.term(rng.choice(pool[degree]))


def _random_degrees(rng, k, total):
    while True:
        ds = [rng.randint(1, total - k + 1) for _ in range(k)]
        if sum(ds) <= total:
            return ds


def _random_trees(rng, pool, k, total) -> list[LinComb]:
    """k random basis trees whose degrees sum to at most ``total``."""
    return [_random_tree(rng, pool, d) for d in _random_degrees(rng, k, total)]


def _terms(*keys) -> tuple[LinComb, ...]:
    return tuple(LinComb.term(k) for k in keys)


def _graded(pool, k, total):
    """Every k-tuple of keys from ``pool`` (degree -> keys) whose degrees sum
    to at most ``total``, lazily, with the degree tuples in lexicographic
    order."""
    for ds in itertools.product(sorted(pool), repeat=k):
        if sum(ds) <= total:
            yield from itertools.product(*(pool[d] for d in ds))


def _random_element(rng, draw, p):
    """c·k, plus c′·k′ with probability ``p``: keys from ``draw(rng)``,
    c in 1..3 and c′ in -2..2."""
    x = LinComb.term(draw(rng)) * rng.randint(1, 3)
    if rng.random() < p:
        x = x + LinComb.term(draw(rng)) * rng.randint(-2, 2)
    return x


def _dialgebra_laws(dot, circ):
    """Both associativities and the matching laws of a pair of products."""
    return (
        partial(associativity_fails, dot),
        partial(associativity_fails, circ),
        partial(matching_fails, dot, circ),
    )


# --------------------------------------------------------------------------
# axioms: the two products


def suite_axioms(max_degree: int = 6, seed: int = DEFAULT_SEED):
    checks = []
    rng = random.Random(seed)

    counts_ok = all(
        len(enumerate_trees(n, ["a"])) == catalan(n) for n in range(1, 9)
    ) and len(enumerate_trees(2, ["a", "b"])) == 4 * 2
    checks.append(Check("catalan-basis-counts", counts_ok, "degrees 1..8, d in {1,2}"))

    circle_assoc = partial(associativity_fails, circle)
    compat = partial(compatibility_fails, dot, circle)
    pool1 = _tree_pool(max(1, max_degree - 2), ["a"])
    triples = (_terms(*xyz) for xyz in _graded(pool1, 3, max_degree))
    n_triples, (assoc_bad, compat_bad) = _sweep(triples, circle_assoc, compat)
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
    triples = (_random_trees(rng, pool2, 3, max_degree + 1) for _ in range(500))
    _, (assoc_bad, compat_bad) = _sweep(triples, circle_assoc, compat)
    checks.append(
        Check("circle-associativity-random", assoc_bad == 0,
              f"500 colored triples (d=2), total degree <= {max_degree + 1}")
    )
    checks.append(
        Check("compatibility-random", compat_bad == 0,
              f"500 colored triples (d=2), total degree <= {max_degree + 1}")
    )

    weight_pairs = [
        (rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for _ in range(5)
    ]
    inputs = (
        (partial(star, alpha=alpha, beta=beta), *_random_trees(rng, pool2, 3, 5))
        for alpha, beta in weight_pairs
        for _ in range(20)
    )
    _, (bad,) = _sweep(inputs, associativity_fails)
    checks.append(Check("star-associativity-random-weights", bad == 0,
                        "5 rational weight pairs x 20 triples"))

    pairs = _graded({d: pool2[d][:12] for d in range(1, 5)}, 2, 6)
    _, (bad,) = _sweep(pairs, lambda t, w: any(
        key.degree != t.degree + w.degree or c.denominator != 1
        for key, c in circle(*_terms(t, w)).items()
    ))
    checks.append(Check("circle-degree-and-integrality", bad == 0,
                        "degree additive, integer coefficients"))

    inputs = (
        (mul, *xyz)
        for xyz in (_random_trees(rng, pool2, 3, 5) for _ in range(60))
        for mul in (dot, circle, star)
    )

    def jacobi(mul, x, y, z):
        br = partial(lie_bracket, mul)
        return br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)

    _, bad = _sweep(inputs, lambda mul, x, y, z: lie_bracket(mul, x, x), jacobi)
    checks.append(Check("lie-brackets", sum(bad) == 0,
                        "antisymmetry + Jacobi, 60 triples x 3 brackets"))

    target = mat.truncated_polynomial_algebra(6)  # x∘y = x·X·y
    assign = {"a": [0, 1, 0, 0, 0, 0], "b": [1, 0, 1, 0, 0, 0]}
    ev = partial(evaluate, target, assign)
    pairs = (_random_trees(rng, pool2, 2, 5) for _ in range(60))
    _, bad = _sweep(
        pairs,
        partial(homomorphism_fails, ev, dot, target.dot),
        partial(homomorphism_fails, ev, circle, target.circ),
    )
    checks.append(Check("evaluate-homomorphism", sum(bad) == 0,
                        "both products, 60 pairs into a validated target"))
    return checks


# --------------------------------------------------------------------------
# coalgebra: coproduct, infinitesimal laws, projector


def suite_coalgebra(max_degree: int = 7, seed: int = DEFAULT_SEED):
    checks = []
    rng = random.Random(seed)
    pool1 = _tree_pool(max_degree, ["a"])
    pool2 = _tree_pool(5, ["a", "b"])  # random sweeps draw degrees up to 5

    n_trees, (coassoc_bad, closed_bad) = _sweep(
        _graded(pool1, 1, max_degree),
        lambda t: inf.coassociativity_residual(LinComb.term(t)),
        lambda t: inf.coproduct_closed(t) != inf.coproduct(LinComb.term(t)),
    )
    elements = (
        (_random_tree(rng, pool2, rng.randint(1, 5))
         + _random_tree(rng, pool2, rng.randint(1, 5)) * rng.randint(-3, 3),)
        for _ in range(40)
    )
    _, (random_bad,) = _sweep(elements, inf.coassociativity_residual)
    checks.append(Check("coassociativity", coassoc_bad + random_bad == 0,
                        f"{n_trees} one-color trees to degree {max_degree} + 40 random colored elements"))
    checks.append(Check("closed-vs-recursive-coproduct", closed_bad == 0,
                        f"{n_trees} one-color trees to degree {max_degree}"))

    pairs = (_terms(t, w) for t, w in _graded(pool1, 2, max_degree - 1))
    n_pairs, (dot_bad, circ_bad) = _sweep(
        pairs,
        partial(inf.infinitesimal_residual, "dot"),
        partial(inf.infinitesimal_residual, "circle"),
    )
    checks.append(Check("infinitesimal-dot", dot_bad == 0,
                        f"{n_pairs} basis pairs, total degree <= {max_degree - 1}"))
    checks.append(Check("infinitesimal-circle", circ_bad == 0,
                        f"{n_pairs} basis pairs, total degree <= {max_degree - 1}"))

    pairs = (_random_trees(rng, pool2, 2, 6) for _ in range(40))
    _, (bad,) = _sweep(pairs, partial(inf.infinitesimal_residual, ("star", -1, 1)))
    checks.append(Check("joni-rota-star", bad == 0,
                        "star(-1,1) has no x⊗y term; 40 random pairs"))

    triples = (_random_trees(rng, pool2, 3, 6) for _ in range(30))
    _, (bad,) = _sweep(triples, lambda x, y, z: inf.coproduct(
        circle(dot(x, y), z) + dot(circle(x, y), z)
        - dot(x, circle(y, z)) - circle(x, dot(y, z))
    ))
    checks.append(Check("coproduct-well-defined-combination", bad == 0,
                        "Δ of the compatibility combination vanishes; 30 triples"))

    def projector_fails(x):
        ex = inf.primitive_projector(x)
        return inf.primitive_projector(ex) != ex or inf.coproduct(ex)

    elements = (_terms(*t) for t in _graded(pool1, 1, min(max_degree, 6)))
    _, (e_bad, series_bad) = _sweep(
        elements,
        projector_fails,
        lambda x: inf.primitive_projector_series(x) != inf.primitive_projector(x),
    )
    products = ((dot(*_random_trees(rng, pool2, 2, 5)),) for _ in range(30))
    _, (kill_bad,) = _sweep(products, inf.primitive_projector)
    checks.append(Check("projector-idempotent-primitive", e_bad + kill_bad == 0,
                        "e∘e = e, Δ∘e = 0, e kills dot products"))
    checks.append(Check("projector-series-crosscheck", series_bad == 0,
                        "recursion equals the alternating-sign series"))

    prims = {
        n: inf.primitive_basis(n, ["a", "b"]) for n in (1, 2)
    }
    inputs = (
        (arity, _random_primitive_tuple(rng, prims, arity)) for arity in range(2, 6) for _ in range(10)
    )
    _, (bad,) = _sweep(inputs, lambda arity, ps: inf.coproduct(inf.n_op(arity, ps)))
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


def _relation_inputs(rng, prims, specs, gens, n_random):
    """(name, arguments) for each ``(name, arity)`` spec: every tuple of
    ``gens``, then ``n_random`` random tuples of primitives."""
    for name, arity in specs:
        for xs in itertools.product(gens, repeat=arity):
            yield name, list(xs)
        for _ in range(n_random):
            yield name, _random_primitive_tuple(rng, prims, arity)


def suite_nalgebra(max_degree: int = 6, seed: int = DEFAULT_SEED):
    checks = []
    max_n = min(max_degree, 6)
    rng = random.Random(seed)
    gens = [LinComb.term(t) for t in enumerate_trees(1, ["a", "b"])]
    prims = {n: inf.primitive_basis(n, ["a", "b"]) for n in (1, 2)}

    relations = [("R1", n) for n in range(2, max_n + 1)] + ["low2", "low3", "low4"]
    specs = [(rel, inf.n_relation_arity(rel)) for rel in relations]
    inputs = _relation_inputs(rng, prims, specs, gens, 100)
    n_evals, (bad,) = _sweep(inputs, inf.n_relation_residual)
    checks.append(Check("relations-R1-and-low-degree", bad == 0,
                        f"R1(2..{max_n}) + low2..low4; {n_evals} evaluations"))

    relations = [("R2", 3), ("R2", 4), ("R2", 5), ("R3", 3, 3), ("R3", 3, 4), ("R3", 4, 3), ("R3", 4, 4)]
    specs = [(rel, inf.n_relation_arity(rel)) for rel in relations]
    inputs = _relation_inputs(rng, prims, specs, gens[:1], 25)
    n_evals, (bad,) = _sweep(inputs, inf.n_relation_residual)
    checks.append(Check("relations-R2-R3-reconstructed", bad == 0,
                        f"index-repaired general forms; {n_evals} evaluations"))

    lemmas = [(name, 3) for name in ("lemma_i", "lemma_ii")]
    inductions = [(name, arity) for name in ("ind_i", "ind_ii") for arity in range(2, 6)]
    inputs = itertools.chain(
        _relation_inputs(rng, prims, lemmas, gens, 100),
        _relation_inputs(rng, prims, inductions, gens, 50),
    )
    n_evals, (bad,) = _sweep(inputs, inf.n_aux_residual)
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

    n_triples, bad = _sweep(
        _graded(words, 3, max_degree), *_dialgebra_laws(mat.m_dot, mat.m_circ)
    )
    checks.append(Check("word-matching-laws-exhaustive", sum(bad) == 0,
                        f"{n_triples} word triples (d=2), total degree <= {max_degree}, laws hold on the nose"))

    word = lambda rng: rng.choice(words[rng.randint(1, 4)])
    triples = ([_random_element(rng, word, 0.5) for _ in range(3)] for _ in range(60))
    _, bad = _sweep(
        triples,
        partial(associativity_fails, mat.word_star),
        lambda x, y, z: infinitesimal_law(mat._coproduct_word, mat.word_star, 0, x, y),
    )
    checks.append(Check("word-star-joni-rota", sum(bad) == 0,
                        "∗ = ∘ − · associative with no x⊗y coproduct term; 60 random triples"))

    trees2 = {d: ts[:16] for d, ts in _tree_pool(5, ["a", "b"]).items()}
    pairs = (_terms(t, w) for t, w in _graded(trees2, 2, 6))
    n_pairs, bad = _sweep(
        pairs,
        partial(homomorphism_fails, mat.normalize_lin, dot, mat.word_dot),
        partial(homomorphism_fails, mat.normalize_lin, circle, mat.word_circ),
    )
    checks.append(Check("quotient-homomorphism", sum(bad) == 0,
                        f"normalize intertwines both products; {n_pairs} pairs"))

    def normalized(key: Tensor) -> Tensor:
        return Tensor(mat.normalize(key.legs[0]), mat.normalize(key.legs[1]))

    trees = (
        (t,) for n in range(1, 7) for t in enumerate_trees(n, ["a", "b"] if n <= 3 else ["a"])
    )
    n_trees, (bad,) = _sweep(trees, lambda t: (
        mat.word_coproduct(LinComb.term(mat.normalize(t)))
        != inf.coproduct(LinComb.term(t)).map_keys(normalized)
    ))
    checks.append(Check("coproduct-commuting-square", bad == 0,
                        f"word coproduct of the image = image of the tree coproduct; {n_trees} trees to degree 6"))

    counts = [len(mat.compositions(n)) for n in range(1, 13)]
    ok = counts == [2 ** (n - 1) for n in range(1, 13)]
    checks.append(Check("composition-count", ok,
                        "enumerated 2^(n-1) for n <= 12; NOTE: differs from the stated 2^n"))

    pairs = itertools.product(words[1] + words[2] + words[3], repeat=2)
    _, bad = _sweep(
        pairs,
        partial(homomorphism_fails, mat.word_shape, mat.m_dot, mat.comp_dot),
        partial(homomorphism_fails, mat.word_shape, mat.m_circ, mat.comp_circ),
    )
    checks.append(Check("composition-homomorphism", sum(bad) == 0,
                        "block shapes intertwine word and composition products"))

    word_pair = lambda rng: Tensor(*(rng.choice(words[rng.randint(1, 3)]) for _ in range(2)))
    word_square = partial(mat.tensor_square_star, dot_fn=mat.m_dot, circ_fn=mat.m_circ)
    triples = ([_random_element(rng, word_pair, 0.5) for _ in range(3)] for _ in range(40))
    _, (bad,) = _sweep(triples, partial(associativity_fails, word_square))
    checks.append(Check("tensor-square-star-associative", bad == 0,
                        "40 random triples in the word dialgebra tensor square"))

    left_zero = lambda p, q: p
    right_zero = lambda p, q: q
    square = partial(mat.tensor_square_star, dot_fn=left_zero, circ_fn=right_zero)
    x = LinComb.term(Tensor("u", "u"))
    z = LinComb.term(Tensor("v", "v"))
    residual = square(square(x, x), z) - square(x, square(x, z))
    checks.append(Check("tensor-square-negative-control", bool(residual),
                        f"non-compatible pair reports nonzero associativity residual: {residual}"))

    checks.extend(_semihom_checks(rng))
    return checks


def _semihom_checks(rng) -> list[Check]:
    checks = []
    m = 8
    A = mat.truncated_polynomial_algebra(m)

    _, (bad,) = _sweep(((A.basis(n),) for n in range(m - 1)), A.coderivation_residual)
    checks.append(Check("polynomial-coderivation", bad == 0,
                        f"Δ(R(Xⁿ)) matches for n <= {m - 2} (truncation-safe inputs)"))

    pairs = ((A.basis(i), A.basis(j)) for i in range(m) for j in range(m) if i + j + 1 < m)
    n_pairs, bad = _sweep(pairs, A.bimatching_residual, A.mult_residual)
    checks.append(Check("polynomial-bimatching", sum(bad) == 0,
                        f"Δ(x∘y) = Δ(x)∗Δ(y) and Δ(x·y) = Δ(x)·Δ(y) on {n_pairs} truncation-safe basis pairs"))

    triples = (
        [A.vector([rng.randint(-2, 2) for _ in range(m)]) for _ in range(3)] for _ in range(30)
    )
    _, bad = _sweep(triples, *_dialgebra_laws(A.dot, A.circ))
    checks.append(Check("polynomial-matching-laws", sum(bad) == 0,
                        "the induced pair is a matching dialgebra; 30 random triples"))

    # R(x) = a·x on a tiny group algebra (basis 1, g with g² = 1)
    dot_table = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    B = mat.left_multiplication_semihom(dot_table, [1, 1])
    a = B.r(B.basis(0))
    pairs = ([B.vector([rng.randint(-2, 2) for _ in range(2)]) for _ in range(2)] for _ in range(20))
    _, (bad,) = _sweep(pairs, lambda x, y: B.circ(x, y) != B.dot(x, B.dot(a, y)))
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
    mul, circ = pth.path_mul, pth.path_circ

    basis_small = pth.enumerate_paths(S, 2)
    basis_full = pth.enumerate_paths(S, max_interior)

    def small_pairs():
        return (_terms(p, q) for p, q in itertools.product(basis_small, repeat=2))

    _, (bad,) = _sweep(
        (_terms(p) for p in basis_full), lambda x: mul(e, x) != x or mul(x, e) != x
    )
    checks.append(Check("path-unit", bad == 0,
                        f"e = Σ p[i,i] is a two-sided unit on {len(basis_full)} basis paths"))

    # chained triples keep the sweep meaningful: unmatched endpoints give 0 = 0
    ends = defaultdict(list)
    for p in basis_small:
        ends[p.points[0], p.points[-1]].append(p)
    # on bare keys: a chained product is never None
    triples = (
        pqr
        for a, b, c, d in itertools.product(S, repeat=4)
        for pqr in itertools.product(ends[a, b], ends[b, c], ends[c, d])
    )
    n_triples, (mul_bad, circ_bad, match_bad) = _sweep(
        triples, *_dialgebra_laws(pth._mul_paths, pth._circ_paths)
    )
    checks.append(Check("path-associativity-exhaustive", mul_bad + circ_bad == 0,
                        f"both products on {n_triples} chained basis triples, interior <= 2"))
    checks.append(Check("path-matching-laws-exhaustive", match_bad == 0,
                        f"both matching laws on {n_triples} chained basis triples, interior <= 2"))

    path = lambda rng: rng.choice(basis_full)
    triples = ([_random_element(rng, path, 0.6) for _ in range(3)] for _ in range(120))
    _, bad = _sweep(triples, *_dialgebra_laws(mul, circ))
    checks.append(Check("path-laws-random-lincombs", sum(bad) == 0,
                        f"120 random linear-combination triples, interior <= {max_interior}"))

    _, bad = _sweep(
        small_pairs(),
        lambda x, y: pth.path_R(mul(x, y)) != mul(pth.path_R(x), y),
        lambda x, y: circ(x, y) != mul(x, pth.path_R(y)),
    )
    checks.append(Check("path-R-semihom", sum(bad) == 0,
                        f"R(x·y) = R(x)·y and x∘y = x·R(y) on {len(basis_small) ** 2} basis pairs"))

    edges = (_terms(pth.Path((a, b))) for a in S for b in S)
    _, (bad,) = _sweep(edges, lambda p: pth.path_coproduct(p) != tensor(p, p))
    checks.append(Check("path-grouplike", bad == 0, "Δ(p[a,b]) = p[a,b] ⊗ p[a,b]"))

    _, (coassoc_bad, coder_bad) = _sweep(
        (_terms(p) for p in basis_full),
        pth.path_coassociativity_residual,
        pth.path_coderivation_residual,
    )
    checks.append(Check("path-coassociativity", coassoc_bad == 0,
                        f"exhaustive on {len(basis_full)} paths, interior <= {max_interior}"))
    checks.append(Check("path-coderivation", coder_bad == 0,
                        f"Δ∘R = (R⊗id + id⊗R)∘Δ exhaustively on {len(basis_full)} paths"))

    _, (bad,) = _sweep(small_pairs(), lambda x, y: pth.path_mult_residual(x, y, "dot"))
    checks.append(Check("path-mult-diagnostic-dot", bad == 0,
                        f"Δ(x·y) − Δ(x)·Δ(y): zero on all {len(basis_small) ** 2} swept pairs"
                        if bad == 0 else
                        f"Δ(x·y) − Δ(x)·Δ(y): nonzero on {bad} pairs"))

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

    n_pairs, (bad,) = _sweep(
        itertools.chain(small_pairs(), [(e, e)]), pth.path_bimatching_residual
    )
    checks.append(Check("path-bimatching-diagnostic", bad == 0,
                        f"Δ(x∘y) − Δ(x)∗Δ(y): zero on all {n_pairs} swept pairs (incl. e,e)"
                        if bad == 0 else
                        f"Δ(x∘y) − Δ(x)∗Δ(y): nonzero on {bad} pairs"))
    return checks


# --------------------------------------------------------------------------

SUITES = {
    "axioms": suite_axioms,
    "coalgebra": suite_coalgebra,
    "nalgebra": suite_nalgebra,
    "matching": suite_matching,
    "path": suite_path,
}


# the suites whose exhaustive bounds ``max_degree`` rescales
_DEGREE_SUITES = {"axioms", "coalgebra", "matching", "nalgebra"}


def run_suites(names, max_degree: int | None = None, seed: int = DEFAULT_SEED) -> list[Check]:
    """Run the named suites; ``max_degree`` rescales the exhaustive bounds.

    Below 3 some exhaustive checks would run on no input at all and pass, so
    a smaller ``max_degree`` is refused before any suite runs; so is a
    ``max_degree`` that none of the named suites takes.
    """
    if max_degree is not None and max_degree < 3:
        raise ValueError(f"max degree must be at least 3, got {max_degree}")
    if max_degree is not None and _DEGREE_SUITES.isdisjoint(names):
        raise ValueError(f"max degree does not apply to suite {', '.join(names)}")
    checks = []
    for name in names:
        fn = SUITES[name]
        kwargs = {"seed": seed}
        if max_degree is not None and name in _DEGREE_SUITES:
            kwargs["max_degree"] = max_degree
        checks.extend(fn(**kwargs))
    return checks
