"""Machine verification sweeps over the algebraic laws.

Each suite runs a battery of exhaustive and seeded-random checks and returns
one ``Check`` per claim.  Everything is exact arithmetic, so "pass" always
means the residual was literally zero (or, for the diagnostics and the
negative control, that the reported value matched the derivation).  Every
check but three is one ``_check`` call: laws, written once in ``linear``,
over lazily generated inputs.  ``primitive-basis-ranks``,
``dimension-report`` and ``tensor-square-negative-control`` compare computed
values with derived ones and print them, so they are built by hand.  A
random sweep draws from its own stream, seeded by the seed and a check's
name alone, so no check's inputs depend on the checks before it.
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
    bimatching_law,
    coassociativity_law,
    coderivation_law,
    compatibility_law,
    homomorphism_fails,
    infinitesimal_law,
    matching_fails,
    multiplicativity_law,
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


def _stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")  # a str seed is hashed by SHA-512, not hash()


def _check(seed: int, name: str, detail, inputs, *laws) -> Check:
    """The check that every law holds on every argument tuple of ``inputs``,
    of which there is at least one: a sweep over no input shows nothing.

    A law returns something true when it fails: a nonzero residual or a
    failing predicate.  ``inputs`` is an iterable, consumed lazily, or a
    function of the check's stream ``_stream(seed, name)`` that returns one.
    ``detail`` is a string, or a function of the number of inputs and the
    number of failures.
    """
    if callable(inputs):
        inputs = inputs(_stream(seed, name))
    n = failures = 0
    for args in inputs:
        n += 1
        for law in laws:
            if law(*args):
                failures += 1
    if callable(detail):
        detail = detail(n, failures)
    return Check(name, n > 0 and failures == 0, detail)


def _tree_pool(max_degree: int, colors) -> dict[int, list[Tree]]:
    return {n: enumerate_trees(n, colors) for n in range(1, max_degree + 1)}


def _random_degrees(rng, k, total):
    while True:
        ds = [rng.randint(1, total - k + 1) for _ in range(k)]
        if sum(ds) <= total:
            return ds


def _random_trees(rng, pool, k, total) -> list[LinComb]:
    """k random basis trees whose degrees sum to at most ``total``."""
    return [LinComb.term(rng.choice(pool[d])) for d in _random_degrees(rng, k, total)]


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
    check = partial(_check, seed)

    counts = [(n, ["a"], catalan(n)) for n in range(1, 9)] + [(2, ["a", "b"], 4 * 2)]
    checks.append(check("catalan-basis-counts", "degrees 1..8, d in {1,2}", counts,
                        lambda n, colors, count: len(enumerate_trees(n, colors)) != count))

    circle_assoc = partial(associativity_fails, circle)
    compat = partial(compatibility_law, dot, circle)
    pool1 = _tree_pool(max(1, max_degree - 2), ["a"])

    def triples():
        return (_terms(*xyz) for xyz in _graded(pool1, 3, max_degree))

    detail = lambda n, bad: f"{n} one-color triples, total degree <= {max_degree}"
    checks.append(check("circle-associativity-exhaustive", detail, triples(), circle_assoc))
    checks.append(check("compatibility-exhaustive", detail, triples(), compat))

    # no random draw has a degree above max(4, max_degree - 1), whatever the
    # exhaustive bound is
    pool2 = _tree_pool(max(4, max_degree - 1), ["a", "b"])
    # drawn once, from the first check's stream: the second reads what the first cached
    rng = _stream(seed, "circle-associativity-random")
    random_triples = [_random_trees(rng, pool2, 3, max_degree + 1) for _ in range(500)]
    detail = f"500 colored triples (d=2), total degree <= {max_degree + 1}"
    checks.append(check("circle-associativity-random", detail, random_triples, circle_assoc))
    checks.append(check("compatibility-random", detail, random_triples, compat))

    def weighted_triples(rng):
        for _ in range(5):
            alpha, beta = rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(20):
                yield partial(star, alpha=alpha, beta=beta), *_random_trees(rng, pool2, 3, 5)

    checks.append(check("star-associativity-random-weights",
                        "5 rational weight pairs x 20 triples", weighted_triples, associativity_fails))

    pairs = _graded({d: pool2[d][:12] for d in range(1, 5)}, 2, 6)
    checks.append(check("circle-degree-and-integrality", "degree additive, integer coefficients",
                        pairs, lambda t, w: any(
                            key.degree != t.degree + w.degree or c.denominator != 1
                            for key, c in circle(*_terms(t, w)).items()
                        )))

    inputs = lambda rng: (
        (mul, *xyz)
        for xyz in (_random_trees(rng, pool2, 3, 5) for _ in range(60))
        for mul in (dot, circle, star)
    )

    def jacobi(mul, x, y, z):
        br = partial(lie_bracket, mul)
        return br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)

    checks.append(check("lie-brackets", "antisymmetry + Jacobi, 60 triples x 3 brackets", inputs,
                        lambda mul, x, y, z: lie_bracket(mul, x, x), jacobi))

    target = mat.truncated_polynomial_algebra(6)  # x∘y = x·X·y
    assign = {"a": [0, 1, 0, 0, 0, 0], "b": [1, 0, 1, 0, 0, 0]}
    ev = partial(evaluate, target, assign)
    pairs = lambda rng: (_random_trees(rng, pool2, 2, 5) for _ in range(60))
    checks.append(check("evaluate-homomorphism", "both products, 60 pairs into a validated target",
                        pairs, partial(homomorphism_fails, ev, dot, target.dot),
                        partial(homomorphism_fails, ev, circle, target.circ)))
    return checks


# --------------------------------------------------------------------------
# coalgebra: coproduct, infinitesimal laws, projector


def suite_coalgebra(max_degree: int = 7, seed: int = DEFAULT_SEED):
    checks = []
    check = partial(_check, seed)
    pool1 = _tree_pool(max_degree, ["a"])
    pool2 = _tree_pool(5, ["a", "b"])  # random sweeps draw degrees up to 5
    model = inf.tree_model()

    def trees(top):
        return (_terms(*t) for t in _graded(pool1, 1, top))

    tree = lambda rng: rng.choice(pool2[rng.randint(1, 5)])
    elements = lambda rng: itertools.chain(trees(max_degree), ((_random_element(rng, tree, 1),) for _ in range(40)))
    checks.append(check("coassociativity",
                        lambda n, bad: f"{n - 40} one-color trees to degree {max_degree} + 40 random colored elements",
                        elements, partial(coassociativity_law, model)))
    checks.append(check("closed-vs-recursive-coproduct",
                        lambda n, bad: f"{n} one-color trees to degree {max_degree}",
                        _graded(pool1, 1, max_degree),
                        lambda t: inf.coproduct_closed(t) != inf.coproduct(LinComb.term(t))))

    def pairs():
        return (_terms(t, w) for t, w in _graded(pool1, 2, max_degree - 1))

    detail = lambda n, bad: f"{n} basis pairs, total degree <= {max_degree - 1}"
    checks.append(check("infinitesimal-dot", detail, pairs(),
                        partial(infinitesimal_law, model, 1)))
    checks.append(check("infinitesimal-circle", detail, pairs(),
                        partial(infinitesimal_law, model._replace(dot=model.circ), 1)))

    random_pairs = lambda rng: (_random_trees(rng, pool2, 2, 6) for _ in range(40))
    checks.append(check("joni-rota-star", "star(-1,1) has no x⊗y term; 40 random pairs", random_pairs,
                        partial(infinitesimal_law, model._replace(dot=partial(star, alpha=-1, beta=1)), 0)))

    triples = lambda rng: (_random_trees(rng, pool2, 3, 6) for _ in range(30))
    checks.append(check("coproduct-well-defined-combination",
                        "Δ of the compatibility combination vanishes; 30 triples",
                        triples, lambda *xyz: inf.coproduct(compatibility_law(dot, circle, *xyz))))

    def projector_fails(x, is_dot_product):
        """e kills a dot product; on a tree, e∘e = e and Δ∘e = 0."""
        ex = inf.primitive_projector(x)
        if is_dot_product:
            return ex
        return inf.primitive_projector(ex) != ex or inf.coproduct(ex)

    elements = lambda rng: itertools.chain(
        ((x, False) for (x,) in trees(min(max_degree, 6))),
        ((dot(*_random_trees(rng, pool2, 2, 5)), True) for _ in range(30)),
    )
    checks.append(check("projector-idempotent-primitive", "e∘e = e, Δ∘e = 0, e kills dot products",
                        elements, projector_fails))
    checks.append(check("projector-series-crosscheck", "recursion equals the alternating-sign series",
                        trees(min(max_degree, 6)),
                        lambda x: inf.primitive_projector_series(x) != inf.primitive_projector(x)))

    prims = {n: inf.primitive_basis(n, ["a", "b"]) for n in (1, 2)}
    inputs = lambda rng: ((_random_primitive_tuple(rng, prims, arity),) for arity in range(2, 6) for _ in range(10))
    checks.append(check("primitives-closed-under-nops",
                        "Δ(N_n(p₁..pₙ)) = 0 for primitive arguments, n <= 5",
                        inputs, lambda ps: inf.coproduct(inf.n_op(ps))))
    return checks


# --------------------------------------------------------------------------
# nalgebra: relations, primitive basis, dimensions


def _random_primitive_tuple(rng, prims, arity):
    ps = []
    remaining = 8  # the most total degree a tuple draws
    for i in range(arity):
        slots_left = arity - i - 1
        can_take_two = remaining - 2 >= slots_left
        deg = 2 if (can_take_two and rng.random() < 0.3) else 1
        remaining -= deg
        ps.append(rng.choice(prims[deg]))
    return ps


def _relation_inputs(prims, specs, gens, n_random, rng):
    """(*key, arguments) for each ``(key, arity)`` spec: every tuple of
    ``gens``, then ``n_random`` random tuples of primitives from ``rng``."""
    for key, arity in specs:
        for xs in itertools.product(gens, repeat=arity):
            yield *key, list(xs)
        for _ in range(n_random):
            yield *key, _random_primitive_tuple(rng, prims, arity)


def suite_nalgebra(max_degree: int = 6, seed: int = DEFAULT_SEED):
    checks = []
    max_n = min(max_degree, 6)
    check = partial(_check, seed)
    gens = [LinComb.term(t) for t in enumerate_trees(1, ["a", "b"])]
    prims = {n: inf.primitive_basis(n, ["a", "b"]) for n in (1, 2)}

    shapes = [(n, 2) for n in range(2, max_n + 1)] + [(3, 2), (2, 3), (3, 3)]  # R1(n), low2..low4
    specs = [((n, r), n + r - 1) for n, r in shapes]
    inputs = partial(_relation_inputs, prims, specs, gens, 100)
    checks.append(check("relations-R1-and-low-degree",
                        lambda n, bad: f"R1(2..{max_n}) + low2..low4; {n} evaluations",
                        inputs, inf.n_relation_residual))

    shapes = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3), (4, 4)]  # R2(3..5), then R3
    specs = [((n, r), n + r - 1) for n, r in shapes]
    inputs = partial(_relation_inputs, prims, specs, gens[:1], 25)
    checks.append(check("relations-R2-R3-reconstructed",
                        lambda n, bad: f"index-repaired general forms; {n} evaluations",
                        inputs, inf.n_relation_residual))

    # ind_i and ind_ii on three arguments are the paper's lemmas
    lemmas = [((name,), 3) for name in ("ind_i", "ind_ii")]
    inductions = [((name,), arity) for name in ("ind_i", "ind_ii") for arity in range(2, 6)]
    inputs = lambda rng: itertools.chain(
        _relation_inputs(prims, lemmas, gens, 100, rng),
        _relation_inputs(prims, inductions, gens, 50, rng),
    )
    checks.append(check("auxiliary-identities",
                        lambda n, bad: f"lemma and induction identities; {n} evaluations",
                        inputs, inf.n_aux_residual))

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
    check = partial(_check, seed)
    model = mat.word_model()
    words = {
        n: mat.enumerate_words(n, ["a", "b"])
        for n in range(1, max(5, max_degree - 1))
    }

    checks.append(check("word-matching-laws-exhaustive",
                        lambda n, bad: f"{n} word triples (d=2), total degree <= {max_degree}, laws hold on the nose",
                        _graded(words, 3, max_degree), *_dialgebra_laws(mat.m_dot, mat.m_circ)))

    word = lambda rng: rng.choice(words[rng.randint(1, 4)])
    triples = lambda rng: ([_random_element(rng, word, 0.5) for _ in range(3)] for _ in range(60))
    checks.append(check("word-star-joni-rota",
                        "∗ = ∘ − · associative with no x⊗y coproduct term; 60 random triples",
                        triples, partial(associativity_fails, mat.word_star),
                        lambda x, y, z: infinitesimal_law(model._replace(dot=mat.word_star), 0, x, y)))

    trees2 = {d: ts[:16] for d, ts in _tree_pool(5, ["a", "b"]).items()}
    pairs = (_terms(t, w) for t, w in _graded(trees2, 2, 6))
    checks.append(check("quotient-homomorphism",
                        lambda n, bad: f"normalize intertwines both products; {n} pairs", pairs,
                        partial(homomorphism_fails, mat.normalize_lin, dot, mat.word_dot),
                        partial(homomorphism_fails, mat.normalize_lin, circle, mat.word_circ)))

    def normalized(key: Tensor) -> Tensor:
        return Tensor(mat.normalize(key.legs[0]), mat.normalize(key.legs[1]))

    trees = (
        (t,) for n in range(1, 7) for t in enumerate_trees(n, ["a", "b"] if n <= 3 else ["a"])
    )
    checks.append(check("coproduct-commuting-square",
                        lambda n, bad: f"word coproduct of the image = image of the tree coproduct; {n} trees to degree 6",
                        trees, lambda t: (
                            mat.word_coproduct(LinComb.term(mat.normalize(t)))
                            != inf.coproduct(LinComb.term(t)).map_keys(normalized)
                        )))

    checks.append(check("composition-count",
                        "enumerated 2^(n-1) for n <= 12; NOTE: differs from the stated 2^n",
                        ((n,) for n in range(1, 13)),
                        lambda n: len(mat.compositions(n)) != 2 ** (n - 1)))

    pairs = itertools.product(words[1] + words[2] + words[3], repeat=2)
    checks.append(check("composition-homomorphism",
                        "block shapes intertwine word and composition products", pairs,
                        partial(homomorphism_fails, mat.word_shape, mat.m_dot, mat.comp_dot),
                        partial(homomorphism_fails, mat.word_shape, mat.m_circ, mat.comp_circ)))

    word_pair = lambda rng: Tensor(*(rng.choice(words[rng.randint(1, 3)]) for _ in range(2)))
    triples = lambda rng: ([_random_element(rng, word_pair, 0.5) for _ in range(3)] for _ in range(40))
    checks.append(check("tensor-square-star-associative",
                        "40 random triples in the word dialgebra tensor square",
                        triples, partial(associativity_fails, model.square_star)))

    left_zero = lambda p, q: p
    right_zero = lambda p, q: q
    square = partial(mat.tensor_square_star, dot_fn=left_zero, circ_fn=right_zero)
    x = LinComb.term(Tensor("u", "u"))
    z = LinComb.term(Tensor("v", "v"))
    residual = square(square(x, x), z) - square(x, square(x, z))
    checks.append(Check("tensor-square-negative-control", bool(residual),
                        f"non-compatible pair reports nonzero associativity residual: {residual}"))

    checks.extend(_semihom_checks(check))
    return checks


def _semihom_checks(check) -> list[Check]:
    checks = []
    m = 8
    A = mat.truncated_polynomial_algebra(m)
    model = A.model

    checks.append(check("polynomial-coderivation",
                        f"Δ(R(Xⁿ)) matches for n <= {m - 2} (truncation-safe inputs)",
                        ((A.basis(n),) for n in range(m - 1)), partial(coderivation_law, model)))

    pairs = ((A.basis(i), A.basis(j)) for i in range(m) for j in range(m) if i + j + 1 < m)
    checks.append(check("polynomial-bimatching",
                        lambda n, bad: f"Δ(x∘y) = Δ(x)∗Δ(y) and Δ(x·y) = Δ(x)·Δ(y) on {n} truncation-safe basis pairs",
                        pairs, partial(bimatching_law, model), partial(multiplicativity_law, model)))

    triples = lambda rng: (
        [A.vector([rng.randint(-2, 2) for _ in range(m)]) for _ in range(3)] for _ in range(30)
    )
    checks.append(check("polynomial-matching-laws",
                        "the induced pair is a matching dialgebra; 30 random triples",
                        triples, *_dialgebra_laws(A.dot, A.circ)))

    # R(x) = a·x on a tiny group algebra (basis 1, g with g² = 1)
    dot_table = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    B = mat.left_multiplication_semihom(dot_table, [1, 1])
    a = B.r(B.basis(0))
    pairs = lambda rng: ([B.vector([rng.randint(-2, 2) for _ in range(2)]) for _ in range(2)] for _ in range(20))
    checks.append(check("left-multiplication-semihom", "R(x) = a·x induces x∘y = x·a·y",
                        pairs, lambda x, y: B.circ(x, y) != B.dot(x, B.dot(a, y))))
    return checks


# --------------------------------------------------------------------------
# path algebra


def suite_path(points=("a", "b", "x"), max_interior: int = 4, seed: int = DEFAULT_SEED):
    checks = []
    check = partial(_check, seed)
    S = tuple(points)
    e = pth.path_unit(S)
    model = pth.path_model()
    mul, circ = model.dot, model.circ

    basis_small = pth.enumerate_paths(S, 2)
    basis_full = pth.enumerate_paths(S, max_interior)

    def small_pairs():
        return (_terms(p, q) for p, q in itertools.product(basis_small, repeat=2))

    def full_basis():
        return (_terms(p) for p in basis_full)

    checks.append(check("path-unit",
                        f"e = Σ p[i,i] is a two-sided unit on {len(basis_full)} basis paths",
                        full_basis(), lambda x: mul(e, x) != x or mul(x, e) != x))

    # chained triples keep the sweep meaningful: unmatched endpoints give 0 = 0
    ends = defaultdict(list)
    for p in basis_small:
        ends[p.points[0], p.points[-1]].append(p)

    def chained_triples():
        return (
            pqr
            for a, b, c, d in itertools.product(S, repeat=4)
            for pqr in itertools.product(ends[a, b], ends[b, c], ends[c, d])
        )

    # on bare keys: a chained product is never None
    mul_assoc, circ_assoc, matching = _dialgebra_laws(pth._mul_paths, pth._circ_paths)
    checks.append(check("path-associativity-exhaustive",
                        lambda n, bad: f"both products on {n} chained basis triples, interior <= 2",
                        chained_triples(), mul_assoc, circ_assoc))
    checks.append(check("path-matching-laws-exhaustive",
                        lambda n, bad: f"both matching laws on {n} chained basis triples, interior <= 2",
                        chained_triples(), matching))

    path = lambda rng: rng.choice(basis_full)
    triples = lambda rng: ([_random_element(rng, path, 0.6) for _ in range(3)] for _ in range(120))
    checks.append(check("path-laws-random-lincombs",
                        f"120 random linear-combination triples, interior <= {max_interior}",
                        triples, *_dialgebra_laws(mul, circ)))

    checks.append(check("path-R-semihom",
                        lambda n, bad: f"R(x·y) = R(x)·y and x∘y = x·R(y) on {n} basis pairs",
                        small_pairs(),
                        lambda x, y: pth.path_R(mul(x, y)) != mul(pth.path_R(x), y),
                        lambda x, y: circ(x, y) != mul(x, pth.path_R(y))))

    edges = (_terms(pth.Path((a, b))) for a in S for b in S)
    checks.append(check("path-grouplike", "Δ(p[a,b]) = p[a,b] ⊗ p[a,b]",
                        edges, lambda p: pth.path_coproduct(p) != tensor(p, p)))

    checks.append(check("path-coassociativity",
                        f"exhaustive on {len(basis_full)} paths, interior <= {max_interior}",
                        full_basis(), partial(coassociativity_law, model)))
    checks.append(check("path-coderivation",
                        f"Δ∘R = (R⊗id + id⊗R)∘Δ exhaustively on {len(basis_full)} paths",
                        full_basis(), partial(coderivation_law, model)))

    checks.append(check("path-mult-diagnostic-dot",
                        lambda n, bad: f"Δ(x·y) − Δ(x)·Δ(y): zero on all {n} swept pairs" if bad == 0
                        else f"Δ(x·y) − Δ(x)·Δ(y): nonzero on {bad} pairs",
                        small_pairs(), partial(multiplicativity_law, model)))

    x = LinComb.term(pth.Path(("a", "x")))
    y = LinComb.term(pth.Path(("x", "b")))
    expected = LinComb(
        [
            (Tensor(pth.Path(("a", "b")), pth.Path(("a", "x", "b"))), 1),
            (Tensor(pth.Path(("a", "x", "b")), pth.Path(("a", "b"))), 1),
            (Tensor(pth.Path(("a", "x", "b")), pth.Path(("a", "x", "b"))), -1),
        ]
    )
    circ_model = model._replace(dot=circ, square_dot=partial(mat.tensor_square_dot, dot_fn=pth._circ_paths))
    checks.append(check("path-mult-diagnostic-circ",
                        "componentwise ∘-multiplicativity fails on p[a,x], p[x,b] with the derived residual",
                        [(x, y)], lambda p, q: multiplicativity_law(circ_model, p, q) != expected))

    checks.append(check("path-bimatching-diagnostic",
                        lambda n, bad: f"Δ(x∘y) − Δ(x)∗Δ(y): zero on all {n} swept pairs (incl. e,e)" if bad == 0
                        else f"Δ(x∘y) − Δ(x)∗Δ(y): nonzero on {bad} pairs",
                        itertools.chain(small_pairs(), [(e, e)]), partial(bimatching_law, model)))
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

    Below 3 some exhaustive checks would run on no input at all, and fail
    for it, so a smaller ``max_degree`` is refused before any suite runs; so
    is a ``max_degree`` that none of the named suites takes.
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
