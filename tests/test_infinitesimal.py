"""Coproduct, projector, n-ary operations, relations, dimensions."""

import itertools
import math
import random

import pytest

from cab import infinitesimal
from cab.linear import (
    LinComb,
    Tensor,
    bilinear_keys,
    coassociativity_law,
    infinitesimal_law,
    rank,
    tensor,
)
from cab.algebra import circle, dot, star
from cab.infinitesimal import (
    coproduct,
    coproduct_closed,
    dimension_report,
    n_aux_residual,
    n_op,
    n_relation_residual,
    primitive_basis,
    primitive_projector,
    primitive_projector_series,
    tree_model,
)
from cab.trees import catalan, enumerate_irreducible, enumerate_trees, parse_tree


def basis(text):
    return LinComb.term(parse_tree(text))


def pair(left, right):
    return LinComb.term(Tensor(parse_tree(left), parse_tree(right)))


# --- coproduct ----------------------------------------------------------------


def test_coproduct_low_degree():
    assert coproduct(basis("(a)")).is_zero
    assert coproduct(basis("(a,b)")) == pair("(a)", "(b)")
    assert coproduct(basis("(b(a))")) == pair("(a)", "(b)")
    assert coproduct(basis("(a,b,c)")) == pair("(a)", "(b,c)") + pair("(a,b)", "(c)")


def test_coproduct_closed_equals_recursive():
    assert coproduct_closed(parse_tree("(a)")).is_zero
    assert coproduct_closed(parse_tree("(b(a))")) == pair("(a)", "(b)")
    for n in range(1, 6):
        for t in enumerate_trees(n, ["a", "b"] if n <= 3 else ["a"]):
            assert coproduct_closed(t) == coproduct(LinComb.term(t))


def test_coassociativity():
    for n in range(1, 6):
        for t in enumerate_trees(n, ["a"]):
            assert coassociativity_law(tree_model(), LinComb.term(t)).is_zero


def test_coproduct_legs_have_positive_degree():
    for t in enumerate_trees(5, ["a"]):
        for key, _ in coproduct(LinComb.term(t)).items():
            l, r = key.legs
            assert l.degree >= 1 and r.degree >= 1
            assert l.degree + r.degree == t.degree


def star_model(alpha, beta):
    return tree_model()._replace(dot=lambda x, y: star(x, y, alpha, beta))


def test_infinitesimal_laws():
    model = tree_model()
    assert infinitesimal_law(model, 1, basis("(a)"), basis("(b)")).is_zero
    rng = random.Random(9)
    pool = {n: enumerate_trees(n, ["a", "b"]) for n in (1, 2, 3)}
    for _ in range(30):
        x = LinComb.term(rng.choice(pool[rng.randint(1, 3)]))
        y = LinComb.term(rng.choice(pool[rng.randint(1, 3)]))
        assert infinitesimal_law(model, 1, x, y).is_zero
        assert infinitesimal_law(model._replace(dot=circle), 1, x, y).is_zero
        assert infinitesimal_law(star_model(-1, 1), 0, x, y).is_zero
        assert infinitesimal_law(star_model(2, 3), 5, x, y).is_zero


def test_star_minus_one_one_has_no_xy_term():
    # on primitive generators the dot law leaves exactly the x⊗y term, while
    # the weight-(−1,1) combination leaves nothing
    x, y = basis("(a)"), basis("(b)")
    assert coproduct(dot(x, y)) == tensor(x, y)
    assert coproduct(circle(x, y) - dot(x, y)).is_zero
    assert infinitesimal_law(star_model(-1, 1), 0, x, y).is_zero


def test_well_definedness_combination():
    rng = random.Random(10)
    pool = {n: enumerate_trees(n, ["a", "b"]) for n in (1, 2)}
    for _ in range(20):
        x, y, z = (LinComb.term(rng.choice(pool[rng.randint(1, 2)])) for _ in range(3))
        combo = (
            circle(dot(x, y), z) + dot(circle(x, y), z)
            - dot(x, circle(y, z)) - circle(x, dot(y, z))
        )
        assert coproduct(combo).is_zero


# --- projector ------------------------------------------------------------------


def test_projector_values():
    assert primitive_projector(basis("(a)")) == basis("(a)")
    assert primitive_projector(basis("(a,b)")).is_zero
    assert primitive_projector(basis("(b(a))")) == basis("(b(a))") - basis("(a,b)")


def test_projector_is_n2_on_degree_two():
    a, b = basis("(a)"), basis("(b)")
    assert primitive_projector(circle(a, b)) == n_op([a, b])


def test_projector_properties():
    for n in range(1, 6):
        for t in enumerate_trees(n, ["a"]):
            x = LinComb.term(t)
            e = primitive_projector(x)
            assert primitive_projector(e) == e
            assert coproduct(e).is_zero
            assert primitive_projector_series(x) == e


def test_projector_kills_decomposables():
    rng = random.Random(12)
    pool = {n: enumerate_trees(n, ["a", "b"]) for n in (1, 2, 3)}
    for _ in range(25):
        x = LinComb.term(rng.choice(pool[rng.randint(1, 3)]))
        y = LinComb.term(rng.choice(pool[rng.randint(1, 3)]))
        assert primitive_projector(dot(x, y)).is_zero


# --- n-ary operations ------------------------------------------------------------


def test_n_op_values():
    a, b, c, d = (basis(f"({x})") for x in "abcd")
    assert n_op([a, b]) == basis("(b(a))") - basis("(a,b)")
    assert n_op([a, b, c]) == basis("(c(a,b))") - basis("(a,c(b))")
    assert n_op([a, b, c, d]) == n_op([a, dot(b, c), d])


def test_n_op_arity_check():
    with pytest.raises(ValueError):
        n_op([basis("(a)")])
    with pytest.raises(ValueError):
        n_op([])


GENS = [LinComb.term(t) for t in enumerate_trees(1, ["a", "b"])]


# each rel is (n, r), the relation R3(n, r)
@pytest.mark.parametrize(
    "rel",
    [(4, 4), (5, 3), (3, 5), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 3)],
)
def test_relations_on_generators(rel):
    n, r = rel
    arity = n + r - 1
    for xs in itertools.product(GENS, repeat=2):
        args = list(xs) + [GENS[0]] * (arity - len(xs))
        assert n_relation_residual(n, r, args).is_zero
    # one all-distinct-ish tuple
    args = [GENS[i % 2] for i in range(arity)]
    assert n_relation_residual(n, r, args).is_zero


def test_relations_on_primitive_arguments():
    rng = random.Random(13)
    prims = {1: primitive_basis(1, ["a", "b"]), 2: primitive_basis(2, ["a", "b"])}
    for n, r in [(3, 2), (3, 3), (3, 2), (2, 3), (3, 3)]:  # low2, low4, R1(3), R2(3), R3(3, 3)
        for _ in range(10):
            args = [rng.choice(prims[2 if rng.random() < 0.4 else 1]) for _ in range(n + r - 1)]
            assert n_relation_residual(n, r, args).is_zero


def test_relation_arity_mismatch():
    with pytest.raises(ValueError):
        n_relation_residual(3, 2, GENS[:3])
    with pytest.raises(ValueError):
        n_aux_residual("ind_i", GENS[:1])
    with pytest.raises(ValueError):
        n_aux_residual("ind_iii", GENS[:3])
    for n, r in [(1, 3), (3, 1), (2, 0), (2.0, 2), (True, 3)]:
        with pytest.raises(ValueError):
            n_relation_residual(n, r, GENS[:3])


def _free_n_op(xs):
    """N_n as a free symbol: basis keys k₁..kₙ go to the key ("N", k₁, ..., kₙ)."""
    return LinComb(
        (("N", *(k for k, _ in terms)), math.prod(c for _, c in terms))
        for terms in itertools.product(*(x.items() for x in xs))
    )


def _free_dot(x, y):
    return bilinear_keys(lambda a, b: ("dot", a, b), x, y)


def _N(*args):
    return ("N", *args)


def _D(a, b):
    return ("dot", a, b)


X, Y, Z, T, W = "xyztw"
LOW2 = [(_N(X, Y, _N(Z, T)), 1), (_N(_N(X, Y, Z), T), -1), (_N(X, _N(Y, Z), T), -1)]
LOW3 = [(_N(X, _N(Y, Z, T)), 1), (_N(_N(X, Y), Z, T), -1), (_N(X, _N(Y, Z), T), 1)]
# the relations as the paper writes them, each residual LHS − RHS
FORMAL_RELATIONS = [
    ((3, 2), LOW2),
    ((2, 3), LOW3),
    ((3, 3), [(_N(X, Y, _N(Z, T, W)), 1), (_N(_N(X, Y, Z), T, W), -1),
              (_N(X, _N(Y, Z), T, W), -1), (_N(X, Y, _N(Z, T), W), 1)]),
    ((2, 2), [(_N(X, _N(Y, Z)), 1), (_N(_N(X, Y), Z), -1)]),
    ((2, 4), [(_N(X, _N(Y, Z, T, W)), 1), (_N(_N(X, Y), Z, T, W), -1),
              (_N(X, _N(Y, Z, T), W), 1), (_N(X, _N(Y, Z), T, W), 1)]),
]
# on three arguments the induction identities are the paper's two lemmas
FORMAL_LEMMAS = [
    ("ind_i", [(_N(_D(X, Y), Z), 1), (_N(X, Y, Z), -1), (_D(X, _N(Y, Z)), -1)]),
    ("ind_ii", [(_N(X, _D(Y, Z)), 1), (_N(X, Y, Z), -1), (_D(_N(X, Y), Z), -1)]),
]


def test_relations_are_the_stated_expressions(monkeypatch):
    # with N and the dot product as free symbols each residual must be the
    # relation itself, not merely some expression that vanishes on trees
    monkeypatch.setattr(infinitesimal, "n_op", _free_n_op)
    monkeypatch.setattr(infinitesimal, "dot", _free_dot)
    symbols = [LinComb.term(s) for s in (X, Y, Z, T, W)]
    for (n, r), expected in FORMAL_RELATIONS:
        got = n_relation_residual(n, r, symbols[: n + r - 1])
        assert not got.is_zero, (n, r)
        assert got == LinComb(expected), (n, r)
    for name, expected in FORMAL_LEMMAS:
        got = n_aux_residual(name, symbols[:3])
        assert not got.is_zero, name
        assert got == LinComb(expected), name


@pytest.mark.parametrize("name,arity", [("ind_i", 3), ("ind_ii", 3)])
def test_lemma_identities(name, arity):
    for xs in itertools.product(GENS, repeat=arity):
        assert n_aux_residual(name, list(xs)).is_zero


@pytest.mark.parametrize("arity", [2, 3, 4, 5])
def test_induction_identities(arity):
    rng = random.Random(15)
    for _ in range(12):
        xs = [rng.choice(GENS) for _ in range(arity)]
        assert n_aux_residual("ind_i", xs).is_zero
        assert n_aux_residual("ind_ii", xs).is_zero


def test_primitives_closed_under_n_ops():
    rng = random.Random(16)
    prims = {1: primitive_basis(1, ["a", "b"]), 2: primitive_basis(2, ["a", "b"])}
    for arity in range(2, 6):
        for _ in range(8):
            ps = [rng.choice(prims[2 if rng.random() < 0.3 else 1]) for _ in range(arity)]
            assert coproduct(n_op(ps)).is_zero


# --- primitive basis and dimensions ----------------------------------------------


def test_primitive_basis_low_degree():
    one = primitive_basis(1, ["a"])
    assert one == [basis("(a)")]
    two = primitive_basis(2, ["a"])
    a = basis("(a)")
    assert two == [circle(a, a) - dot(a, a)]
    assert rank(two) == 1 == catalan(1)


def test_primitive_basis_ranks():
    for d, colors in ((1, ["a"]), (2, ["a", "b"])):
        for n in range(1, 5):
            vectors = primitive_basis(n, colors)
            assert len(vectors) == len(enumerate_irreducible(n, colors))
            assert rank(vectors) == d**n * catalan(n - 1)
            for v in vectors:
                assert coproduct(v).is_zero


def test_dimension_report_rows():
    rows = dimension_report(4, 1)
    assert [(r.n, r.tree_dim, r.prim_dim, r.cofree_dim) for r in rows] == [
        (1, 1, 1, 1),
        (2, 2, 1, 2),
        (3, 5, 2, 5),
        (4, 14, 5, 14),
    ]
    assert all(r.prim_ok and r.cofree_ok for r in rows)

    rows2 = dimension_report(3, 2)
    assert (rows2[2].tree_dim, rows2[2].prim_dim, rows2[2].cofree_dim) == (40, 16, 40)


def _composition_sum(n, weights):
    """Σ over the compositions (m₁..m_k) of n of Π weights[m_i], for one n:
    by the last part m, S[0] = 1 and S[k] = Σ_m weights[m]·S[k−m]."""
    sums = [1]
    for k in range(1, n + 1):
        sums.append(sum(weights[m] * sums[k - m] for m in range(1, k + 1)))
    return sums[n]


def test_one_pass_dimensions_match_the_composition_sum_of_each_degree():
    from cab.matching import compositions

    weights = [0, 2, 1, 5, 3, 7, 4, 1, 6]
    for n in range(1, 9):  # the recursion itself, against the compositions
        assert _composition_sum(n, weights) == sum(
            math.prod(weights[m] for m in c) for c in compositions(n)
        )
    max_n = 40
    free = [0, 1]
    for n in range(2, max_n + 1):
        free.append(_composition_sum(n - 1, free))
    assert infinitesimal._free_prim_dims(max_n) == free
    for d in (1, 2, 3):
        prim_colored = [0] + [d**m * free[m] for m in range(1, max_n + 1)]
        rows = dimension_report(max_n, d)
        assert [r.n for r in rows] == list(range(1, max_n + 1))
        assert [r.prim_dim for r in rows] == [d**n * free[n] for n in range(1, max_n + 1)]
        assert [r.cofree_dim for r in rows] == [
            _composition_sum(n, prim_colored) for n in range(1, max_n + 1)
        ]
        assert all(r.prim_ok and r.cofree_ok for r in rows)


def test_dimension_report_identities():
    for d in (1, 2, 3):
        assert all(r.prim_ok and r.cofree_ok for r in dimension_report(8, d))
    with pytest.raises(ValueError):
        dimension_report(0, 1)
