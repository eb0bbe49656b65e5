"""The two products, their compatibility, brackets, and evaluation."""

import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest

from cab.linear import LinComb, linear_map
from cab.algebra import FinAlgebra, circle, circle_trees, dot, elem, evaluate, lie_bracket, star
from cab.trees import (
    enumerate_trees,
    factorize,
    is_irreducible,
    leaf,
    parse_tree,
    root_concat,
    unwrap_root,
    wrap_root,
)


def basis(text):
    return LinComb.term(parse_tree(text))


def test_dot_examples():
    assert dot(basis("(a)"), basis("(b)")) == basis("(a,b)")
    left = dot(dot(basis("(a)"), basis("(b)")), basis("(c)"))
    right = dot(basis("(a)"), dot(basis("(b)"), basis("(c)")))
    assert left == right == basis("(a,b,c)")
    assert dot(basis("(a)"), LinComb.zero()).is_zero


def test_circle_base_case():
    assert circle(basis("(a)"), basis("(b)")) == basis("(b(a))")
    assert circle(basis("(a,b)"), basis("(c)")) == basis("(c(a,b))")


def test_circle_two_factor_expansion():
    # t∘(a·b) = (t∘a)·b − t·(a∘b) + (t·a)∘b
    t = basis("(c)")
    got = circle(t, basis("(a,b)"))
    expected = basis("(a(c),b)") - basis("(c,b(a))") + basis("(b(c,a))")
    assert got == expected


def test_circle_bilinear():
    x = basis("(a)") + basis("(b)") * 2
    y = basis("(c)")
    assert circle(x, y) == circle(basis("(a)"), y) + circle(basis("(b)"), y) * 2
    assert circle(x, LinComb.zero()).is_zero


def test_circle_associative_random_small():
    rng = random.Random(3)
    pool = {n: enumerate_trees(n, ["a", "b"]) for n in (1, 2, 3)}
    for _ in range(40):
        xs = [LinComb.term(rng.choice(pool[rng.randint(1, 3)])) for _ in range(3)]
        x, y, z = xs
        assert circle(circle(x, y), z) == circle(x, circle(y, z))


def test_compatibility_identity_exhaustive_small():
    pool = enumerate_trees(1, ["a", "b"]) + enumerate_trees(2, ["a", "b"])
    for t, u, w in itertools.product(pool, repeat=3):
        x, y, z = LinComb.term(t), LinComb.term(u), LinComb.term(w)
        lhs = circle(x, dot(y, z)) + dot(x, circle(y, z))
        rhs = dot(circle(x, y), z) + circle(dot(x, y), z)
        assert lhs == rhs


def _circle_double_sum(t, w, memo):
    """t∘w with the reducible case as the signed double sum over the maximal
    factorization w = w1·...·wm:

        Σ_i (t·w1…w_{i-1})∘w_i · w_{i+1}…w_m − Σ_{i>1} t·((w1…w_{i-1})∘w_i) · w_{i+1}…w_m
    """
    key = (t, w)
    if key in memo:
        return memo[key]
    if len(w.children) == 1 and not w.children[0][1]:
        result = LinComb.term(wrap_root(t, w.children[0][0]))
    elif is_irreducible(w):
        u, a = unwrap_root(w)
        inner = _circle_double_sum(t, u, memo)
        result = linear_map(lambda k: _circle_double_sum(k, leaf(a), memo), inner)
    else:
        factors = factorize(w)
        m = len(factors)
        pairs = []
        for i in range(m):
            pieces = [(_circle_double_sum(reduce(root_concat, factors[:i], t), factors[i], memo), 1)]
            if i:
                head = reduce(root_concat, factors[:i])
                pieces.append((dot(LinComb.term(t), _circle_double_sum(head, factors[i], memo)), -1))
            if i + 1 < m:
                tail = LinComb.term(reduce(root_concat, factors[i + 1 :]))
                pieces = [(dot(piece, tail), sign) for piece, sign in pieces]
            pairs += pieces
        result = LinComb.sum(pairs)
    memo[key] = result
    return result


def test_circle_matches_double_sum_over_factorization():
    pool = {n: enumerate_trees(n, ["a", "b"]) for n in range(1, 6)}
    memo = {}
    for m in range(1, 5):
        for n in range(1, 7 - m):
            for t, w in itertools.product(pool[m], pool[n]):
                assert circle_trees(t, w) == _circle_double_sum(t, w, memo), (t, w)


def test_star_weights():
    x, y = basis("(a)"), basis("(b)")
    assert star(x, y, 1, 1) == dot(x, y) + circle(x, y)
    assert star(x, y, 1, 0) == dot(x, y)
    assert star(x, y, -1, 1) == basis("(b(a))") - basis("(a,b)")


def test_star_associative_for_random_weights():
    rng = random.Random(4)
    pool = {n: enumerate_trees(n, ["a"]) for n in (1, 2, 3)}
    for _ in range(5):
        alpha = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        beta = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(10):
            x, y, z = (LinComb.term(rng.choice(pool[rng.randint(1, 3)])) for _ in range(3))
            assert star(star(x, y, alpha, beta), z, alpha, beta) == star(
                x, star(y, z, alpha, beta), alpha, beta
            )


def test_lie_brackets():
    a, b = basis("(a)"), basis("(b)")
    assert lie_bracket("dot", a, a).is_zero
    assert lie_bracket("dot", a, b) == basis("(a,b)") - basis("(b,a)")
    assert lie_bracket("circle", a, b) == basis("(b(a))") - basis("(a(b))")
    rng = random.Random(5)
    pool = {n: enumerate_trees(n, ["a", "b"]) for n in (1, 2)}
    for kind in ("dot", "circle", "sum"):
        for _ in range(15):
            x, y, z = (LinComb.term(rng.choice(pool[rng.randint(1, 2)])) for _ in range(3))
            jac = (
                lie_bracket(kind, lie_bracket(kind, x, y), z)
                + lie_bracket(kind, lie_bracket(kind, y, z), x)
                + lie_bracket(kind, lie_bracket(kind, z, x), y)
            )
            assert jac.is_zero


def test_lie_bracket_unknown_kind():
    with pytest.raises(ValueError):
        lie_bracket("anti", basis("(a)"), basis("(b)"))


# --- finite-dimensional targets ----------------------------------------------


def poly_pair_tables(m):
    dot_table = [
        [[1 if k == i + j else 0 for k in range(m)] for j in range(m)] for i in range(m)
    ]
    circ_table = [
        [[1 if k == i + j + 1 else 0 for k in range(m)] for j in range(m)] for i in range(m)
    ]
    return dot_table, circ_table


def test_fin_algebra_accepts_compatible_pair():
    A = FinAlgebra(*poly_pair_tables(5))
    x = A.vector([1, 2, 0, 0, 0])
    y = A.vector([0, 1, 0, 0, 0])
    assert A.dot(x, y) == A.vector([0, 1, 2, 0, 0])
    assert A.circ(x, y) == A.vector([0, 0, 1, 2, 0])


def test_fin_algebra_rejects_non_associative():
    bad = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    zero = [[[0, 0]] * 2] * 2
    with pytest.raises(ValueError, match="associative"):
        FinAlgebra(bad, zero)


def test_fin_algebra_rejects_incompatible_pair():
    # left-zero and right-zero products: each associative, sum is not
    left_zero = [[[1, 0], [1, 0]], [[0, 1], [0, 1]]]
    right_zero = [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]
    with pytest.raises(ValueError, match="compatible"):
        FinAlgebra(left_zero, right_zero)


def test_evaluate_generator_and_errors():
    A = FinAlgebra(*poly_pair_tables(4))
    assign = {"a": [0, 1, 0, 0]}
    assert evaluate(A, assign, basis("(a)")) == A.vector([0, 1, 0, 0])
    with pytest.raises(KeyError):
        evaluate(A, assign, basis("(b)"))
    with pytest.raises(ValueError):
        evaluate(A, {"a": [1, 0]}, basis("(a)"))


def test_evaluate_is_homomorphism_for_both_products():
    A = FinAlgebra(*poly_pair_tables(6))
    assign = {"a": [0, 1, 0, 0, 0, 0], "b": [1, 0, 1, 0, 0, 0]}
    rng = random.Random(11)
    pool = {n: enumerate_trees(n, ["a", "b"]) for n in (1, 2, 3)}
    for _ in range(50):
        x = LinComb.term(rng.choice(pool[rng.randint(1, 3)]))
        y = LinComb.term(rng.choice(pool[rng.randint(1, 3)]))
        fx, fy = evaluate(A, assign, x), evaluate(A, assign, y)
        assert evaluate(A, assign, dot(x, y)) == A.dot(fx, fy)
        assert evaluate(A, assign, circle(x, y)) == A.circ(fx, fy)


def test_elem_accepts_text():
    assert elem("(a,b)") == basis("(a,b)")
