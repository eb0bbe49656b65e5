"""Words, the quotient map, compositions, tensor squares, semi-homomorphisms."""

import itertools
import random
from fractions import Fraction
from functools import partial, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cab.linear import (
    LinComb,
    Tensor,
    bimatching_law,
    coderivation_law,
    multiplicativity_law,
    tensor,
)
from cab.algebra import FinAlgebra, circle, dot
from cab.infinitesimal import coproduct
from cab.matching import (
    SemiHomAlgebra,
    Word,
    comp_circ,
    comp_dot,
    compositions,
    enumerate_words,
    left_multiplication_semihom,
    m_circ,
    m_dot,
    normalize,
    normalize_lin,
    parse_word,
    tensor_square_dot,
    tensor_square_star,
    truncated_polynomial_algebra,
    word_circ,
    word_coproduct,
    word_dot,
    word_shape,
    word_star,
)
from cab.trees import enumerate_trees, factorize, is_irreducible, parse_tree, unwrap_root


def word(text):
    return parse_word(text)


words_strategy = st.lists(
    st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=3), min_size=1, max_size=3
).map(Word)


# --- words and products -------------------------------------------------------


def test_word_text_roundtrip():
    w = word("a.b|c")
    assert w.blocks == (("a", "b"), ("c",))
    assert w.degree == 3
    assert parse_word(str(w)) == w
    with pytest.raises(ValueError):
        parse_word("a..b")


def test_malformed_letters_rejected():
    # "$" in a regex matches before a trailing newline; letters must match whole
    for text in ("a\n|b", "a|b\n", "a b"):
        with pytest.raises(ValueError):
            parse_word(text)
    with pytest.raises(ValueError):
        enumerate_words(2, ["a", "b|c"])


def test_repeated_letters_refused():
    with pytest.raises(ValueError, match="repeated color 'a'"):
        enumerate_words(2, ["a", "a"])


def test_separator_in_a_letter_does_not_alias_another_word():
    # each pair renders to the same text, "a.b" and "a.b.c"
    for odd, other in (
        (Word([("a.b",)]), parse_word("a.b")),
        (Word([("a.b", "c")]), Word([("a", "b.c")])),
    ):
        assert odd.text == other.text and odd.degree <= other.degree
        assert odd != other
        assert len({odd: 1, other: 2}) == 2


def test_word_products():
    assert m_dot(word("a"), word("b")) == word("a|b")
    assert m_dot(word("a.b"), word("c|d")) == word("a.b|c|d")
    assert m_circ(word("a"), word("b")) == word("a.b")
    assert m_circ(word("a|b"), word("c|d")) == word("a|b.c|d")


@settings(deadline=None)
@given(words_strategy, words_strategy, words_strategy)
def test_matching_laws_on_words(u, v, w):
    assert m_dot(m_dot(u, v), w) == m_dot(u, m_dot(v, w))
    assert m_circ(m_circ(u, v), w) == m_circ(u, m_circ(v, w))
    assert m_circ(m_dot(u, v), w) == m_dot(u, m_circ(v, w))
    assert m_dot(m_circ(u, v), w) == m_circ(u, m_dot(v, w))


def test_word_star_associative():
    rng = random.Random(21)
    pool = enumerate_words(1, ["a", "b"]) + enumerate_words(2, ["a", "b"]) + enumerate_words(3, ["a", "b"])
    for _ in range(25):
        xs = []
        for _ in range(3):
            x = LinComb.term(rng.choice(pool))
            if rng.random() < 0.5:
                x = x + LinComb.term(rng.choice(pool)) * rng.randint(-2, 2)
            xs.append(x)
        x, y, z = xs
        assert word_star(word_star(x, y), z) == word_star(x, word_star(y, z))


# --- quotient map --------------------------------------------------------------


def test_normalize_examples():
    assert normalize(parse_tree("(a,b)")) == word("a|b")
    assert normalize(parse_tree("(c(a,b))")) == word("a|b.c")
    assert normalize(parse_tree("(d(c(a,b)))")) == word("a|b.c.d")
    assert normalize(parse_tree("(a)")) == word("a")


def _normalize_by_recursion(t):
    """The quotient map by its defining recursion on the two products."""
    if t.degree == 1:
        return Word(((t.children[0][0],),))
    if is_irreducible(t):
        u, a = unwrap_root(t)
        w = _normalize_by_recursion(u)
        return Word(w.blocks[:-1] + (w.blocks[-1] + (a,),))
    return reduce(m_dot, (_normalize_by_recursion(f) for f in factorize(t)))


def test_normalize_matches_its_recursive_definition():
    for n in range(1, 7):
        for t in enumerate_trees(n, ["a", "b"]):
            expected = _normalize_by_recursion(t)
            got = normalize(t)
            assert got == expected and got.text == expected.text


def test_normalize_is_a_dialgebra_map():
    pool = {n: enumerate_trees(n, ["a", "b"]) for n in (1, 2, 3)}
    for da, db in itertools.product((1, 2, 3), repeat=2):
        if da + db > 5:
            continue
        for t in pool[da][:10]:
            for w in pool[db][:10]:
                x, y = LinComb.term(t), LinComb.term(w)
                assert normalize_lin(dot(x, y)) == word_dot(normalize_lin(x), normalize_lin(y))
                assert normalize_lin(circle(x, y)) == word_circ(normalize_lin(x), normalize_lin(y))


# --- coproduct ------------------------------------------------------------------


def test_word_coproduct_examples():
    assert word_coproduct(LinComb.term(word("a"))).is_zero
    assert word_coproduct(LinComb.term(word("a.b"))) == LinComb.term(
        Tensor(word("a"), word("b"))
    )
    assert word_coproduct(LinComb.term(word("a|b"))) == LinComb.term(
        Tensor(word("a"), word("b"))
    )
    got = word_coproduct(LinComb.term(word("a.b|c")))
    expected = (
        LinComb.term(Tensor(word("a"), word("b|c")))
        + LinComb.term(Tensor(word("a.b"), word("c")))
    )
    assert got == expected


def test_word_coproduct_coassociative_and_infinitesimal():
    from cab.linear import apply_on_leg

    def delta_word(w):
        return word_coproduct(LinComb.term(w))

    pool = enumerate_words(4, ["a", "b"])[:30] + enumerate_words(3, ["a"])
    for w in pool:
        d = delta_word(w)
        assert apply_on_leg(delta_word, d, 0) == apply_on_leg(delta_word, d, 1)
    rng = random.Random(22)
    small = enumerate_words(1, ["a", "b"]) + enumerate_words(2, ["a", "b"])
    for mul, weight in ((word_dot, 1), (word_circ, 1), (word_star, 0)):
        for _ in range(20):
            x = LinComb.term(rng.choice(small))
            y = LinComb.term(rng.choice(small))
            resid = word_coproduct(mul(x, y)) - tensor(x, y) * weight
            for key, c in word_coproduct(x).items():
                x1, x2 = key.legs
                resid = resid - tensor(LinComb.term(x1), mul(LinComb.term(x2), y)) * c
            for key, c in word_coproduct(y).items():
                y1, y2 = key.legs
                resid = resid - tensor(mul(x, LinComb.term(y1)), LinComb.term(y2)) * c
            assert resid.is_zero


def test_coproducts_commute_with_normalize():
    for n in range(1, 6):
        for t in enumerate_trees(n, ["a", "b"] if n <= 3 else ["a"]):
            lhs = word_coproduct(LinComb.term(normalize(t)))
            rhs = LinComb.zero()
            for key, c in coproduct(LinComb.term(t)).items():
                rhs = rhs + LinComb.term(
                    Tensor(normalize(key.legs[0]), normalize(key.legs[1])), c
                )
            assert lhs == rhs


# --- compositions ---------------------------------------------------------------


def test_composition_ops():
    assert comp_dot((1,), (1,)) == (1, 1)
    assert comp_circ((2, 1), (3,)) == (2, 4)
    assert comp_circ((1,), (1, 2)) == (2, 2)


def test_composition_counts():
    for n in range(1, 13):
        assert len(compositions(n)) == 2 ** (n - 1)
    assert len(set(compositions(8))) == 128


def test_word_shape_is_a_homomorphism():
    pool = enumerate_words(2, ["a"]) + enumerate_words(3, ["a"])
    for u, v in itertools.product(pool, repeat=2):
        assert word_shape(m_dot(u, v)) == comp_dot(word_shape(u), word_shape(v))
        assert word_shape(m_circ(u, v)) == comp_circ(word_shape(u), word_shape(v))


def test_enumerate_words_counts():
    assert len(enumerate_words(4, ["a"])) == 8
    assert len(enumerate_words(3, ["a", "b"])) == 4 * 8


# --- tensor squares --------------------------------------------------------------


def test_tensor_square_dot_componentwise():
    x = LinComb.term(Tensor(word("a"), word("b")))
    y = LinComb.term(Tensor(word("c"), word("d")))
    got = tensor_square_dot(x, y, m_dot)
    assert got == LinComb.term(Tensor(word("a|c"), word("b|d")))


def test_tensor_square_star_two_terms():
    x = LinComb.term(Tensor(word("a"), word("b")))
    y = LinComb.term(Tensor(word("c"), word("d")))
    got = tensor_square_star(x, y, m_dot, m_circ)
    assert got == LinComb.term(Tensor(word("a|c"), word("b.d"))) + LinComb.term(
        Tensor(word("a.c"), word("b|d"))
    )


def test_tensor_square_star_associative_on_words():
    rng = random.Random(23)
    pool = enumerate_words(1, ["a", "b"]) + enumerate_words(2, ["a", "b"])
    for _ in range(20):
        xs = [
            LinComb.term(Tensor(rng.choice(pool), rng.choice(pool)))
            + LinComb.term(Tensor(rng.choice(pool), rng.choice(pool))) * rng.randint(-2, 2)
            for _ in range(3)
        ]
        x, y, z = xs
        lhs = tensor_square_star(
            tensor_square_star(x, y, m_dot, m_circ), z, m_dot, m_circ
        )
        rhs = tensor_square_star(
            x, tensor_square_star(y, z, m_dot, m_circ), m_dot, m_circ
        )
        assert lhs == rhs


def test_tensor_square_star_negative_control():
    """A non-compatible pair of associative products breaks associativity."""
    left_zero = lambda p, q: p
    right_zero = lambda p, q: q
    x = LinComb.term(Tensor("u", "u"))
    z = LinComb.term(Tensor("v", "v"))
    lhs = tensor_square_star(
        tensor_square_star(x, x, left_zero, right_zero), z, left_zero, right_zero
    )
    rhs = tensor_square_star(
        x, tensor_square_star(x, z, left_zero, right_zero), left_zero, right_zero
    )
    residual = lhs - rhs
    expected = (
        LinComb.term(Tensor("u", "v"))
        + LinComb.term(Tensor("v", "u"))
        - LinComb.term(Tensor("u", "u")) * 2
    )
    assert residual == expected


# --- semi-homomorphisms ------------------------------------------------------------


def test_polynomial_algebra_structure():
    A = truncated_polynomial_algebra(5)
    X = A.basis(1)
    assert A.r(A.basis(0)) == X  # R(1) = X
    assert A.circ(X, X) == A.basis(3)  # X∘X = X·X·X
    assert A.dot(A.basis(3), A.basis(3)) == A.zero  # truncation
    one = A.basis(0)
    d = A.delta(X)
    assert d == LinComb.term(Tensor(1, 0)) + LinComb.term(Tensor(0, 1))
    assert not coderivation_law(A.model, one)  # R(1) = X is primitive


def test_polynomial_matching_laws():
    A = truncated_polynomial_algebra(6)
    rng = random.Random(24)
    for _ in range(20):
        x, y, z = (
            A.vector([Fraction(rng.randint(-2, 2)) for _ in range(6)]) for _ in range(3)
        )
        assert A.circ(A.dot(x, y), z) == A.dot(x, A.circ(y, z))
        assert A.dot(A.circ(x, y), z) == A.circ(x, A.dot(y, z))
        assert A.circ(A.circ(x, y), z) == A.circ(x, A.circ(y, z))


def test_polynomial_coderivation_residuals():
    A = truncated_polynomial_algebra(8)
    for n in range(7):  # inputs whose image stays below the truncation
        assert not coderivation_law(A.model, A.basis(n))
    # at the truncation boundary the quotient artifact shows up
    assert coderivation_law(A.model, A.basis(7))


def test_polynomial_coderivation_at_x_squared():
    A = truncated_polynomial_algebra(4)  # just enough headroom for X²
    assert not coderivation_law(A.model, A.basis(2))


def test_polynomial_bimatching_and_multiplicativity():
    A = truncated_polynomial_algebra(8)
    for i in range(8):
        for j in range(8):
            if i + j + 1 >= 8:
                continue
            assert not bimatching_law(A.model, A.basis(i), A.basis(j))
            assert not multiplicativity_law(A.model, A.basis(i), A.basis(j))
    x = A.basis(1)
    assert not bimatching_law(A.model, x, x)  # Δ(X∘X) = Δ(X)∗Δ(X)


# the truncated polynomial algebra of truncated_polynomial_algebra(3) as
# literal tables: basis 1, X, X²; R multiplies by X; Δ(Xⁿ) = Σ C(n,i) Xⁿ⁻ⁱ⊗Xⁱ
POLY3_DOT = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
]
POLY3_R = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
POLY3_DELTA = [
    [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 2, 0], [1, 0, 0]],
]


def test_literal_tables_build_the_truncated_polynomial_algebra():
    A = truncated_polynomial_algebra(3)
    B = SemiHomAlgebra(POLY3_DOT, POLY3_R, unit=[1, 0, 0], delta_table=POLY3_DELTA)
    for i, j in itertools.product(range(3), repeat=2):
        x, y = A.basis(i), A.basis(j)
        assert B.dot(x, y) == A.dot(x, y) and B.circ(x, y) == A.circ(x, y)
        assert B.r(x) == A.r(x) and B.delta(x) == A.delta(x)
    assert B.unit == A.unit


def test_semihom_validation_rejects_bad_r():
    bad_r = [[0, 0, 0], [1, 0, 0], [0, 0, 1]]  # not R(x·y) = R(x)·y
    with pytest.raises(ValueError, match="semi-homomorphism"):
        SemiHomAlgebra(POLY3_DOT, bad_r)


def test_semihom_validation_rejects_non_associative_dot():
    identity = [[1, 0], [0, 1]]
    # e0·e0 = e1 and e1·e1 = e0: (e0·e0)·e1 = e0 but e0·(e0·e1) = 0
    dot_table = [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]
    with pytest.raises(ValueError, match="associative"):
        SemiHomAlgebra(dot_table, identity)


def test_semihom_validation_rejects_bad_unit():
    with pytest.raises(ValueError, match="unit"):
        SemiHomAlgebra(POLY3_DOT, POLY3_R, unit=[0, 1, 0])


def test_semihom_validation_rejects_non_coassociative_coproduct():
    delta = POLY3_DELTA[:2] + [[[0, 0, 0], [0, 1, 0], [0, 0, 0]]]  # Δ(X²) = X⊗X
    with pytest.raises(ValueError, match="coassociative at basis vector 2"):
        SemiHomAlgebra(POLY3_DOT, POLY3_R, delta_table=delta)


def test_semihom_validation_rejects_malformed_tables():
    with pytest.raises(ValueError, match="tables must be nonempty and of equal dimension"):
        SemiHomAlgebra([], [])
    for r in (POLY3_R[:2], POLY3_R + [[0, 0, 0]]):
        with pytest.raises(ValueError, match="R must be dim x dim"):
            SemiHomAlgebra(POLY3_DOT, r)
    with pytest.raises(ValueError, match="expected a vector of dimension 3, got 2"):
        SemiHomAlgebra(POLY3_DOT, [[0, 1], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(ValueError, match="over the basis indices 0..2"):
        SemiHomAlgebra(POLY3_DOT, [LinComb.term(1), LinComb.term(2), LinComb.term(3)])
    with pytest.raises(ValueError, match="tables must be square"):
        SemiHomAlgebra([row[:2] for row in POLY3_DOT], POLY3_R)
    for delta in (POLY3_DELTA[:2], POLY3_DELTA[:2] + [POLY3_DELTA[2][:2]]):
        with pytest.raises(ValueError, match="coproduct table must be dim x dim x dim"):
            SemiHomAlgebra(POLY3_DOT, POLY3_R, delta_table=delta)
    delta = POLY3_DELTA[:2] + [[[0, 0, 1], [0, 2], [1, 0, 0]]]
    with pytest.raises(ValueError, match="expected a vector of dimension 3, got 2"):
        SemiHomAlgebra(POLY3_DOT, POLY3_R, delta_table=delta)


def test_left_multiplication_semihom_checks_its_tables_once(monkeypatch):
    calls = []
    check = FinAlgebra._check_tables

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(FinAlgebra, "_check_tables", counted)
    B = left_multiplication_semihom([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 1])
    assert calls == [B]


def test_left_multiplication_semihom():
    # group algebra of Z/2: basis 1, g with g² = 1; R(x) = (1+g)·x
    dot_table = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    B = left_multiplication_semihom(dot_table, [1, 1])
    a = B.r(B.basis(0))
    assert a == B.vector([1, 1])
    rng = random.Random(25)
    for _ in range(15):
        x = B.vector([Fraction(rng.randint(-3, 3)) for _ in range(2)])
        y = B.vector([Fraction(rng.randint(-3, 3)) for _ in range(2)])
        assert B.circ(x, y) == B.dot(x, B.dot(a, y))
        assert B.r(B.dot(x, y)) == B.dot(B.r(x), y)


def test_semihom_without_coproduct_refuses_coalgebra_residuals():
    B = left_multiplication_semihom([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 1])
    x = B.basis(1)
    for residual in (B.delta, partial(coderivation_law, B.model)):
        with pytest.raises(ValueError, match="carries no coproduct"):
            residual(x)
    for law in (multiplicativity_law, bimatching_law):
        with pytest.raises(ValueError, match="carries no coproduct"):
            law(B.model, x, x)
