"""Vector-space behavior of sparse rational linear combinations."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cab.linear import (
    LinComb,
    Tensor,
    apply_on_leg,
    bilinear,
    bilinear_keys,
    linear_map,
    rank,
    tensor,
    to_records,
)
from cab.matching import truncated_polynomial_algebra

KEYS = ["s", "t", "u", "v", "w"]

coeffs = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
)
lincombs = st.lists(
    st.tuples(st.sampled_from(KEYS), coeffs), max_size=6
).map(LinComb)


scalars = st.one_of(st.sampled_from([0, 1, -1, 2, -3]), coeffs)
images = st.fixed_dictionaries({k: lincombs for k in KEYS})


def _fold(pairs):
    """The reference: a running sum rebuilt on every term."""
    out = LinComb.zero()
    for v, c in pairs:
        out = out + v * c
    return out


@settings(deadline=None)
@given(st.lists(st.tuples(lincombs, scalars), max_size=6), st.lists(st.booleans()))
def test_sum_matches_fold(pairs, negate):
    # appending negated copies of some pairs makes parts of the sum cancel
    pairs = pairs + [(v, -c) for (v, c), flag in zip(pairs, negate) if flag]
    total = LinComb.sum(pairs)
    assert total == _fold(pairs)
    assert all(c != 0 for _, c in total.items())
    assert LinComb.sum(pairs + [(v, -c) for v, c in pairs]).is_zero


@settings(deadline=None)
@given(images, lincombs, lincombs)
def test_linear_and_bilinear_extensions_match_fold(image, x, y):
    f = image.__getitem__
    assert linear_map(f, x) == _fold((f(k), c) for k, c in x.items())
    assert linear_map(f, x - x).is_zero

    def g(a, b):
        return image[a].map_keys(lambda k: k + b) - image[b]

    assert bilinear(g, x, y) == _fold(
        (g(kx, ky), cx * cy) for kx, cx in x.items() for ky, cy in y.items()
    )
    assert bilinear(g, x, y - y).is_zero


def _coefficient_types(results):
    return {type(c) for result in results for _, c in result.items()}


# a key map with zeros and with coincidences: s·s = 0, t·t = s·t, ...
key_maps = st.fixed_dictionaries(
    {(a, b): st.one_of(st.none(), st.sampled_from(KEYS)) for a in KEYS for b in KEYS}
)


@settings(deadline=None)
@given(key_maps, lincombs, lincombs)
def test_bilinear_keys_matches_lifted_bilinear(table, x, y):
    f = lambda a, b: table[a, b]
    lifted = lambda a, b: LinComb.zero() if f(a, b) is None else LinComb.term(f(a, b))
    got = bilinear_keys(f, x, y)
    assert got == bilinear(lifted, x, y)
    assert all(c != 0 for _, c in got.items())
    assert bilinear_keys(lambda a, b: None, x, y).is_zero


def test_bilinear_keys_drops_cancelling_keys_and_keeps_int():
    x = LinComb([("s", 2), ("t", -2)])
    y = LinComb([("u", 3)])
    assert bilinear_keys(lambda a, b: "w", x, y).is_zero  # 6·w − 6·w
    got = bilinear_keys(lambda a, b: a + b, x, y)
    assert got == LinComb([("su", 6), ("tu", -6)])
    assert all(type(c) is int for _, c in got.items())
    assert bilinear_keys(lambda a, b: a if a == "s" else None, x, y) == LinComb([("s", 6)])


def test_integer_inputs_keep_int_coefficients():
    x = LinComb([("s", 2), ("t", -1)])
    y = LinComb.term("t", 3)
    f = lambda k: LinComb([(k, 2), ("u", -1)])
    results = [
        x, x + y, x - y, y - x, x * 3, 3 * x, -x,
        LinComb.sum([(x, 1), (y, -1), (x, 4)]),
        linear_map(f, x),
        bilinear(lambda a, b: LinComb([(a + b, 5)]), x, y),
        apply_on_leg(f, tensor(x, y), 1),
        tensor(x, y),
    ]
    assert all(results)
    assert _coefficient_types(results) == {int}


def test_fraction_inputs_give_fraction_coefficients_never_float():
    # every coefficient below is a non-integer value; an integer value may
    # come back as either type (2 == Fraction(2)), but never as a float
    half = Fraction(1, 2)
    x = LinComb([("s", 3), ("t", -1)])
    h = LinComb.term("t", half)
    f = lambda k: LinComb.term(k, half)
    results = [
        x * half, half * x, h, h + h + h, x + h - x,
        LinComb.sum([(x, half), (h, 3)]),
        linear_map(f, x),
        bilinear(lambda a, b: LinComb.term(a + b), x, h),
        apply_on_leg(f, tensor(x, h), 0),
        tensor(h, x),
    ]
    assert all(results)
    assert _coefficient_types(results) == {Fraction}
    assert (h + h).coeff("t") == 1
    assert _coefficient_types([h + h, LinComb.sum([(x, 2), (h, 2)])]) <= {int, Fraction}


def test_non_integer_scalars_are_made_exact_or_refused():
    t = LinComb.term("t", 0.5)
    assert t.coeff("t") == Fraction(1, 2)
    assert type(t.coeff("t")) is Fraction
    with pytest.raises(TypeError):
        LinComb.term("t") * 0.5
    # the constructor and ``sum`` make a scalar exact as ``term`` does
    assert type(LinComb([("t", 0.5)]).coeff("t")) is Fraction
    assert (LinComb({"t": 0.1}) + LinComb({"t": 0.2})).coeff("t") == Fraction(0.1) + Fraction(0.2)
    x = LinComb.term("t", 3)
    assert LinComb.sum([(x, 0.1), (x, 0.2)]).coeff("t") == 3 * (Fraction(0.1) + Fraction(0.2))
    c = LinComb([("t", Decimal("0.1"))]).coeff("t")
    assert type(c) is Fraction and c == Fraction(1, 10)


def test_construction_merges_and_drops_zeros():
    x = LinComb([("t", Fraction(1, 2)), ("t", Fraction(1, 2)), ("u", 3), ("u", -3)])
    assert x == LinComb.term("t")
    assert x.coeff("u") == 0


def test_add_identity_and_cancellation():
    t = LinComb.term("t")
    assert t + LinComb.zero() == t
    assert (t - t).is_zero
    assert LinComb.term("t", Fraction(1, 2)) + LinComb.term("t", Fraction(1, 2)) == t


@settings(deadline=None)
@given(lincombs, lincombs, lincombs, coeffs, coeffs)
def test_vector_space_axioms(x, y, z, a, b):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + LinComb.zero() == x
    assert (x + (-x)).is_zero
    assert (x + y) * a == x * a + y * a
    assert x * (a + b) == x * a + x * b
    assert (x * a) * b == x * (a * b)
    assert x * Fraction(1) == x


@settings(deadline=None)
@given(lincombs, lincombs, coeffs)
def test_no_stored_zero_coefficients(x, y, a):
    for result in (x + y, x - y, x * a, tensor(x, y)):
        assert all(c != 0 for _, c in result.items())
        assert all(type(c) in (int, Fraction) for _, c in result.items())


def test_bilinear_distributes():
    f = lambda s, t: LinComb.term(s + t)
    s, t, u = (LinComb.term(k) for k in "stu")
    assert bilinear(f, LinComb.zero(), t).is_zero
    assert bilinear(f, s, t) == LinComb.term("st")
    assert bilinear(f, s + u, t) == LinComb.term("st") + LinComb.term("ut")


def test_tensor_basics():
    s, t, u = (LinComb.term(k) for k in "stu")
    assert tensor(LinComb.zero(), t).is_zero
    assert tensor(s, t) == LinComb.term(Tensor("s", "t"))
    assert tensor(s + t, u) == LinComb.term(Tensor("s", "u")) + LinComb.term(Tensor("t", "u"))
    # flattening builds higher ranks
    assert tensor(tensor(s, t), u) == LinComb.term(Tensor("s", "t", "u"))


def test_apply_on_leg_splices():
    f = lambda k: LinComb.term(Tensor(k + "1", k + "2"))
    x = LinComb.term(Tensor("s", "t"))
    assert apply_on_leg(f, x, 0) == LinComb.term(Tensor("s1", "s2", "t"))
    assert apply_on_leg(f, x, 1) == LinComb.term(Tensor("s", "t1", "t2"))


def test_apply_on_leg_collapses_one_leg_to_plain_keys():
    x = LinComb([("s", 2), ("t", -1)])
    result = apply_on_leg(lambda k: LinComb.term(k + "'", 3), x, 0)
    assert result == LinComb([("s'", 6), ("t'", -3)])
    assert all(isinstance(k, str) for k, _ in result.items())
    # a one-leg key mapped to tensor keys keeps them
    assert apply_on_leg(lambda k: LinComb.term(Tensor(k, k)), x, 0) == LinComb(
        [(Tensor("s", "s"), 2), (Tensor("t", "t"), -1)]
    )


def test_rank_small_cases():
    t, u = LinComb.term("t"), LinComb.term("u")
    assert rank([]) == 0
    assert rank([t, t * 2]) == 1
    assert rank([t + u, t - u]) == 2


def _dense_rank(rows):
    """Textbook dense elimination over Fraction; the independent oracle."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col] / rows[r][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


@pytest.mark.parametrize("trial", range(20))
def test_rank_matches_dense_eliminator(trial):
    rng = random.Random(100 + trial)
    keys = [f"k{i}" for i in range(6)]
    dense = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(6)]
    sparse = [LinComb(zip(keys, row)) for row in dense]
    assert rank(sparse) == _dense_rank(dense)


@pytest.mark.parametrize("trial", range(20))
def test_rank_of_integer_rows_matches_dense_eliminator(trial):
    rng = random.Random(200 + trial)
    keys = [f"k{i}" for i in range(6)]
    rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(rng.randint(1, 7))]
    sparse = [LinComb(zip(keys, row)) for row in rows]
    assert rank(sparse) == _dense_rank([[Fraction(c) for c in row] for row in rows])


def test_rank_divides_exactly():
    # a float pivot would leave 2 - 98 * (1/49) = 2.2e-16 behind and count 2
    assert rank([LinComb([("t", 49), ("u", 1)]), LinComb([("t", 98), ("u", 2)])]) == 1
    assert rank([LinComb([("t", 3), ("u", 1)]), LinComb([("t", 1), ("u", 3)])]) == 2


def test_records_sorted_by_key():
    x = LinComb.term("u", Fraction(-1, 3)) + LinComb.term("t", 2)
    assert to_records(x) == [
        {"coeff": "2", "key": "t"},
        {"coeff": "-1/3", "key": "u"},
    ]
    assert str(LinComb.zero()) == "0"


def test_index_keys_render_apart_from_zero():
    A = truncated_polynomial_algebra(3)
    assert str(A.vector([1, 0, 0])) == "e0" != str(A.vector([0, 0, 0]))
    assert str(A.vector([-1, 2, 0])) == "-e0 + 2*e1"
    assert str(A.delta(A.basis(1))) == "e0 ⊗ e1 + e1 ⊗ e0"
