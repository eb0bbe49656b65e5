"""The path algebra: product, coproduct, R, and the diagnostics."""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cab.linear import (
    LinComb,
    Tensor,
    bilinear_keys,
    bimatching_law,
    multiplicativity_law,
    tensor,
)
from cab.matching import tensor_square_dot
from cab.paths import (
    Path,
    _circ_paths,
    _mul_paths,
    enumerate_paths,
    parse_path,
    path_circ,
    path_coassociativity_residual,
    path_coderivation_residual,
    path_coproduct,
    path_model,
    path_mul,
    path_R,
    path_unit,
)

S = ("a", "b", "x")


def p(*points):
    return LinComb.term(Path(points))


def test_parse_and_format():
    q = parse_path("p[a, x, b]")
    assert q.points == ("a", "x", "b")
    assert str(q) == "p[a,x,b]"
    with pytest.raises(ValueError):
        parse_path("p[a]")
    with pytest.raises(ValueError):
        parse_path("[a,b]")
    with pytest.raises(ValueError):
        parse_path("p[a,c]", points=S)


def test_product_rules():
    assert path_mul(p("a", "x"), p("x", "b")) == p("a", "b")
    assert path_mul(p("a", "b"), p("x", "b")).is_zero
    assert path_mul(p("a", "x", "b"), p("b", "x", "a")) == p("a", "x", "x", "a")


# a LinComb over paths of two to five points drawn from two or three points,
# with repeated paths whose coefficients may cancel
path_terms = st.sampled_from([("a", "b"), S]).flatmap(
    lambda points: st.lists(
        st.tuples(
            st.lists(st.sampled_from(points), min_size=2, max_size=5).map(Path),
            st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)),
        ),
        max_size=8,
    )
)


@settings(deadline=None)
@given(path_terms, path_terms, st.lists(st.booleans()))
def test_path_products_equal_the_key_map_extension(xs, ys, negate):
    # appending negated copies of some terms makes them cancel in x
    x = LinComb(xs + [(k, -c) for (k, c), flag in zip(xs, negate) if flag])
    y = LinComb(ys)
    zero = LinComb.zero()
    for product, key_map in ((path_mul, _mul_paths), (path_circ, _circ_paths)):
        for u, v in ((x, y), (y, x), (x, x), (x, zero), (zero, y)):
            got = product(u, v)
            assert got == bilinear_keys(key_map, u, v)
            assert all(isinstance(c, (int, Fraction)) and c for _, c in got.items())


def test_path_products_visit_only_the_pairs_that_glue(monkeypatch):
    from cab import paths

    rng = random.Random(5)
    pool = enumerate_paths(S, 2)
    x = LinComb((rng.choice(pool), rng.randint(1, 3)) for _ in range(20))
    y = LinComb((rng.choice(pool), rng.randint(1, 3)) for _ in range(20))
    gluing = sorted((p, q) for p, _ in x.items() for q, _ in y.items() if p[-1] == q[0])
    assert 0 < len(gluing) < len(x) * len(y)
    for name, product in (("_mul_paths", path_mul), ("_circ_paths", path_circ)):
        key_map, visited = getattr(paths, name), []

        def spy(p, q, key_map=key_map, visited=visited):
            visited.append((p, q))
            return key_map(p, q)

        monkeypatch.setattr(paths, name, spy)  # looked up when the product is called
        assert product(x, y) == bilinear_keys(key_map, x, y)
        assert sorted(visited) == gluing


def test_unit():
    e = path_unit(S)
    rng = random.Random(31)
    pool = enumerate_paths(S, 2)
    for _ in range(20):
        x = LinComb.term(rng.choice(pool)) + LinComb.term(rng.choice(pool)) * rng.randint(-2, 2)
        assert path_mul(e, x) == x
        assert path_mul(x, e) == x


def test_coproduct_examples():
    assert path_coproduct(p("a", "b")) == LinComb.term(Tensor(Path(("a", "b")), Path(("a", "b"))))
    e = path_unit(S)
    assert path_coproduct(e) == LinComb(
        [(Tensor(Path((s, s)), Path((s, s))), 1) for s in S]
    )
    assert path_coproduct(e) != tensor(e, e)
    got = path_coproduct(p("a", "a", "a"))
    assert got == LinComb.term(Tensor(Path(("a", "a", "a")), Path(("a", "a")))) + LinComb.term(
        Tensor(Path(("a", "a")), Path(("a", "a", "a")))
    )


def test_coproduct_repeated_letters_accumulate():
    got = path_coproduct(p("a", "x", "x", "b"))
    middle = got.coeff(Tensor(Path(("a", "x", "b")), Path(("a", "x", "b"))))
    assert middle == 2  # either interior x may go left


def test_r_rules():
    assert path_R(p("a", "b")) == p("a", "a", "b")
    e = path_unit(S)
    assert path_R(e) == LinComb([(Path((s, s, s)), 1) for s in S])
    rng = random.Random(32)
    pool = enumerate_paths(S, 2)
    for _ in range(30):
        x = LinComb.term(rng.choice(pool))
        y = LinComb.term(rng.choice(pool))
        assert path_R(path_mul(x, y)) == path_mul(path_R(x), y)


def test_circ_rules_and_dual_route():
    assert path_circ(p("a", "x"), p("x", "b")) == p("a", "x", "b")
    assert path_circ(p("a", "x"), p("b", "x")).is_zero
    rng = random.Random(33)
    pool = enumerate_paths(S, 2)
    for _ in range(30):
        x = LinComb.term(rng.choice(pool))
        y = LinComb.term(rng.choice(pool))
        # direct rule vs. the defining route through R
        assert path_circ(x, y) == path_mul(x, path_R(y))


def test_matching_laws():
    rng = random.Random(34)
    pool = enumerate_paths(S, 2)
    for _ in range(40):
        x, y, z = (LinComb.term(rng.choice(pool)) for _ in range(3))
        assert path_mul(path_mul(x, y), z) == path_mul(x, path_mul(y, z))
        assert path_circ(path_circ(x, y), z) == path_circ(x, path_circ(y, z))
        assert path_circ(path_mul(x, y), z) == path_mul(x, path_circ(y, z))
        assert path_mul(path_circ(x, y), z) == path_circ(x, path_mul(y, z))


def test_coassociativity():
    for q in enumerate_paths(("a", "b"), 3):
        assert path_coassociativity_residual(LinComb.term(q)).is_zero


def test_coderivation_residual_zero():
    assert path_coderivation_residual(p("a", "b")).is_zero
    assert path_coderivation_residual(path_unit(S)).is_zero
    assert path_coderivation_residual(p("a", "x", "x", "b")).is_zero
    for q in enumerate_paths(("a", "x"), 3):
        assert path_coderivation_residual(LinComb.term(q)).is_zero


def test_mult_diagnostic_dot_zero_on_basis_pairs():
    pool = enumerate_paths(("a", "x"), 2)
    for q, r in itertools.product(pool, repeat=2):
        assert multiplicativity_law(path_model(), LinComb.term(q), LinComb.term(r)).is_zero


def test_mult_diagnostic_circ_pinned_residual():
    x, y = p("a", "x"), p("x", "b")
    model = path_model()
    square = partial(tensor_square_dot, dot_fn=_circ_paths)
    got = multiplicativity_law(model._replace(dot=model.circ, square_dot=square), x, y)
    expected = (
        LinComb.term(Tensor(Path(("a", "b")), Path(("a", "x", "b"))))
        + LinComb.term(Tensor(Path(("a", "x", "b")), Path(("a", "b"))))
        - LinComb.term(Tensor(Path(("a", "x", "b")), Path(("a", "x", "b"))))
    )
    assert got == expected
    assert got  # the diagnostic is genuinely nonzero


def test_bimatching_residual():
    e = path_unit(S)
    model = path_model()
    assert bimatching_law(model, e, e).is_zero
    assert bimatching_law(model, p("a", "b"), p("b", "x")).is_zero
    pool = enumerate_paths(("a", "x"), 2)
    for q, r in itertools.product(pool[:8], repeat=2):
        assert bimatching_law(model, LinComb.term(q), LinComb.term(r)).is_zero


def test_enumerate_paths_count():
    assert len(enumerate_paths(S, 4)) == 9 * (1 + 3 + 9 + 27 + 81)


def test_path_suite_fails_on_nonzero_dot_and_bimatching_residuals(monkeypatch):
    from cab import paths, verify

    e = path_unit(("a",))
    nonzero = LinComb.term(Tensor(Path(("a", "a")), Path(("a", "a"))))
    real_mult = verify.multiplicativity_law

    def fake_bimatching(m, x, y):
        return nonzero if x == e and y == e else LinComb.zero()

    def fake_mult(m, x, y):  # nonzero for ·, the real diagnostic for ∘
        return nonzero if m.dot is paths.path_mul else real_mult(m, x, y)

    monkeypatch.setattr(verify, "bimatching_law", fake_bimatching)
    monkeypatch.setattr(verify, "multiplicativity_law", fake_mult)
    checks = {c.name: c for c in verify.suite_path(points=("a",), max_interior=1)}
    assert not checks["path-mult-diagnostic-dot"].ok
    assert not checks["path-bimatching-diagnostic"].ok


def test_path_exhaustive_sweeps_fail_on_non_associative_circ(monkeypatch):
    from cab import paths, verify

    # keeps the chain (first point of p, last point of q) but not associativity
    monkeypatch.setattr(paths, "_circ_paths", lambda p, q: Path(p.points[:1] + q.points))
    checks = {c.name: c for c in verify.suite_path(points=("a", "b"), max_interior=1)}
    assert not checks["path-associativity-exhaustive"].ok
    assert not checks["path-matching-laws-exhaustive"].ok
