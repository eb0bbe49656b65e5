"""Tree representation, grammar, vertex order, contraction, enumeration."""

import random

import pytest

from cab.trees import (
    Tree,
    TreeSyntaxError,
    canonical_vertex_order,
    catalan,
    contract,
    contract_map,
    enumerate_irreducible,
    enumerate_trees,
    factorize,
    is_irreducible,
    parse_tree,
    root_concat,
    unwrap_root,
    wrap_root,
)


def order_colors(t):
    return [contract(t, [vid]).children[0][0] for vid in canonical_vertex_order(t)]


# --- grammar ---------------------------------------------------------------


def test_parse_simple_forms():
    assert parse_tree("(a)").degree == 1
    t = parse_tree("(a,b)")
    assert [v[0] for v in t.children] == ["a", "b"]
    chain = parse_tree("(b(a))")
    assert chain.children[0][0] == "b"
    assert chain.children[0][1][0][0] == "a"


def test_parse_ignores_whitespace_and_roundtrips():
    t = parse_tree(" ( b ( a ) , c ) ")
    assert t.text == "(b(a),c)"
    assert parse_tree(t.text) == t


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("(a", 2),
        ("a)", 0),
        ("()", 1),
        ("(a,)", 3),
        ("(a))", 3),
        ("(a(b)", 5),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree(text)
    assert err.value.offset == offset


def test_roundtrip_on_enumerated_trees():
    for n in range(1, 5):
        for t in enumerate_trees(n, ["a", "b"]):
            assert parse_tree(t.text) == t


# --- factorization ----------------------------------------------------------


def test_factorize_examples():
    assert [f.text for f in factorize(parse_tree("(a,b)"))] == ["(a)", "(b)"]
    assert [f.text for f in factorize(parse_tree("(b(a))"))] == ["(b(a))"]
    assert [f.text for f in factorize(parse_tree("(a,b(c),d)"))] == ["(a)", "(b(c))", "(d)"]


def test_factorize_properties():
    for n in range(1, 5):
        for t in enumerate_trees(n, ["a"]):
            factors = factorize(t)
            assert all(is_irreducible(f) for f in factors)
            assert sum(f.degree for f in factors) == t.degree
            rebuilt = factors[0]
            for f in factors[1:]:
                rebuilt = root_concat(rebuilt, f)
            assert rebuilt == t


def test_wrap_unwrap_inverse():
    t = parse_tree("(a,b)")
    w = wrap_root(t, "c")
    assert w.text == "(c(a,b))"
    u, color = unwrap_root(w)
    assert (u, color) == (t, "c")
    with pytest.raises(ValueError):
        unwrap_root(parse_tree("(a,b)"))


# --- vertex order -----------------------------------------------------------


def test_canonical_order_examples():
    assert order_colors(parse_tree("(a,b)")) == ["a", "b"]
    assert order_colors(parse_tree("(b(a))")) == ["a", "b"]
    assert order_colors(parse_tree("(d(a,b,c),e)")) == ["a", "b", "c", "d", "e"]


def test_canonical_order_structure():
    for n in range(1, 6):
        for t in enumerate_trees(n, ["a"]):
            order = canonical_vertex_order(t)
            assert len(order) == t.degree
            assert len(set(order)) == t.degree
            factors = factorize(t)
            if len(factors) > 1:
                # all vertices of the first factor precede the rest
                first = sum(1 for vid in order if vid[0] == 0)
                assert all(vid[0] == 0 for vid in order[:first])
                assert all(vid[0] != 0 for vid in order[first:])
            else:
                assert order[-1] == (0,)  # the junction vertex comes last


# --- contraction ------------------------------------------------------------


def test_contract_examples():
    t = parse_tree("(b(a))")
    assert contract(t, canonical_vertex_order(t)) == t
    assert contract(t, [(0, 0)]).text == "(a)"
    big = parse_tree("(d(a,b,c),e)")
    assert contract(big, [(0, 0), (0, 1), (0, 2)]).text == "(a,b,c)"


def test_contract_errors():
    t = parse_tree("(a,b)")
    with pytest.raises(ValueError):
        contract(t, [])
    with pytest.raises(KeyError):
        contract(t, [(5,)])


def test_contract_nested_subsets():
    rng = random.Random(5)
    for t in enumerate_trees(5, ["a"]):
        ids = canonical_vertex_order(t)
        for _ in range(4):
            a = rng.sample(ids, rng.randint(1, len(ids)))
            sub, mapping = contract_map(t, a)
            b = rng.sample(a, rng.randint(1, len(a)))
            assert contract(sub, [mapping[v] for v in b]) == contract(t, b)


def test_contract_preserves_colors():
    t = parse_tree("(d(a,b,c),e)")
    sub = contract(t, [(0,), (1,)])
    assert sub.text == "(d,e)"


# --- enumeration ------------------------------------------------------------


def catalan_oracle(n):
    """Independent convolution recursion, kept local to the tests."""
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def test_catalan_values():
    expected = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    assert [catalan(n) for n in range(11)] == expected
    assert [catalan_oracle(n) for n in range(11)] == expected


def test_enumeration_counts():
    for n in range(1, 9):
        assert len(enumerate_trees(n, ["a"])) == catalan_oracle(n)
    assert len(enumerate_trees(2, ["a", "b"])) == 4 * 2
    assert len(enumerate_trees(3, ["a", "b"])) == 8 * 5
    assert len(enumerate_trees(1, ["a"])) == 1


def test_enumeration_deterministic_and_distinct():
    first = enumerate_trees(4, ["a", "b"])
    second = enumerate_trees(4, ["a", "b"])
    assert [t.text for t in first] == [t.text for t in second]
    assert len(set(first)) == len(first)


def test_enumerate_irreducible():
    for n in range(1, 7):
        irr = enumerate_irreducible(n, ["a"])
        assert len(irr) == catalan_oracle(n - 1)
        assert all(is_irreducible(t) and t.degree == n for t in irr)
    assert len(enumerate_irreducible(3, ["a", "b"])) == 8 * 2


def test_enumeration_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_trees(0, ["a"])
    with pytest.raises(ValueError):
        enumerate_trees(2, [])
    # a color the grammar cannot read back would make unparseable output
    for bad in (["p(q", "r"], ["a b"], ["a\n"]):
        with pytest.raises(ValueError):
            enumerate_trees(2, bad)
        with pytest.raises(ValueError):
            enumerate_irreducible(2, bad)


def test_repeated_colors_refused():
    # a repeated color would list each tree, and each primitive, more than once
    for bad in (["a", "a"], ["a", "b", "a"]):
        with pytest.raises(ValueError, match="repeated color 'a'"):
            enumerate_trees(1, bad)
        with pytest.raises(ValueError, match="repeated color 'a'"):
            enumerate_irreducible(1, bad)


def test_equality_is_canonical_text():
    t = parse_tree("(a,b)")
    assert t == parse_tree(" (a , b) ")
    assert t != parse_tree("(b,a)")
    assert hash(t) == hash(parse_tree("(a,b)"))


def test_separator_in_a_color_does_not_alias_another_tree():
    # both render as "(a,b)"; the degrees are 1 and 2
    odd, t = Tree((("a,b", ()),)), parse_tree("(a,b)")
    assert odd.text == t.text
    assert odd != t
    assert len({odd: 1, t: 2}) == 2
