"""Basis keys built every way the package builds them.

``Tree``, ``Word`` and ``Path`` hash their tuple when built and render their
text only when first read.  Whatever built a key, its ``degree``, ``str``,
hash and equality must agree with the key obtained by parsing ``str(key)``
again, and ``text`` is rendered once.
"""

import itertools

from cab.matching import Word, enumerate_words, m_circ, m_dot, normalize, parse_word
from cab.paths import Path, _circ_paths, _coproduct_path, _mul_paths, enumerate_paths, parse_path
from cab.trees import (
    COLOR_RE,
    Tree,
    canonical_vertex_order,
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

COLORS = ("a", "b")


def assert_agrees(key, parse):
    """The key and its re-parsed copy agree on every field, read in turn."""
    again = parse(str(key))
    assert type(again) is type(key)
    assert key == again and again == key
    assert hash(key) == hash(again)
    assert key.text is key.text
    assert str(key) == key.text == again.text == str(again)
    if not isinstance(key, Path):
        # the letter count, read off the text independently of ``degree``
        assert key.degree == again.degree == len(COLOR_RE.findall(key.text))


def trees_up_to(n):
    return [t for d in range(1, n + 1) for t in enumerate_trees(d, COLORS)]


def fresh(t):
    """A copy of t that has not rendered its text yet."""
    return Tree(t.children)


def test_parsed_and_enumerated_trees():
    for t in trees_up_to(5):
        assert_agrees(t, parse_tree)
        assert_agrees(parse_tree(t.text), parse_tree)
    for d in range(1, 6):
        for t in enumerate_irreducible(d, COLORS):
            assert_agrees(t, parse_tree)


def test_trees_built_from_trees():
    small = trees_up_to(4)
    for s, t in itertools.product(small, repeat=2):
        if s.degree + t.degree > 5:
            continue
        assert_agrees(root_concat(fresh(s), fresh(t)), parse_tree)
    for t, color in itertools.product(small, COLORS):
        assert_agrees(wrap_root(fresh(t), color), parse_tree)
    for t in trees_up_to(5):
        for f in factorize(fresh(t)):
            assert_agrees(f, parse_tree)
        if is_irreducible(t) and t.degree > 1:
            u, _ = unwrap_root(fresh(t))
            assert_agrees(u, parse_tree)


def test_contracted_trees():
    for t in trees_up_to(5):
        if t.degree == 1:
            continue
        order = canonical_vertex_order(t)
        cuts = [order[:i] for i in range(1, len(order))]
        cuts += [order[i:] for i in range(1, len(order))]
        cuts += list(itertools.combinations(order, len(order) - 1))
        for ids in cuts:
            sub, _ = contract_map(fresh(t), ids)
            assert_agrees(sub, parse_tree)


def test_word_keys():
    words = [w for d in range(1, 4) for w in enumerate_words(d, COLORS)]
    for w in words:
        assert_agrees(w, parse_word)
        assert_agrees(parse_word(w.text), parse_word)
    for u, w in itertools.product(words, repeat=2):
        assert_agrees(m_dot(u, w), parse_word)
        assert_agrees(m_circ(u, w), parse_word)
    for t in trees_up_to(5):
        assert_agrees(normalize(t), parse_word)


def test_path_keys():
    paths = enumerate_paths(("a", "b", "x"), 2)
    for p in paths:
        assert_agrees(p, parse_path)
        for key, _ in _coproduct_path(p).items():
            for leg in key.legs:
                assert_agrees(leg, parse_path)
    for p, q in itertools.product(paths, repeat=2):
        for product in (_mul_paths, _circ_paths):
            key = product(p, q)
            if key is not None:
                assert_agrees(key, parse_path)


def test_each_key_hashes_its_tuple():
    t, w, p = parse_tree("(b(a),c)"), parse_word("a.b|c"), parse_path("p[a,x,b]")
    assert hash(t) == hash(t.children)
    assert hash(w) == hash(w.blocks)
    assert hash(p) == hash(p.points)
    assert Word([["a", "b"], ["c"]]) == w  # blocks given as lists become tuples


def test_unknown_attribute_still_raises():
    t = parse_tree("(a)")
    assert not hasattr(t, "colour")
    assert not hasattr(Word([("a",)]), "points")
