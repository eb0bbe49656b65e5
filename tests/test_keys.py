"""Basis keys built every way the package builds them.

``Tree`` and ``Tensor`` are interned: equal keys built by any route are one
object, and equality and hash are ``object``'s.  ``Word`` and ``Path`` are
tuples of their items, with the tuple's equality and hash.  A tree renders
its text when first read and keeps it; a word or path renders it on every
read.  Whatever built a key, its ``degree``, ``str``, hash and equality must
agree with the key obtained by parsing ``str(key)`` again.
"""

import copy
import itertools
import os
import pickle
import subprocess
import sys
import threading
from functools import reduce

from cab import matching
from cab.infinitesimal import _fold_dot, coproduct, coproduct_closed, coproduct_tree
from cab.linear import (
    LinComb,
    Tensor,
    apply_on_leg,
    bimatching_law,
    multiplicativity_law,
    tensor,
)
from cab.matching import (
    Word,
    compositions,
    enumerate_words,
    m_circ,
    m_dot,
    normalize,
    parse_word,
    truncated_polynomial_algebra,
    word_coproduct,
)
from cab.paths import (
    Path,
    _circ_paths,
    _coproduct_path,
    _mul_paths,
    enumerate_paths,
    parse_path,
    path_circ,
    path_coproduct,
    path_mul,
    path_R,
)
from cab.trees import (
    COLOR_RE,
    Tree,
    canonical_vertex_order,
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

COLORS = ("a", "b")


def assert_agrees(key, parse):
    """The key and its re-parsed copy agree on every field, read in turn."""
    again = parse(str(key))
    assert type(again) is type(key)
    assert key == again and again == key
    assert hash(key) == hash(again)
    if isinstance(key, Tree):
        assert key.text is key.text
    else:
        assert key.text == key.text
    assert str(key) == key.text == again.text == str(again)
    if not isinstance(key, Path):
        # the letter count, read off the text independently of ``degree``
        assert key.degree == again.degree == len(COLOR_RE.findall(key.text))


def trees_up_to(n):
    return [t for d in range(1, n + 1) for t in enumerate_trees(d, COLORS)]


def _copy_forest(vertices):
    return tuple((color, _copy_forest(kids)) for color, kids in vertices)


def fresh(t):
    """t built again from a new copy of its nested tuple: t itself."""
    again = Tree(_copy_forest(t.children))
    assert again is t and again.children is t.children
    return again


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
    assert type(t).__hash__ is object.__hash__ and type(t).__eq__ is object.__eq__
    assert hash(w) == hash(w.blocks)
    assert hash(p) == hash(p.points)
    assert Word([["a", "b"], ["c"]]) == w  # blocks given as lists become tuples


def test_built_flat_keys_are_exactly_words_and_paths():
    paths = enumerate_paths(("a", "b", "x"), 2)
    x = LinComb((p, i % 3 + 1) for i, p in enumerate(paths))
    path_keys = [*path_mul(x, x).items(), *path_circ(x, x).items(), *path_R(x).items()]
    assert path_keys
    assert all(type(k) is Path for k, _ in path_keys)
    legs = [leg for k, _ in path_coproduct(x).items() for leg in k.legs]
    assert legs and all(type(leg) is Path for leg in legs)

    words = [w for d in range(1, 4) for w in enumerate_words(d, COLORS)]
    built = [m(u, w) for u, w in itertools.product(words, repeat=2) for m in (m_dot, m_circ)]
    assert all(type(w) is Word for w in built)
    y = LinComb((w, 1) for w in words + built)
    legs = [leg for k, _ in word_coproduct(y).items() for leg in k.legs]
    assert legs and all(type(leg) is Word for leg in legs)


def test_flat_keys_equal_only_their_own_plain_tuples(monkeypatch):
    # documented: a flat key is the tuple of its items, and equals it
    assert Path(("a", "b")) == ("a", "b") and hash(Path(("a", "b"))) == hash(("a", "b"))
    assert Word([("a",), ("b", "c")]) == (("a",), ("b", "c"))
    # the other plain tuples the package keys a LinComb by: the formal keys
    # (product, i, j) of ``matching._formal_square`` and compositions of ints
    formal = []

    def spy(square):
        def recorded(u, v, *products):
            out = square(u, v, *products)
            formal.extend(leg for key, _ in out.items() for leg in key.legs)
            return out

        return recorded

    monkeypatch.setattr(matching, "tensor_square_dot", spy(matching.tensor_square_dot))
    monkeypatch.setattr(matching, "tensor_square_star", spy(matching.tensor_square_star))
    alg = truncated_polynomial_algebra(4)
    xs = [alg.basis(i) for i in range(4)]
    for u, v in itertools.product(xs, repeat=2):
        multiplicativity_law(alg.model, u, v)
        bimatching_law(alg.model, u, v)
    assert formal and all(len(k) == 3 and callable(k[0]) for k in formal)
    composition_keys = [c for n in range(1, 8) for c in compositions(n)]

    paths = enumerate_paths(("a", "b", "x"), 5)  # two to seven points
    words = [w for d in range(1, 8) for w in enumerate_words(d, COLORS)]
    flat = set(paths) | set(words)
    assert len(flat) == len(paths) + len(words)  # no path equals a word
    same_length: dict = {}
    for k in flat:
        same_length.setdefault(len(k), []).append(k)
    for key in set(formal) | set(composition_keys):
        assert key not in flat
        assert all(key != k for k in same_length.get(len(key), ()))


def test_unknown_attribute_still_raises():
    t = parse_tree("(a)")
    assert not hasattr(t, "colour")
    assert not hasattr(Word([("a",)]), "points")


def test_equal_trees_and_tensors_are_one_object():
    small = trees_up_to(4)
    for t in small:
        assert parse_tree(t.text) is t is parse_tree(" " + t.text.replace(",", " , "))
        assert reduce(root_concat, factorize(t)) is t
        assert contract(t, canonical_vertex_order(t)) is t
        for f in factorize(t):
            assert f is parse_tree(f.text)
        for color in COLORS:
            assert wrap_root(t, color) is parse_tree(f"({color}{t.text})")
            u, c = unwrap_root(wrap_root(t, color))
            assert u is t and c == color
        for left, right in itertools.combinations(canonical_vertex_order(t), 2):
            sub = contract(t, [left, right])
            assert sub is parse_tree(sub.text)
    for n in range(1, 5):
        trees = enumerate_trees(n, COLORS)
        assert all(a is b for a, b in zip(trees, enumerate_trees(n, list(COLORS))))
        assert all(t is parse_tree(t.text) for t in trees)
        irreducible = [t for t in trees if is_irreducible(t)]
        assert all(a is b for a, b in zip(irreducible, enumerate_irreducible(n, COLORS)))

    for s, t in itertools.product(trees_up_to(3), repeat=2):
        st = parse_tree("(" + s.text[1:-1] + "," + t.text[1:-1] + ")")
        assert root_concat(s, t) is st
        assert _fold_dot(Tensor(s, t)) is st
        assert Tensor(s, t) is Tensor(parse_tree(s.text), parse_tree(t.text))
        [(key, _)] = tensor(LinComb.term(s), LinComb.term(t)).items()
        assert key is Tensor(s, t)
        [(key, _)] = apply_on_leg(LinComb.term, LinComb.term(Tensor(s, t)), 1).items()
        assert key is Tensor(s, t)
    for t in small:
        closed = coproduct_closed(t)
        assert coproduct_tree(t) == closed
        for key, _ in coproduct_tree(t).items():
            assert key is Tensor(*(parse_tree(leg.text) for leg in key.legs))
            assert closed.coeff(key) != 0
    assert Tensor.__hash__ is object.__hash__ and Tensor.__eq__ is object.__eq__


def test_threads_building_equal_trees_get_one_object():
    # a palette no other test enumerates, so the threads meet a cold table
    palette = ("q0", "q1")
    start = threading.Barrier(4)
    results = [None] * 4

    def build(i):
        start.wait()
        results[i] = enumerate_trees(5, palette)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results[0]) == 1344
    for other in results[1:]:
        assert len(other) == 1344
        assert all(a is b for a, b in zip(results[0], other))


def test_copies_and_pickles_of_a_key_are_the_key():
    t = parse_tree("(b(a),c)")
    keys = [t, Tensor(t, parse_tree("(a)")), Tensor(parse_word("a.b|c"), parse_path("p[a,x]"))]
    for key in keys:
        assert copy.copy(key) is key
        assert copy.deepcopy(key) is key
        assert pickle.loads(pickle.dumps(key)) is key
    x = coproduct(LinComb([(t, 2), (parse_tree("(a(b,c))"), -1)]))
    assert x
    assert copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


def test_flat_keys_pickled_by_another_process_hash_here():
    # the hash of a tuple of strings differs between processes, so a pickle
    # must rebuild the key rather than carry its hash
    code = (
        "import pickle, sys; from cab.matching import parse_word; from cab.paths import parse_path;"
        "sys.stdout.buffer.write(pickle.dumps((parse_word('a.b|c'), parse_path('p[a,x,b]'))))"
    )
    for seed in ("1", "2"):  # at least one differs from this process's
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        data = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60
        ).stdout
        word, path = pickle.loads(data)
        assert {parse_word("a.b|c"): 1}.get(word) == 1
        assert {parse_path("p[a,x,b]"): 1}.get(path) == 1
