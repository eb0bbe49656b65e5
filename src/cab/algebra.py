"""The free algebra with two compatible associative products on colored trees.

The dot product identifies roots; the circle product is defined by recursion
on its right factor and satisfies, together with dot, the compatibility
identity

    x∘(y·z) + x·(y∘z) = (x∘y)·z + (x·y)∘z,

which says exactly that every linear combination of the two products is again
associative.  Elements are ``LinComb`` values keyed by ``Tree``, and
``circle_trees`` is memoised with ``linear.memo``.

``FinAlgebra`` models a finite-dimensional algebra carrying two such products
via structure tables (verified at construction), and ``evaluate`` implements
the universal map from the tree algebra determined by a generator assignment.
"""

from __future__ import annotations

import itertools
from functools import partial, reduce
from typing import Callable, Mapping, Sequence

from .linear import (
    LinComb,
    Scalar,
    _exact,
    _wrap,
    associativity_fails,
    bilinear,
    bilinear_keys,
    compatibility_law,
    linear_map,
    memo,
)
from .trees import (
    Tree,
    factorize,
    is_irreducible,
    root_concat,
    unwrap_root,
    wrap_root,
)


def elem(t: Tree | str) -> LinComb:
    """Wrap a tree (or tree text) as a one-term element."""
    if isinstance(t, str):
        from .trees import parse_tree

        t = parse_tree(t)
    return LinComb.term(t)


def dot(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear extension of root identification; degree-additive."""
    return bilinear_keys(root_concat, x, y)


def circle(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear extension of the circle product on basis trees."""
    return bilinear(circle_trees, x, y)


@memo
def circle_trees(t: Tree, w: Tree) -> LinComb:
    """Circle product of basis trees, by recursion on the right factor.

    Degree 1: hang t below a new vertex carrying w's color.  Irreducible
    w = u∘a: t∘w = (t∘u)∘a.  Reducible w = w'·w'', w' its first factor: the
    compatibility identity solved for t∘w.
    """
    if len(w.children) == 1 and not w.children[0][1]:  # a generator
        return LinComb.term(wrap_root(t, w.children[0][0]))
    if is_irreducible(w):
        # (t∘u)∘a hangs each term of t∘u below a; every relabel below is
        # injective, so no two terms merge
        u, a = unwrap_root(w)
        return _wrap({wrap_root(k, a): c for k, c in circle_trees(t, u).items()})
    # w = w'·w'' (first factor against the rest), by the compatibility
    # identity: t∘w = (t∘w')·w'' + (t·w')∘w'' − t·(w'∘w'')
    w1, w2 = Tree(w.children[:1]), Tree(w.children[1:])
    return LinComb.sum([
        (_wrap({root_concat(k, w2): c for k, c in circle_trees(t, w1).items()}), 1),
        (circle_trees(root_concat(t, w1), w2), 1),
        (_wrap({root_concat(t, k): c for k, c in circle_trees(w1, w2).items()}), -1),
    ])


def star(x: LinComb, y: LinComb, alpha: Scalar = 1, beta: Scalar = 1) -> LinComb:
    """alpha·(x·y) + beta·(x∘y); associative for every coefficient pair."""
    return dot(x, y) * alpha + circle(x, y) * beta


def lie_bracket(mul: Callable, x: LinComb, y: LinComb) -> LinComb:
    """mul(x, y) − mul(y, x); a Lie bracket for dot, circle and star."""
    return mul(x, y) - mul(y, x)


def _vector(coords: Sequence[Scalar] | LinComb, dim: int) -> LinComb:
    """``dim`` coordinates, each made exact by ``linear._exact``, or a LinComb
    over the basis indices, as a validated LinComb over them."""
    if isinstance(coords, LinComb):
        if not all(isinstance(k, int) and 0 <= k < dim for k, _ in coords.items()):
            raise ValueError(f"expected a LinComb over the basis indices 0..{dim - 1}")
        return coords
    v = [_exact(c) for c in coords]
    if len(v) != dim:
        raise ValueError(f"expected a vector of dimension {dim}, got {len(v)}")
    return LinComb(enumerate(v))


def _rows(table, dim: int) -> tuple:
    """A dim x dim structure table of coordinate vectors as rows of LinCombs."""
    rows = tuple(tuple(_vector(entry, dim) for entry in row) for row in table)
    if any(len(row) != dim for row in rows):
        raise ValueError("tables must be square")
    return rows


class FinAlgebra:
    """A finite-dimensional algebra with two products given by structure tables.

    ``dot_table[i][j]`` (resp. ``circ_table``) holds the coordinates of e_i
    times e_j; the tables are kept once, as rows of LinCombs over the basis
    indices ``0..dim-1``, which are the elements.  ``vector`` turns
    coordinates into one.  Construction rejects tables that are not
    associative or that violate the compatibility identity, so the universal
    evaluation map below lands in a genuine target.
    """

    def __init__(self, dot_table, circ_table):
        self.dim = dim = len(dot_table)
        if dim == 0 or len(circ_table) != dim:
            raise ValueError("tables must be nonempty and of equal dimension")
        self._dot_rows = _rows(dot_table, dim)
        self._circ_rows = _rows(circ_table, dim)
        self._check_tables()

    @property
    def zero(self) -> LinComb:
        return LinComb.zero()

    def basis(self, i: int) -> LinComb:
        return LinComb.term(i)

    def vector(self, coords: Sequence[Scalar]) -> LinComb:
        return _vector(coords, self.dim)

    def _dot_key(self, i: int, j: int) -> LinComb:
        return self._dot_rows[i][j]

    def _circ_key(self, i: int, j: int) -> LinComb:
        return self._circ_rows[i][j]

    def dot(self, x: LinComb, y: LinComb) -> LinComb:
        return bilinear(self._dot_key, x, y)

    def circ(self, x: LinComb, y: LinComb) -> LinComb:
        return bilinear(self._circ_key, x, y)

    def _check_tables(self):
        es = [self.basis(i) for i in range(self.dim)]
        for (i, x), (j, y), (k, z) in itertools.product(enumerate(es), repeat=3):
            if associativity_fails(self.dot, x, y, z):
                raise ValueError(f"dot table not associative at ({i},{j},{k})")
            if associativity_fails(self.circ, x, y, z):
                raise ValueError(f"circle table not associative at ({i},{j},{k})")
            if compatibility_law(self.dot, self.circ, x, y, z):
                raise ValueError(f"tables not compatible at ({i},{j},{k})")


def evaluate(target: FinAlgebra, assign: Mapping[str, Sequence[Scalar]], x: LinComb) -> LinComb:
    """The algebra map determined by a generator assignment.

    Generators go to their assigned vectors; an irreducible tree u∘a goes to
    the circle product of the image of u with the image of a; a product of
    irreducibles goes to the dot product of the factor images.  Extended
    linearly; a homomorphism for both products.  The image is a LinComb over
    the target's basis indices.
    """
    vectors = {color: target.vector(v) for color, v in assign.items()}
    return linear_map(partial(_evaluate_tree, target, vectors), x)


def _evaluate_tree(target: FinAlgebra, vectors, t: Tree) -> LinComb:
    if len(t.children) == 1 and not t.children[0][1]:  # a generator
        color = t.children[0][0]
        if color not in vectors:
            raise KeyError(f"no assignment for color {color!r}")
        return vectors[color]
    if is_irreducible(t):
        u, a = unwrap_root(t)
        if a not in vectors:
            raise KeyError(f"no assignment for color {a!r}")
        return target.circ(_evaluate_tree(target, vectors, u), vectors[a])
    images = [_evaluate_tree(target, vectors, f) for f in factorize(t)]
    return reduce(target.dot, images)
