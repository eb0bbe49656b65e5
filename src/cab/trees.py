"""Colored planar rooted trees.

A tree here has an uncolored root and at least one further vertex; every
non-root vertex carries a color drawn from some alphabet, and the left to
right order of children matters.  The degree of a tree is its number of
non-root vertices.

Text form (whitespace insignificant between tokens)::

    tree   := '(' forest ')'
    forest := vertex (',' vertex)*
    vertex := COLOR [ '(' forest ')' ]
    COLOR  := [A-Za-z0-9_]+

Canonical rendering uses no whitespace and omits '()' after leaves, e.g.
``(b(a),c)`` is the tree whose root has children b (itself carrying a) and c.

Internally a non-root vertex is a pair ``(color, children)`` with children a
tuple of vertices; a ``Tree`` wraps the tuple of root children, and there is
one ``Tree`` object per such tuple.  Vertices are addressed by their path of
0-based child indices from the root.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

# the one pattern for colors, word letters and path points; use it with
# ``fullmatch`` on a whole name, or ``match`` at an offset when tokenizing
COLOR_RE = re.compile(r"[A-Za-z0-9_]+")

Vertex = tuple  # (color: str, children: tuple[Vertex, ...])
VertexId = tuple  # path of child indices from the root


class TreeSyntaxError(ValueError):
    """Raised on malformed tree text; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _forest_degree(vertices) -> int:
    n = len(vertices)
    for _, kids in vertices:
        if kids:
            n += _forest_degree(kids)
    return n


def _render_vertex(vertex) -> str:
    color, kids = vertex
    if not kids:
        return color
    return color + "(" + ",".join(_render_vertex(v) for v in kids) + ")"


class Tree:
    """An immutable colored planar rooted tree of degree >= 1.

    Trees are interned: ``Tree(children)`` returns the one tree built from an
    equal ``children`` tuple, so two trees are equal exactly when they are the
    same object, and ``object``'s identity equality and hash, computed in C,
    decide every dict lookup.  The table is never cleared, since identity
    equality depends on it.  ``degree`` counts the vertices each time it is
    read.

    The canonical ``text`` is rendered the first time it is read, and kept:
    the slot stays unset until then, and ``__getattr__`` (consulted only for
    an unset attribute) fills it, so later reads are plain slot reads and
    return the same object.  The text alone does not decide equality, because
    a color holding ',' or '(' would render like a different tree.
    """

    __slots__ = ("children", "text")

    _interned: dict = {}  # children tuple -> its one Tree

    def __new__(cls, children: tuple):
        tree = cls._interned.get(children)
        if tree is None:
            if not children:
                raise ValueError("a tree needs at least one non-root vertex")
            tree = object.__new__(cls)
            tree.children = children
            # atomic under the GIL: two threads building one tree get one object
            tree = cls._interned.setdefault(children, tree)
        return tree

    def __getattr__(self, name):
        if name != "text":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        text = self.text = self._render()
        return text

    def __reduce__(self):
        return type(self), (self.children,)

    @property
    def degree(self) -> int:
        return _forest_degree(self.children)

    def _render(self) -> str:
        return "(" + ",".join(_render_vertex(v) for v in self.children) + ")"

    def __str__(self):
        return self.text

    def __repr__(self):
        return f"Tree{self.text}"


def check_palette(colors: Sequence[str]) -> tuple[str, ...]:
    """The palette as a tuple, rejecting an empty one, a malformed color or a
    repeated one."""
    palette = tuple(colors)
    if not palette:
        raise ValueError("palette must be nonempty")
    for i, color in enumerate(palette):
        if not isinstance(color, str) or not COLOR_RE.fullmatch(color):
            raise ValueError(f"bad color {color!r}; a color matches [A-Za-z0-9_]+")
        if color in palette[:i]:
            raise ValueError(f"repeated color {color!r}")
    return palette


def leaf(color: str) -> Tree:
    """The degree-1 tree whose single vertex carries ``color``."""
    return Tree(((color, ()),))


def parse_tree(text: str) -> Tree:
    """Parse tree text; inverse of ``Tree.text`` on canonical forms."""
    pos = _skip_ws(text, 0)
    if pos >= len(text) or text[pos] != "(":
        raise TreeSyntaxError("expected '('", pos)
    vertices, pos = _parse_forest(text, pos + 1)
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != ")":
        raise TreeSyntaxError("expected ')' or ','", pos)
    pos = _skip_ws(text, pos + 1)
    if pos != len(text):
        raise TreeSyntaxError("trailing input after tree", pos)
    return Tree(vertices)


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_forest(text: str, pos: int) -> tuple[tuple, int]:
    pos = _skip_ws(text, pos)
    if pos < len(text) and text[pos] == ")":
        raise TreeSyntaxError("empty forest", pos)
    vertices = []
    while True:
        vertex, pos = _parse_vertex(text, pos)
        vertices.append(vertex)
        pos = _skip_ws(text, pos)
        if pos < len(text) and text[pos] == ",":
            pos = _skip_ws(text, pos + 1)
        else:
            return tuple(vertices), pos


def _parse_vertex(text: str, pos: int) -> tuple[Vertex, int]:
    m = COLOR_RE.match(text, pos)
    if not m:
        raise TreeSyntaxError("expected a color", pos)
    color = m.group()
    pos = _skip_ws(text, m.end())
    kids: tuple = ()
    if pos < len(text) and text[pos] == "(":
        kids, pos = _parse_forest(text, pos + 1)
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise TreeSyntaxError("expected ')' or ','", pos)
        pos += 1
    return (color, kids), pos


def root_concat(t: Tree, w: Tree) -> Tree:
    """Identify the roots of t and w (children of t before children of w)."""
    return Tree(t.children + w.children)


def factorize(t: Tree) -> tuple[Tree, ...]:
    """The unique maximal factorization of t under root identification.

    Each factor is irreducible (its root has exactly one child) and degrees
    add up to ``t.degree``.
    """
    return tuple(Tree((v,)) for v in t.children)


def is_irreducible(t: Tree) -> bool:
    return len(t.children) == 1


def wrap_root(t: Tree, color: str) -> Tree:
    """Hang the whole forest of t below a new vertex carrying ``color``."""
    return Tree(((color, t.children),))


def unwrap_root(t: Tree) -> tuple[Tree, str]:
    """Inverse of ``wrap_root`` on irreducible trees of degree >= 2.

    Returns the tree formed by the subtrees above the root's unique child,
    together with that child's color.
    """
    if not is_irreducible(t):
        raise ValueError(f"{t} is not irreducible")
    color, kids = t.children[0]
    if not kids:
        raise ValueError(f"{t} has degree one")
    return Tree(kids), color


def canonical_vertex_order(t: Tree) -> list[VertexId]:
    """Total order on non-root vertices: left-to-right postorder.

    Children come before their parent, subtrees left to right.  Equivalently:
    factors of a product are ordered block by block, and in an irreducible
    tree the root's child comes last.
    """
    out: list[VertexId] = []

    def visit(vertices, prefix):
        for i, (_, kids) in enumerate(vertices):
            vid = prefix + (i,)
            visit(kids, vid)
            out.append(vid)

    visit(t.children, ())
    return out


def contract(t: Tree, ids: Iterable[VertexId]) -> Tree:
    """Contract t onto a nonempty vertex subset.

    Vertices outside ``ids`` are deleted, their children spliced into the
    parent's child list at their position (deepest vertices first, though the
    result does not depend on order).
    """
    tree, _ = contract_map(t, ids)
    return tree


def contract_map(t: Tree, ids: Iterable[VertexId]) -> tuple[Tree, dict]:
    """Like ``contract`` but also return the old-id -> new-id correspondence."""
    keep = set(ids)
    if not keep:
        raise ValueError("cannot contract onto the empty vertex set")
    mapping: dict = {}

    def rebuild(vertices, prefix, new_prefix, out):
        # out is the child list being assembled at the target level, shared
        # with deleted ancestors so spliced subtrees land at the right slot
        for i, (color, kids) in enumerate(vertices):
            vid = prefix + (i,)
            if vid in keep:
                new_id = new_prefix + (len(out),)
                mapping[vid] = new_id
                sub: list = []
                rebuild(kids, vid, new_id, sub)
                out.append((color, tuple(sub)))
            else:
                rebuild(kids, vid, new_prefix, out)

    forest: list = []
    rebuild(t.children, (), (), forest)
    stray = keep - mapping.keys()
    if stray:
        raise KeyError(f"no vertex {sorted(stray)[0]} in {t}")
    return Tree(tuple(forest)), mapping


def catalan(n: int) -> int:
    """c_n = C(2n, n) / (n + 1); counts degree-n tree shapes."""
    return comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def _forest_shapes(n: int) -> tuple:
    """All uncolored forests with n vertices, ordered by first-subtree size."""
    if n == 0:
        return ((),)
    out = []
    for k in range(1, n + 1):
        for first in _forest_shapes(k - 1):
            for rest in _forest_shapes(n - k):
                out.append(((first,) + rest))
    return tuple(out)


@lru_cache(maxsize=None)
def _colored_forests(shape: tuple, palette: tuple) -> tuple:
    """Every coloring of a forest shape, palette-lexicographic in preorder.

    Memoised, so each colored subtree is built once and shared by every
    forest that contains it.
    """
    if not shape:
        return ((),)
    firsts = [(c, k) for c in palette for k in _colored_forests(shape[0], palette)]
    rests = _colored_forests(shape[1:], palette)
    return tuple((v,) + r for v in firsts for r in rests)


def enumerate_trees(n: int, colors: Sequence[str]) -> list[Tree]:
    """All degree-n trees over the palette: d^n * c_n of them, in a fixed order
    (shapes in recursive Catalan order, colorings palette-lexicographic)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    palette = check_palette(colors)
    return [Tree(f) for shape in _forest_shapes(n) for f in _colored_forests(shape, palette)]


def enumerate_irreducible(n: int, colors: Sequence[str]) -> list[Tree]:
    """All degree-n trees whose root has exactly one child: d^n * c_{n-1}."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    palette = check_palette(colors)
    return [
        Tree(f) for shape in _forest_shapes(n - 1) for f in _colored_forests((shape,), palette)
    ]
