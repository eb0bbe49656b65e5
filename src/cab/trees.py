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
tuple of vertices; a ``Tree`` wraps the tuple of root children.  Vertices are
addressed by their path of 0-based child indices from the root.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

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


class _Key:
    """Base of the basis keys ``Tree``, ``Word`` and ``Path``.

    A key hashes its nested tuple once, when built, and renders its canonical
    ``text`` the first time it is read.  The ``text`` slot stays unset until
    then; ``__getattr__`` (consulted only for an unset attribute) fills it
    through the subclass's ``_render``, so later reads are plain slot reads
    and return the same object.

    Each subclass sets ``_hash`` in ``__init__``, defines ``_render`` and its
    own ``__eq__`` on its tuple slot, and binds ``__hash__ = _Key.__hash__``
    again, since defining ``__eq__`` resets it to None.
    """

    __slots__ = ("text", "_hash")

    def __getattr__(self, name):
        if name != "text":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        text = self.text = self._render()
        return text

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self.text


class Tree(_Key):
    """An immutable colored planar rooted tree of degree >= 1.

    Two trees are equal exactly when their nested ``children`` tuples are,
    and the hash is that of the tuple.  The canonical text is rendered on
    demand; it alone does not decide equality, because a color holding ','
    or '(' would render like a different tree.  ``degree`` counts the
    vertices each time it is read.
    """

    __slots__ = ("children",)

    def __init__(self, children: tuple):
        if not children:
            raise ValueError("a tree needs at least one non-root vertex")
        self.children = children
        self._hash = hash(children)

    @property
    def degree(self) -> int:
        return _forest_degree(self.children)

    def _render(self) -> str:
        return "(" + ",".join(_render_vertex(v) for v in self.children) + ")"

    def __eq__(self, other):
        return isinstance(other, Tree) and self.children == other.children

    __hash__ = _Key.__hash__

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
    valid = set()

    def collect(vertices, prefix):
        for i, (_, kids) in enumerate(vertices):
            vid = prefix + (i,)
            valid.add(vid)
            collect(kids, vid)

    collect(t.children, ())
    stray = keep - valid
    if stray:
        raise KeyError(f"no vertex {sorted(stray)[0]} in {t}")

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
    return Tree(tuple(forest)), mapping


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """c_0 = 1, c_{n+1} = sum_i c_i c_{n-i}; counts degree-n tree shapes."""
    if n == 0:
        return 1
    return sum(catalan(i) * catalan(n - 1 - i) for i in range(n))


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


def _color_forest(shape, colors: Iterator[str]) -> tuple:
    return tuple((next(colors), _color_forest(kids, colors)) for kids in shape)


def enumerate_trees(n: int, colors: Sequence[str]) -> list[Tree]:
    """All degree-n trees over the palette: d^n * c_n of them, in a fixed order
    (shapes in recursive Catalan order, colorings palette-lexicographic)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    palette = check_palette(colors)
    out = []
    for shape in _forest_shapes(n):
        for coloring in itertools.product(palette, repeat=n):
            out.append(Tree(_color_forest(shape, iter(coloring))))
    return out


def enumerate_irreducible(n: int, colors: Sequence[str]) -> list[Tree]:
    """All degree-n trees whose root has exactly one child: d^n * c_{n-1}."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    palette = check_palette(colors)
    out = []
    for shape in _forest_shapes(n - 1):
        for coloring in itertools.product(palette, repeat=n):
            out.append(Tree(_color_forest((shape,), iter(coloring))))
    return out
