"""Matching dialgebras: composition words, the quotient from trees, and
semi-homomorphism examples.

A matching dialgebra has two associative products additionally satisfying
(x·y)∘z = x·(y∘z) and (x∘y)·z = x∘(y·z); adding the two laws shows that the
pair of products is automatically compatible (every linear combination of
them is associative).

The free matching dialgebra has a basis of words: nonempty sequences of
nonempty letter blocks (text form ``a.b|c``).  Dot concatenates block lists;
circle concatenates merging the boundary blocks.  ``normalize`` is the
quotient map from trees, obtained by repeatedly rewriting
(t₁·...·tᵣ)∘a into t₁·...·(tᵣ∘a).

Any right semi-homomorphism R (a linear map with R(x·y) = R(x)·y) of an
associative algebra induces a matching partner x∘y = x·R(y).
``SemiHomAlgebra`` is the ``FinAlgebra`` whose circle table is that partner;
the truncated polynomial algebra with R = multiplication by X and the
binomial coproduct is its worked example, and its coalgebra residuals are the
shared laws of ``linear`` on index keys.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .algebra import FinAlgebra, _rows, _vector
from .linear import (
    LinComb,
    Tensor,
    _TupleKey,
    bilinear,
    bilinear_keys,
    coassociativity_law,
    coderivation_law,
    linear_map,
    multiplicativity_law,
    tensor,
)
from .trees import COLOR_RE, Tree, check_palette


class Word(_TupleKey):
    """A word of the free matching dialgebra: nonempty blocks of letters.

    Text form: letters joined by '.', blocks by '|'; ``a.b|c`` has blocks
    (a,b) and (c,).  Degree is the total letter count.  The word is the tuple
    of its blocks (``blocks`` returns the word itself), so equality and hash
    are the tuple's, computed in C, and a word equals the plain tuple of its
    blocks.  The package never puts a word and a plain tuple of tuples in one
    ``LinComb``, and a word never equals a ``Path``, whose items are strings.
    The text is rendered each time it is read.
    """

    __slots__ = ()

    def __new__(cls, blocks):
        blocks = tuple(map(tuple, blocks))
        if not blocks or not all(blocks):
            raise ValueError("a word needs nonempty blocks")
        return tuple.__new__(cls, blocks)

    @property
    def blocks(self) -> tuple:
        return self

    @property
    def degree(self) -> int:
        return sum(map(len, self))

    def _render(self) -> str:
        return "|".join(".".join(b) for b in self)

    def __repr__(self):
        return f"Word<{self.text}>"


def parse_word(text: str) -> Word:
    blocks = []
    for chunk in text.split("|"):
        letters = chunk.split(".")
        for letter in letters:
            if not COLOR_RE.fullmatch(letter):
                raise ValueError(f"bad letter {letter!r} in word {text!r}")
        blocks.append(tuple(letters))
    return Word(blocks)


def m_dot(u: Word, w: Word) -> Word:
    """Concatenate block lists."""
    return tuple.__new__(Word, u + w)


def m_circ(u: Word, w: Word) -> Word:
    """Concatenate, merging u's last block with w's first block."""
    return tuple.__new__(Word, u[:-1] + (u[-1] + w[0],) + w[1:])


def word_dot(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_keys(m_dot, x, y)


def word_circ(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_keys(m_circ, x, y)


def word_star(x: LinComb, y: LinComb) -> LinComb:
    """The associative product circ − dot, primitive-generating on words."""
    return word_circ(x, y) - word_dot(x, y)


def normalize(t: Tree) -> Word:
    """Normal form of a tree in the matching quotient.

    A dot product maps to the concatenation of its factors' normal forms; an
    irreducible tree u∘a appends the letter a to the last block of u's form.
    The map intertwines both products and the coproducts.

    Unrolled, this reads the letters in postorder: a leaf opens the block
    ``(color,)``, and a vertex with children appends its color to the last
    block of its children's form.  The walk below meets the vertices in the
    reverse of that order (a stack, rightmost subtree first), so each run of
    colors up to and including a leaf is one block, read backwards.
    """
    blocks = []
    block = []
    stack = list(t.children)
    while stack:
        color, kids = stack.pop()
        block.append(color)
        if kids:
            stack.extend(kids)
        else:
            block.reverse()
            blocks.append(block)
            block = []
    blocks.reverse()
    return Word(blocks)


def normalize_lin(x: LinComb) -> LinComb:
    """Quotient map on linear combinations of trees."""
    return x.map_keys(normalize)


def _coproduct_word(w: Word) -> LinComb:
    last = len(w) - 1
    out = []
    for bi, block in enumerate(w):
        for si in range(1, len(block) + 1):
            if si == len(block):
                if bi == last:
                    continue
                left, right = w[: bi + 1], w[bi + 1 :]
            else:
                left, right = w[:bi] + (block[:si],), (block[si:],) + w[bi + 1 :]
            out.append((Tensor(tuple.__new__(Word, left), tuple.__new__(Word, right)), 1))
    return LinComb(out)


def word_coproduct(x: LinComb) -> LinComb:
    """Deconcatenation along the letter sequence.

    Each of the degree−1 cut positions contributes one term: a cut inside a
    block splits that block in two, a cut at a block boundary splits the
    block list.  Coassociative; infinitesimal for both products; matches the
    tree coproduct through ``normalize``.
    """
    return linear_map(_coproduct_word, x)


# --- one-color specialization: compositions of an integer -------------------


def comp_dot(c: Sequence[int], d: Sequence[int]) -> tuple[int, ...]:
    return tuple(c) + tuple(d)


def comp_circ(c: Sequence[int], d: Sequence[int]) -> tuple[int, ...]:
    c, d = tuple(c), tuple(d)
    return c[:-1] + (c[-1] + d[0],) + d[1:]


def word_shape(w: Word) -> tuple[int, ...]:
    """Block lengths; a dialgebra map onto compositions for one color."""
    return tuple(map(len, w))


def compositions(n: int) -> list[tuple[int, ...]]:
    """All ordered compositions of n, 2^{n-1} of them."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = []
    for cuts in range(1 << (n - 1)):
        parts = []
        size = 1
        for i in range(n - 1):
            if cuts >> i & 1:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        out.append(tuple(parts))
    return out


def enumerate_words(n: int, colors: Sequence[str]) -> list[Word]:
    """All degree-n words over the palette: 2^{n-1} d^n of them."""
    palette = check_palette(colors)
    out = []
    for shape in compositions(n):
        for letters in itertools.product(palette, repeat=n):
            blocks = []
            pos = 0
            for size in shape:
                blocks.append(letters[pos : pos + size])
                pos += size
            out.append(Word(blocks))
    return out


# --- tensor-square products --------------------------------------------------


def _legwise(f: Callable, g: Callable) -> Callable:
    """The key map (a₁⊗a₂, b₁⊗b₂) ↦ f(a₁,b₁) ⊗ g(a₂,b₂), None if a leg is."""

    def on_keys(kx, ky):
        (a1, a2), (b1, b2) = kx.legs, ky.legs
        k1, k2 = f(a1, b1), g(a2, b2)
        return None if k1 is None or k2 is None else Tensor(k1, k2)

    return on_keys


def tensor_square_dot(x: LinComb, y: LinComb, dot_fn: Callable) -> LinComb:
    """Componentwise product on rank-2 tensors: (a₁⊗a₂)·(b₁⊗b₂) = a₁b₁⊗a₂b₂,
    for ``dot_fn`` a key map (a key, or None for zero)."""
    return bilinear_keys(_legwise(dot_fn, dot_fn), x, y)


def tensor_square_star(x: LinComb, y: LinComb, dot_fn: Callable, circ_fn: Callable) -> LinComb:
    """(a₁⊗a₂)∗(b₁⊗b₂) = a₁·b₁ ⊗ a₂∘b₂ + a₁∘b₁ ⊗ a₂·b₂.

    Associative exactly when the underlying pair satisfies the compatibility
    identity; the products are key maps (a key, or None for zero).
    """
    return (bilinear_keys(_legwise(dot_fn, circ_fn), x, y)
            + bilinear_keys(_legwise(circ_fn, dot_fn), x, y))


# --- finite algebras carrying a right semi-homomorphism ----------------------


def _formal_square(square: Callable, *products: Callable) -> Callable:
    """``square`` for products returning table rows, not keys: run on formal
    keys ``(product, i, j)``, then each tensor of two of them evaluated once."""

    def evaluate(key):
        (f, i, j), (g, k, l) = key.legs
        return tensor(f(i, j), g(k, l))

    formal = [lambda i, j, p=p: (p, i, j) for p in products]
    return lambda u, v: linear_map(evaluate, square(u, v, *formal))


class SemiHomAlgebra(FinAlgebra):
    """A finite-dimensional associative algebra with a right semi-homomorphism.

    ``dot_table[i][j]`` holds coordinates of e_i·e_j; ``r_matrix`` holds R by
    columns (``r_matrix[i]`` = coordinates of R(e_i)), kept as sparse rows
    like a ``FinAlgebra``'s.  Construction verifies R(x·y) = R(x)·y on all
    basis pairs, builds the circle rows e_i∘e_j = e_i·R(e_j) and checks both
    products associative and compatible, once (the matching laws imply it).
    The pair (·,∘) is a matching dialgebra.

    An optional coproduct table (``delta_table[i]`` = matrix of Δ(e_i) over
    e_j⊗e_k) enables the coderivation and bialgebra diagnostics.  Their
    residuals, like ``delta``, are LinCombs over ``Tensor(j, k)`` index keys.
    """

    def __init__(self, dot_table, r_matrix, unit=None, delta_table=None):
        self.dim = dim = len(dot_table)
        if dim == 0:
            raise ValueError("tables must be nonempty and of equal dimension")
        self._dot_rows = _rows(dot_table, dim)
        self._r_rows = tuple(_vector(col, dim) for col in r_matrix)
        if len(self._r_rows) != dim:
            raise ValueError("R must be dim x dim")
        es = [self.basis(i) for i in range(dim)]
        for (i, x), (j, y) in itertools.product(enumerate(es), repeat=2):
            if self.r(self.dot(x, y)) != self.dot(self.r(x), y):
                raise ValueError(f"R is not a right semi-homomorphism at ({i},{j})")
        self._circ_rows = tuple(tuple(self.dot(x, self.r(y)) for y in es) for x in es)
        self._check_tables()
        self.unit = self.vector(unit) if unit is not None else None
        if self.unit is not None:
            for i, x in enumerate(es):
                if self.dot(self.unit, x) != x or self.dot(x, self.unit) != x:
                    raise ValueError(f"unit fails at basis vector {i}")
        self._deltas = None
        if delta_table is not None:
            if len(delta_table) != dim or any(len(mat) != dim for mat in delta_table):
                raise ValueError("coproduct table must be dim x dim x dim")
            self._deltas = tuple(
                LinComb((Tensor(j, k), c) for j, row in enumerate(mat) for k, c in row.items())
                for mat in _rows(delta_table, dim)
            )
            for i in range(dim):
                if coassociativity_law(self._delta_key, LinComb.term(i)):
                    raise ValueError(f"coproduct not coassociative at basis vector {i}")

    # basis-level maps on index keys, for the shared laws

    def _r_key(self, i: int) -> LinComb:
        return self._r_rows[i]

    def _delta_key(self, i: int) -> LinComb:
        return self._deltas[i]

    def _coproduct(self) -> Callable:
        if self._deltas is None:
            raise ValueError("this algebra carries no coproduct")
        return self._delta_key

    def r(self, x: LinComb) -> LinComb:
        return linear_map(self._r_key, x)

    def delta(self, x: LinComb) -> LinComb:
        return linear_map(self._coproduct(), x)

    def coderivation_residual(self, x: LinComb) -> LinComb:
        """Δ(R(x)) − (R⊗id + id⊗R)(Δ(x)); zero when R is a coderivation."""
        return coderivation_law(self._coproduct(), self._r_key, x)

    def mult_residual(self, x: LinComb, y: LinComb) -> LinComb:
        """Δ(x·y) − Δ(x)·Δ(y) with the componentwise tensor-square product."""
        square = _formal_square(tensor_square_dot, self._dot_key)
        return multiplicativity_law(self._coproduct(), self.dot, square, x, y)

    def bimatching_residual(self, x: LinComb, y: LinComb) -> LinComb:
        """Δ(x∘y) − Δ(x)∗Δ(y) with the two-term tensor-square product."""
        square = _formal_square(tensor_square_star, self._dot_key, self._circ_key)
        return multiplicativity_law(self._coproduct(), self.circ, square, x, y)


def truncated_polynomial_algebra(m: int) -> SemiHomAlgebra:
    """Polynomials in one variable truncated below X^m.

    Basis 1, X, ..., X^{m-1}; R(X^n) = X^{n+1}; the coproduct sends X^n to
    Σ binom(n,i) X^{n-i} ⊗ X^i.  R(1) = X is primitive, so R is a coderivation
    away from the truncation boundary.
    """
    from math import comb

    if m < 2:
        raise ValueError("need m >= 2")
    dot_table = [
        [[1 if k == i + j else 0 for k in range(m)] for j in range(m)]
        for i in range(m)
    ]
    r_matrix = [[1 if k == i + 1 else 0 for k in range(m)] for i in range(m)]
    unit = [1] + [0] * (m - 1)
    # Δ(X^n)[n-i][i] = binom(n, i)
    delta = []
    for n in range(m):
        mat = [[0] * m for _ in range(m)]
        for i in range(n + 1):
            mat[n - i][i] = comb(n, i)
        delta.append(mat)
    return SemiHomAlgebra(dot_table, r_matrix, unit=unit, delta_table=delta)


def left_multiplication_semihom(dot_table, a_coords) -> SemiHomAlgebra:
    """R(x) = a·x for a fixed element a; always a right semi-homomorphism."""
    dim = len(dot_table)
    rows = _rows(dot_table, dim)
    a = _vector(a_coords, dim)
    r = [bilinear(lambda k, j: rows[k][j], a, LinComb.term(i)) for i in range(dim)]
    return SemiHomAlgebra(dot_table, r)
