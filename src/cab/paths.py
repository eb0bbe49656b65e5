"""The path algebra over a finite point set.

Basis symbols p[s0,...,sn] (n >= 1) over a point set S.  The product glues
paths whose endpoints match and drops the matched pair:

    p[a,X,b] · p[b,Y,d] = p[a,X,Y,d],     zero when the endpoints differ;

its unit is e = Σ_i p[i,i].  The coproduct distributes the interior letters
over the two factors by order-preserving selection, keeping both endpoints on
each side.  First-point duplication R(p[a,X,b]) = p[a,a,X,b] is a right
semi-homomorphism; the induced second product keeps the matched point once:

    p[X,b] ∘ p[b,Y] = p[X,b,Y].

R is a coderivation for the coproduct.  On the tensor square the coproduct
is multiplicative for the dot product, and the bi-matching law
Δ(x∘y) = Δ(x)∗Δ(y) holds; the path suite asserts all three with the laws of
``linear`` on ``path_model()``.  Componentwise ∘-multiplicativity fails, and
stays a diagnostic pinned to its derived nonzero residual.  The coproduct
of a basis path is memoised with ``linear.memo``.
"""

from __future__ import annotations

import itertools
import re
from typing import Sequence

from .linear import (
    LinComb,
    Model,
    Tensor,
    _merge,
    _TupleKey,
    _wrap,
    coassociativity_law,
    coderivation_law,
    linear_map,
    memo,
)
from .matching import tensor_square_dot, tensor_square_star
from .trees import COLOR_RE


class Path(_TupleKey):
    """A basis path: a tuple of at least two points, text form ``p[a,x,b]``.

    The path is the tuple of its points (``points`` returns the path
    itself), so equality and hash are the tuple's, computed in C, and a path
    equals the plain tuple of its points: ``Path(("a", "b")) == ("a", "b")``.
    The package never puts a path and a plain tuple of strings in one
    ``LinComb``, and a path never equals a ``Word``, whose items are tuples.
    The text is rendered each time it is read.
    """

    __slots__ = ()

    def __new__(cls, points):
        points = tuple(points)
        if len(points) < 2:
            raise ValueError("a path needs at least two points")
        return tuple.__new__(cls, points)

    @property
    def points(self) -> tuple:
        return self

    def _render(self) -> str:
        return "p[" + ",".join(self) + "]"

    def __repr__(self):
        return "Path" + tuple.__repr__(self)


def parse_path(text: str, points: Sequence[str] | None = None) -> Path:
    m = re.match(r"p\[([^]]*)\]$", text.strip())
    if not m:
        raise ValueError(f"bad path literal {text!r}; expected p[a,b,...]")
    symbols = [s.strip() for s in m.group(1).split(",")]
    for s in symbols:
        if not COLOR_RE.fullmatch(s):
            raise ValueError(f"bad point {s!r} in {text!r}")
        if points is not None and s not in points:
            raise ValueError(f"point {s!r} not in the declared set")
    return Path(symbols)


def path_unit(points: Sequence[str]) -> LinComb:
    """e = Σ_i p[i,i]; the two-sided unit for the path product."""
    return LinComb((Path((s, s)), 1) for s in points)


def _mul_paths(p: Path, q: Path) -> Path | None:
    if p[-1] != q[0]:
        return None
    return tuple.__new__(Path, p[:-1] + q[1:])


def _circ_paths(p: Path, q: Path) -> Path | None:
    if p[-1] != q[0]:
        return None
    return tuple.__new__(Path, p + q[1:])


def _glued(key_map, x: LinComb, y: LinComb) -> LinComb:
    """Extend ``key_map`` bilinearly over the pairs of terms that glue.

    The right terms are indexed by their first point once, so each left term
    visits only the right terms starting at its last point; every other pair
    maps to zero.
    """
    starting: dict = {}
    for q, c in y.items():
        starting.setdefault(q[0], []).append((q, c))
    return _wrap(_merge({}, [
        (key_map(p, q), cp * cq) for p, cp in x.items() for q, cq in starting.get(p[-1], ())
    ]))


def path_mul(x: LinComb, y: LinComb) -> LinComb:
    return _glued(_mul_paths, x, y)


def path_circ(x: LinComb, y: LinComb) -> LinComb:
    """x∘y; equals x·R(y) and keeps the matched point once."""
    return _glued(_circ_paths, x, y)


def _r_path(p: Path) -> LinComb:
    return LinComb.term(tuple.__new__(Path, p[:1] + p))


def path_R(x: LinComb) -> LinComb:
    """Duplicate each path's first point; R(x·y) = R(x)·y."""
    return linear_map(_r_path, x)


@memo
def _coproduct_path(p: Path) -> LinComb:
    a, b = p[0], p[-1]
    interior = p[1:-1]
    n = len(interior)
    out = []
    for k in range(n + 1):
        for chosen in itertools.combinations(range(n), k):
            chosen_set = set(chosen)
            left = (a,) + tuple(interior[i] for i in chosen) + (b,)
            right = (a,) + tuple(interior[i] for i in range(n) if i not in chosen_set) + (b,)
            out.append((Tensor(tuple.__new__(Path, left), tuple.__new__(Path, right)), 1))
    return LinComb(out)


def path_coproduct(x: LinComb) -> LinComb:
    """Sum over order-preserving two-colorings of the interior letters."""
    return linear_map(_coproduct_path, x)


def path_model() -> Model:
    """The path algebra's maps, as this module binds them now."""
    return Model(path_mul, path_circ, _coproduct_path, _r_path,
                 lambda u, v: tensor_square_dot(u, v, _mul_paths),
                 lambda u, v: tensor_square_star(u, v, _mul_paths, _circ_paths))


# the path-dense benchmark calls these two residuals by name
def path_coassociativity_residual(x: LinComb) -> LinComb:
    return coassociativity_law(path_model(), x)


def path_coderivation_residual(x: LinComb) -> LinComb:
    """Δ(R(x)) − (R⊗id + id⊗R)(Δ(x)); zero for every x."""
    return coderivation_law(path_model(), x)


def enumerate_paths(points: Sequence[str], max_interior: int) -> list[Path]:
    """All basis paths with up to ``max_interior`` interior points."""
    pts = tuple(points)
    out = []
    for n in range(max_interior + 1):
        for a in pts:
            for interior in itertools.product(pts, repeat=n):
                for b in pts:
                    out.append(Path((a,) + interior + (b,)))
    return out
