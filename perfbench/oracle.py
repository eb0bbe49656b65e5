"""An independent path-algebra reference for checking ``path-dense`` outputs.

Elements are plain dicts from point tuples (or pairs of point tuples, for the
tensor square) to integers.  The rules follow the definitions in the
``cab.paths`` module docstring, written again without any of its code:

    p[X,b] · p[b,Y] = p[X,Y],   p[X,b] ∘ p[b,Y] = p[X,b,Y],   zero otherwise;
    Δ(p[a,I,b]) = Σ p[a,I',b] ⊗ p[a,I'',b] over order-preserving splits I = I' ⊔ I''.
"""

from __future__ import annotations

import itertools


def element(terms) -> dict:
    out: dict = {}
    for points, coeff in terms:
        out[points] = out.get(points, 0) + coeff
    return {k: c for k, c in out.items() if c}


def _bilinear(x: dict, y: dict, glue) -> dict:
    out: dict = {}
    for p, a in x.items():
        for q, b in y.items():
            if p[-1] == q[0]:
                key = glue(p, q)
                out[key] = out.get(key, 0) + a * b
    return {k: c for k, c in out.items() if c}


def mul(x: dict, y: dict) -> dict:
    return _bilinear(x, y, lambda p, q: p[:-1] + q[1:])


def circ(x: dict, y: dict) -> dict:
    return _bilinear(x, y, lambda p, q: p + q[1:])


def coproduct(x: dict) -> dict:
    out: dict = {}
    for p, c in x.items():
        a, interior, b = p[0], p[1:-1], p[-1]
        for mask in itertools.product((0, 1), repeat=len(interior)):
            left = (a,) + tuple(s for s, m in zip(interior, mask) if m) + (b,)
            right = (a,) + tuple(s for s, m in zip(interior, mask) if not m) + (b,)
            out[(left, right)] = out.get((left, right), 0) + c
    return {k: c for k, c in out.items() if c}


def _path_text(points) -> str:
    return "p[" + ",".join(points) + "]"


def render(x: dict) -> list[str]:
    """Lines ``"<coeff> <key>"`` sorted by key text, as ``cab path`` prints them."""
    rows = []
    for key, c in x.items():
        if isinstance(key[0], tuple):
            text = " ⊗ ".join(_path_text(leg) for leg in key)
        else:
            text = _path_text(key)
        rows.append((text, str(c)))
    rows.sort()
    return [f"{c} {text}" for text, c in rows]
