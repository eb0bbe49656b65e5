"""Sparse linear combinations over the rationals.

Every algebra in this package is a vector space over Q with some canonical
basis (trees, words, paths, tensor tuples).  Elements are represented as
immutable sparse mappings from basis keys to nonzero exact coefficients.  A
coefficient is a plain ``int`` while it is an integer, which covers every
structure map here, and becomes a ``fractions.Fraction`` only where a
division happens (``rank``) or a scalar is not an integer.  Either way it
compares, hashes and renders by its value (``2 == Fraction(2)``,
``str(2) == str(Fraction(2))``); no floating point is used anywhere, so
"equals zero" always means exactly zero.

Basis keys only need to be hashable and to render a canonical text via
``str``; the text is used for deterministic term ordering in output and for
pivot selection during rank computation.  No dict lookup renders text.  A
finite algebra's basis index i is an ``int`` key and prints as ``e{i}``, so
e₀ does not print as the zero element ``0``.
``Tree`` and ``Tensor`` are interned, one object per nested tuple, so they
keep ``object``'s identity equality and hash, computed in C.  The flat keys
``Word`` and ``Path`` are tuples of their items (``_TupleKey``), so their
equality and hash are the tuple's, also computed in C.  A tree renders its
text when it is first read and keeps it; a word or path renders it each time
it is read.

All accumulation goes through one in-place merge (``_merge``), which adds or
subtracts coefficients key by key and drops any that cancel.  A new structure
map is written as a basis-level function returning a LinComb and extended
with ``linear_map`` or ``bilinear`` (or, for a signed sum of pieces,
``LinComb.sum``), never as a loop that adds each scaled image to a running
sum, which copies the whole sum on every step.  A product that sends two
basis keys to one key or to zero (the tree dot, both word products, the path
products and their tensor squares) is a key map returning a key or ``None``,
extended with ``bilinear_keys``; no one-term LinComb is built per pair.  The
path products index the right factor's terms by first point and call their
key map only on the pairs that glue.  A recursive basis map is memoised
with ``memo``, and ``clear_memos`` empties every memo.

The laws section writes each law of the paper once.  The coalgebra laws
read one ``Model`` record per algebra, and a variant, such as ∘ in place of
·, is the law on ``m._replace(...)``; they and compatibility return their
residuals.  Associativity, the matching laws and the homomorphism law are
predicates, true when the law fails, because the exhaustive sweeps also run
them on bare keys.
"""

from __future__ import annotations

import functools
import numbers
import operator
from collections.abc import Callable, Hashable, Iterable, Mapping
from fractions import Fraction
from typing import NamedTuple

Scalar = Fraction | int


def _merge(
    data: dict, items: Iterable[tuple[Hashable, Scalar]], op: Callable = operator.add
) -> dict:
    """Set ``data[key] = op(data[key], c)`` for each pair, in place.

    ``op`` is ``operator.add`` or ``operator.sub``.  A key not yet present
    takes ``c`` (or ``-c``) as it is, so an ``int`` stays an ``int`` and no
    mixed int-Fraction operation is paid; a coefficient that cancels to zero
    is dropped.
    """
    get = data.get
    negate = op is operator.sub
    for key, c in items:
        old = get(key)
        if old is not None:
            s = op(old, c)
            if s:
                data[key] = s
            else:
                del data[key]
        elif c:
            data[key] = -c if negate else c
    return data


def _exact(c) -> Scalar:
    """``c`` as a coefficient: an ``int`` or a ``Fraction`` as it is, any
    other number (a float, a ``Decimal``) as the exact ``Fraction`` of its
    value.  Anything else, a string included, is refused with ``TypeError``,
    as ``*`` refuses it."""
    if isinstance(c, (int, Fraction)):
        return c
    if not isinstance(c, numbers.Number):
        raise TypeError(f"a coefficient must be a number, not {type(c).__name__} {c!r}")
    return Fraction(c)


_MEMOS: list = []  # every ``memo``, in the order the modules define them


def memo(f: Callable) -> Callable:
    """The basis map ``f``, which never returns ``None``, memoised in the dict
    ``table`` and registered for ``clear_memos``.  One argument is its own
    key; ``functools.cache`` would key it by a 1-tuple, one more object per
    entry for the garbage collector, and that moved a full collection (about
    40 ms) into a timed pass over the degree-7 primitive basis."""
    table: dict = {}
    get = table.get
    if f.__code__.co_argcount == 1:
        def cached(key):
            value = get(key)
            if value is None:
                value = table[key] = f(key)
            return value
    else:
        def cached(*key):
            value = get(key)
            if value is None:
                value = table[key] = f(*key)
            return value
    cached.table = table
    _MEMOS.append(cached)
    return functools.update_wrapper(cached, f)


def clear_memos() -> None:
    """Empty every memo.  The intern tables of ``Tree`` and ``Tensor`` stay:
    equality of those keys is identity, so a key built after a clear must be
    the object that a caller may still hold."""
    for cached in _MEMOS:
        cached.table.clear()


def _key_text(key) -> str:
    """A basis key's text; a basis index i of a finite algebra reads ``e{i}``."""
    return f"e{key}" if isinstance(key, int) else str(key)


def _wrap(data: dict) -> "LinComb":
    """A LinComb owning ``data``, whose values must be nonzero ints or Fractions."""
    out = LinComb.__new__(LinComb)
    out._terms = data
    return out


class LinComb:
    """A finite Q-linear combination of basis keys.

    Zero coefficients are never stored; two combinations are equal iff they
    have identical term mappings.  Instances are treated as immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple[Hashable, Scalar]] = ()):
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        for _, c in items:  # a scan is cheaper than coercing every item
            if not isinstance(c, (int, Fraction)):
                items = [(k, _exact(c)) for k, c in items]
                break
        self._terms = _merge({}, items)

    @classmethod
    def term(cls, key, coeff: Scalar = 1) -> "LinComb":
        """One term; a scalar that is neither ``int`` nor ``Fraction`` (a
        float, a ``Decimal``) is stored as the exact ``Fraction`` of its value."""
        c = _exact(coeff)
        return _wrap({key: c} if c else {})

    @classmethod
    def zero(cls) -> "LinComb":
        return _wrap({})

    @staticmethod
    def sum(pairs: Iterable[tuple["LinComb", Scalar]]) -> "LinComb":
        """Σ c·v over the ``(v, c)`` pairs, accumulated in one dict.

        A scalar of ±1 merges v's coefficients without multiplying them; any
        other scalar is made exact as in ``term``.
        """
        data: dict = {}
        for v, c in pairs:
            if c == 1:
                if data:
                    _merge(data, v._terms.items())
                else:
                    data.update(v._terms)  # nothing to merge with yet
            elif c == -1:
                _merge(data, v._terms.items(), operator.sub)
            elif c:
                c = _exact(c)
                _merge(data, ((k, a * c) for k, a in v._terms.items()))
        return _wrap(data)

    def items(self):
        return self._terms.items()

    def sorted_items(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: str(kv[0]))

    def coeff(self, key) -> Scalar:
        """The coefficient of ``key``: an ``int`` or a ``Fraction``, 0 if absent."""
        return self._terms.get(key, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LinComb):
            return self._terms == other._terms
        if other == 0:
            return not self._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return _wrap(_merge(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return _wrap(_merge(dict(self._terms), other._terms.items(), operator.sub))

    def __neg__(self) -> "LinComb":
        return _wrap({k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar: Scalar) -> "LinComb":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return LinComb.zero()
        return _wrap({k: c * scalar for k, c in self._terms.items()})

    __rmul__ = __mul__

    def map_keys(self, f: Callable) -> "LinComb":
        """Relabel every basis key through ``f``, merging coincidences."""
        return LinComb((f(k), c) for k, c in self._terms.items())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for key, c in self.sorted_items():
            text = _key_text(key)
            if c == 1:
                term = text
            elif c == -1:
                term = f"-{text}"
            else:
                term = f"{c}*{text}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LinComb<{self}>"


class Tensor:
    """A basis key of a tensor power: an ordered tuple of component keys.

    Interned like ``Tree``: ``Tensor(*legs)`` returns the one tensor key
    built from equal legs, so equality and hash are ``object``'s identity.
    The table is never cleared, since identity equality depends on it.
    """

    __slots__ = ("legs",)

    _interned: dict = {}  # legs tuple -> its one Tensor

    def __new__(cls, *legs):
        key = cls._interned.get(legs)
        if key is None:
            if len(legs) < 2:
                raise ValueError("a tensor key needs at least two legs")
            key = object.__new__(cls)
            key.legs = legs
            # atomic under the GIL: two threads building one key get one object
            key = cls._interned.setdefault(legs, key)
        return key

    def __reduce__(self):
        return type(self), self.legs

    def __str__(self):
        return " ⊗ ".join(_key_text(leg) for leg in self.legs)

    def __repr__(self):
        return f"Tensor{self.legs!r}"


class _TupleKey(tuple):
    """Base of the flat basis keys ``Word`` and ``Path``: the key is the
    tuple of its items.

    Equality and hash are the tuple's, computed in C, so a key equals the
    plain tuple of its items.  No instance has a ``__dict__`` or keeps its
    text: ``text`` and ``str`` render it through the subclass's ``_render``
    each time they are read.
    """

    __slots__ = ()

    def __str__(self):
        return self._render()

    text = property(__str__)


def linear_map(f: Callable, x: LinComb) -> LinComb:
    """Extend a basis-level map (returning a LinComb) linearly."""
    return LinComb.sum((f(k), c) for k, c in x.items())


def bilinear(f: Callable, x: LinComb, y: LinComb) -> LinComb:
    """Extend a basis-level binary map (returning a LinComb) bilinearly."""
    return LinComb.sum(
        (f(kx, ky), cx * cy) for kx, cx in x.items() for ky, cy in y.items()
    )


def bilinear_keys(f: Callable, x: LinComb, y: LinComb) -> LinComb:
    """Extend a basis-level binary map (returning a key, or None for 0) bilinearly."""
    return _wrap(_merge({}, [
        (k, cx * cy) for kx, cx in x.items() for ky, cy in y.items()
        if (k := f(kx, ky)) is not None
    ]))


def tensor(x: LinComb, y: LinComb) -> LinComb:
    """Kronecker product; keys become rank-2 ``Tensor`` keys.

    Tensor keys in either factor are flattened, so iterating this builds
    higher tensor powers with flat keys.
    """
    out = []
    for kx, cx in x.items():
        lx = kx.legs if isinstance(kx, Tensor) else (kx,)
        for ky, cy in y.items():
            ly = ky.legs if isinstance(ky, Tensor) else (ky,)
            out.append((Tensor(*lx, *ly), cx * cy))
    return LinComb(out)


def apply_on_leg(f: Callable, x: LinComb, leg: int) -> LinComb:
    """Apply a basis-level linear map to one leg of a tensor combination.

    ``f`` takes a component key and returns a LinComb (over plain keys or
    tensor keys, which get spliced flat into place).
    """

    def on_leg(key):
        legs = key.legs if isinstance(key, Tensor) else (key,)
        image = f(legs[leg])
        if len(legs) == 1:
            return image  # the image keys are already the result keys
        head, tail = legs[:leg], legs[leg + 1 :]
        # splicing is injective, so no two image keys merge
        return _wrap({
            Tensor(*head, *(k.legs if isinstance(k, Tensor) else (k,)), *tail): c
            for k, c in image.items()
        })

    return linear_map(on_leg, x)


# --- the laws ------------------------------------------------------------------
#
# Each law of the paper is written once here; every algebra and verify suite
# calls it.  The coalgebra laws read a ``Model``, and each variant (the
# infinitesimal law for ∘, componentwise ∘-multiplicativity) is the law on
# ``m._replace(...)`` at its one call site.  They and compatibility return
# their residual.  Associativity, the matching laws and the homomorphism law
# are predicates, true when the law fails: they also take bare keys under a
# key map (the exhaustive word and path sweeps), where no residual can be
# formed.


class Model(NamedTuple):
    """The maps of one algebra that the coalgebra laws read.

    ``dot`` and ``circ`` act on whole elements, ``delta`` (key → LinComb of
    rank-2 Tensor keys) and ``r`` on basis keys, and ``square_dot`` and
    ``square_star`` are · and ∗ on the tensor square.  A model function
    builds its record from its module's current bindings on every call, so a
    map rebound there (a tracer, a planted fault) reaches every law.
    """

    dot: Callable
    circ: Callable
    delta: Callable
    r: Callable | None = None
    square_dot: Callable | None = None
    square_star: Callable | None = None


def coassociativity_law(m: Model, x: LinComb) -> LinComb:
    """(Δ⊗id)Δx − (id⊗Δ)Δx."""
    d = linear_map(m.delta, x)
    return apply_on_leg(m.delta, d, 0) - apply_on_leg(m.delta, d, 1)


def coderivation_law(m: Model, x: LinComb) -> LinComb:
    """Δ(Rx) − (R⊗id + id⊗R)Δx."""
    delta, r = m.delta, m.r
    d = linear_map(delta, x)
    return LinComb.sum([
        (linear_map(delta, linear_map(r, x)), 1),
        (apply_on_leg(r, d, 0), -1),
        (apply_on_leg(r, d, 1), -1),
    ])


def multiplicativity_law(m: Model, x: LinComb, y: LinComb) -> LinComb:
    """Δ(x·y) − Δx·Δy, with the second · the model's ``square_dot``."""
    return linear_map(m.delta, m.dot(x, y)) - m.square_dot(linear_map(m.delta, x), linear_map(m.delta, y))


def bimatching_law(m: Model, x: LinComb, y: LinComb) -> LinComb:
    """Δ(x∘y) − Δx∗Δy: multiplicativity for ∘ and the tensor-square ∗."""
    return multiplicativity_law(m._replace(dot=m.circ, square_dot=m.square_star), x, y)


def infinitesimal_law(m: Model, weight: Scalar, x: LinComb, y: LinComb) -> LinComb:
    """Δ(x·y) − x₁⊗(x₂·y) − (x·y₁)⊗y₂ − w·x⊗y (Joni–Rota, Aguiar)."""
    delta, mul = m.delta, m.dot
    left = apply_on_leg(lambda k: mul(LinComb.term(k), y), linear_map(delta, x), 1)
    right = apply_on_leg(lambda k: mul(x, LinComb.term(k)), linear_map(delta, y), 0)
    return LinComb.sum([
        (linear_map(delta, mul(x, y)), 1), (left, -1), (right, -1), (tensor(x, y), -weight)
    ])


def compatibility_law(dot: Callable, circ: Callable, x, y, z) -> LinComb:
    """x∘(y·z) + x·(y∘z) − (x∘y)·z − (x·y)∘z."""
    return LinComb.sum([(circ(x, dot(y, z)), 1), (dot(x, circ(y, z)), 1),
                        (dot(circ(x, y), z), -1), (circ(dot(x, y), z), -1)])


def associativity_fails(mul: Callable, x, y, z) -> bool:
    """(x∙y)∙z ≠ x∙(y∙z)."""
    return mul(mul(x, y), z) != mul(x, mul(y, z))


def matching_fails(dot: Callable, circ: Callable, x, y, z) -> bool:
    """(x·y)∘z ≠ x·(y∘z) or (x∘y)·z ≠ x∘(y·z)."""
    return circ(dot(x, y), z) != dot(x, circ(y, z)) or dot(circ(x, y), z) != circ(x, dot(y, z))


def homomorphism_fails(f: Callable, mul: Callable, target_mul: Callable, x, y) -> bool:
    """f(x∙y) ≠ f(x)∙'f(y)."""
    return f(mul(x, y)) != target_mul(f(x), f(y))


def rank(vectors: Iterable[LinComb]) -> int:
    """Rank over Q of a family of sparse vectors, by exact Gaussian elimination.

    Pivot rows are stored normalized and without their pivot key; incoming
    rows are reduced until they either vanish or contribute a new pivot.  A
    row whose pivot is already 1 is stored as it is, so integer rows with
    unit pivots never leave ``int`` arithmetic.
    """
    pivots: dict = {}
    r = 0
    for v in vectors:
        row = dict(v.items())
        while row:
            key = min(row, key=str)
            c = row.pop(key)
            if key in pivots:
                _merge(row, ((k2, c * c2) for k2, c2 in pivots[key].items()), operator.sub)
            else:
                if c != 1:
                    c = Fraction(c)  # exact, so int / int never gives a float
                    row = {k2: c2 / c for k2, c2 in row.items()}
                pivots[key] = row
                r += 1
                break
    return r


def to_records(x: LinComb) -> list[dict]:
    """Machine-readable form: ``{"coeff": "p/q", "key": text}`` sorted by key."""
    return [{"coeff": str(c), "key": _key_text(k)} for k, c in x.sorted_items()]
