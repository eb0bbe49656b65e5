"""Coalgebra structure of the tree algebra and its primitives.

The coproduct makes the tree algebra a coassociative coalgebra satisfying the
(non-unital) infinitesimal law with both products:

    Δ(x∙y) = x₁ ⊗ (x₂∙y) + (x∙y₁) ⊗ y₂ + x ⊗ y.

It is given recursively (generators are primitive; one rule per product) and
in closed form as a sum of complementary vertex-subset contractions along the
canonical vertex order.  The projector ``e`` kills dot-decomposables and
retracts onto primitives; applied to irreducible trees it produces the graded
primitive basis, whose dimension in degree n is d^n times the Catalan number
c_{n-1}.

The n-ary operations

    N_n(x₁,...,xₙ) = (x₁·...·x_{n-1})∘xₙ − x₁·((x₂·...·x_{n-1})∘xₙ)

close on primitives.  Each is called by its arguments alone: ``n_op(xs)`` is
N_n with n = len(xs).  They satisfy the arity-mixing relations R3(n, r),
checked by ``n_relation_residual(n, r, xs)``, and the induction identities
checked by ``n_aux_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice
from typing import Iterator, Sequence

from .linear import (
    LinComb,
    Model,
    Tensor,
    apply_on_leg,
    linear_map,
)
from .trees import (
    Tree,
    canonical_vertex_order,
    catalan,
    contract,
    enumerate_irreducible,
    is_irreducible,
    leaf,
    root_concat,
    unwrap_root,
)
from .algebra import circle, circle_trees, dot

_COPRODUCT_CACHE: dict = {}


def coproduct_tree(t: Tree) -> LinComb:
    """Coproduct of a basis tree (rank-2 tensor combination, possibly zero)."""
    cached = _COPRODUCT_CACHE.get(t)
    if cached is not None:
        return cached

    if len(t.children) == 1 and not t.children[0][1]:  # a generator
        result = LinComb.zero()
    elif is_irreducible(t):
        # t = u∘a:  Δ(t) = u₁ ⊗ (u₂∘a) + u ⊗ a
        u, a = unwrap_root(t)
        a_tree = leaf(a)
        out = [(Tensor(u, a_tree), 1)]
        for key, c in coproduct_tree(u).items():
            u1, u2 = key.legs
            for w, c2 in circle_trees(u2, a_tree).items():
                out.append((Tensor(u1, w), c * c2))
        result = LinComb(out)
    else:
        # t = t'·t'' (first factor against the rest):
        # Δ(t) = t'₁ ⊗ (t'₂·t'') + (t'·t''₁) ⊗ t''₂ + t' ⊗ t''
        t1, t2 = Tree(t.children[:1]), Tree(t.children[1:])
        out = [(Tensor(t1, t2), 1)]
        for key, c in coproduct_tree(t1).items():
            a, b = key.legs
            out.append((Tensor(a, root_concat(b, t2)), c))
        for key, c in coproduct_tree(t2).items():
            a, b = key.legs
            out.append((Tensor(root_concat(t1, a), b), c))
        result = LinComb(out)

    _COPRODUCT_CACHE[t] = result
    return result


def coproduct(x: LinComb) -> LinComb:
    """Linear extension of the tree coproduct."""
    return linear_map(coproduct_tree, x)


def coproduct_closed(t: Tree) -> LinComb:
    """Closed form: sum of prefix/suffix contractions along the vertex order.

    For vertices a₁ < ... < aₙ in canonical order,
    Δ(t) = Σ_{i=1}^{n-1} t_{a₁..a_i} ⊗ t_{a_{i+1}..a_n}.
    """
    order = canonical_vertex_order(t)
    n = len(order)
    out = []
    for i in range(1, n):
        left = contract(t, order[:i])
        right = contract(t, order[i:])
        out.append((Tensor(left, right), 1))
    return LinComb(out)


def tree_model() -> Model:
    """The tree algebra's products and coproduct, as this module binds them now."""
    return Model(dot, circle, coproduct_tree)


_PROJECTOR_CACHE: dict = {}


def primitive_projector(x: LinComb) -> LinComb:
    """Idempotent projector onto primitives: e(t) = t − t₁·e(t₂).

    Vanishes on dot products of positive-degree elements; fixes primitives;
    its image has zero coproduct.
    """
    return linear_map(_projector_tree, x)


def _projector_tree(t: Tree) -> LinComb:
    cached = _PROJECTOR_CACHE.get(t)
    if cached is not None:
        return cached
    result = LinComb.term(t) - linear_map(
        lambda k: dot(LinComb.term(k.legs[0]), _projector_tree(k.legs[1])), coproduct_tree(t)
    )
    _PROJECTOR_CACHE[t] = result
    return result


def _fold_dot(key: Tensor) -> Tree:
    """The dot product of a tensor key's legs, joined into one tree."""
    return Tree(tuple(v for leg in key.legs for v in leg.children))


def primitive_projector_series(x: LinComb) -> LinComb:
    """Alternating-sign form of the projector, as a cross-check.

    e(x) = Σ_{k>=0} (−1)^k (fold of dot)(Δ^{(k)}(x)) where Δ^{(k)} is the
    k-fold iterated coproduct; the sum stops once the iterate vanishes.
    """
    pairs = [(x, 1)]
    current = coproduct(x)
    sign = -1
    while current:
        pairs.append((current.map_keys(_fold_dot), sign))
        current = apply_on_leg(coproduct_tree, current, 0)
        sign = -sign
    return LinComb.sum(pairs)


def n_op(xs: Sequence[LinComb]) -> LinComb:
    """N_n(x₁,...,xₙ) = (x₁·...·x_{n-1})∘xₙ − x₁·((x₂·...·x_{n-1})∘xₙ), n = len(xs).

    N₂(x,y) = x∘y − x·y; for n >= 3 the defining expression, which also equals
    N₃(x₁, x₂·...·x_{n-1}, xₙ).
    """
    n = len(xs)
    if n < 2:
        raise ValueError("n-ary operations start at arity 2")
    if n == 2:
        x, y = xs
        return circle(x, y) - dot(x, y)
    middle = reduce(dot, xs[1 : n - 1])
    return circle(dot(xs[0], middle), xs[n - 1]) - dot(xs[0], circle(middle, xs[n - 1]))


def n_relation_residual(n: int, r: int, xs: Sequence[LinComb]) -> LinComb:
    """LHS − RHS of the relation R3(n, r) on its n + r − 1 arguments.

    Every defining relation of the primitive operations is one of these: the
    paper's R1(n) is R3(n, 2), R2(n) is R3(2, n), and its low-degree relations
    low2, low3, low4 are R3(3, 2), R3(2, 3), R3(3, 3).  Always zero in the
    tree algebra.
    """
    if not all(isinstance(k, int) and k >= 2 for k in (n, r)):
        raise ValueError(f"R3(n, r) needs integers n, r >= 2, got {n!r}, {r!r}")
    if len(xs) != n + r - 1:
        raise ValueError(f"R3({n}, {r}) takes {n + r - 1} arguments, got {len(xs)}")
    xs = list(xs)

    # argument layout: x, y₁..y_{n-2}, z, t₁..t_{r-2}, w
    z = xs[n - 1]
    ts = xs[n : n + r - 2]
    w = xs[n + r - 2]
    lhs = n_op(xs[: n - 1] + [n_op([z] + ts + [w])])
    rhs = [(n_op([n_op(xs[:n])] + ts + [w]), 1)]
    for i in range(1, n - 1):
        inner = n_op(xs[i:n])
        rhs.append((n_op([xs[0]] + xs[1:i] + [inner] + ts + [w]), 1))
    for i in range(1, r - 1):
        inner = n_op([z] + ts[:i])
        rhs.append((n_op(xs[: n - 1] + [inner] + ts[i:] + [w]), -1))
    return lhs - LinComb.sum(rhs)


def n_aux_residual(name, xs: Sequence[LinComb]) -> LinComb:
    """Auxiliary identities relating N₂/Nₙ with dot products, on n >= 2 arguments.

    ind_i:    N₂(x₁·...·x_{n-1}, xₙ) = Σ_j x₁·...·x_j · N_{n-j}(x_{j+1},...,xₙ)
    ind_ii:   N₂(x₁, x₂·...·xₙ) = Σ_j N_{n-j}(x₁,...,x_{n-j}) · x_{n-j+1}·...·xₙ

    On three arguments they are the paper's two lemmas:
    N₂(x·y, z) = N₃(x,y,z) + x·N₂(y,z) and N₂(x, y·z) = N₃(x,y,z) + N₂(x,y)·z.
    """
    xs = list(xs)
    n = len(xs)
    if n < 2:
        raise ValueError("ind_* need at least two arguments")
    if name == "ind_i":
        lhs = n_op([reduce(dot, xs[: n - 1]), xs[n - 1]])
        rhs = []
        for j in range(n - 1):
            term = n_op(xs[j:])
            if j:
                term = dot(reduce(dot, xs[:j]), term)
            rhs.append((term, 1))
        return lhs - LinComb.sum(rhs)
    if name == "ind_ii":
        lhs = n_op([xs[0], reduce(dot, xs[1:])])
        rhs = []
        for j in range(n - 1):
            term = n_op(xs[: n - j])
            if j:
                term = dot(term, reduce(dot, xs[n - j :]))
            rhs.append((term, 1))
        return lhs - LinComb.sum(rhs)
    raise ValueError(f"unknown identity {name!r}")


def primitive_basis(n: int, colors: Sequence[str]) -> list[LinComb]:
    """e applied to every irreducible tree of degree n; a basis of the
    degree-n primitives, of size d^n * c_{n-1}."""
    return [_projector_tree(t) for t in enumerate_irreducible(n, colors)]


@dataclass(frozen=True)
class DimRow:
    """One degree of the dimension bookkeeping.

    tree_dim:      d^n c_n, the tree-basis count;
    prim_dim:      d^n times the arity-composition recursion value, which the
                   row checks against d^n c_{n-1};
    cofree_dim:    Σ over compositions (m₁..m_k) of n of Π d^{m_i} c_{m_i - 1},
                   the graded dimension of the cofree coalgebra on the
                   primitives, checked against tree_dim.
    """

    n: int
    tree_dim: int
    prim_dim: int
    prim_expected: int
    cofree_dim: int

    @property
    def prim_ok(self) -> bool:
        return self.prim_dim == self.prim_expected

    @property
    def cofree_ok(self) -> bool:
        return self.cofree_dim == self.tree_dim


def _free_prim_dims(max_n: int) -> list[int]:
    """One-generator graded dimensions via the composition recursion:
    dims[1] = 1, dims[n] = Σ over compositions of n-1 of Π dims[parts]."""
    dims = [0, 1]  # dims[k + 1] is the k-th composition sum over dims itself
    for s in islice(_composition_sums(dims), 1, max_n):
        dims.append(s)
    return dims


def _composition_sums(weights: Sequence[int]) -> Iterator[int]:
    """S[0], S[1], ...: S[k] = Σ over the compositions (m₁..m_j) of k of
    Π weights[m_i].

    By the last part m: S[0] = 1 and S[k] = Σ_m weights[m]·S[k−m], so the
    sums up to S[n] cost O(n²) together, instead of 2^(k−1) compositions for
    each k.  S[k] reads ``weights`` only up to index k, so a caller may append
    to it between steps.
    """
    sums = [1]
    yield 1
    while True:
        k = len(sums)
        sums.append(sum(weights[m] * sums[k - m] for m in range(1, k + 1)))
        yield sums[k]


def dimension_report(max_n: int, d: int) -> list[DimRow]:
    """Per-degree dimension table over a d-color palette.

    Each row carries its two consistency checks (``prim_ok``, ``cofree_ok``);
    callers decide how to surface a mismatch.
    """
    if max_n < 1 or d < 1:
        raise ValueError("need max_n >= 1 and d >= 1")
    prim = _free_prim_dims(max_n)
    prim_colored = [0] + [d**m * catalan(m - 1) for m in range(1, max_n + 1)]
    cofree = list(islice(_composition_sums(prim_colored), max_n + 1))
    rows = []
    for n in range(1, max_n + 1):
        tree_dim = d**n * catalan(n)
        prim_dim = d**n * prim[n]
        prim_expected = d**n * catalan(n - 1)
        rows.append(DimRow(n, tree_dim, prim_dim, prim_expected, cofree[n]))
    return rows
