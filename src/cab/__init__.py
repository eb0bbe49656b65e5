"""Exact computer algebra for compatible associative bialgebras.

Subpackages by topic: ``trees`` (colored planar rooted trees), ``linear``
(sparse rational linear algebra), ``algebra`` (the two compatible products
and finite-dimensional targets), ``infinitesimal`` (coproduct, primitives,
n-ary operations), ``matching`` (matching dialgebras and words), ``paths``
(the path algebra over a finite point set), ``cli`` (the ``cab`` tool).
"""

from .linear import LinComb, Tensor, bilinear, rank, tensor
from .trees import (
    Tree,
    TreeSyntaxError,
    canonical_vertex_order,
    catalan,
    contract,
    enumerate_irreducible,
    enumerate_trees,
    factorize,
    leaf,
    parse_tree,
)
from .algebra import FinAlgebra, circle, dot, elem, evaluate, lie_bracket, star
from .infinitesimal import (
    coproduct,
    coproduct_closed,
    dimension_report,
    infinitesimal_residual,
    n_aux_residual,
    n_op,
    n_relation_residual,
    primitive_basis,
    primitive_projector,
)
from .matching import (
    SemiHomAlgebra,
    Word,
    m_circ,
    m_dot,
    normalize,
    parse_word,
    truncated_polynomial_algebra,
    word_coproduct,
)
from .paths import (
    Path,
    parse_path,
    path_circ,
    path_coderivation_residual,
    path_coproduct,
    path_mul,
    path_R,
    path_unit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
