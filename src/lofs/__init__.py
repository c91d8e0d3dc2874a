"""Finite order-theoretic factorisations, lifting operations and topology.

The package computes, at finite scale: the down-set completion of a
preorder and its algebras; the factorisation of a monotone map through
upper-bounded pairs whose left class is the full morphisms and whose
fibrant objects are the complete lattices; lifting and KZ-lifting
operations for generator families; Kan extensions and Kan injectivity;
and the Scott/Alexandrov topology of finite spaces with the filter monad.
"""

from .errors import (
    AdjointMissing,
    FormatError,
    IndexOutOfRange,
    InvariantViolation,
    LofsError,
    NotAPoset,
    ShapeMismatch,
    SizeLimitExceeded,
)
from .adjunction import (
    RaliWitness,
    find_left_adjoint,
    find_rali,
    find_right_adjoint,
)
from .downsets import DownSetLattice, check_lax_idempotent_P
from .factorisation import (
    AlgebraWitness,
    CoalgebraWitness,
    FactorisationData,
    canonical_diag,
    coalgebra_structure,
    comult,
    factorise,
    fibrant_replacement,
    k_on_square,
)
from .kan import (
    all_embeddings,
    classify_injectives,
    kan_injective,
)
from .lifting import (
    GeneratorFamily,
    LiftingStructure,
    canonical_map,
    coproduct_family_check,
    kz_orthogonal,
    lifting_structure,
)
from .order import (
    FinPreorder,
    MonotoneMap,
    Square,
    antichain,
    carrier_bound,
    chain,
    closure,
    compose,
    diamond,
    enumerate_preorders,
    hom_maps,
    identity,
    indiscrete,
    is_complete_lattice,
    is_full,
    size_bound,
    squares,
    two_cell,
    vee,
)
from .topology import (
    FilterSpace,
    FiniteSpace,
    f_lower_star,
    filter_algebra,
    filter_space,
    filter_unit,
    is_continuous_lattice,
    is_embedding,
    is_top_coalgebra,
    scott_opens,
    way_below,
)

__version__ = "0.1.0"
