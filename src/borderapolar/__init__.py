"""Exact multigraded apolarity on products of projective spaces.

Annihilator pieces of tensors and forms, transport of truncated ideals
between the Segre and Veronese settings (desymmetrization, symmetrization,
first-factor restriction), and exact certificate checks for transferring
border rank decompositions.  All arithmetic is exact: rationals by default,
optionally a large prime field for fast probabilistic re-checks.
"""

__version__ = "0.1.0"

from .grading import (
    PieceElement,
    RingKind,
    RingSpec,
    dim_piece,
    monomials,
    rank_monomial,
    segre_ring,
    unrank_monomial,
    veronese_ring,
)
from .linalg import QQ, PrimeField, Subspace, kernel
from .apolarity import (
    GeneralTensor,
    HomPoly,
    SymTensor,
    ann_piece,
    ann_sym_piece,
    contract_poly,
    contract_tensor,
    depolarize,
    flattening_lower_bound,
    flattening_ranks,
    is_concise,
    polarize,
)
from .diagonal_maps import (
    direct_sum_check,
    ir_generators,
    ir_piece,
    pi,
    psi,
    psi_image,
    rho,
    tau,
)
from .ideals import (
    PointSet,
    TruncatedIdeal,
    diagonal_points,
    expand,
    generic_hf,
    hilbert_function,
    is_ideal_closed,
    is_saturated_degreewise,
    min_generators_in_degree,
    point_ideal,
    very_general_points,
    zero_ideal,
)
from .transfer import (
    Certificate,
    check_condition_ii,
    check_condition_iii,
    comon_certificate,
    rho_ideal,
    sigma,
    upsilon,
)


def _bounds_exports() -> dict:
    """The names the package exports from `bounds`, by name."""
    from .bounds import (
        MacaulayRep,
        is_111_sharp,
        is_sharp,
        macaulay_bound,
        macaulay_rep,
        verify_containment_lemma,
        verify_gen_count_transfer,
        verify_lemma_1_minus_ed,
    )

    return locals()


def __getattr__(name):
    """An export of `bounds`, imported on first access (PEP 562): importing the
    package, as every CLI command does, compiles no sharpness check."""
    try:
        return _bounds_exports()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
