"""Exact construction and verification of free crossed squares of
commutative algebras from 2-dimensional construction data."""

from .scalars import QQ, GF, field_from_label
from .rings import PolyRing, Polynomial, RingHom, ParseError
from .groebner import (
    Ideal,
    GradedDims,
    BudgetExceeded,
    NotInIdeal,
    affine_hilbert,
    eliminate,
    hom_kernel,
    ideal_equal,
    ideal_intersect,
    ideal_product,
    monomials_leq,
    subquotient_dims,
    syzygies,
)
from .simplicial import (ConstructionData, InvalidData, MooreData, Skeleton2,
                         build_skeleton, peiffer_P1, peiffer_P2,
                         simplicial_identity_report)
from .crossed import (CrossedModule, CrossedSquare, LinearizedCrossedModule,
                      QuotientRing, Subquotient, VerifyReport,
                      free_crossed_on, free_precrossed, functor_M, h_eval,
                      ideal_square, linearize, peiffer_quotient,
                      verify_square, verify_xmod)
from .tensor import (AssembledCorner, ComparisonReport, CoproductResult,
                     TensorPresentation, assemble_L, compare_corner,
                     coproduct, tensor_presentation, tensor_square)
from .homotopy import (HomotopyReport, SplitComparisonReport,
                       SquaredComplexRep, TwoCrossedComplexRep, aq_h2,
                       aq_h2_witness, build_2crossed, build_squared_complex,
                       compare_XY, homotopy_report, pi0, pi1, pi2)

__all__ = [
    "QQ", "GF", "field_from_label",
    "PolyRing", "Polynomial", "RingHom", "ParseError",
    "Ideal", "GradedDims", "BudgetExceeded", "NotInIdeal",
    "affine_hilbert", "eliminate", "hom_kernel", "ideal_equal",
    "ideal_intersect", "ideal_product", "monomials_leq", "subquotient_dims",
    "syzygies",
    "ConstructionData", "InvalidData", "MooreData", "Skeleton2",
    "build_skeleton", "peiffer_P1", "peiffer_P2",
    "simplicial_identity_report",
    "CrossedModule", "CrossedSquare", "LinearizedCrossedModule",
    "QuotientRing", "Subquotient", "VerifyReport",
    "free_crossed_on", "free_precrossed", "functor_M", "h_eval",
    "ideal_square", "linearize", "peiffer_quotient",
    "verify_square", "verify_xmod",
    "AssembledCorner", "ComparisonReport", "CoproductResult",
    "TensorPresentation", "assemble_L", "compare_corner", "coproduct",
    "tensor_presentation", "tensor_square",
    "HomotopyReport", "SplitComparisonReport", "SquaredComplexRep",
    "TwoCrossedComplexRep", "aq_h2", "aq_h2_witness", "build_2crossed",
    "build_squared_complex", "compare_XY", "homotopy_report",
    "pi0", "pi1", "pi2",
]
