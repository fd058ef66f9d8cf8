"""Exact construction and verification of free crossed squares of
commutative algebras from 2-dimensional construction data.

The public names below resolve on first use (PEP 562): ``xsq.Ideal`` or
``from xsq import Ideal`` imports ``xsq.groebner`` then, and importing the
package or one of its submodules loads nothing else.  So each CLI command
loads only the modules it runs."""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("scalars", "QQ GF field_from_label"),
    ("rings", "PolyRing Polynomial RingHom ParseError"),
    ("groebner", "Ideal BudgetExceeded NotInIdeal Subquotient affine_hilbert "
                 "budget eliminate hom_kernel ideal_intersect "
                 "subquotient_dims syzygies"),
    ("simplicial", "ConstructionData InvalidData MooreData Skeleton2 "
                   "build_skeleton peiffer_P1 peiffer_P2 "
                   "simplicial_identity_report"),
    ("crossed", "CrossedModule CrossedSquare VerifyReport free_crossed_on "
                "functor_M h_eval verify_square verify_xmod"),
    ("tensor", "AssembledCorner CoproductResult TensorPresentation "
               "assemble_L compare_corner coproduct"),
    ("homotopy", "aq_h2 aq_h2_witness compare_XY homotopy_report pi0 pi1 "
                 "pi2"),
) for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value
