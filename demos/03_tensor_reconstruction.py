"""Reconstruct the top corner of the free crossed square from tensors and
coproducts, and certify the reconstruction at desk scale.

Run:  python3 demos/03_tensor_reconstruction.py
"""

from xsq import (ConstructionData, QQ, assemble_L, build_skeleton,
                 compare_corner, tensor_presentation)
from xsq.cli import _render_text

print("== one-relation presentation: the tensor alone ==")
data_a = ConstructionData(QQ, ["x"], [("S", "x^2")], [])
skel_a = build_skeleton(data_a)
E1 = skel_a.E1
pres = tensor_presentation(E1, [E1.var("S")], [E1.parse("S - x^2")])
print("symbols:", [str(g) for g in pres.symbols])
print("relations:", [str(r) for r in pres.relations.gens])
print("structure map image of the symbol:", pres.lam(pres.symbols[0]))

# the report is the dict that `xsq compare` prints under "corner"
print("\n".join(_render_text(compare_corner(skel_a, D=6))))

print()
print("== with a level-2 generator: tensor joined with a free module ==")
data_c = ConstructionData(
    QQ, ["x", "y"],
    [("S1", "x^2"), ("S2", "x*y")],
    [("T", "y*S1 - x*S2")])
skel_c = build_skeleton(data_c)
assembled = assemble_L(skel_c)
print("merged presentation variables:",
      ", ".join(assembled.top.ambient.vars))
print("interchange relations:")
for r in assembled.extra_relations:
    print("   ", r)

print("\n".join(_render_text(compare_corner(skel_c, D=5))))
print()
print("note the bare-term variant relations: they are recorded, and none")
print("of them maps to zero, which is why the boundary-compatible form of")
print("the interchange relations is the one the assembly uses.")
