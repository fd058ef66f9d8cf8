"""Build the 2-skeletal free simplicial algebra of a small presentation,
extract the Moore kernels and both Peiffer ideals, and assemble the free
crossed square.

Run:  python3 demos/02_skeleton_and_square.py
"""

from xsq import (ConstructionData, QQ, build_skeleton, functor_M, h_eval,
                 peiffer_P1, peiffer_P2, verify_square)
from xsq.cli import _render_text

data = ConstructionData(
    QQ, ["x", "y"],
    [("S1", "x^2"), ("S2", "x*y")],
    [("T", "y*S1 - x*S2")])

skel = build_skeleton(data)
print("level rings of the skeleton:")
for i, ring in enumerate(skel.rings):
    print("  E%d = Q[%s], weights %s" % (i, ", ".join(ring.vars),
                                         list(ring.weights)))

print()
print("kernel of the zeroth level-1 face:",
      [str(g) for g in skel.kernel(1, 0).groebner()])
print("kernel of the first level-1 face: ",
      [str(g) for g in skel.kernel(1, 1).groebner()])
print("level-2 Moore kernel:", [str(g) for g in skel.moore().gens])

print()
print("first Peiffer ideal:",
      [str(g) for g in peiffer_P1(data).groebner()])
p2 = peiffer_P2(skel)
print("second-order Peiffer ideal: %d reduced generators, e.g. %s"
      % (len(p2.groebner()), p2.groebner()[0]))

print()
square = functor_M(skel, 2)
print("free crossed square corners:")
print("  left:  ", [str(g) for g in square.left.gens])
print("  right: ", [str(g) for g in square.right.gens])
print("  top:   ", [str(g) for g in square.top.gens])
m = skel.E1.var("S1")
nbar = skel.E1.parse("S2 - x*y")
print("pairing h(%s, %s) = %s" % (m, nbar, h_eval(square, m, nbar)))

rep = verify_square(square)
print()
print("axiom suite:", "all pass" if rep.ok
      else "\n".join(_render_text(rep.to_obj())))
print("checks executed:", len(rep.items))
