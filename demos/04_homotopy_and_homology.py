"""Homotopy modules of the skeleton and the second homology of the
presented quotient, each by two independent routes.

Run:  python3 demos/04_homotopy_and_homology.py
"""

from xsq import (ConstructionData, QQ, aq_h2, aq_h2_witness, build_skeleton,
                 compare_XY, homotopy_report, pi1)
from xsq.cli import _render_text

data_b = ConstructionData(QQ, ["x", "y"],
                          [("S1", "x^2"), ("S2", "x*y")], [])
data_c = ConstructionData(QQ, ["x", "y"],
                          [("S1", "x^2"), ("S2", "x*y")],
                          [("T", "y*S1 - x*S2")])

print("== two relations, nothing above ==")
skel_b = build_skeleton(data_b)
# the report is the dict that `xsq homotopy` prints
print("\n".join(_render_text(homotopy_report(skel_b, D=6))))

print()
print("== the same relations with the syzygy class killed ==")
skel_c = build_skeleton(data_c)
print("\n".join(_render_text(homotopy_report(skel_c, D=6))))
print("the first homotopy row drops to zero: the adjoined generator")
print("kills the class that the second homology detects, while the")
print("homology of the presented quotient itself is unchanged.")

print()
print("== routes really are independent ==")
# one call gives a row by both of its routes
ideal_route, pair_route = pi1(skel_b, 6)
print("pi1 by elimination:      ", ideal_route)
print("pi1 by linear algebra:   ", pair_route)
syz_route, kernel_route = aq_h2(data_b, 8)
print("H2 by syzygy machinery:  ", syz_route)
print("H2 by direct kernels:    ", kernel_route)
w = aq_h2_witness(data_b)
print("witness class:            (%s)" % ", ".join(str(p) for p in w))

print()
print("== the split comparison of the two complexes on the tensor ==")
print("\n".join(_render_text(compare_XY(skel_b, D=6))))
