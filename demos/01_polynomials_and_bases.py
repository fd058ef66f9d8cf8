"""Walk through the exact polynomial layer and the reduction engine.

Run:  python3 demos/01_polynomials_and_bases.py
"""

from xsq import Ideal, PolyRing, affine_hilbert, ideal_intersect, syzygies

print("== exact polynomials ==")
R = PolyRing(["x", "y"])
p = R.parse("(x + y)*(x - y) + 1/2*y^2")
print("parsed and canonicalized:", p)
print("reparsing the printed form gives an equal value:",
      R.parse(str(p)) == p)

print()
print("== reduced bases and normal forms ==")
I = Ideal(R, ["x^2 - y^2", "x*y"])
print("generators:", [str(g) for g in I.gens])
print("reduced basis:", [str(g) for g in I.groebner()])
q = R.parse("x^3 + y^3")
print("normal form of x^3 + y^3:", I.normal_form(q))

print()
print("== membership certificates ==")
member = R.parse("x^3 - x*y^2 + y*x*y")
cofs = I.lift(member)
print("cofactors:", [str(c) for c in cofs])
recon = R.zero
for c, g in zip(cofs, I.gens):
    recon = recon + c * g
print("reconstruction equals the input:", recon == member)

print()
print("== intersections, syzygies, filtered dimensions ==")
J = ideal_intersect(Ideal(R, ["x"]), Ideal(R, ["y"]))
print("(x) intersect (y):", [str(g) for g in J.gens])
for v in syzygies((R.parse("x^2"), R.parse("x*y")), ring=R):
    print("syzygy of (x^2, x*y):", tuple(str(p) for p in v))
print("filtered dimensions of R/(x^2, x*y) up to degree 5:",
      affine_hilbert(Ideal(R, ["x^2", "x*y"]), 5))
