"""Crossed modules and crossed squares presented on polynomial subquotients.

The two corners of a square are ideals of one ring, the base, and a corner
holds an element when the ideal does (:meth:`groebner.Ideal.member`); the
top object is a subquotient I/P of two ideals of a possibly larger ambient
ring.  Equality of elements is decided by normal forms against the reduced
basis of the relation ideal; all actions are realized as ambient
multiplication through a declared lift of the base ring.  Verification
reports list one entry per axiom instance with the offending generator pair
and its nonzero normal form on failure.  A row whose residue must vanish
passes, with witness "0", if and only if the residue is zero, and otherwise
fails with the residue's text as its witness; :func:`outcome` writes that
rule once for ``verify`` and ``compare``.  An axiom that holds by
construction has no row (:func:`verify_square` says why it holds).

The free crossed module on named generators with given boundary images
has one constructor, :func:`free_crossed_on`; its relations are the Peiffer
defects of :func:`xsq.simplicial.peiffer_defects`.  The Moore functor at
level 1 is the one on the level-1 data, and the reconstruction of the top
corner uses the one on the level-2 data.  The constructor checks no axiom:
:func:`verify_xmod` reports both, so a failure of the second is a report
row, not an exception.  The Moore functor reads the square off a skeleton:
its corners are the skeleton's two level-1 face kernels, its top is the
level-2 Moore kernel over the second-order Peiffer ideal, and its pairing
is written in :func:`functor_M`.  Subquotients are :mod:`groebner`'s.
"""

from .groebner import Ideal, Subquotient
from .rings import RingHom
from .simplicial import _weight_of, peiffer_defects


class CrossedModule:
    """Boundary top -> base with the action given by multiplication through
    the declared lift of the base into the top's ambient ring; the base is
    the boundary's codomain."""

    def __init__(self, top, bnd, lift):
        self.top = top
        self.bnd = bnd          # top.ambient -> base
        self.lift = lift        # base -> top.ambient


def outcome(residue):
    """The status and witness of a check row whose residue must vanish."""
    ok = residue.is_zero()
    return {"status": "pass" if ok else "fail",
            "witness": "0" if ok else str(residue)}


class VerifyReport:
    """One row per axiom instance, each the dict the CLI prints: check,
    instance, status ("pass" or "fail"), witness ("0" or the nonzero
    residue) and informational (a row that never counts as a failure)."""

    def __init__(self):
        self.items = []

    def add(self, check, instance, residue, informational=False):
        self.items.append({"check": check, "instance": instance,
                           **outcome(residue), "informational": informational})

    @property
    def ok(self):
        return not self.failures()

    def failures(self):
        return [i for i in self.items
                if i["status"] == "fail" and not i["informational"]]

    def to_obj(self):
        return {"ok": self.ok, "items": self.items}


def verify_xmod(cm):
    """First and second crossed-module axioms on generators."""
    rep = VerifyReport()
    for g in cm.top.rels.gens:
        rep.add("boundary-kills-relations", str(g), cm.bnd(g))
    for r in cm.bnd.codomain.gens():
        defect = cm.bnd(cm.lift(r)) - r
        for c in cm.top.gens:
            rep.add("CM1", "r=%s, c=%s" % (r, c), defect * cm.bnd(c))
    for c in cm.top.gens:
        for c2 in cm.top.gens:
            residue = cm.top.nf(cm.lift(cm.bnd(c)) * c2 - c * c2)
            rep.add("CM2", "c=%s, c'=%s" % (c, c2), residue)
    return rep


class CrossedSquare(CrossedModule):
    """Corners: top L (subquotient), left M and right N (ideals of the
    base ring, which is their common ring).  Both boundary maps of the top
    corner are realized by the single ambient map ``bnd``, so L -> base
    with ``lift`` is a crossed module; ``pair`` is the connecting
    bilinear rule M x N -> L."""

    def __init__(self, top, left, right, bnd, lift, pair):
        if left.ring != right.ring:
            raise ValueError("corner ideals must live in one base ring")
        super().__init__(top, bnd, lift)
        self.left = left
        self.right = right
        self.pair = pair


def h_eval(square, m, nbar):
    """Class of h(m, nbar) in the top corner; arguments are checked for
    membership in their corners."""
    if not square.left.member(m):
        raise ValueError("first argument %s is not in the left corner" % m)
    if not square.right.member(nbar):
        raise ValueError("second argument %s is not in the right corner" % nbar)
    return square.top.nf(square.pair(m, nbar))


def verify_square(square):
    """Crossed-square axioms 2-5 and 7-10 on generator instances.  The
    rest hold by construction and have no row:
    - ax1: a map indexed off a corner's support is the identity map;
    - ax5 within one corner: that pairing is the product of a commutative
      ring, the ambient ring for L and the base for M and N;
    - ax6: the reversed pairing N x M -> L is defined as the transpose.

    The associativity variant that repeats the middle argument is
    evaluated as well and reported informationally, never as a failure.
    """
    rep = VerifyReport()
    L, M, N = square.top, square.left, square.right
    bnd, lft = square.bnd, square.lift
    pairs = {}  # (m, n) -> h(m, n); the axioms share argument pairs

    def pair(m, n):
        h = pairs.get((m, n))
        if h is None:
            h = pairs[m, n] = square.pair(m, n)
        return h

    mgens, ngens, lgens = M.gens, N.gens, L.gens

    # axiom 2: the square commutes and boundaries land where they must
    for l in lgens:
        img = bnd(l)
        rep.add("ax2-boundary-into-left", str(l), M.normal_form(img))
        rep.add("ax2-boundary-into-right", str(l), N.normal_form(img))
    for g in L.rels.gens:
        rep.add("ax2-boundary-kills-relations", str(g), bnd(g))

    # axiom 3: boundary of a pairing is the product of the images
    for m in mgens:
        for n in ngens:
            rep.add("ax3", "m=%s, n=%s" % (m, n), bnd(pair(m, n)) - m * n)

    # axiom 4: pairing against a boundary equals the multiplication action
    for l in lgens:
        img = bnd(l)
        for m in mgens:
            rep.add("ax4-left", "m=%s, l=%s" % (m, l),
                    L.nf(pair(m, img) - lft(m) * l))
        for n in ngens:
            rep.add("ax4-right", "n=%s, l=%s" % (n, l),
                    L.nf(pair(img, n) - lft(n) * l))
        for l2 in lgens:
            rep.add("ax4-top", "l=%s, l'=%s" % (l, l2),
                    L.nf(l * l2 - lft(img) * l2))

    # axiom 5: the pairing of two boundaries is the product on top
    for i, l in enumerate(lgens):
        for l2 in lgens[i:]:
            rep.add("ax5-composite", "l=%s, l'=%s" % (l, l2),
                    L.nf(pair(bnd(l), bnd(l2)) - l * l2))

    # axioms 7/8: additivity in each slot
    for i, m in enumerate(mgens):
        for m2 in mgens[i:]:
            for n in ngens:
                rep.add("ax7-additive-left",
                        "m=%s, m'=%s, n=%s" % (m, m2, n),
                        L.nf(pair(m + m2, n) - pair(m, n) - pair(m2, n)))
    for m in mgens:
        for i, n in enumerate(ngens):
            for n2 in ngens[i:]:
                rep.add("ax8-additive-right",
                        "m=%s, n=%s, n'=%s" % (m, n, n2),
                        L.nf(pair(m, n + n2) - pair(m, n) - pair(m, n2)))

    # axiom 9: scalars slide through either slot
    for k in (2, -3):
        for m in mgens:
            for n in ngens:
                rep.add("ax9-scalar", "k=%s, m=%s, n=%s" % (k, m, n),
                        L.nf(pair(m, n) * k - pair(m * k, n)))
                rep.add("ax9-scalar-right", "k=%s, m=%s, n=%s" % (k, m, n),
                        L.nf(pair(m, n) * k - pair(m, n * k)))

    # axiom 10: associativity of iterated pairings, in the corrected form
    # h(h(a,b),c) = h(a,h(b,c)) = h(b,h(a,c)); the variant h(b,h(b,c))
    # with a repeated middle argument is evaluated separately as evidence
    for m in mgens:
        for n in ngens:
            for c in mgens:
                e1 = lft(c) * pair(m, n)
                e2 = lft(m) * pair(c, n)
                e3 = pair(m * c, n)
                inst = "m=%s, n=%s, c=%s (left)" % (m, n, c)
                rep.add("ax10", inst, L.nf(e1 - e2))
                rep.add("ax10", inst + " second form", L.nf(e1 - e3))
                repeated = lft(n) * pair(c, n)
                rep.add("ax10-repeated-middle", inst, L.nf(e1 - repeated),
                        informational=True)
            for c in ngens:
                e1 = lft(c) * pair(m, n)
                e2 = pair(m, n * c)
                e3 = lft(n) * pair(m, c)
                inst = "m=%s, n=%s, c=%s (right)" % (m, n, c)
                rep.add("ax10", inst, L.nf(e1 - e2))
                rep.add("ax10", inst + " second form", L.nf(e1 - e3))
    return rep


# -- constructions ---------------------------------------------------------


def free_crossed_on(base, names, images):
    """Free crossed module over an arbitrary base ring on named generators
    with prescribed boundary images: adjoin the names, divide by the
    defects y_i y_j - boundary(y_i) y_j."""
    images = tuple(images)
    A = base.extend(names, map(_weight_of, images))
    emb = RingHom.from_map(base, A, {})
    gens = [A.var(n) for n in names]
    rels = peiffer_defects(gens, [emb(t) for t in images])
    top = Subquotient(Ideal(A, gens), Ideal(A, rels))
    bnd = RingHom.from_map(A, base, dict(zip(names, images)))
    return CrossedModule(top=top, bnd=bnd, lift=emb)


def functor_M(skel, n, break_h=False):
    """The Moore functor at levels 1 and 2 of the skeleton, made on every
    call; level 0, pi0, is :meth:`Skeleton2.pi0`.

    n=1: the free crossed module of the level-1 data.  n=2: the square on
    the level-2 Moore kernel modulo the second-order Peiffer ideal, with
    the skeleton's corner ideals ``skel.corners`` as its corners.
    ``break_h``, the negative control of ``verify``, pairs by h(m, n)^2 in
    place of h.
    """
    if n == 1:
        data = skel.data
        return free_crossed_on(data.base_ring, data.s2_names,
                               data.boundary_images)
    if n == 2:
        top = Subquotient(skel.moore(), skel.p2())
        left, right = skel.corners
        s0, s1 = skel.degen[(1, 0)], skel.degen[(1, 1)]
        # (m, nbar) -> s1(m) (s1(nbar) - s0(nbar)): with nbar = y - s0(d1(y))
        # for its kernel correspondent y, s1 - s0 kills the degenerate part,
        # so the rule applies to the right-corner representative directly
        def pair(m, nbar):
            h = s1(m) * (s1(nbar) - s0(nbar))
            return h * h if break_h else h
        return CrossedSquare(top=top, left=left, right=right,
                             bnd=skel.face[(2, 2)], lift=s1, pair=pair)
    raise ValueError("the functor is computed for n in {1, 2}")
