"""Homotopy of the skeleton: the homotopy modules of the Moore square by
two independent routes, the second homology of the presented quotient
algebra, and the split comparison of the two complexes carried by the
tensor corner.

The rows are read from the skeleton's Moore kernels and Peiffer ideals, so
this module loads neither the crossed-module layer nor the tensor
presentation; :func:`compare_XY` imports the latter when it runs.

pi1 and pi2 are the filtered dimensions of numer/rels for two ideals made
once per skeleton.  rels lies in numer by construction, so the pair is kept
as it is: a :class:`groebner.Subquotient` would test every relation for
membership.

Filtered dimensions of ideal subquotients come from leading-term counts;
the cross-checking routes use exact truncated linear algebra instead, so an
agreement genuinely certifies both implementations.  A row of filtered
dimensions is a tuple indexed by degree 0..D.  :func:`homotopy_report` and
:func:`compare_XY` return the dicts that the ``homotopy`` and ``compare``
commands print: lists, strings, bools and None, so they survive a JSON
round trip unchanged.
"""

from .groebner import (Ideal, affine_hilbert, hom_kernel, ideal_intersect,
                       standard_monomials, subquotient_dims, syzygies)
from .linalg import (Echelon, FilteredBasis, graded_span, nullity,
                     truncated_ideal_span)
from .rings import Polynomial


def pi0(skel):
    return skel.pi0()


def _homotopy_pair(skel, k):
    """The ideals (numer, rels) whose quotient has the filtered dimensions
    pi_k, k = 1, 2, made once per skeleton.  k = 1: the intersection of the
    two level-1 kernels over the pushed-down level-2 kernel.  k = 2: the
    part of the level-2 Moore kernel killed by the last face over the
    second-order Peiffer ideal."""
    def make():
        moore = skel.moore()
        d2 = skel.face[(2, 2)]
        if k == 1:
            return (ideal_intersect(moore.ne1, moore.kbar),
                    Ideal(skel.E1, [d2(g) for g in moore.ne2.gens]))
        return ideal_intersect(moore.ne2, hom_kernel(d2)), skel.p2()
    return skel.once(("pi", k), make)


def _witness(numer, rels):
    """A lowest-degree basis element of numer whose class modulo rels is
    nonzero, if any."""
    for g in sorted(numer.groebner(), key=lambda p: p.wdeg()):
        if not rels.member(g):
            return g
    return None


def _pair_dims(left, right, image, fb):
    """dim (L cap R)_d - dim I_d for d = 0..D, where L, R and I are the
    spans of the given generators in the filtered basis fb: the
    intersection of L and R has dimension rank L + rank R - rank (L + R)."""
    rows = [truncated_ideal_span(gens, fb).ranks
            for gens in (left, right, left + right, image)]
    return tuple(l + r - both - im for l, r, both, im in zip(*rows))


def pi1(skel, D, route="ideal"):
    """First homotopy module as filtered dimensions.

    route "ideal": the intersection of the two level-1 kernels modulo the
    pushed-down level-2 kernel, by elimination and leading-term counts.
    route "pair": the same module read off the squared complex by
    truncated linear algebra on the pair term: the kernel of
    (m, n) -> m + n meets the span pair in the intersection of the two
    corner spans, and the boundary image is the span of the pushed-down
    top generators.
    """
    if route == "pair":
        moore = skel.moore()
        image = _homotopy_pair(skel, 1)[1]
        return _pair_dims(moore.ne1.groebner(), moore.kbar.groebner(),
                          image.groebner(), FilteredBasis(skel.E1, D))
    if route != "ideal":
        raise ValueError("unknown route %r" % (route,))
    return subquotient_dims(*_homotopy_pair(skel, 1), D)


def pi1_witness(skel):
    """A generator of the intersection whose class is nonzero, if any."""
    return _witness(*_homotopy_pair(skel, 1))


def pi2(skel, D):
    """Second homotopy module: the part of the level-2 Moore kernel killed
    by the last face, modulo the second-order Peiffer ideal."""
    return subquotient_dims(*_homotopy_pair(skel, 2), D)


def pi2_witness(skel):
    return _witness(*_homotopy_pair(skel, 2))


def _koszul_vectors(t, R):
    """The alternating vectors t_i e_j - t_j e_i for i < j over R."""
    n = len(t)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            vec = [R.zero] * n
            vec[j] = t[i]
            vec[i] = -t[j]
            out.append(tuple(vec))
    return out


def aq_h2(data, route="syzygy", D=8):
    """Second homology of the presented quotient: relations among the
    boundary images modulo the alternating ones, as filtered dimensions.

    route "syzygy" spans the module computed by cofactor-tracked reduction;
    route "kernel" counts the relations among the multiples of the images
    degree by degree and never consults the syzygy machinery.  Both
    quotient by the span of the alternating vectors, and each filtered
    span is one graded sweep.
    """
    R = data.base_ring
    t = list(data.boundary_images)
    fb = FilteredBasis(R, D)
    if route == "syzygy":
        syz = syzygies(tuple(t), ring=R)
        num = graded_span(syz, fb).ranks
    elif route == "kernel":
        # the relations among the rows m * t_i with wdeg m <= d, swept by
        # the degree of m in a basis that holds every product (zero images
        # have degree -1: they count as relations and add no rank)
        prods = FilteredBasis(R, D + max([0] + [p.wdeg() for p in t]))
        num = Echelon(R.field).sweep(
            [prods.coords((p,), m) for p in t for m in fb.by_degree[d]]
            for d in range(D + 1))
    else:
        raise ValueError("unknown route %r" % (route,))
    den = graded_span(_koszul_vectors(t, R), fb).ranks
    return tuple(a - b for a, b in zip(num, den))


def aq_h2_witness(data, D=8):
    """Lowest-degree syzygy class outside the alternating span."""
    R = data.base_ring
    t = list(data.boundary_images)
    koszul = _koszul_vectors(t, R)
    syz = sorted(syzygies(tuple(t), ring=R),
                 key=lambda v: max((p.wdeg() for p in v if not p.is_zero()),
                                   default=0))
    for v in syz:
        d = max((p.wdeg() for p in v if not p.is_zero()), default=0)
        if d > D:
            continue
        fb = FilteredBasis(R, d)
        if not graded_span(koszul, fb).contains(fb.coords(v)):
            return v
    return None


def _vec_str(v):
    if v is None:
        return None
    if isinstance(v, tuple):
        return "(" + ", ".join(str(p) for p in v) + ")"
    return str(v)


def homotopy_report(skel, D=6):
    """What the ``homotopy`` command prints: the rows pi0 to pi2 (pi1 by
    both routes) to degree D and the second homology by both routes to
    degree D + 2, as a dict of lists and strings."""
    D_h2 = D + 2
    p0 = pi0(skel)
    pi0_row = {"relations": [str(b) for b in p0.groebner()],
               "dims": list(affine_hilbert(p0, D))}
    ideal_route, pair_route = pi1(skel, D, "ideal"), pi1(skel, D, "pair")
    pi1_row = {"dims": list(ideal_route),
               "dims_pair_route": list(pair_route),
               "routes_agree": ideal_route == pair_route,
               "witness": _vec_str(pi1_witness(skel))}
    pi2_row = {"dims": list(pi2(skel, D)),
               "witness": _vec_str(pi2_witness(skel))}
    syz_route = aq_h2(skel.data, "syzygy", D_h2)
    kernel_route = aq_h2(skel.data, "kernel", D_h2)
    return {"pi0": pi0_row, "pi1": pi1_row, "pi2": pi2_row,
            "aq_h2": {"dims_syzygy_route": list(syz_route),
                      "dims_kernel_route": list(kernel_route),
                      "routes_agree": syz_route == kernel_route,
                      "witness": _vec_str(aq_h2_witness(skel.data, D_h2))}}


# -- the two complexes on the tensor corner and their comparison -----------


def compare_XY(skel, D=6):
    """The complex on the pair term against the one on the left kernel.

    Both carry the tensor corner on top.  The projection is (take the
    left component, then the last level-1 face); the section pairs an
    element with minus its right-corner correspondent and splits the
    projection on the nose.  The kernel complex is an isomorphism in one
    spot, so its filtered homology vanishes; the homotopy rows of the two
    complexes coincide.

    Both kernel rows are zero by construction, not independent checks:
    the middle row's rows are the echelon basis of the kernel pairs' span,
    and the bottom row compares two spans of one basis, since the skeleton
    refuses a kernel whose basis differs from that of its closed form,
    which generates the right corner.

    Returns what the ``compare`` command prints under "split": ok, the
    checks with their witnesses, the two kernel rows and the wide and
    narrow homotopy rows, as a dict of lists and strings.
    """
    data = skel.data
    if data.s3_names:
        raise ValueError("the comparison is defined for data without "
                         "level-2 generators")
    from .crossed import outcome
    from .tensor import kernel_tensor
    E1, R = skel.E1, skel.base
    pres = kernel_tensor(skel)
    m_gens, n_gens = pres.left.gens, pres.right.gens
    d1 = skel.face[(1, 1)]
    s0 = skel.degen[(0, 0)]

    checks = []

    def add(name, residue):
        checks.append({"name": name, **outcome(residue)})

    # projection after section is the identity on the bottom level; on the
    # pair level the projection keeps the left slot of (m, -(m - s0 d1 m)),
    # so the composite is the identity by construction
    for v in R.vars:
        add("bottom projection()section on %s" % v,
            d1(s0(R.var(v))) - R.var(v))
    for m in m_gens:
        # the section's second slot must land in the right corner
        add("section lands in the pair term at %s" % m, d1(m - s0(d1(m))))
        # boundary compatibility of the projection on the pair generators
        # with zero left slot: the right corner dies under the last face
    for n in n_gens:
        add("projection chain square at (0, %s)" % n, d1(n))
    for g in pres.symbols:
        # section chain square on top: the right-corner correspondent of
        # the boundary image is that image itself
        add("top section chain square on %s" % g, s0(d1(pres.bnd(g))))

    # kernel complex: pairs with zero left slot map isomorphically onto
    # the kernel of the bottom projection; both homology rows must vanish
    n_basis = pres.right.groebner()
    kernel_rows = skel.moore().kbar.groebner()
    fb = FilteredBasis(E1, D)  # for every filtered row of E1 below
    span_n = truncated_ideal_span(n_basis, fb)
    span_ker = truncated_ideal_span(kernel_rows, fb)
    # middle: kernel of the boundary restricted to the kernel pairs, which
    # sends (0, n) to n, on the basis of the degree-d piece of the span
    middle = [nullity(span_n.basis(r), E1.field) for r in span_n.ranks]
    bottom = [k - n for k, n in zip(span_ker.ranks, span_n.ranks)]

    # homotopy rows of both complexes
    M_ideal, N_ideal = pres.left, pres.right
    lam_ideal = Ideal(E1, [pres.bnd(g) for g in pres.symbols])
    pi0_wide = affine_hilbert(M_ideal + N_ideal, D)
    pi0_narrow = affine_hilbert(skel.pi0(), D)
    pi1_narrow = subquotient_dims(ideal_intersect(M_ideal, N_ideal),
                                  lam_ideal, D)
    # wide route by linear algebra on the pair term
    pi1_wide = _pair_dims(M_ideal.groebner(), n_basis, lam_ideal.groebner(),
                          fb)
    pi2_wide, pi2_narrow = _tensor_kernel_dims(pres, fb)
    rows = {"pi0": (pi0_wide, pi0_narrow), "pi1": (pi1_wide, pi1_narrow),
            "pi2": (pi2_wide, pi2_narrow)}
    ok = (all(c["status"] == "pass" for c in checks)
          and all(wide == narrow for wide, narrow in rows.values())
          and not any(middle) and not any(bottom))
    return {"ok": ok, "checks": checks,
            "kernel_homology": {"middle": middle, "bottom": bottom},
            **{name: {"wide": list(wide), "narrow": list(narrow),
                      "equal": wide == narrow}
               for name, (wide, narrow) in rows.items()}}


def _tensor_kernel_dims(pres, fb):
    """Filtered dimensions of the kernel of the top boundary on the tensor
    presentation, with values in the pair term (both slots) and in the
    single corner, read in the filtered basis fb of the base."""
    D = fb.D
    work, standard = standard_monomials(pres.top.rels, D)
    symbols = work.packing.mask(work._index[name]
                                for row in pres.grid for name in row)
    one = work.field.one
    images = [[] for _ in range(D + 1)]  # of the symbol monomials, by degree
    for M, deg in standard:
        if M & symbols:
            lam = pres.bnd(Polynomial(work, {M: one}))
            images[deg].append(fb.coords((lam,)))
    size, field = len(fb), work.field
    doubled = ([{**{c: -x for c, x in v.items()},
                 **{size + c: x for c, x in v.items()}} for v in piece]
               for piece in images)
    return (tuple(Echelon(field).sweep(doubled)),
            tuple(Echelon(field).sweep(images)))
