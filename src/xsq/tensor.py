"""Tensor products and coproducts of crossed modules over a common base,
assembly of the top corner from them, and the comparison engine that
certifies the reconstruction against the Moore square at desk scale.

The tensor of two ideal corners is presented on one symbol per generator
pair: scalar slides hold by construction, the bilinear relations come from
the syzygies of each generator list, and the multiplicative relations come
from cofactor lifts of generator products.  Every symbol sum
sum a_p b_q (m_p (x) n_q) over two coefficient tuples, whether the class of
m (x) n, a relation of the tensor or an interchange relation of the
assembled corner, is written by :meth:`TensorPresentation.combination`.
Each record of the reconstruction is the object it presents: the tensor
presentation is the crossed square of its two ideal corners with the tensor
on top, the coproduct is the merged crossed module, and the assembled corner
is the square on the tensor's corners whose top is the coproduct divided by
the interchange relations.  The coproduct reads each summand's symbols off
its top's generators, renames the clashing ones of both summands by one rule
and keeps the renaming, one dict per summand, for the maps out of it.  A
certified comparison checks well-definedness (every relation maps to normal
form zero), surjectivity (every Moore generator lifts through the image
ideal) and equality of the affine Hilbert rows of both presentations up to a
degree bound.
:func:`compare_corner` returns it as the dict that the ``compare`` command
prints: lists, strings and bools, each check instance one row with its
status and witness.
"""

from .groebner import Ideal, Subquotient, syzygies
from .rings import RingHom, fresh_names
from .simplicial import _weight_of
from .crossed import (CrossedModule, CrossedSquare, free_crossed_on,
                      functor_M, outcome)


def _unit(ring, k, size):
    """The coefficient tuple with one in place k and zero elsewhere."""
    return tuple(ring.one if i == k else ring.zero for i in range(size))


class TensorPresentation(CrossedSquare):
    """The square of two ideal corners of one base ring with their tensor
    on top, presented on one symbol ``grid[p][q]`` per pair of the ideals'
    generators (which drop zeros and repeats, as cofactor lifts do): ``bnd``
    sends a symbol to the product of its pair and ``pair`` is
    :meth:`expand`."""

    def __init__(self, left, right):
        base, m_gens, n_gens = left.ring, left.gens, right.gens
        flat = [(p, q) for p in range(len(m_gens)) for q in range(len(n_gens))]
        names = fresh_names(["g%d_%d" % pq for pq in flat], base.vars)
        ring = base.extend(names, [_weight_of(m_gens[p])
                                   + _weight_of(n_gens[q]) for p, q in flat])
        self.grid = tuple(tuple(names[p * len(n_gens) + q]
                                for q in range(len(n_gens)))
                          for p in range(len(m_gens)))
        # combination reads grid and lift, so both are set before the
        # relations are written
        self.lift = RingHom.from_map(base, ring, {})
        sym = lambda p, q: ring.var(self.grid[p][q])

        # bilinearity in each slot: syzygies of either generator list
        rels = [self.combination(v, _unit(base, q, len(n_gens)))
                for v in syzygies(m_gens, ring=base)
                for q in range(len(n_gens))]
        rels += [self.combination(_unit(base, p, len(m_gens)), w)
                 for w in syzygies(n_gens, ring=base)
                 for p in range(len(m_gens))]
        rels = [r for r in rels if not r.is_zero()]
        # multiplicativity: products of symbols rewrite through cofactor lifts
        for i, (p, q) in enumerate(flat):
            for (p2, q2) in flat[i:]:
                rels.append(sym(p, q) * sym(p2, q2) - self.combination(
                    left.lift(m_gens[p] * m_gens[p2]),
                    right.lift(n_gens[q] * n_gens[q2])))
        super().__init__(
            top=Subquotient(Ideal(ring, [ring.var(n) for n in names]),
                            Ideal(ring, rels)),
            left=left, right=right, bnd=RingHom.from_map(
                ring, base, {self.grid[p][q]: m_gens[p] * n_gens[q]
                             for p, q in flat}),
            lift=self.lift, pair=self.expand)

    @property
    def symbols(self):
        return self.top.gens

    def combination(self, a, b):
        """The symbol sum of a_p b_q (m_p (x) n_q) over all p and q, for
        coefficient tuples a and b over the base."""
        ring = self.lift.codomain
        out = ring.zero
        for p, ap in enumerate(a):
            if ap.is_zero():
                continue
            for q, bq in enumerate(b):
                if not bq.is_zero():
                    out = out + self.lift(ap * bq) * ring.var(self.grid[p][q])
        return out

    def expand(self, m, n):
        """The class of m (x) n as a symbol combination, via cofactor lifts
        of both arguments through the generator lists."""
        return self.combination(self.left.lift(m), self.right.lift(n))


def kernel_tensor(skel):
    """The tensor presentation of the skeleton's two level-1 corners,
    built once per skeleton."""
    return skel.once("kernel tensor",
                     lambda: TensorPresentation(*skel.corners))


def _symbols(cm):
    """(names, weights) of the symbols of a module presented on them: its
    top generators, which are exactly the ambient's variables beyond the
    base."""
    names = [str(g) for g in cm.top.gens]
    base = cm.bnd.codomain.vars
    if sorted(names) != sorted(v for v in cm.top.ambient.vars
                               if v not in base):
        raise ValueError("module is not symbol-presented over its base")
    return names, [g.wdeg() for g in cm.top.gens]


class CoproductResult(CrossedModule):
    """The merged crossed module, with the first summand's ambient map
    into it and each summand's symbol names -> their merged names."""

    def __init__(self, top, bnd, lift, i_hom, i_names, j_names):
        super().__init__(top, bnd, lift)
        self.i_hom = i_hom
        self.i_names = i_names
        self.j_names = j_names


def coproduct(Mcm, Ncm):
    """Coproduct of two crossed modules presented on symbols over a common
    base: the pair algebra with the twisted product, divided by the ideal
    of cross Peiffer elements."""
    base = Mcm.bnd.codomain
    if Ncm.bnd.codomain != base:
        raise ValueError("coproduct needs a common base")
    # an empty summand gives the other's top itself, whose cached bases are
    # shared, and keeps every name
    if not Ncm.top.gens or not Mcm.top.gens:
        cm = Ncm if Ncm.top.gens else Mcm
        return CoproductResult(
            cm.top, cm.bnd, cm.lift,
            RingHom.from_map(Mcm.top.ambient, cm.top.ambient, {}),
            {str(g): str(g) for g in Mcm.top.gens},
            {str(g): str(g) for g in Ncm.top.gens})
    sym_m, w_m = _symbols(Mcm)
    sym_n, w_n = _symbols(Ncm)
    # suffix clashing symbol names per side, as copies _a and _b
    taken = set(base.vars)

    def rename(sym, other, suffix):
        ren = {}
        for v in sym:
            new = v if (v not in taken and v not in other) else v + suffix
            while new in taken:
                new = new + "_"
            ren[v] = new
            taken.add(new)
        return ren

    ren_m = rename(sym_m, sym_n, "_a")
    ren_n = rename(sym_n, sym_m, "_b")
    names = list(ren_m.values()) + list(ren_n.values())
    merged = base.extend(names, w_m + w_n)
    i_hom = RingHom.from_map(Mcm.top.ambient, merged,
                             {v: merged.var(ren_m[v]) for v in sym_m})
    j_hom = RingHom.from_map(Ncm.top.ambient, merged,
                             {v: merged.var(ren_n[v]) for v in sym_n})
    lift = RingHom.from_map(base, merged, {})
    # merged name -> boundary image in the base
    images = ({ren_m[str(g)]: Mcm.bnd(g) for g in Mcm.top.gens}
              | {ren_n[str(g)]: Ncm.bnd(g) for g in Ncm.top.gens})
    lifted = {name: lift(img) for name, img in images.items()}

    rels = [i_hom(g) for g in Mcm.top.rels.gens]
    rels += [j_hom(g) for g in Ncm.top.rels.gens]
    cross = []
    for u in ren_m.values():
        U, du = merged.var(u), lifted[u]
        for w in ren_n.values():
            W, dw = merged.var(w), lifted[w]
            # the pair product has no mixed monomials: U.W = bnd(U).W
            rels.append(U * W - du * W)
            # cross Peiffer generator (bnd(w).U, -bnd(U).w)
            cross.append(dw * U - du * W)
    rels += cross
    top = Subquotient(Ideal(merged, [merged.var(n) for n in names]),
                      Ideal(merged, rels))
    return CoproductResult(top, RingHom.from_map(merged, base, images), lift,
                           i_hom, ren_m, ren_n)


class AssembledCorner(CrossedSquare):
    """Top corner reconstructed as (tensor of the two kernels) joined with
    the free crossed module on the level-2 generators, divided by the
    interchange relations: the square on the tensor's two corners."""

    def __init__(self, tensor, coprod, extra_relations, variant_relations):
        top = Subquotient(coprod.top.numer, coprod.top.rels
                          + Ideal(coprod.top.ambient, extra_relations))
        super().__init__(top=top, left=tensor.left, right=tensor.right,
                         bnd=coprod.bnd, lift=coprod.lift,
                         pair=lambda m, n: coprod.i_hom(tensor.expand(m, n)))
        self.tensor = tensor
        self.coprod = coprod
        self.extra_relations = extra_relations
        self.variant_relations = variant_relations


def assemble_L(skel):
    """Assemble the reconstruction of the top Moore corner.

    The interchange relations are the boundary-compatible ones
    i(bnd(c) (x) n) ~ j(n.c) and i(m (x) bnd(c)) ~ j(m.c); the "bare-term"
    variant, which carries an extra bare j(c) summand on each right hand
    side, is instantiated alongside so comparison reports can show what
    becomes of it."""
    data = skel.data
    E1 = skel.E1
    pres = kernel_tensor(skel)
    m_gens, n_gens = pres.left.gens, pres.right.gens
    C = free_crossed_on(E1, data.s3_names, [img for _, img in data.s3])
    cop = coproduct(pres, C)
    merged, emb = cop.top.ambient, cop.lift

    extra, variant = [], []
    for name, img in data.s3:
        cj = merged.var(cop.j_names[name])
        a = pres.left.lift(img)
        b = pres.right.lift(img)
        for q, nq in enumerate(n_gens):
            lhs = cop.i_hom(pres.combination(a, _unit(E1, q, len(n_gens))))
            extra.append(lhs - emb(nq) * cj)
            variant.append(lhs - cj + emb(nq) * cj)
        for p, mp in enumerate(m_gens):
            lhs = cop.i_hom(pres.combination(_unit(E1, p, len(m_gens)), b))
            extra.append(lhs - emb(mp) * cj)
            variant.append(lhs - emb(mp) * cj + cj)
    return AssembledCorner(pres, cop, tuple(extra), tuple(variant))


def compare_corner(skel, D=6):
    """Certify the reconstruction of the top Moore corner: the canonical
    map sends a symbol to the value of the connecting pairing and each
    adjoined generator to its level-2 variable, the base acting through
    the degeneracy lift.

    Returns what the ``compare`` command prints under "corner": one row per
    check instance with its status and witness, ok, and the two Hilbert
    rows, as a dict of lists and strings."""
    data = skel.data
    live = functor_M(skel, 2)
    assembled = assemble_L(skel)
    merged = assembled.top.ambient
    E2 = skel.E2
    pair_live, s1 = live.pair, live.lift
    pres = assembled.tensor

    # the variables of the base ring, left unmapped, map to themselves
    i_names, j_names = assembled.coprod.i_names, assembled.coprod.j_names
    images = {v: s1(skel.E1.var(v)) for v in data.s2_names}
    for p, m in enumerate(pres.left.gens):
        for q, n in enumerate(pres.right.gens):
            images[i_names[pres.grid[p][q]]] = pair_live(m, n)
    for name in data.s3_names:
        images[j_names[name]] = E2.var(name)
    phi = RingHom.from_map(merged, E2, images)

    def row(instance, residue):
        return {"instance": instance, **outcome(residue)}

    P2 = live.top.rels
    well_defined = [row(str(r), P2.normal_form(phi(r)))
                    for r in assembled.top.rels.gens]
    image_ideal = Ideal(E2, [phi(g) for g in assembled.top.gens]) + P2
    surjective = [row(str(w), image_ideal.normal_form(w))
                  for w in live.top.gens]
    pairing = [row("m=%s, n=%s" % (m, n),
                   P2.normal_form(phi(assembled.pair(m, n))
                                  - pair_live(m, n)))
               for m in pres.left.gens for n in pres.right.gens]
    target, moore = assembled.top.dims(D), live.top.dims(D)
    variant = [row(str(r), P2.normal_form(phi(r)))
               for r in assembled.variant_relations]
    ok = (all(r["status"] == "pass"
              for r in well_defined + surjective + pairing)
          and target == moore)
    return {"label": "top corner reconstruction (degree <= %d)" % D,
            "ok": ok,
            "well_defined": well_defined,
            "surjective": surjective,
            "pairing_respected": pairing,
            "hilbert": {"target": list(target), "moore": list(moore),
                        "equal": target == moore},
            "bare_term_variant_relations": variant}
