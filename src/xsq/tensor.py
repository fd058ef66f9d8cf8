"""Tensor products and coproducts of crossed modules over a common base,
assembly of the top corner from them, and the comparison engine that
certifies the reconstruction against the Moore square at desk scale.

The tensor of two ideal corners is presented on one symbol per generator
pair: scalar slides hold by construction, the bilinear relations come from
the syzygies of each generator list, and the multiplicative relations come
from cofactor lifts of generator products.  Every symbol sum
sum a_p b_q (m_p (x) n_q) over two coefficient tuples, whether the class of
m (x) n, a relation of the tensor or an interchange relation of the
assembled corner, is written by :meth:`TensorPresentation.combination`.  A
presentation is the top of the square of its two ideal corners ``m_ideal``
and ``n_ideal``: :meth:`TensorPresentation.subquotient` the top, ``lam``
both boundaries, ``embed`` the base action and
:meth:`TensorPresentation.expand` the pairing.
The coproduct renames the clashing symbols of both summands by one rule and
keeps the renaming, one dict per summand, for the maps out of it.
A certified comparison checks
well-definedness (every relation maps to normal form zero), surjectivity
(every Moore generator lifts through the image ideal) and equality of the
affine Hilbert rows of both presentations up to a degree bound.
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


class TensorPresentation:
    """Presentation of the tensor of two ideal corners of the base ring."""

    def __init__(self, base, ring, symbol_grid, m_gens, n_gens, relations,
                 numer, lam, embed, m_ideal, n_ideal):
        self.base = base
        self.ring = ring                # base extended by the symbols
        self.symbol_grid = symbol_grid  # symbol_grid[p][q] = variable name
        self.m_gens = m_gens
        self.n_gens = n_gens
        self.relations = relations
        self.numer = numer
        self.lam = lam          # both structure maps share this ambient map
        self.embed = embed
        self.m_ideal = m_ideal
        self.n_ideal = n_ideal

    @property
    def symbols(self):
        return tuple(self.ring.var(name)
                     for row in self.symbol_grid for name in row)

    def combination(self, a, b):
        """The symbol sum of a_p b_q (m_p (x) n_q) over all p and q, for
        coefficient tuples a and b over the base."""
        out = self.ring.zero
        for p, ap in enumerate(a):
            if ap.is_zero():
                continue
            for q, bq in enumerate(b):
                if not bq.is_zero():
                    out = out + self.embed(ap * bq) * self.ring.var(
                        self.symbol_grid[p][q])
        return out

    def expand(self, m, n):
        """The class of m (x) n as a symbol combination, via cofactor lifts
        of both arguments through the generator lists."""
        return self.combination(self.m_ideal.lift(m), self.n_ideal.lift(n))

    def subquotient(self):
        return Subquotient(self.numer, self.relations)

    def crossed_module(self):
        return CrossedModule(top=self.subquotient(), base=self.base,
                             bnd=self.lam, embed=self.embed)


def tensor_presentation(base, m_gens, n_gens):
    """Build the symbol presentation of the tensor of the ideals generated
    by m_gens and n_gens inside the base ring.  The symbols are indexed
    by the ideals' generator lists, which drop zeros and repeats, so that
    cofactor lifts and the symbol grid agree."""
    m_ideal, n_ideal = Ideal(base, m_gens), Ideal(base, n_gens)
    m_gens, n_gens = m_ideal.gens, n_ideal.gens
    flat = [(p, q) for p in range(len(m_gens)) for q in range(len(n_gens))]
    names = fresh_names(["g%d_%d" % pq for pq in flat], base.vars)
    ring = base.extend(names, [_weight_of(m_gens[p]) + _weight_of(n_gens[q])
                               for p, q in flat])
    grid = tuple(tuple(names[p * len(n_gens) + q]
                       for q in range(len(n_gens)))
                 for p in range(len(m_gens)))
    lam = RingHom.from_map(
        ring, base, {grid[p][q]: m_gens[p] * n_gens[q] for p, q in flat})
    pres = TensorPresentation(
        base=base, ring=ring, symbol_grid=grid, m_gens=m_gens,
        n_gens=n_gens, relations=None,  # written below by combination
        numer=Ideal(ring, [ring.var(name) for name in names]), lam=lam,
        embed=RingHom.from_map(base, ring, {}), m_ideal=m_ideal,
        n_ideal=n_ideal)
    sym = lambda p, q: ring.var(grid[p][q])

    # bilinearity in each slot: syzygies of either generator list
    rels = [pres.combination(v, _unit(base, q, len(n_gens)))
            for v in syzygies(m_gens, ring=base) for q in range(len(n_gens))]
    rels += [pres.combination(_unit(base, p, len(m_gens)), w)
             for w in syzygies(n_gens, ring=base) for p in range(len(m_gens))]
    rels = [r for r in rels if not r.is_zero()]
    # multiplicativity: products of symbols rewrite through cofactor lifts
    for i, (p, q) in enumerate(flat):
        for (p2, q2) in flat[i:]:
            rels.append(sym(p, q) * sym(p2, q2) - pres.combination(
                m_ideal.lift(m_gens[p] * m_gens[p2]),
                n_ideal.lift(n_gens[q] * n_gens[q2])))
    pres.relations = Ideal(ring, rels)
    return pres


def kernel_tensor(skel):
    """The tensor presentation of the two level-1 kernel corners of the
    skeleton, built once per skeleton."""
    return skel.once("kernel tensor", lambda: tensor_presentation(
        skel.E1, *(corner.gens for corner in skel.corners)))


def _extras(cm):
    """Names of the variables of the module's ambient beyond its base."""
    return [v for v in cm.top.ambient.vars if v not in cm.base.vars]


def _symbol_block(cm):
    """(extra variable names, their weights) of a symbol-presented module:
    the ambient is the base plus fresh variables generating the numerator."""
    amb, extras = cm.top.ambient, _extras(cm)
    if (len(extras) != len(cm.top.gens)
            or set(cm.top.gens) != {amb.var(v) for v in extras}):
        raise ValueError("module is not symbol-presented over its base")
    return extras, [amb.weights[amb._index[v]] for v in extras]


class CoproductResult:
    def __init__(self, cm, i_hom, j_hom, i_names, j_names):
        self.cm = cm
        self.i_hom = i_hom      # first summand's ambient into the merged ring
        self.j_hom = j_hom
        # each summand's symbol names -> their names in the merged ring
        self.i_names = i_names
        self.j_names = j_names


def coproduct(Mcm, Ncm):
    """Coproduct of two crossed modules presented on symbols over a common
    base: the pair algebra with the twisted product, divided by the ideal
    of cross Peiffer elements."""
    base = Mcm.base
    if Ncm.base != base:
        raise ValueError("coproduct needs a common base")
    # an empty summand gives the other itself, whose cached bases are
    # shared, and keeps every name
    if not Ncm.top.gens or not Mcm.top.gens:
        cm = Ncm if Ncm.top.gens else Mcm
        amb = cm.top.ambient
        return CoproductResult(
            cm=cm, i_hom=RingHom.from_map(Mcm.top.ambient, amb, {}),
            j_hom=RingHom.from_map(Ncm.top.ambient, amb, {}),
            i_names={v: v for v in _extras(Mcm)},
            j_names={v: v for v in _extras(Ncm)})
    ext_m, w_m = _symbol_block(Mcm)
    ext_n, w_n = _symbol_block(Ncm)
    # suffix clashing symbol names per side, as copies _a and _b
    taken = set(base.vars)

    def rename(ext, other, suffix):
        ren = {}
        for v in ext:
            new = v if (v not in taken and v not in other) else v + suffix
            while new in taken:
                new = new + "_"
            ren[v] = new
            taken.add(new)
        return ren

    ren_m = rename(ext_m, ext_n, "_a")
    ren_n = rename(ext_n, ext_m, "_b")
    names = list(ren_m.values()) + list(ren_n.values())
    merged = base.extend(names, w_m + w_n)
    i_hom = RingHom.from_map(Mcm.top.ambient, merged,
                             {v: merged.var(ren_m[v]) for v in ext_m})
    j_hom = RingHom.from_map(Ncm.top.ambient, merged,
                             {v: merged.var(ren_n[v]) for v in ext_n})
    embed = RingHom.from_map(base, merged, {})

    rels = [i_hom(g) for g in Mcm.top.rels.gens]
    rels += [j_hom(g) for g in Ncm.top.rels.gens]
    cross = []
    for v in ext_m:
        U = merged.var(ren_m[v])
        du = embed(Mcm.bnd(Mcm.top.ambient.var(v)))
        for w in ext_n:
            W = merged.var(ren_n[w])
            dw = embed(Ncm.bnd(Ncm.top.ambient.var(w)))
            # the pair product has no mixed monomials: U.W = bnd(U).W
            rels.append(U * W - du * W)
            # cross Peiffer generator (bnd(w).U, -bnd(U).w)
            cross.append(dw * U - du * W)
    rels += cross
    bnd = RingHom.from_map(
        merged, base,
        {ren_m[v]: Mcm.bnd(Mcm.top.ambient.var(v)) for v in ext_m}
        | {ren_n[w]: Ncm.bnd(Ncm.top.ambient.var(w)) for w in ext_n})
    gens = [merged.var(n) for n in names]
    top = Subquotient(Ideal(merged, gens), Ideal(merged, rels))
    cm = CrossedModule(top=top, base=base, bnd=bnd, embed=embed)
    return CoproductResult(cm=cm, i_hom=i_hom, j_hom=j_hom, i_names=ren_m,
                           j_names=ren_n)


class AssembledCorner:
    """Top corner reconstructed as (tensor of the two kernels) joined with
    the free crossed module on the level-2 generators, divided by the
    interchange relations."""

    def __init__(self, square, tensor, coprod, extra_relations,
                 variant_relations):
        self.square = square
        self.tensor = tensor
        self.coprod = coprod
        self.extra_relations = extra_relations
        self.variant_relations = variant_relations

    @property
    def top(self):
        return self.square.top


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
    m_gens, n_gens = pres.m_gens, pres.n_gens
    f3 = {n: img for n, img in data.s3}
    C = free_crossed_on(E1, data.s3_names, [f3[n] for n in data.s3_names])
    cop = coproduct(pres.crossed_module(), C)
    merged, emb = cop.cm.top.ambient, cop.cm.embed

    extra, variant = [], []
    for name in data.s3_names:
        cj = cop.j_hom(C.top.ambient.var(name))
        img = f3[name]
        a = pres.m_ideal.lift(img)
        b = pres.n_ideal.lift(img)
        for q, nq in enumerate(n_gens):
            lhs = cop.i_hom(pres.combination(a, _unit(E1, q, len(n_gens))))
            extra.append(lhs - emb(nq) * cj)
            variant.append(lhs - cj + emb(nq) * cj)
        for p, mp in enumerate(m_gens):
            lhs = cop.i_hom(pres.combination(_unit(E1, p, len(m_gens)), b))
            extra.append(lhs - emb(mp) * cj)
            variant.append(lhs - emb(mp) * cj + cj)
    top = Subquotient(cop.cm.top.numer,
                      cop.cm.top.rels + Ideal(merged, extra))

    def pair(m, n):
        return cop.i_hom(pres.expand(m, n))

    square = CrossedSquare(top=top, left=pres.m_ideal, right=pres.n_ideal,
                           bnd=cop.cm.bnd, lift=emb, pair=pair)
    return AssembledCorner(square=square, tensor=pres, coprod=cop,
                           extra_relations=tuple(extra),
                           variant_relations=tuple(variant))


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

    i_names, j_names = assembled.coprod.i_names, assembled.coprod.j_names
    images = {}
    for v in skel.E1.vars:
        images[v] = s1(skel.E1.var(v))
    for p in range(len(pres.m_gens)):
        for q in range(len(pres.n_gens)):
            images[i_names[pres.symbol_grid[p][q]]] = pair_live(
                pres.m_gens[p], pres.n_gens[q])
    for name in data.s3_names:
        images[j_names[name]] = E2.var(name)
    phi = RingHom(merged, E2,
                  tuple(images[v] for v in merged.vars))

    def row(instance, residue):
        return {"instance": instance, **outcome(residue)}

    P2 = live.top.rels
    well_defined = [row(str(r), P2.normal_form(phi(r)))
                    for r in assembled.top.rels.gens]
    image_ideal = Ideal(E2, [phi(g) for g in assembled.top.gens]) + P2
    surjective = []
    for w in live.top.gens:
        ok = image_ideal.member(w)
        surjective.append({"instance": str(w),
                           "status": "pass" if ok else "fail",
                           "witness": "" if ok else "no lift"})
    pairing = [row("m=%s, n=%s" % (m, n),
                   P2.normal_form(phi(assembled.square.pair(m, n))
                                  - pair_live(m, n)))
               for m in pres.m_gens for n in pres.n_gens]
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
