"""Independent correctness oracle for the xsq benchmark.

Nothing here imports xsq.  Polynomials are dicts {exponent tuple: coeff}
over Q (``fractions.Fraction``) or GF(p) (ints in 0..p-1), parsed from the
CLI's text output and from the benchmark's own input objects.  Ideals are
checked degree by degree with exact sparse Gaussian elimination; for the
weight-homogeneous inputs the benchmark generates, every check is exact up
to its degree bound:

* a reported basis is monic and reduced for wdegrevlex;
* each element lies in the ideal (a kernel: the map sends it to zero; an
  ideal given by generators: it lies in the span of generator multiples);
* in each degree the number of standard monomials equals the quotient
  dimension the oracle computes, so the basis generates the ideal and its
  leading terms generate the leading ideal up to the bound.
"""

from __future__ import annotations

import re
from fractions import Fraction


# -- coefficients ------------------------------------------------------------


class Field:
    """Q when p is None, GF(p) otherwise."""

    def __init__(self, label):
        if label == "Q":
            self.p = None
        elif isinstance(label, dict) and set(label) == {"Fp"}:
            self.p = int(label["Fp"])
        else:
            raise ValueError("unknown field label %r" % (label,))

    def num(self, n):
        return Fraction(n) if self.p is None else n % self.p

    def norm(self, c):
        return c if self.p is None else c % self.p

    def inv(self, c):
        return 1 / c if self.p is None else pow(c, -1, self.p)


# -- rings and polynomials -------------------------------------------------


class Ring:
    """Variables with positive integer weights over a field."""

    def __init__(self, names, weights, field):
        self.names = tuple(names)
        self.weights = tuple(weights)
        self.field = field
        self.index = {v: i for i, v in enumerate(self.names)}
        self.n = len(self.names)

    def var(self, name):
        e = [0] * self.n
        e[self.index[name]] = 1
        return {tuple(e): self.field.num(1)}

    def wdeg(self, mono):
        return sum(e * w for e, w in zip(mono, self.weights))

    def lm(self, p):
        """Leading monomial for wdegrevlex: weighted degree, then the
        smaller exponent on the last variable wins."""
        return max(p, key=lambda m: (self.wdeg(m),
                                     tuple(-e for e in reversed(m))))

    def monomials(self, d):
        """All monomials of weighted degree exactly d."""
        out = []
        w = self.weights
        acc = [0] * self.n

        def rec(i, left):
            if i == self.n:
                if left == 0:
                    out.append(tuple(acc))
                return
            for e in range(left // w[i] + 1):
                acc[i] = e
                rec(i + 1, left - e * w[i])
            acc[i] = 0

        rec(0, d)
        return out

    def embed(self, p, src):
        """The same polynomial in this ring (variables matched by name)."""
        pos = [self.index[v] for v in src.names]
        out = {}
        for m, c in p.items():
            e = [0] * self.n
            for i, k in zip(pos, m):
                e[i] = k
            out[tuple(e)] = c
        return out


def add(p, q, field, scale=1):
    """p + scale * q."""
    out = dict(p)
    for m, c in q.items():
        v = field.norm(out.get(m, 0) + scale * c)
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def mul(p, q, field):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = field.norm(out.get(m, 0) + c1 * c2)
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def homogeneous_parts(p, ring):
    parts = {}
    for m, c in p.items():
        parts.setdefault(ring.wdeg(m), {})[m] = c
    return parts


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()/]))")


def parse(text, ring):
    """Polynomial text: integers, names, + - * / ^ and parentheses."""
    toks = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError("bad polynomial text %r at %d" % (text, pos))
        toks.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    F = ring.field
    zero_mono = (0,) * ring.n
    state = {"i": 0}

    def peek():
        return toks[state["i"]] if state["i"] < len(toks) else None

    def take():
        state["i"] += 1
        return toks[state["i"] - 1]

    def expr():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        acc = add({}, term(), F, sign)
        while peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
            acc = add(acc, term(), F, sign)
        return acc

    def term():
        acc = power()
        while peek() in ("*", "/"):
            if take() == "*":
                acc = mul(acc, power(), F)
            else:
                d = power()
                if set(d) != {zero_mono}:
                    raise ValueError("division by a non-constant")
                inv = F.inv(d[zero_mono])
                acc = {m: F.norm(c * inv) for m, c in acc.items()}
        return acc

    def power():
        base = atom()
        if peek() == "^":
            take()
            k = int(take())
            out = {zero_mono: F.num(1)}
            for _ in range(k):
                out = mul(out, base, F)
            return out
        return base

    def atom():
        tok = take()
        if tok == "(":
            out = expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses in %r" % text)
            return out
        if tok.isdigit():
            c = F.num(int(tok))
            return {zero_mono: c} if c else {}
        if tok == "-":
            return {m: F.norm(-c) for m, c in atom().items()}
        return ring.var(tok)

    out = expr()
    if peek() is not None:
        raise ValueError("trailing text in %r" % text)
    return out


class Hom:
    """Ring map given by the images of the source variables; a variable
    not listed maps to the target variable of the same name."""

    def __init__(self, src, dst, images):
        self.src, self.dst = src, dst
        self.images = [images[v] if v in images else dst.var(v)
                       for v in src.names]
        self._powers = {}

    def _pow(self, i, e):
        key = (i, e)
        if key not in self._powers:
            F = self.dst.field
            out = {(0,) * self.dst.n: F.num(1)}
            for _ in range(e):
                out = mul(out, self.images[i], F)
            self._powers[key] = out
        return self._powers[key]

    def __call__(self, p):
        F = self.dst.field
        out = {}
        for m, c in p.items():
            term = {(0,) * self.dst.n: c}
            for i, e in enumerate(m):
                if e:
                    term = mul(term, self._pow(i, e), F)
            out = add(out, term, F)
        return out

    def then(self, other):
        return Hom(self.src, other.dst,
                   {v: other(img)
                    for v, img in zip(self.src.names, self.images)})


# -- exact linear algebra ----------------------------------------------------


class Echelon:
    """Sparse semi-echelon form: each stored row has coefficient 1 at its
    pivot, which is its largest key."""

    def __init__(self, field):
        self.field = field
        self.rows = {}

    def reduce(self, vec):
        F = self.field
        v = dict(vec)
        while v:
            k = max(v)
            row = self.rows.get(k)
            if row is None:
                return v, k
            c = v[k]
            for kk, cc in row.items():
                x = F.norm(v.get(kk, 0) - c * cc)
                if x:
                    v[kk] = x
                else:
                    v.pop(kk, None)
        return v, None

    def add(self, vec):
        v, k = self.reduce(vec)
        if k is None:
            return False
        inv = self.field.inv(v[k])
        self.rows[k] = {kk: self.field.norm(cc * inv) for kk, cc in v.items()}
        return True

    def contains(self, vec):
        return self.reduce(vec)[1] is None

    @property
    def rank(self):
        return len(self.rows)


class GeneratedIdeal:
    """Ideal of a ring given by weight-homogeneous generators; each degree
    piece is the span of the generator multiples of that degree."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = [g for g in gens if g]
        for g in self.gens:
            if len(homogeneous_parts(g, ring)) != 1:
                raise ValueError("generator is not weight-homogeneous")
        self._pieces = {}

    def piece(self, d):
        if d not in self._pieces:
            ring = self.ring
            ech = Echelon(ring.field)
            for g in self.gens:
                room = d - ring.wdeg(next(iter(g)))
                if room < 0:
                    continue
                for m in ring.monomials(room):
                    ech.add({tuple(a + b for a, b in zip(m, t)): c
                             for t, c in g.items()})
            self._pieces[d] = ech
        return self._pieces[d]

    def contains(self, p):
        return all(self.piece(d).contains(part)
                   for d, part in homogeneous_parts(p, self.ring).items())

    def quotient_dim(self, d):
        return len(self.ring.monomials(d)) - self.piece(d).rank


class KernelIdeal:
    """Common kernel of weight-preserving ring maps from one ring."""

    def __init__(self, ring, homs):
        self.ring = ring
        self.homs = homs
        self._ranks = {}

    def contains(self, p):
        return all(not h(p) for h in self.homs)

    def quotient_dim(self, d):
        if d not in self._ranks:
            ech = Echelon(self.ring.field)
            for m in self.ring.monomials(d):
                img = {}
                for k, h in enumerate(self.homs):
                    for mm, c in h({m: self.ring.field.num(1)}).items():
                        if h.dst.wdeg(mm) != d:
                            raise ValueError("map does not preserve weights")
                        img[(k,) + mm] = c
                ech.add(img)
            self._ranks[d] = ech.rank
        return self._ranks[d]   # E_d / ker is isomorphic to the image


def check_basis(basis, ideal, bound):
    """Problems found with a claimed reduced wdegrevlex basis of ideal, up
    to weighted degree bound; an empty list means every check passed."""
    ring = ideal.ring
    problems = []
    lms = [ring.lm(g) if g else None for g in basis]
    for g, lm in zip(basis, lms):
        if lm is None:
            problems.append("zero element in basis")
            continue
        if g[lm] != ring.field.num(1):
            problems.append("not monic: leading coefficient %s" % g[lm])
        for other in lms:
            if other is None or other == lm:
                continue
            for m in g:
                if all(a <= b for a, b in zip(other, m)):
                    problems.append("not reduced: a term is divisible by "
                                    "another leading monomial")
                    break
        if not ideal.contains(g):
            problems.append("element not in the ideal")
    if problems:
        return problems
    lms = [m for m in lms if m is not None]
    for d in range(bound + 1):
        standard = sum(1 for m in ring.monomials(d)
                       if not any(all(a <= b for a, b in zip(lm, m))
                                  for lm in lms))
        expect = ideal.quotient_dim(d)
        if standard != expect:
            problems.append("degree %d: %d standard monomials, quotient "
                            "dimension %d" % (d, standard, expect))
    return problems


# -- the construction, rebuilt from the input object -----------------------


class Construction:
    """Levels 0..3 of the free simplicial algebra on an input object, with
    the maps the reported ideals are defined by."""

    def __init__(self, obj):
        F = self.field = Field(obj.get("field", "Q"))
        s1 = list(obj["S1"])
        s2 = [(e["name"], e["image"]) for e in obj.get("S2", [])]
        s3 = [(e["name"], e["image"]) for e in obj.get("S3", [])]
        self.s2n = s2n = [n for n, _ in s2]
        self.s3n = s3n = [n for n, _ in s3]
        one = [1] * len(s1)
        R = self.R = Ring(s1, one, F)
        t = {n: parse(img, R) for n, img in s2}
        w2 = [max(1, max((R.wdeg(m) for m in t[n]), default=0)) for n in s2n]
        E1 = self.E1 = Ring(s1 + s2n, one + w2, F)
        f3 = {n: parse(img, E1) for n, img in s3}
        w3 = [max(1, max((E1.wdeg(m) for m in f3[n]), default=0))
              for n in s3n]
        E2 = self.E2 = Ring(s1 + ["s0_" + n for n in s2n]
                            + ["s1_" + n for n in s2n] + s3n,
                            one + w2 + w2 + w3, F)
        E3 = self.E3 = Ring(s1 + ["s1s0_" + n for n in s2n]
                            + ["s2s0_" + n for n in s2n]
                            + ["s2s1_" + n for n in s2n]
                            + ["s0_" + n for n in s3n]
                            + ["s1_" + n for n in s3n]
                            + ["s2_" + n for n in s3n],
                            one + w2 * 3 + w3 * 3, F)
        self.images = t
        zero = {}
        # faces from level 1 to 0 and from level 2 to 1
        self.d10 = Hom(E1, R, {n: zero for n in s2n})
        self.d11 = Hom(E1, R, t)
        self.d20 = Hom(E2, E1, {**{"s0_" + n: E1.var(n) for n in s2n},
                                **{"s1_" + n: zero for n in s2n},
                                **{n: zero for n in s3n}})
        self.d21 = Hom(E2, E1, {**{"s0_" + n: E1.var(n) for n in s2n},
                                **{"s1_" + n: E1.var(n) for n in s2n},
                                **{n: zero for n in s3n}})
        # degeneracies from level 1 to 2 and from level 2 to 3
        self.s10 = Hom(E1, E2, {n: E2.var("s0_" + n) for n in s2n})
        self.s11 = Hom(E1, E2, {n: E2.var("s1_" + n) for n in s2n})
        s20 = Hom(E2, E3, {**{"s0_" + n: E3.var("s1s0_" + n) for n in s2n},
                           **{"s1_" + n: E3.var("s2s0_" + n) for n in s2n},
                           **{n: E3.var("s0_" + n) for n in s3n}})
        s21 = Hom(E2, E3, {**{"s0_" + n: E3.var("s1s0_" + n) for n in s2n},
                           **{"s1_" + n: E3.var("s2s1_" + n) for n in s2n},
                           **{n: E3.var("s1_" + n) for n in s3n}})
        s22 = Hom(E2, E3, {**{"s0_" + n: E3.var("s2s0_" + n) for n in s2n},
                           **{"s1_" + n: E3.var("s2s1_" + n) for n in s2n},
                           **{n: E3.var("s2_" + n) for n in s3n}})
        self.s2 = (s20, s21, s22)
        # the last face from level 3 to 2
        d33 = {}
        for n in s2n:
            d33["s1s0_" + n] = E2.embed(t[n], R)
            d33["s2s0_" + n] = E2.var("s0_" + n)
            d33["s2s1_" + n] = E2.var("s1_" + n)
        for n in s3n:
            d33["s0_" + n] = self.s10(f3[n])
            d33["s1_" + n] = self.s11(f3[n])
            d33["s2_" + n] = E2.var(n)
        self.d33 = Hom(E3, E2, d33)

    def p1_generators(self):
        E1, F = self.E1, self.field
        gens = []
        for ni in self.s2n:
            ti = E1.embed(self.images[ni], self.R)
            for nj in self.s2n:
                Xj = E1.var(nj)
                gens.append(add(mul(E1.var(ni), Xj, F), mul(ti, Xj, F), F, -1))
        return gens

    def p2_generators(self, ne1, ne2):
        """The last face of the six quadratic families on the generators
        ne1 of Ker d0 at level 1 and ne2 of the level-2 Moore kernel."""
        F = self.field
        s0, s1, s2 = self.s2
        s10 = self.s10.then(s1)
        s20 = self.s10.then(s2)
        s21 = self.s11.then(s2)

        def sub(a, b):
            return add(a, b, F, -1)

        zs = []
        for x in ne1:
            a, b, c = s10(x), s20(x), s21(x)
            for y in ne2:
                y0, y1, y2 = s0(y), s1(y), s2(y)
                zs.append(mul(sub(a, b), y2, F))
                zs.append(mul(sub(b, c), sub(y1, y2), F))
                zs.append(mul(c, add(sub(y0, y1), y2, F), F))
        for x in ne2:
            x1, x2 = s1(x), s2(x)
            for y in ne2:
                y0, y1, y2 = s0(y), s1(y), s2(y)
                zs.append(add(mul(x1, sub(y0, y1), F), s2(mul(x, y, F)), F))
                zs.append(mul(x2, y0, F))
                zs.append(mul(x2, sub(y1, y2), F))
        return [g for g in (self.d33(z) for z in zs) if g]


# -- reading the CLI's text output -----------------------------------------


def parse_text(text):
    """Inverse of the CLI's text rendering: nested dicts and lists whose
    leaves are strings."""
    lines = text.rstrip("\n").split("\n")
    obj, i = _block(lines, 0, 0)
    if i != len(lines):
        raise ValueError("unparsed output from line %d" % (i + 1))
    return obj


def _at_depth(line, depth):
    pad = "  " * depth
    return line.startswith(pad) and not line[len(pad):].startswith(" ")


def _block(lines, i, depth):
    pad = len("  " * depth)
    if i >= len(lines) or not _at_depth(lines[i], depth):
        return [], i
    if lines[i][pad:].startswith("-"):
        out = []
        while i < len(lines) and _at_depth(lines[i], depth) \
                and lines[i][pad:].startswith("-"):
            body = lines[i][pad:]
            if body == "-":
                child, i = _block(lines, i + 1, depth + 1)
                out.append(child)
            else:
                out.append(body[2:])
                i += 1
        return out, i
    out = {}
    while i < len(lines) and _at_depth(lines[i], depth):
        body = lines[i][pad:]
        if ": " in body:
            key, val = body.split(": ", 1)
            out[key] = val
            i += 1
        elif body.endswith(":"):
            out[body[:-1]], i = _block(lines, i + 1, depth + 1)
        else:
            raise ValueError("unexpected output line %r" % lines[i])
    return out, i


# -- checks on each command's output ---------------------------------------

# Rows with a closed form, by base input: pi0 of k[x]/(x^2) and of
# k[x,y]/(x^2, xy) by monomial counting, and H2 of the same presentations.
def closed_pi0(base, D):
    if base == "a":
        return [1] + [2] * D
    if base == "b":
        return [d + 2 if d else 1 for d in range(D + 1)]
    return None


def closed_h2(base, D_h2):
    if base == "a":
        return [0] * (D_h2 + 1)
    if base == "b":
        return list(range(D_h2 + 1))
    return None


def _ints(row):
    return [int(x) for x in row]


def check_build(out, obj):
    """Every reduced basis that build reports, against the oracle."""
    con = Construction(obj)
    problems = []
    rings = out["rings"]
    for key, ring in (("E0", con.R), ("E1", con.E1), ("E2", con.E2),
                      ("E3", con.E3)):
        if list(rings[key]["vars"]) != list(ring.names) \
                or _ints(rings[key]["weights"]) != list(ring.weights):
            problems.append("ring %s differs from the construction" % key)
    if problems:
        return problems

    def polys(strs, ring):
        return [parse(s, ring) for s in strs]

    ne1 = polys(out["moore"]["ker_d0_level1"], con.E1)
    kbar = polys(out["moore"]["ker_d1_level1"], con.E1)
    ne2 = polys(out["moore"]["ker_level2"], con.E2)
    p1 = polys(out["peiffer_level1"]["reduced"], con.E1)
    p2 = polys(out["peiffer_level2"]["reduced"], con.E2)
    p1_gens = con.p1_generators()
    if sorted(map(sorted, (g.items() for g in p1_gens))) != sorted(
            map(sorted, (g.items() for g in polys(
                out["peiffer_level1"]["generators"], con.E1)))):
        problems.append("level-1 Peiffer generators differ")
    cases = [
        ("Ker d0 at level 1", ne1, KernelIdeal(con.E1, [con.d10]), None),
        ("Ker d1 at level 1", kbar, KernelIdeal(con.E1, [con.d11]), None),
        ("level-2 Moore kernel", ne2,
         KernelIdeal(con.E2, [con.d20, con.d21]), None),
        ("level-1 Peiffer ideal", p1, GeneratedIdeal(con.E1, p1_gens),
         p1_gens),
    ]
    for label, basis, ideal, gens in cases:
        for p in check_basis(basis, ideal, _bound(basis, gens, ideal.ring)):
            problems.append("%s: %s" % (label, p))
    if problems:
        return problems
    # P2 is generated from the Moore generators just certified
    p2_gens = con.p2_generators(ne1, ne2)
    p2_ideal = GeneratedIdeal(con.E2, p2_gens)
    for p in check_basis(p2, p2_ideal, _bound(p2, p2_gens, con.E2)):
        problems.append("level-2 Peiffer ideal: %s" % p)
    return problems


def _bound(basis, gens, ring):
    """Degree bound: one past the highest basis element or generator."""
    degs = [ring.wdeg(m) for p in list(basis) + list(gens or []) for m in p]
    return max(degs, default=0) + 1


def negative_control(out, obj):
    """Corrupt the level-1 and level-2 Peiffer bases of a build output in
    two ways each; returns the labels of corruptions the oracle missed."""
    con = Construction(obj)
    missed = []
    p1_gens = con.p1_generators()
    ne1 = [parse(s, con.E1) for s in out["moore"]["ker_d0_level1"]]
    ne2 = [parse(s, con.E2) for s in out["moore"]["ker_level2"]]
    p2_gens = con.p2_generators(ne1, ne2)
    for label, key, ring, gens in (
            ("level-1 Peiffer", "peiffer_level1", con.E1, p1_gens),
            ("level-2 Peiffer", "peiffer_level2", con.E2, p2_gens)):
        basis = [parse(s, ring) for s in out[key]["reduced"]]
        if not basis:
            continue
        ideal = GeneratedIdeal(ring, gens)
        bound = _bound(basis, gens, ring)
        dropped = basis[1:]
        if not check_basis(dropped, ideal, bound):
            missed.append(label + " with one element dropped")
        longest = max(range(len(basis)), key=lambda i: len(basis[i]))
        g = basis[longest]
        if len(g) > 1:
            lm = ring.lm(g)
            m = next(t for t in g if t != lm)
            changed = dict(g)
            changed[m] = ring.field.norm(changed[m] + 1) or ring.field.num(2)
            if not check_basis(basis[:longest] + [changed]
                               + basis[longest + 1:], ideal, bound):
                missed.append(label + " with a coefficient changed")
    return missed


def check_verify(out):
    problems = []
    if out.get("ok") != "True":
        problems.append("verify reports ok: %s" % out.get("ok"))
    for rep in out.get("reports", []):
        if rep.get("ok") != "True":
            problems.append("%s is not ok"
                            % rep.get("object", rep.get("label")))
    return problems


def check_homotopy(out, obj, base, D):
    problems = []
    for key in ("pi1", "aq_h2"):
        if out[key].get("routes_agree") != "True":
            problems.append("%s routes disagree" % key)
    con = Construction(obj)
    rels = GeneratedIdeal(con.R, [con.images[n] for n in con.s2n])
    row, total = [], 0
    for d in range(D + 1):
        total += rels.quotient_dim(d)
        row.append(total)
    if _ints(out["pi0"]["dims"]) != row:
        problems.append("pi0 row %s, oracle %s" % (out["pi0"]["dims"], row))
    closed = closed_pi0(base, D)
    if closed is not None and row != closed:
        problems.append("oracle pi0 row %s, closed form %s" % (row, closed))
    closed = closed_h2(base, D + 2)
    if closed is not None:
        for key in ("dims_syzygy_route", "dims_kernel_route"):
            if _ints(out["aq_h2"][key]) != closed:
                problems.append("H2 %s %s, closed form %s"
                                % (key, out["aq_h2"][key], closed))
    return problems


def check_compare(out, obj):
    problems = []
    if out.get("ok") != "True":
        problems.append("compare reports ok: %s" % out.get("ok"))
    if out["corner"].get("ok") != "True":
        problems.append("corner reconstruction is not ok")
    split = out.get("split", {})
    if obj.get("S3"):
        if "skipped" not in split:
            problems.append("split comparison ran on data with S3")
    else:
        if split.get("ok") != "True":
            problems.append("split comparison is not ok")
        for key in ("pi0", "pi1", "pi2"):
            if split.get(key, {}).get("equal") != "True":
                problems.append("split %s rows differ" % key)
    return problems


def check_output(command, stdout, obj, base, max_degree):
    """Problems with one command's stdout; empty when it passes."""
    try:
        out = parse_text(stdout)
        if command == "build":
            return check_build(out, obj)
        if command == "verify":
            return check_verify(out)
        if command == "homotopy":
            return check_homotopy(out, obj, base, max_degree)
        return check_compare(out, obj)
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        return ["output not understood: %s: %s" % (type(e).__name__, e)]
