"""The 2-skeletal free simplicial algebra of construction data.

Construction data is a base variable set S1 (so R = k[S1]), adjoined level-1
generators S2 with prescribed images in R, and level-2 generators S3 with
images in the augmentation ideal of R[S2] that die under the level-1
boundary.  The skeleton carries levels 0..3 with every face and degeneracy
map, and derives them rather than listing them: the simplicial identities
together with the free-construction rule, that a new level-k generator has
all faces zero except the k-th, which is its image, force every one.

Level n is R followed by each adjoined generator X of level l under every
canonical word s_j1...s_jm with j1 > ... > jm and m = n - l, named
``s<j1>...s<jm>_X``: a level-1 X gives ``s0_X`` and ``s1_X`` at level 2
and ``s1s0_X``, ``s2s0_X``, ``s2s1_X`` at level 3, and a level-2 T gives
``s0_T``, ``s1_T``, ``s2_T``.  A degeneracy renames a copy by the rewriting
s_i s_k = s_(k+1) s_i for i <= k; a face peels off the outer degeneracy
by the identities d_i s_j = s_(j-1) d_i (i < j), id (i = j, j + 1) and
s_j d_(i-1) (i > j + 1) down to the free-construction rule.

The second-order Peiffer ideal has one route: the six quadratic families
inside level 3, instantiated on the Moore generators and pushed down along
the last face (:func:`peiffer_P2`).  The ideals derived from a skeleton (the
face kernels, the level-2 Moore kernel, the second-order Peiffer ideal, the
ideal pairs of the homotopy rows, the tensor presentation of the two
level-1 corners and the Moore functor at level 0) are computed once per
skeleton and kept on it.  Every face kernel has one rule,
:meth:`Skeleton2.kernel`, checked once against elimination; the level-1
corners are Ker d_0 and Ker d_1, and the level-2 Moore kernel is their
intersection at level 2.  A lower skeleton is the skeleton of the data
with its level-2 generators, or with all its adjoined generators, left out.
"""

import json
from itertools import combinations

from .scalars import field_from_label
from .rings import NAME, PolyRing, Polynomial, RingHom, reringed
from .groebner import Ideal, hom_kernel, ideal_intersect

RESERVED_PREFIXES = ("s0_", "s1_", "s2_", "s1s0_", "s2s0_", "s2s1_")


class InvalidData(ValueError):
    """Construction data failed validation; carries per-field messages."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _weight_of(image):
    return max(1, image.wdeg())


class ConstructionData:
    """Validated 2-dimensional construction data.

    s2 and s3 are tuples of (name, image) with images already parsed into
    the base ring R and into E1 = R[S2] respectively.
    """

    def __init__(self, field, s1_names, s2, s3):
        self.field = field
        self.s1_names = tuple(s1_names)
        problems = []
        for name in self.s1_names:
            if not isinstance(name, str):
                problems.append("S1 name %r is not a string" % (name,))
            elif name.startswith(RESERVED_PREFIXES):
                problems.append("S1 name %r uses a reserved prefix" % name)
        seen = set(self.s1_names)
        if len(seen) != len(self.s1_names):
            problems.append("duplicate names in S1")
        if problems:
            raise InvalidData(problems)
        try:
            self.base_ring = PolyRing(self.s1_names, field)
        except ValueError as e:
            raise InvalidData(["S1: %s" % e])

        for key, rows, where in (("S2", s2, "the base ring"),
                                 ("S3", s3, "R[S2]")):
            ring = self.base_ring if key == "S2" else self.ring1
            parsed = []
            for name, image in rows:
                if not isinstance(name, str):
                    problems.append("%s name %r is not a string" % (key, name))
                    continue
                if not NAME.fullmatch(name):
                    problems.append("%s name %r is not a variable name (a "
                                    "letter or _, then letters, digits or _)"
                                    % (key, name))
                    continue
                if name in seen or name.startswith(RESERVED_PREFIXES):
                    problems.append("%s name %r duplicates another name or "
                                    "uses a reserved prefix" % (key, name))
                    continue
                seen.add(name)
                if isinstance(image, str):
                    try:
                        image = ring.parse(image)
                    except ValueError as e:
                        problems.append("%s image for %r: %s" % (key, name, e))
                        continue
                if not isinstance(image, Polynomial) or image.ring != ring:
                    problems.append("%s image for %r is not in %s"
                                    % (key, name, where))
                    continue
                if key == "S3":
                    if not self._in_augmentation(image):
                        problems.append("S3 image for %r is not in the "
                                        "augmentation ideal (S2)" % name)
                    boundary = d1(image)
                    if not boundary.is_zero():
                        problems.append(
                            "S3 image %s for %r has nonzero boundary %s"
                            % (image, name, boundary))
                parsed.append((name, image))
            if key == "S2":
                self.s2 = tuple(parsed)
                self.ring1 = self.base_ring.extend(
                    self.s2_names, map(_weight_of, self.boundary_images))
                # the level-1 boundary R[S2] -> R, for the S3 images
                d1 = RingHom.from_map(self.ring1, self.base_ring, dict(parsed))
            else:
                self.s3 = tuple(parsed)
        if problems:
            raise InvalidData(problems)

    def _in_augmentation(self, p):
        adjoined = self.ring1.packing.mask(
            range(len(self.s1_names), len(self.ring1.vars)))
        return all(M & adjoined for M in p.terms)

    @property
    def s2_names(self):
        return tuple(n for n, _ in self.s2)

    @property
    def s3_names(self):
        return tuple(n for n, _ in self.s3)

    @property
    def boundary_images(self):
        return tuple(img for _, img in self.s2)

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, obj):
        problems = []
        if not isinstance(obj, dict):
            raise InvalidData(["input is not a JSON object"])
        unknown = [k for k in obj if k not in ("field", "S1", "S2", "S3")]
        if unknown:
            raise InvalidData(["unknown key %r (the keys are field, S1, S2 "
                               "and S3)" % k for k in unknown])
        field_label = obj.get("field", "Q")
        try:
            field = field_from_label(field_label)
        except (ValueError, TypeError) as e:
            raise InvalidData(["field: %s" % e])
        s1 = obj.get("S1", [])
        if not isinstance(s1, list) or not all(isinstance(v, str) for v in s1):
            raise InvalidData(["S1 must be a list of names"])

        def entries(key):
            rows = obj.get(key, [])
            if not isinstance(rows, list):
                problems.append("%s must be a list" % key)
                return []
            out = []
            for row in rows:
                if not (isinstance(row, dict)
                        and row.keys() >= {"name", "image"}):
                    problems.append("%s entries need name and image" % key)
                    continue
                problems.extend("unknown key %r in an %s entry (the keys "
                                "are name and image)" % (k, key)
                                for k in row if k not in ("name", "image"))
                out.append((row["name"], row["image"]))
            return out

        s2, s3 = entries("S2"), entries("S3")
        if problems:
            raise InvalidData(problems)
        return cls(field, s1, s2, s3)

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:
            # RecursionError: arrays or objects nested too deep to decode
            raise InvalidData(["invalid JSON: %s" % e])
        return cls.from_dict(obj)

    def to_dict(self):
        return {
            "field": self.field.label(),
            "S1": list(self.s1_names),
            "S2": [{"name": n, "image": str(img)} for n, img in self.s2],
            "S3": [{"name": n, "image": str(img)} for n, img in self.s3],
        }


class Skeleton2:
    """Levels 0..3 of the free simplicial algebra with all face and
    degeneracy homomorphisms; immutable after construction except for
    the memo of derived ideals (``once``)."""

    def __init__(self, data):
        self.data = data
        R = data.base_ring
        # (word, name, image) per variable of E_n after those of R: each
        # generator of level l under each canonical word of length n - l
        copies = [[(w[::-1], x, img)
                   for level, gens in ((1, data.s2), (2, data.s3))
                   if level <= n
                   for w in combinations(range(n), n - level)
                   for x, img in gens] for n in range(4)]
        self.rings = E = (R,) + tuple(R.extend(
            [_copy_name(w, x) for w, x, _ in copies[n]],
            [_weight_of(img) for _, _, img in copies[n]]) for n in (1, 2, 3))
        self.degen = {
            (n, j): RingHom.from_map(E[n], E[n + 1], {
                _copy_name(w, x):
                    E[n + 1].var(_copy_name(_degenerate(j, w), x))
                for w, x, _ in copies[n]})
            for n in (0, 1, 2) for j in range(n + 1)}
        self.face = {}  # filled level by level: _face_image reads level n - 1
        for n in (1, 2, 3):
            for i in range(n + 1):
                self.face[(n, i)] = RingHom.from_map(E[n], E[n - 1], {
                    _copy_name(w, x): self._face_image(n, i, w, x, img)
                    for w, x, img in copies[n]})
        self._memo = {}

    def _face_image(self, n, i, word, name, image):
        """d_i of the copy s_word of an adjoined generator with the given
        image, in E_(n-1), by the rules of the module docstring."""
        E = self.rings[n - 1]
        if not word:
            return image if i == n else E.zero
        j, below = word[0], E.var(_copy_name(word[1:], name))
        if i in (j, j + 1):
            return below
        if i < j:
            return self.degen[(n - 2, j - 1)](self.face[(n - 1, i)](below))
        return self.degen[(n - 2, j)](self.face[(n - 1, i - 1)](below))

    # convenient aliases
    @property
    def base(self):
        return self.rings[0]

    @property
    def E1(self):
        return self.rings[1]

    @property
    def E2(self):
        return self.rings[2]

    def once(self, key, make):
        """The value stored under key, made by make() on the first call."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    @property
    def corners(self):
        """The two level-1 corner ideals, Ker d_0 and Ker d_1."""
        return self.kernel(1, 0), self.kernel(1, 1)

    def kernel(self, n, i):
        """Ker d_i at level n, made once per skeleton: d_i s = id for the
        degeneracy s = s_min(i, n-1), so the v - s(d_i(v)) over the
        variables v of E_n generate it.  Checked once against the kernel
        that elimination gives."""
        def make():
            d, s = self.face[(n, i)], self.degen[(n - 1, min(i, n - 1))]
            K = Ideal(d.domain, [v - s(d(v)) for v in d.domain.gens()])
            if K.groebner() != hom_kernel(d).groebner():
                raise AssertionError("Ker d_%d^%d disagrees with its "
                                     "elimination" % (i, n))
            return K
        return self.once(("kernel", n, i), make)

    def moore(self):
        """The level-2 Moore kernel Ker d_0 cap Ker d_1."""
        return self.once("moore", lambda: ideal_intersect(
            self.kernel(2, 0), self.kernel(2, 1)))

    def p2(self):
        """The second-order Peiffer ideal, made once per skeleton."""
        return self.once("p2", lambda: peiffer_P2(self))

    def pi0(self):
        """The ideal of the boundary images in R, which presents the
        zeroth homotopy ring R/I, made once per skeleton."""
        return self.once("pi0", lambda: Ideal(
            self.base, self.data.boundary_images))


def _copy_name(word, name):
    """``s<j1>...s<jm>_name`` for the word j1 > ... > jm; name alone for
    the empty word."""
    return "".join("s%d" % j for j in word) + "_" + name if word else name


def _degenerate(j, word):
    """The canonical word of s_j s_word, by s_i s_k = s_(k+1) s_i for
    i <= k."""
    return (tuple(k + 1 for k in word if k >= j) + (j,)
            + tuple(k for k in word if k < j))


def build_skeleton(data):
    """Skeleton of the construction data."""
    return Skeleton2(data)


def peiffer_defects(gens, images):
    """The defects y_i y_j - t_i y_j of the second crossed-module axiom
    over all ordered pairs of generators y_i with boundary images t_i,
    both given in one ring."""
    return [gi * gj - ti * gj for gi, ti in zip(gens, images) for gj in gens]


def peiffer_P1(data):
    """Ideal of E1 generated by X_i X_j - t_i X_j over all ordered pairs:
    the defects of the second crossed-module axiom for the free pre-crossed
    module."""
    E1 = data.ring1
    return Ideal(E1, peiffer_defects(
        [E1.var(n) for n in data.s2_names],
        [reringed(t, E1) for t in data.boundary_images]))


def _c_instances(skel):
    """The six quadratic families inside level 3, instantiated on the
    generators of the level-1 and level-2 Moore kernels: C_(1,0)(2),
    C_(2,0)(1) and C_(2,1)(0) on pairs (x, y), then C_(1)(0), C_(2)(0)
    and C_(2)(1) on pairs (y, y')."""
    s0 = skel.degen[(2, 0)]
    s1 = skel.degen[(2, 1)]
    s2 = skel.degen[(2, 2)]
    s10 = skel.degen[(1, 0)].then(skel.degen[(2, 1)])
    s20 = skel.degen[(1, 0)].then(skel.degen[(2, 2)])
    s21 = skel.degen[(1, 1)].then(skel.degen[(2, 2)])

    # each Moore generator goes through each degeneracy once, not once
    # per pair it takes part in
    xs = [(s10(x) - s20(x), s20(x) - s21(x), s21(x))
          for x in skel.corners[0].groebner()]
    ys = [(s0(y), s1(y), s2(y)) for y in skel.moore().gens]
    for x10, x20, x21 in xs:
        for y0, y1, y2 in ys:
            yield x10 * y2
            yield x20 * (y1 - y2)
            yield x21 * (y0 - y1 + y2)
    for _, x1, x2 in ys:
        for y0, y1, y2 in ys:
            yield x1 * (y0 - y1) + x2 * y2
            yield x2 * y0
            yield x2 * (y1 - y2)


def peiffer_P2(skel):
    """Second-order Peiffer ideal of E2: the image under the last face of
    the degenerate part of the level-3 Moore kernel.

    The six quadratic families of :func:`_c_instances` are instantiated on
    Moore generators inside E3 and pushed down along d_3; this works with
    or without level-2 construction generators.  Every family element must
    have its faces d_0, d_1 and d_2 zero.
    """
    d = {i: skel.face[(3, i)] for i in range(4)}
    gens = []
    for z in _c_instances(skel):
        for i in (0, 1, 2):
            img = d[i](z)
            if not img.is_zero():
                raise AssertionError(
                    "family element has nonzero face %d: %s" % (i, img))
        img = d[3](z)
        if not img.is_zero():
            gens.append(img)
    return Ideal(skel.E2, gens)
