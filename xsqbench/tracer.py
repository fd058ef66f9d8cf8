"""Outside-in tracing of xsq's layers, installed from the benchmark's files.

The tracer wraps public functions and methods of each xsq module and
records one span per call: name, start, end, parent and optional
attributes.  A function imported by name into another module is a second
binding of the same object, so every module attribute that holds a
wrapped function is rebound.  Spans stay in memory until the process
ends; :func:`dump` writes them out.  ``scalars`` and ``rings`` are not
wrapped: a span per coefficient or polynomial operation would swamp the
run, so their cost shows in the self time of the layer above.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, attrs]
        self.stack = []

    def wrap(self, name, fn, attrs=None, when=None):
        """A wrapper of fn that records a span named name.  attrs(args,
        kwargs, result) gives the span's attributes; its cost is recorded
        as a span "trace.attrs" beside it, so it counts in no layer.  When
        when(tracer, args, kwargs) is false the call records no span."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(self, args, kwargs):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                t0 = perf_counter()
                span[4] = attrs(args, kwargs, result)
                spans.append(["trace.attrs", t0, perf_counter(),
                              stack[-1] if stack else -1, None])
            return result

        return traced

    def dump(self, path, sites):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "sites": sites}, fh)


# -- what is wrapped -------------------------------------------------------


def _basis_pending(tracer, args, kwargs):
    """True when Ideal._computed is about to run a basis computation: no
    basis cached for the order yet, or cofactor rows needed and missing."""
    ideal = args[0]
    order = args[1] if len(args) > 1 else kwargs.get("order")
    track = args[3] if len(args) > 3 else kwargs.get("track", False)
    tag = ideal.ring.order if order is None else order
    hit = ideal._cache.get(tag)
    return hit is None or (track and hit[2] is None)


def _basis_attrs(args, kwargs, result):
    ideal = args[0]
    order = args[1] if len(args) > 1 else kwargs.get("order")
    tag = ideal.ring.order if order is None else order
    key = hash((ideal.ring, str(tag), frozenset(ideal.gens)))
    return {"key": key, "elems": len(result[1])}


def _rref_attrs(args, kwargs, result):
    rows = args[0]
    return {"cells": len(rows) * len(rows[0]) if len(rows) else 0}


def _p2_attrs(args, kwargs, result):
    return {"gens": len(result.gens)}


def _verify_attrs(args, kwargs, result):
    return {"checks": len(result.items)}


def _outermost_render(tracer, args, kwargs):
    stack = tracer.stack
    return not (stack and tracer.spans[stack[-1]][0] == "cli.render")


# (module, attribute path, span name, attrs, when)
TARGETS = (
    ("xsq.groebner", "Ideal._computed", "groebner.basis", _basis_attrs,
     _basis_pending),
    ("xsq.groebner", "Ideal.normal_form", "groebner.nf", None, None),
    ("xsq.groebner", "Ideal.lift", "groebner.lift", None, None),
    ("xsq.groebner", "eliminate", "groebner.elim", None, None),
    ("xsq.groebner", "ideal_intersect", "groebner.elim", None, None),
    ("xsq.groebner", "hom_kernel", "groebner.elim", None, None),
    ("xsq.groebner", "syzygies", "groebner.syz", None, None),
    ("xsq.groebner", "affine_hilbert", "groebner.hilbert", None, None),
    ("xsq.groebner", "subquotient_dims", "groebner.hilbert", None, None),
    ("xsq.linalg", "rref", "linalg.rref", _rref_attrs, None),
    ("xsq.linalg", "Echelon.add", "linalg.echelon.add", None, None),
    ("xsq.linalg", "Echelon.reduce", "linalg.echelon.reduce", None, None),
    ("xsq.linalg", "Echelon.contains", "linalg.echelon.contains", None, None),
    ("xsq.linalg", "truncated_ideal_span", "linalg.span", None, None),
    ("xsq.simplicial", "build_skeleton", "simplicial.skeleton", None, None),
    ("xsq.simplicial", "Skeleton2.moore", "simplicial.moore", None, None),
    ("xsq.simplicial", "peiffer_P1", "simplicial.p1", None, None),
    ("xsq.simplicial", "peiffer_P2", "simplicial.p2", _p2_attrs, None),
    ("xsq.simplicial", "ConstructionData.from_json", "cli.parse", None, None),
    ("xsq.crossed", "functor_M", "crossed.functor", None, None),
    ("xsq.crossed", "verify_square", "crossed.verify", _verify_attrs, None),
    ("xsq.crossed", "verify_xmod", "crossed.verify", _verify_attrs, None),
    ("xsq.tensor", "compare_corner", "tensor.corner", None, None),
    ("xsq.tensor", "assemble_L", "tensor.assemble", None, None),
    ("xsq.homotopy", "pi0", "homotopy.pi", None, None),
    ("xsq.homotopy", "pi1", "homotopy.pi", None, None),
    ("xsq.homotopy", "pi1_witness", "homotopy.pi", None, None),
    ("xsq.homotopy", "pi2", "homotopy.pi", None, None),
    ("xsq.homotopy", "pi2_witness", "homotopy.pi", None, None),
    ("xsq.homotopy", "aq_h2", "homotopy.h2", None, None),
    ("xsq.homotopy", "aq_h2_witness", "homotopy.h2", None, None),
    ("xsq.homotopy", "compare_XY", "homotopy.split", None, None),
    ("xsq.cli", "_render_text", "cli.render", None, _outermost_render),
)


def install(tracer, targets=TARGETS):
    """Wrap every target and rebind it wherever a loaded xsq module holds
    it; returns the rebound sites as "module.attribute" strings.  A target
    that no longer exists raises AttributeError."""
    replaced = {}
    sites = []
    for modname, path, span, attrs, when in targets:
        owner = importlib.import_module(modname)
        *outer, leaf = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[leaf]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(span, raw.__func__, attrs,
                                                  when))
            else:
                wrapped = tracer.wrap(span, raw, attrs, when)
            setattr(owner, leaf, wrapped)
            sites.append("%s.%s" % (modname, path))
        else:
            raw = getattr(owner, leaf)
            replaced[id(raw)] = (raw, tracer.wrap(span, raw, attrs, when))
    for modname in sorted(sys.modules):
        module = sys.modules[modname]
        if modname != "xsq" and not modname.startswith("xsq."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                sites.append("%s.%s" % (modname, attr))
    return sites


# -- turning spans into layer figures --------------------------------------


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def outermost(spans, name):
    """Spans of the given name with no ancestor of the same name."""
    out = []
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out.append(s)
    return out
