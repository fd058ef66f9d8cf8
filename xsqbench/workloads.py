"""Workload inputs for the xsq benchmark, generated from a seed.

A seed renames the variables and generators of every input and, for the
prime-field workload, picks the modulus from a fixed list of primes near
32003.  Renaming keeps the position of every variable, so monomial orders,
weights, generator counts and the work done are the same for every seed;
only the printed names change.  Seed 0 gives the JSON objects of fixtures
a-c unchanged and the modulus 32003.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

# The presentations, with the names of seed 0: fixtures a-c of the
# repository, and the three-variable inputs f1 and f2 over GF(32003).
BASES = {
    "a": {"field": "Q", "S1": ["x"],
          "S2": [{"name": "S", "image": "x^2"}], "S3": []},
    "b": {"field": "Q", "S1": ["x", "y"],
          "S2": [{"name": "S1", "image": "x^2"},
                 {"name": "S2", "image": "x*y"}], "S3": []},
    "c": {"field": "Q", "S1": ["x", "y"],
          "S2": [{"name": "S1", "image": "x^2"},
                 {"name": "S2", "image": "x*y"}],
          "S3": [{"name": "T", "image": "y*S1 - x*S2"}]},
    "f1": {"field": {"Fp": 32003}, "S1": ["x", "y", "z"],
           "S2": [{"name": "A", "image": "x*y"},
                  {"name": "B", "image": "y*z"}],
           "S3": [{"name": "T", "image": "z*A - x*B"}]},
    "f2": {"field": {"Fp": 32003}, "S1": ["x", "y", "z"],
           "S2": [{"name": "A", "image": "x*y"},
                  {"name": "B", "image": "y*z"}], "S3": []},
}

PRIMES = (32003, 31991, 32009, 32027, 32029, 32051, 32057, 32059, 32063,
          32069)

COMMANDS = ("build", "verify", "homotopy", "compare")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bases: tuple
    flags: tuple = ()
    max_degree: int = 6


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-q", "fixtures a-c over Q with default flags: Groebner "
                 "bases and normal forms dominate", ("a", "b", "c")),
        Workload("rows-q", "fixtures a and b over Q with --max-degree 9: "
                 "truncated linear algebra dominates, bases stay small",
                 ("a", "b"), ("--max-degree", "9"), 9),
        Workload("fp-3var", "two three-variable inputs over GF(p), p near "
                 "32003: the same engine with prime-field coefficients",
                 ("f1", "f2")),
    )
}


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Lower-case letters that no derived or fresh name of xsq starts with
# (s: degeneracies, g: tensor symbols, k and t: elimination tags).
_LOWER = "abcdefhmnpqruvwxyz"
_UPPER = "ABCDEFGHJKLMNPQRUVWXYZ"


def _renaming(rng, names, letters, taken):
    out = {}
    for old in names:
        while True:
            letter = rng.choice(letters)
            new = letter + rng.choice(["", str(rng.randrange(10))])
            if new not in taken:
                break
        taken.add(new)
        out[old] = new
    return out


def make_input(base, seed):
    """The input object for one base presentation and seed."""
    obj = BASES[base]
    if seed == 0:
        return {k: (list(v) if isinstance(v, list) else v)
                for k, v in obj.items()}
    rng = random.Random("%s/%d" % (base, seed))
    taken = set()
    names = _renaming(rng, obj["S1"], _LOWER, taken)
    names.update(_renaming(rng, [e["name"] for e in obj["S2"] + obj["S3"]],
                           _UPPER, taken))

    def rename(text):
        return _NAME.sub(lambda m: names.get(m.group(0), m.group(0)), text)

    field = obj["field"]
    if field != "Q":
        field = {"Fp": PRIMES[seed % len(PRIMES)]}
    return {
        "field": field,
        "S1": [names[v] for v in obj["S1"]],
        "S2": [{"name": names[e["name"]], "image": rename(e["image"])}
               for e in obj["S2"]],
        "S3": [{"name": names[e["name"]], "image": rename(e["image"])}
               for e in obj["S3"]],
    }
