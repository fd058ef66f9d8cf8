"""Command-line front end.

    xsq COMMAND INPUT [--max-degree N] [--budget N] [--order degrevlex|lex]
                      [--format text|json] [--break-h]

Commands: build, verify, homotopy, compare.  Options come in any order
after COMMAND, as ``--opt value`` or ``--opt=value``; the token after an
option that takes a value is that value, even when it starts with ``-``,
and the last of a repeated option wins.  ``-h``/``--help`` prints
:data:`USAGE` and exits 0.  USAGE leaves out ``--break-h``, the negative
control of verify: it squares the pairing h of the square, so the rows
that read h fail.  INPUT is a JSON object {"field": "Q" | {"Fp": p},
"S1": [names], "S2": [{"name","image"}], "S3": [{"name","image"}]} with
images in the polynomial grammar.

Exit codes: 0 pass, 1 verification failure or stdout closed by its reader
(a broken pipe, with no traceback), 2 a malformed command line (one
``error:`` line naming it) or invalid input (including a power that may
expand past ``rings.MAX_POWER_TERMS`` terms, a --max-degree above
``MAX_DEGREE``, a --budget below 1, a rational literal whose reduced
denominator the characteristic divides, a file that is not UTF-8, JSON
nested too deep to decode, a top-level key other than field, S1, S2 and S3
and an entry key other than name and image), 3 step budget exhausted, an
exponent above ``rings.MAX_EXPONENT`` or a coefficient to print with more
digits than ``sys.get_int_max_str_digits()``.
Identical input and flags produce byte-identical output.  A command builds
one skeleton of its input, no truncation of it, and the report it prints
as a dict; ``--format json`` dumps it and :func:`_render_text`, the one
text renderer, writes it out as text.

:func:`main` is the in-process call.  :func:`entry`, the process entry,
runs it and then freezes the heap with ``gc.freeze()``: the collections
the interpreter runs at exit then skip every object of the run, whose
memory the OS reclaims anyway.  At desk scale those collections took
about a tenth of a command's wall time.
"""

import gc
import json
import os
import sys
from types import SimpleNamespace

from .groebner import DEFAULT_BUDGET, BudgetExceeded, budget
from .simplicial import (ConstructionData, InvalidData, build_skeleton,
                         peiffer_P1)

# each command imports the layers it runs (crossed, homotopy, tensor), so
# no command compiles a module it does not call

ORDER_TAGS = {"degrevlex": "wdegrevlex", "lex": "lex"}
# The filtered rows enumerate every monomial up to the bound, so their cost
# grows as a power of it: compare on fixture b takes minutes at 24.
MAX_DEGREE = 32


def _ring_obj(ring):
    return {"vars": list(ring.vars), "weights": list(ring.weights)}


def _basis_strs(ideal, order):
    return [str(g) for g in ideal.groebner(order=order)]


def cmd_build(data, args):
    from .crossed import functor_M, h_eval
    order = ORDER_TAGS[args.order]
    skel = build_skeleton(data)
    p1 = peiffer_P1(data)
    square = functor_M(skel, 2)
    pairs = []
    for m in square.left.gens:
        for n in square.right.gens:
            pairs.append({"m": str(m), "n": str(n),
                          "h": str(h_eval(square, m, n))})
    report = {
        "command": "build",
        "input": data.to_dict(),
        "rings": {"E%d" % i: _ring_obj(r) for i, r in enumerate(skel.rings)},
        "moore": {
            "ker_d0_level1": _basis_strs(skel.corners[0], order),
            "ker_d1_level1": _basis_strs(skel.corners[1], order),
            "ker_level2": _basis_strs(skel.moore(), order),
        },
        "peiffer_level1": {
            "generators": [str(g) for g in p1.gens],
            "reduced": _basis_strs(p1, order),
        },
        "peiffer_level2": {"reduced": _basis_strs(square.top.rels, order)},
        "square": {
            "left": [str(g) for g in square.left.gens],
            "right": [str(g) for g in square.right.gens],
            "top": [str(g) for g in square.top.gens],
            "boundary_of_top": [str(square.bnd(g)) for g in square.top.gens],
            "pairing_on_generators": pairs,
        },
    }
    return report, 0


def cmd_verify(data, args):
    from .crossed import functor_M, verify_square, verify_xmod
    skel = build_skeleton(data)
    xmod = verify_xmod(functor_M(skel, 1))
    square = verify_square(functor_M(skel, 2, break_h=args.break_h))
    ok = xmod.ok and square.ok
    return {"command": "verify", "ok": ok,
            "reports": [{"label": "crossed module", **xmod.to_obj()},
                        {"label": "crossed square", **square.to_obj()}]}, \
        (0 if ok else 1)


def cmd_homotopy(data, args):
    from .homotopy import homotopy_report
    D = args.max_degree
    skel = build_skeleton(data)
    report = homotopy_report(skel, D=D)
    return {**report, "command": "homotopy"}, 0


def cmd_compare(data, args):
    from .tensor import compare_corner
    D = args.max_degree
    skel = build_skeleton(data)
    corner = compare_corner(skel, D=D)
    obj = {"command": "compare", "corner": corner}
    ok = corner["ok"]
    if data.s3_names:
        obj["split"] = {
            "skipped": "the split comparison needs data without level-2 "
                       "generators"}
    else:
        from .homotopy import compare_XY
        split = compare_XY(skel, D=D)
        obj["split"] = split
        ok = ok and split["ok"]
    obj["ok"] = ok
    return obj, (0 if ok else 1)


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append("%s%s:" % (pad, key))
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, key, val))
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append("%s-" % pad)
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append("%s- %s" % (pad, val))
    return lines


USAGE = """\
usage: xsq COMMAND INPUT [--max-degree N] [--budget N]
           [--order degrevlex|lex] [--format text|json]

Free crossed squares of commutative algebras from 2-dimensional
construction data.

commands:
  build           construct the skeleton, kernels and the square
  verify          run the axiom suites
  homotopy        homotopy modules and the second homology
  compare         reconstruction and split comparisons

INPUT is the construction data, a JSON file.  Options come in any order
after COMMAND, as --opt value or --opt=value; the last of a repeated
option wins.

options:
  --max-degree N  degree bound for filtered dimensions (0-%d, default 6)
  --budget N      reduction step budget for the whole command
                  (default %d)
  --order ORDER   monomial order for the bases build prints: degrevlex
                  (default) or lex
  --format FMT    text (default) or json
  -h, --help      print this message and exit
""" % (MAX_DEGREE, DEFAULT_BUDGET)


class UsageError(Exception):
    """A malformed command line; main prints it as one error line."""


# each option that takes a value, with the type or the choices of its
# value; --break-h, which sabotages the pairing for the negative control of
# verify, is left out of the usage
VALUE_OPTIONS = {
    "--max-degree": int,
    "--budget": int,
    "--order": tuple(sorted(ORDER_TAGS)),
    "--format": ("text", "json"),
}
FLAGS = ("-h", "--help", "--break-h")


def parse_args(argv):
    """The command line ``COMMAND INPUT [options]`` as a namespace, or None
    when it asks for help; raises :class:`UsageError` when it is
    malformed."""
    names = "the commands are %s" % ", ".join(COMMANDS)
    if not argv:
        raise UsageError("no command (%s)" % names)
    if argv[0] in ("-h", "--help"):
        return None
    if argv[0] not in COMMANDS:
        raise UsageError("%r is not a command (%s)" % (argv[0], names))
    args = SimpleNamespace(command=argv[0], max_degree=6,
                           budget=DEFAULT_BUDGET, order="degrevlex",
                           format="text", break_h=False)
    inputs = []
    rest = iter(argv[1:])
    for token in rest:
        if not token.startswith("-"):
            inputs.append(token)
            continue
        opt, eq, value = token.partition("=")
        if opt in FLAGS:
            if eq:
                raise UsageError("%s takes no value" % opt)
            if opt != "--break-h":
                return None
            args.break_h = True
        elif opt in VALUE_OPTIONS:
            if not eq:
                value = next(rest, None)
                if value is None:
                    raise UsageError("%s needs a value" % opt)
            kind = VALUE_OPTIONS[opt]
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError("%s needs an integer, not %r"
                                     % (opt, value))
            elif value not in kind:
                raise UsageError("%s must be %s, not %r"
                                 % (opt, " or ".join(kind), value))
            setattr(args, opt[2:].replace("-", "_"), value)
        else:
            raise UsageError("unknown option %r" % opt)
    if not inputs:
        raise UsageError("no INPUT file after %s" % args.command)
    if len(inputs) > 1:
        raise UsageError("one INPUT file expected, got %s"
                         % ", ".join(map(repr, inputs)))
    args.input = inputs[0]
    return args


COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "homotopy": cmd_homotopy,
    "compare": cmd_compare,
}


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if args is None:
        sys.stdout.write(USAGE)
        return 0
    if not 0 <= args.max_degree <= MAX_DEGREE:
        print("error: --max-degree must be between 0 and %d" % MAX_DEGREE,
              file=sys.stderr)
        return 2
    if args.budget < 1:
        print("error: --budget must be at least 1", file=sys.stderr)
        return 2
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print("error: cannot read input: %s" % e, file=sys.stderr)
        return 2
    try:
        with budget(args.budget):
            obj, code = COMMANDS[args.command](
                ConstructionData.from_json(text), args)
    except InvalidData as e:
        for problem in e.problems:
            print("error: %s" % problem, file=sys.stderr)
        return 2
    except BudgetExceeded as e:  # also an exponent or coefficient too big
        print("error: %s" % e, file=sys.stderr)
        return 3
    if args.format == "json":
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(_render_text(obj)) + "\n")
    return code


def entry():
    """The process entry of ``python -m xsq.cli`` and the ``xsq`` script:
    :func:`main` on ``sys.argv``, its output flushed, then the heap frozen
    so that the collections at interpreter exit skip it."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush
        # at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
