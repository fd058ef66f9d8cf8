"""Output identity of two xsq checkouts over a fixed grid of command runs.

    python3 scripts/identity.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository.  Every run of the grid
is ``python -m xsq.cli ...`` or ``python demos/<demo>.py`` in a fresh
interpreter in the checkout, with its ``src`` on PYTHONPATH, each checkout
path resolved first, so a relative one names the same checkout; a checkout
without ``src/xsq/cli.py`` is refused with exit 2.  A demo run executes
that side's own copy of the demo, so a demo ported to a changed API is
compared by what it prints.  The inputs are written once to a temporary
directory, so both sides read the same paths.  The script prints every run
whose stdout, stderr or exit code differs between the two sides, then one
summary line per part of the grid with the exit codes seen.  It exits 1
when any run differs, and also when any run of the flags part fails on the
parent side: each of them exits 0 on working code, so a side that cannot
run at all does not read as identity.

The grid (539 runs a side):

- the four commands on the benchmark's workload inputs (fixtures a-c, f1
  and f2) at seeds 0 and 7, on fixtures/d3.json and fixtures/d4f.json
  (the one checked-in input with two level-2 generators), and on the golden
  inputs q_fractions, fp7_nonunit_image (GF(7)), fixture_c_gf_m61
  (GF(2^61 - 1)), zero_image (a zero boundary image), repeated_image
  (two generators with one boundary image), mixed_degrees (boundary
  images of degrees 2 and 3), empty_s2 (no level-1 generators),
  empty_s1 (no variables), clashing_names (fixture c with its level-2
  generator named g0_0, which the coproduct renames) and non_homogeneous
  (the boundary images x^2 - y and x*y), each with the default flags,
  --format json, --order lex and --max-degree 9 (352 runs);
- the scale part: the four commands on fixtures/d5.json with the default
  flags, the one checked-in input whose filtered rows sweep thousands of
  vectors and whose eliminations every command runs;
- the --budget grid: the four commands on fixtures a-c, empty_s2 and
  empty_s1 at eight budgets from 20 to 5000 (160 runs), where a change in
  the steps a command spends in all would move an exit code between 0 and
  3;
- verify --break-h on fixtures a-c, which must fail (exit 1) on both sides;
- the refusals part: build and compare with no INPUT, with -h, misspelled
  as an unknown command, with an unknown option, with --max-degree 99, on
  a missing file, on invalid JSON and on an image with an unknown variable
  (16 runs), each refused before any engine work (or, for -h, printing the
  usage), so their exit codes and error lines are compared;
- the four demos, which also read what no command prints, such as
  ``assemble_L(...).extra_relations``.

The inputs and the demo names come from this script's own checkout:
xsqbench/workloads.py, the golden cases of tests/test_golden.py and
demos/*.py.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "xsqbench")]

from tests.test_golden import EDGE_INPUTS  # noqa: E402
from workloads import COMMANDS, make_input  # noqa: E402

RUN_CAP_S = 600
JOBS = 2  # runs at a time; the outputs compared do not depend on timing
FLAGS = ((), ("--format", "json"), ("--order", "lex"), ("--max-degree", "9"))
BUDGETS = (20, 50, 100, 200, 500, 1000, 2000, 5000)
GOLDEN_INPUTS = ("q_fractions", "fp7_nonunit_image", "fixture_c_gf_m61",
                 "zero_image", "repeated_image", "mixed_degrees",
                 "empty_s2", "empty_s1", "clashing_names",
                 "non_homogeneous")
SCALE_INPUTS = ("d5",)
# input text that the CLI refuses, and a path written by no one
REFUSED_INPUTS = {
    "invalid_json": '{"S1": ',
    "unknown_variable": json.dumps({"S1": ["x"], "S2": [
        {"name": "A", "image": "x*y"}]}),
    "missing": None,
}
DEMOS = sorted("demos/" + p.name for p in (ROOT / "demos").glob("*.py"))


def write_inputs(folder):
    """{name: path} of every input of the grid, written under folder."""
    objs = {"%s_seed%d" % (base, seed): make_input(base, seed)
            for seed in (0, 7) for base in ("a", "b", "c", "f1", "f2")}
    for name in ("d3", "d4f", *SCALE_INPUTS):
        objs[name] = json.loads((ROOT / "fixtures" / ("%s.json" % name))
                                .read_text())
    objs.update((name, EDGE_INPUTS[name]) for name in GOLDEN_INPUTS)
    texts = {name: json.dumps(obj) for name, obj in objs.items()}
    texts.update(REFUSED_INPUTS)
    paths = {}
    for name, text in texts.items():
        path = Path(folder) / ("%s.json" % name)
        if text is not None:
            path.write_text(text)
        paths[name] = str(path)
    return paths


def grid(paths):
    """(part, argument list) for every run."""
    runs = [("flags", [c, path, *flags]) for name, path in paths.items()
            if name not in SCALE_INPUTS and name not in REFUSED_INPUTS
            for c in COMMANDS for flags in FLAGS]
    runs += [("scale", [c, paths[name]]) for name in SCALE_INPUTS
             for c in COMMANDS]
    fixtures = [paths["%s_seed0" % b] for b in ("a", "b", "c")]
    budgeted = fixtures + [paths["empty_s2"], paths["empty_s1"]]
    runs += [("budget", [c, path, "--budget", str(n)]) for path in budgeted
             for c in COMMANDS for n in BUDGETS]
    runs += [("break-h", ["verify", path, "--break-h"]) for path in fixtures]
    runs += [("refusals", argv) for c in ("build", "compare") for argv in (
        [c], [c, "-h"], [c + "s", fixtures[0]],
        [c, fixtures[0], "--no-such-option"],
        [c, fixtures[0], "--max-degree", "99"],
        *([c, paths[name]] for name in REFUSED_INPUTS))]
    runs += [("demos", [demo]) for demo in DEMOS]
    return runs


def run(checkout, args):
    """(exit code, stdout, stderr) of the CLI on args, or of the
    checkout's own copy of the demo when args is one demo's path."""
    checkout = Path(checkout).resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    command = args if args[0] in DEMOS else ["-m", "xsq.cli", *args]
    try:
        out = subprocess.run([sys.executable, *command],
                             cwd=checkout, env=env, capture_output=True,
                             timeout=RUN_CAP_S)
    except subprocess.TimeoutExpired:
        return ("timeout", b"", b"")
    return (out.returncode, out.stdout, out.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (Path(checkout) / "src" / "xsq" / "cli.py").is_file():
            print("error: %s holds no xsq sources (src/xsq/cli.py)"
                  % checkout, file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as folder:
        runs = grid(write_inputs(folder))
        with ThreadPoolExecutor(JOBS) as pool:
            sides = [pool.map(functools.partial(run, checkout),
                              [argv_ for _, argv_ in runs])
                     for checkout in (args.parent, args.change)]
            results = list(zip(*sides))
        differ = 0
        codes = {}
        for (part, argv_), (old, new) in zip(runs, results):
            codes.setdefault(part, (Counter(), Counter()))
            codes[part][0][old[0]] += 1
            codes[part][1][new[0]] += 1
            if old != new:
                differ += 1
                what = [name for name, a, b in zip(
                    ("exit code", "stdout", "stderr"), old, new) if a != b]
                print("DIFFERS (%s): %s %s" % (
                    ", ".join(what), "python" if part == "demos" else "xsq",
                    " ".join(argv_)))
    for part, (old, new) in codes.items():
        print("%s: %d runs, exit codes parent %s, change %s"
              % (part, sum(old.values()), dict(sorted(old.items(), key=str)),
                 dict(sorted(new.items(), key=str))))
    print("%d of %d runs differ" % (differ, len(runs)))
    failed = sum(n for code, n in codes["flags"][0].items() if code != 0)
    if failed:
        print("%d flags runs fail on the parent side" % failed)
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
