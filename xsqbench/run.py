"""The xsq benchmark: the four CLI commands on one workload, end to end.

Run from the root of an xsq checkout:

    python3 xsqbench/run.py --workload desk-q --seed 0 --seconds 30 --trace 0

An operation is one ``python -m xsq.cli <command> <input> [flags]`` in a
fresh interpreter, timed from spawn to exit.  A closed loop runs the
operations one at a time: a pass is every command on every input of the
workload, and passes repeat while another one fits in --seconds (at least
one).  Every output is checked by the independent oracle in oracle.py, and
repeats of a command must print the same bytes.

The benchmark, its commands and a speed probe (pace.py) share one core.
Every time is reported at undisturbed pace: its wall time times the mean
share of undisturbed speed the probe saw over it.

--trace 0 prints the end-to-end metrics (see end_to_end).  --trace 1
runs one untraced pass and one traced pass, where each command runs under
traced_cli.py, and prints the per-layer metrics derived from the spans and
the tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import oracle
import pace
import tracer
import workloads

OP_CAP_S = 100.0     # one command
SETUP_CAP_S = 10.0   # one set-up interpreter
RUN_CAP_S = 160.0    # no command starts later than this into a run
SETUP_REPEATS = 9
WORK_DIR = ".xsqbench_work"
HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_CODE = (
    "import sys\n"
    "from xsq.simplicial import ConstructionData\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        ConstructionData.from_json(fh.read())\n"
)

END_TO_END = (
    ("setup_s", "s"), ("build_s", "s"), ("verify_s", "s"),
    ("homotopy_s", "s"), ("compare_s", "s"), ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, how: ("self" | "total" | "count", span names) or a
# special tag for figures read from span attributes or the run itself)
PER_LAYER = (
    ("groebner.basis_s", "s", ("self", "groebner.basis")),
    ("groebner.bases", "count", ("count", "groebner.basis")),
    ("groebner.bases_distinct", "count", ("distinct", "groebner.basis")),
    ("groebner.basis_elems", "count", ("sum:elems", "groebner.basis")),
    ("groebner.nf_calls", "count", ("count", "groebner.nf")),
    ("groebner.nf_s", "s", ("self", "groebner.nf")),
    ("groebner.lift_calls", "count", ("count", "groebner.lift")),
    ("groebner.lift_s", "s", ("self", "groebner.lift")),
    ("groebner.elim_s", "s", ("self", "groebner.elim")),
    ("groebner.syz_s", "s", ("total", "groebner.syz")),
    ("groebner.hilbert_s", "s", ("self", "groebner.hilbert")),
    ("linalg.rref_calls", "count", ("count", "linalg.rref")),
    ("linalg.rref_s", "s", ("self", "linalg.rref")),
    ("linalg.rref_cells", "count", ("sum:cells", "linalg.rref")),
    ("linalg.echelon_adds", "count", ("count", "linalg.echelon.add")),
    ("linalg.echelon_s", "s", ("self", "linalg.echelon.add",
                               "linalg.echelon.reduce",
                               "linalg.echelon.contains")),
    ("linalg.span_s", "s", ("self", "linalg.span")),
    ("simplicial.skeleton_s", "s", ("self", "simplicial.skeleton")),
    ("simplicial.moore_calls", "count", ("count", "simplicial.moore")),
    ("simplicial.moore_s", "s", ("self", "simplicial.moore")),
    ("simplicial.p1_s", "s", ("self", "simplicial.p1")),
    ("simplicial.p2_calls", "count", ("count", "simplicial.p2")),
    ("simplicial.p2_s", "s", ("self", "simplicial.p2")),
    ("simplicial.p2_gens", "count", ("max:gens", "simplicial.p2")),
    ("crossed.functor_calls", "count", ("count", "crossed.functor")),
    ("crossed.functor_s", "s", ("self", "crossed.functor")),
    ("crossed.verify_s", "s", ("self", "crossed.verify")),
    ("crossed.checks", "count", ("sum:checks", "crossed.verify")),
    ("tensor.corner_s", "s", ("self", "tensor.corner")),
    ("tensor.assemble_s", "s", ("self", "tensor.assemble")),
    ("homotopy.pi_s", "s", ("self", "homotopy.pi")),
    ("homotopy.h2_s", "s", ("self", "homotopy.h2")),
    ("homotopy.split_s", "s", ("self", "homotopy.split")),
    ("cli.parse_s", "s", ("self", "cli.parse")),
    ("cli.render_s", "s", ("self", "cli.render")),
    ("cli.output_bytes", "bytes", ("output_bytes",)),
    ("trace.overhead_s", "s", ("overhead_s",)),
    ("trace.overhead_pct", "%", ("overhead_pct",)),
    ("trace.spans", "count", ("spans",)),
)

# Every span a layer metric reads must fire on every workload, so that a
# moved or renamed function cannot silently zero a layer.
EXPECTED_SPANS = sorted({name for _, _, how in PER_LAYER
                         for name in how[1:]})
TOTAL_SPANS = sorted({name for _, _, how in PER_LAYER if how[0] == "total"
                      for name in how[1:]})


@dataclass
class Input:
    base: str
    obj: dict
    path: str


@dataclass
class Op:
    command: str
    input: Input
    traced: bool
    start: float = 0.0
    end: float = 0.0
    paced: float = 0.0
    returncode: int = None
    stdout: bytes = b""
    stderr: bytes = b""
    problems: list = field(default_factory=list)
    spans: list = None


@dataclass
class Pass:
    ops: list
    start: float
    end: float
    paced: float = 0.0


def run_command(argv, env, cap, scratch):
    """Spawn argv and wait for it; returns (start, end, returncode,
    stdout, stderr, timed_out).  The child is killed after cap seconds."""
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    killed = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(cap, lambda: (killed.append(True),
                                              proc.kill()))
        timer.start()
        try:
            code = proc.wait()
            end = time.perf_counter()
        finally:
            timer.cancel()
            timer.join()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return start, end, code, stdout, stderr, bool(killed)


class Runner:
    def __init__(self, workload, inputs, env, scratch, started):
        self.workload = workload
        self.inputs = inputs
        self.env = env
        self.scratch = scratch
        self.started = started

    def run_pass(self, traced):
        """Every command on every input, one at a time; returns a Pass."""
        ops = []
        start = time.perf_counter()
        for inp in self.inputs:
            for command in workloads.COMMANDS:
                ops.append(self.run_op(command, inp, traced, len(ops)))
        return Pass(ops, start, time.perf_counter())

    def run_op(self, command, inp, traced, index):
        op = Op(command, inp, traced)
        left = RUN_CAP_S - (time.perf_counter() - self.started)
        if left <= 0:
            op.problems.append("not started: the run reached its time cap")
            return op
        args = [command, inp.path, *self.workload.flags]
        spans_path = os.path.join(self.scratch, "spans-%d.json" % index)
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                    spans_path, *args]
        else:
            argv = [sys.executable, "-m", "xsq.cli", *args]
        op.start, op.end, op.returncode, op.stdout, op.stderr, timed_out = \
            run_command(argv, self.env, min(OP_CAP_S, left), self.scratch)
        if timed_out:
            op.problems.append("timed out after %.0f s" % min(OP_CAP_S, left))
        elif op.returncode != 0:
            tail = op.stderr.decode("utf-8", "replace").strip()[-300:]
            op.problems.append("exit code %d: %s" % (op.returncode, tail))
        if traced and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                op.spans = json.load(fh)["spans"]
            os.remove(spans_path)
        return op

    def measure_setup(self):
        """Spans (start, end) of SETUP_REPEATS fresh interpreters that
        each import xsq and parse the workload's inputs."""
        argv = [sys.executable, "-c", SETUP_CODE,
                *[inp.path for inp in self.inputs]]
        spans = []
        for _ in range(SETUP_REPEATS):
            start, end, code, _, err, timed_out = run_command(
                argv, self.env, SETUP_CAP_S, self.scratch)
            if code != 0 or timed_out:
                raise RuntimeError("set-up failed: %s"
                                   % err.decode("utf-8", "replace")[-300:])
            spans.append((start, end))
        return spans


def check_ops(ops, workload):
    """Give every op that ran cleanly the oracle's verdict on its stdout;
    a command's repeats must print the first run's bytes.  Returns the
    first clean stdout of each (input, command) that passed the oracle."""
    reference, verdict = {}, {}
    for op in ops:
        if op.problems:
            continue
        key = (op.input.base, op.command)
        if key not in reference:
            reference[key] = op.stdout
            verdict[key] = oracle.check_output(
                op.command, op.stdout.decode("utf-8"), op.input.obj,
                op.input.base, workload.max_degree)
        if op.stdout != reference[key]:
            op.problems.append("stdout differs from the first run of %s "
                               "on %s" % key[::-1])
        else:
            op.problems.extend(verdict[key])
    return {key: out for key, out in reference.items() if not verdict[key]}


def negative_controls(reference, inputs):
    """Corrupted Peiffer bases the oracle failed to reject."""
    missed = []
    for inp in inputs:
        out = reference.get((inp.base, "build"))
        if out is None:
            continue
        parsed = oracle.parse_text(out.decode("utf-8"))
        missed += ["%s: %s" % (inp.base, m)
                   for m in oracle.negative_control(parsed, inp.obj)]
    return missed


def typical(ops):
    """The run of each (command, input) with the median paced time (the
    lower median) among the ops that passed every check."""
    runs = {}
    for op in ops:
        if not op.problems:
            runs.setdefault((op.command, op.input.base), []).append(op)
    return {key: sorted(found, key=lambda op: op.paced)[(len(found) - 1) // 2]
            for key, found in runs.items()}


def end_to_end(passes, setup_s):
    """Each command's time is the sum over inputs of its median paced
    run; wall_s is the median paced pass."""
    best = typical(op for p in passes for op in p.ops)
    out = {"setup_s": setup_s,
           "wall_s": statistics.median(p.paced for p in passes)}
    for command in workloads.COMMANDS:
        out[command + "_s"] = sum(op.paced for (c, _), op in best.items()
                                  if c == command)
    # ru_maxrss of reaped children is the largest peak of any of them, in
    # KiB on Linux; the set-up children are far smaller than any command
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {name: (out[name], unit) for name, unit in END_TO_END}


def per_layer(plain_ops, traced_ops):
    """Layer figures summed over the median traced run of each command on
    each input, and the spans that never fired.  Span times are scaled to
    undisturbed pace by their command's mean share.  The overhead compares
    the median paced traced and untraced runs of the same commands."""
    plain_best = typical(plain_ops)
    traced_best = typical(traced_ops)
    plain_wall = sum(op.paced for op in plain_best.values())
    traced_wall = sum(op.paced for op in traced_best.values())
    traced_ops = list(traced_best.values())
    fired = {}
    selfs, totals, attrs, distinct = {}, {}, {}, 0
    nspans = 0
    for op in traced_ops:
        spans = op.spans or []
        nspans += len(spans)
        own = tracer.self_times(spans)
        share = op.paced / (op.end - op.start)
        keys = set()
        for s, t in zip(spans, own):
            name = s[0]
            fired[name] = fired.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + t * share
            for k, v in (s[4] or {}).items():
                attrs.setdefault((name, k), []).append(v)
            if name == "groebner.basis":
                keys.add(s[4]["key"])
        distinct += len(keys)
        for name in TOTAL_SPANS:
            for s in tracer.outermost(spans, name):
                totals[name] = totals.get(name, 0.0) + (s[2] - s[1]) * share
    out = {}
    for metric, unit, how in PER_LAYER:
        kind, names = how[0], how[1:]
        if kind == "self":
            value = sum(selfs.get(n, 0.0) for n in names)
        elif kind == "total":
            value = sum(totals.get(n, 0.0) for n in names)
        elif kind == "count":
            value = sum(fired.get(n, 0) for n in names)
        elif kind == "distinct":
            value = distinct
        elif kind.startswith(("sum:", "max:")):
            vals = attrs.get((names[0], kind[4:]), [0])
            value = sum(vals) if kind.startswith("sum:") else max(vals)
        elif kind == "output_bytes":
            value = sum(len(op.stdout) for op in traced_ops)
        elif kind == "overhead_s":
            value = traced_wall - plain_wall
        elif kind == "overhead_pct":
            value = 100.0 * (traced_wall - plain_wall) / (plain_wall or 1.0)
        else:
            value = nspans
        out[metric] = (value, unit)
    missing = [n for n in EXPECTED_SPANS if not fired.get(n)]
    return out, missing


def write_inputs(workload, seed, scratch):
    inputs = []
    for base in workload.bases:
        obj = workloads.make_input(base, seed)
        path = os.path.join(scratch, "input_%s.json" % base)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        inputs.append(Input(base, obj, path))
    return inputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "xsq", "cli.py")):
        print("error: %s holds no xsq sources (src/xsq/cli.py); run the "
              "benchmark from the root of an xsq checkout" % root,
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=work)
    # the commands, this thread and the probe share one core, so that the
    # probe sees the speed the commands get
    core = pace.pin_to_one_core()
    probe = pace.Pace()
    probe.start()
    try:
        inputs = write_inputs(workload, args.seed, scratch)
        runner = Runner(workload, inputs, env, scratch, started)
        setup_spans = [] if args.trace else runner.measure_setup()
        # a round is one untraced pass, followed by one traced pass when
        # tracing; rounds repeat while another one fits in --seconds
        modes = (False, True) if args.trace else (False,)
        rounds = []
        while True:
            round_start = time.perf_counter()
            rounds.append([runner.run_pass(traced) for traced in modes])
            now = time.perf_counter()
            if now - started + (now - round_start) > args.seconds:
                break
        probe.stop()
        passes = [p for modes_run in rounds for p in modes_run]
        ops = [op for p in passes for op in p.ops]
        for item in passes + ops:
            item.paced = probe.paced(item.start, item.end)
        setup_s = (statistics.median(probe.paced(*span)
                                     for span in setup_spans)
                   if setup_spans else None)
        reference = check_ops(ops, workload)
        missed = negative_controls(reference, inputs)
        if args.trace:
            traced = [op for op in ops if op.traced]
            metrics, missing = per_layer(
                [op for op in ops if not op.traced], traced)
            with open(os.path.join(work, "trace-%s.json" % workload.name),
                      "w", encoding="utf-8") as fh:
                json.dump([{"command": op.command, "input": op.input.base,
                            "seconds": op.end - op.start, "paced": op.paced,
                            "spans": op.spans}
                           for op in traced], fh)
        else:
            metrics = end_to_end(passes, setup_s)
            missing = []
    finally:
        probe.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [op for op in ops if op.problems]
    correct = not missed and not missing
    print("xsq benchmark: workload %s (%s), seed %d, %s"
          % (workload.name, ", ".join(i.base for i in inputs), args.seed,
             "%d round(s) of an untraced and a traced pass" % len(rounds)
             if args.trace else "%d pass(es)" % len(rounds)))
    wall = sum(p.end - p.start for p in passes)
    print("  core %s; %.1f s of passes, at %.0f%% of undisturbed speed on "
          "average; times below are paced"
          % (core, wall, 100.0 * sum(p.paced for p in passes) / wall))
    for name, (value, unit) in metrics.items():
        print("  %-26s %14.6f %s" % (name, value, unit))
    print("  operations: %d attempted, %d failed" % (len(ops), len(failed)))
    for op in failed:
        print("  FAILED %s %s%s: %s" % (op.command, op.input.base,
                                        " (traced)" if op.traced else "",
                                        "; ".join(op.problems[:3])))
    print("  oracle: %d distinct outputs passed; negative control: %s"
          % (len(reference), "caught every corruption" if not missed
             else "MISSED " + "; ".join(missed)))
    if missing:
        print("  traced run: no span fired for %s" % ", ".join(missing))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
