"""What a command imports, which functions of the package the commands
never enter, what its process entry adds to main, the lazily resolved
package surface, and the plain classes that hold reports and
presentations."""

import gc
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xsq
from xsq import VerifyReport

from .test_golden import EDGE_INPUTS, GOLDEN

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = {name: str(ROOT / "fixtures" / ("fixture_%s.json" % name))
            for name in "abc"}
FIXTURE_A = FIXTURES["a"]
COMMANDS = ("build", "verify", "homotopy", "compare")

# pytest itself loads dataclasses and inspect, so each footprint is read in
# a fresh interpreter, as the modules loaded after its start-up (a site
# hook may load inspect before any xsq code runs); the command's stdout
# follows the line of modules
RUN_COMMAND = (
    "import io, sys\n"
    "started = set(sys.modules)\n"
    "import xsq.cli\n"
    "sys.stdout = io.StringIO()\n"
    "code = xsq.cli.main(sys.argv[1:])\n"
    "out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__\n"
    "print(code, *sorted(set(sys.modules) - started))\n"
    "sys.stdout.write(out)\n"
)


def _run(code, *args):
    """The words of the first line that code prints, and the rest of its
    stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=env, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    first, _, rest = out.stdout.partition("\n")
    return first.split(), rest


def _loaded(code, *args):
    return _run(code, *args)[0]


@pytest.mark.parametrize("command", ["build", "verify"])
def test_build_and_verify_load_only_what_they_run(command):
    code, *modules = _loaded(RUN_COMMAND, command, FIXTURE_A)
    assert code == "0"
    assert {"xsq.scalars", "xsq.rings", "xsq.groebner", "xsq.simplicial",
            "xsq.crossed"} <= set(modules)
    for name in ("xsq.tensor", "xsq.homotopy", "xsq.linalg", "dataclasses",
                 "inspect"):
        assert name not in modules


def test_compare_loads_no_dataclasses():
    code, *modules = _loaded(RUN_COMMAND, "compare", FIXTURE_A)
    assert code == "0"
    assert "xsq.tensor" in modules and "xsq.homotopy" in modules
    assert "dataclasses" not in modules


def test_homotopy_loads_no_crossed_module_tensor_or_fractions():
    code, *modules = _loaded(RUN_COMMAND, "homotopy", FIXTURE_A)
    assert code == "0"
    assert {"xsq.scalars", "xsq.rings", "xsq.groebner", "xsq.simplicial",
            "xsq.linalg", "xsq.homotopy"} <= set(modules)
    for name in ("xsq.crossed", "xsq.tensor", "fractions", "decimal"):
        assert name not in modules


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("command", COMMANDS)
def test_integral_input_loads_no_fractions(command, fixture):
    code, *modules = _loaded(RUN_COMMAND, command, FIXTURES[fixture])
    assert code == "0"
    assert "fractions" not in modules


def test_compare_with_level2_generators_loads_no_split_layer():
    # fixture c has a level-2 generator, so compare skips the split
    # comparison and never calls homotopy or linalg
    code, *modules = _loaded(RUN_COMMAND, "compare", FIXTURES["c"])
    assert code == "0"
    assert "xsq.tensor" in modules
    assert "xsq.homotopy" not in modules and "xsq.linalg" not in modules


def _process_imports(*argv):
    """The modules a ``python -m xsq.cli`` process imports, from its
    ``-X importtime`` lines (interpreter start-up included)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "xsq.cli", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return {line.rpartition("|")[2].strip()
            for line in out.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_argparse_gettext_or_locale(command, fixture):
    modules = _process_imports(command, FIXTURES[fixture])
    assert "xsq.groebner" in modules
    assert not {"argparse", "gettext", "locale"} & modules


# the functions of src/xsq that no command enters: reprs, the process
# entry, the lazy package surface, the element constructors that only the
# tests call, and the error constructors that no cheap input reaches (no
# input within the parser's bounds passes the exponent limit)
NEVER_ENTERED = {
    "xsq.__getattr__",
    "xsq.cli.entry",
    "xsq.groebner.Ideal.__repr__",
    "xsq.groebner.Subquotient.__repr__",
    "xsq.rings.CoefficientOverflow.__init__",
    "xsq.rings.ExponentOverflow.__init__",
    "xsq.rings.Packing.pack",
    "xsq.rings.PolyRing.__repr__",
    "xsq.rings.PolyRing.monomial",
    "xsq.rings.Polynomial.__repr__",
    "xsq.rings.Polynomial.__rmul__",
    "xsq.rings.RingHom.__repr__",
    "xsq.scalars.PrimeField.__repr__",
    "xsq.scalars.RationalField.__repr__",
}


def _package_functions():
    """(file, first line, name) -> qualified name of every function that
    the sources of src/xsq define, nested ones included; lambdas,
    comprehensions and class bodies are left out."""
    out = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            if const.co_name.startswith("<"):
                walk(const, module, prefix)
                continue
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:
                out[(const.co_filename, const.co_firstlineno,
                     const.co_name)] = module + "." + name
                walk(const, module, name + ".<locals>.")
            else:
                walk(const, module, name + ".")

    for path in sorted((ROOT / "src" / "xsq").glob("*.py")):
        module = importlib.import_module(
            "xsq" if path.stem == "__init__" else "xsq." + path.stem)
        source = Path(module.__file__).read_text(encoding="utf-8")
        walk(compile(source, module.__file__, "exec"), module.__name__, "")
    return out


def test_the_commands_enter_every_function_but_a_named_few(tmp_path,
                                                           capsys):
    from xsq import cli
    inputs = list(FIXTURES.values())
    for name, obj in sorted(EDGE_INPUTS.items()):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(obj))
        inputs.append(str(path))
    bad = tmp_path / "bad_image.json"
    bad.write_text(json.dumps({"S1": ["x"],
                               "S2": [{"name": "S", "image": "x^"}]}))
    runs = [([command, name, "--max-degree", "3"], 0)
            for command in COMMANDS for name in inputs]
    runs += [(["build", FIXTURES["c"], "--order", "lex"], 0),
             (["verify", FIXTURE_A, "--format", "json"], 0),
             (["build"], 2), (["build", str(bad)], 2),
             (["compare", FIXTURES["b"], "--budget", "5"], 3)]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno,
                         code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv, _ in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [code for _, code in runs]
    functions = _package_functions()
    assert {functions[k] for k in functions.keys() - entered} == NEVER_ENTERED


def test_only_the_process_entry_freezes_the_heap(capsys):
    from xsq import cli
    assert cli.main(["build", FIXTURE_A]) == 0
    assert capsys.readouterr().err == ""
    assert gc.get_freeze_count() == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c",
         "import gc, sys\n"
         "import xsq.cli\n"
         "sys.argv = ['xsq', 'build', sys.argv[1]]\n"
         "code = xsq.cli.entry()\n"
         "sys.stderr.write('%d %d' % (code, gc.get_freeze_count() > 0))\n",
         FIXTURE_A], capture_output=True, text=True, env=env, cwd=ROOT)
    assert out.stderr == "0 1"
    assert out.stdout.startswith("command: build\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_successful_run_writes_nothing_to_stderr_in_dev_mode(command):
    # dev mode shows the warnings that are hidden by default, so one raised
    # on the way out (an unclosed file, a failed flush) would reach stderr
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "xsq.cli", command, FIXTURE_A],
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert out.returncode == 0
    assert "command: %s\n" % command in out.stdout
    assert out.stderr == ""


def test_parsing_input_loads_no_crossed_module():
    modules = _loaded("import sys\n"
                      "started = set(sys.modules)\n"
                      "from xsq.simplicial import ConstructionData\n"
                      "for name in sys.argv[1:]:\n"
                      "    with open(name) as fh:\n"
                      "        ConstructionData.from_json(fh.read())\n"
                      "print(*sorted(set(sys.modules) - started))\n",
                      *FIXTURES.values())
    assert "xsq.simplicial" in modules
    assert "xsq.crossed" not in modules and "fractions" not in modules


@pytest.mark.parametrize("command", COMMANDS)
def test_a_rational_literal_loads_fractions(tmp_path, command):
    path = tmp_path / "q_fractions.json"
    path.write_text(json.dumps(EDGE_INPUTS["q_fractions"]))
    (code, *modules), out = _run(RUN_COMMAND, command, str(path))
    assert code == "0" and "fractions" in modules
    golden = GOLDEN / ("%s_q_fractions.txt" % command)
    assert out == golden.read_text(encoding="utf-8")


def test_every_export_is_the_submodule_object():
    for name in xsq.__all__:
        module = importlib.import_module("xsq." + xsq._EXPORTS[name])
        assert getattr(xsq, name) is getattr(module, name)
    assert xsq.Ideal is importlib.import_module("xsq.groebner").Ideal


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from xsq import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(xsq.__all__)


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError):
        xsq.no_such_name
    with pytest.raises(ImportError):
        exec("from xsq import no_such_name", {})


def test_report_lists_are_not_shared(skel_a):
    first, second = VerifyReport(), VerifyReport()
    first.add("check", "instance", skel_a.base.zero)
    assert second.items == []
