"""What a command imports, the lazily resolved package surface, and the
plain classes that hold reports and presentations."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xsq
from xsq import Ideal, PolyRing, VerifyReport, ideal_square

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_A = str(ROOT / "fixtures" / "fixture_a.json")

# pytest itself loads dataclasses and inspect, so each footprint is read in
# a fresh interpreter, as the modules loaded after its start-up (a site
# hook may load inspect before any xsq code runs)
RUN_COMMAND = (
    "import os, sys\n"
    "started = set(sys.modules)\n"
    "import xsq.cli\n"
    "sys.stdout = open(os.devnull, 'w')\n"
    "code = xsq.cli.main(sys.argv[1:])\n"
    "sys.stdout = sys.__stdout__\n"
    "print(code, *sorted(set(sys.modules) - started))\n"
)


def _loaded(code, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=env, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


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


def test_parsing_input_loads_no_crossed_module():
    modules = _loaded("import sys\n"
                      "started = set(sys.modules)\n"
                      "from xsq.simplicial import ConstructionData\n"
                      "print(*sorted(set(sys.modules) - started))\n")
    assert "xsq.simplicial" in modules
    assert "xsq.crossed" not in modules


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


def test_report_lists_are_not_shared():
    first, second = VerifyReport("a"), VerifyReport("b")
    first.add_bool("check", "instance", True)
    assert second.items == []


def test_square_without_top_mul_multiplies_in_the_ambient_ring():
    R = PolyRing(["x", "y"])
    square = ideal_square(R, Ideal(R, ["x"]), Ideal(R, ["y"]))
    a, b = R.parse("x*y"), R.parse("x^2*y + y")
    assert square.top_mul(a, b) == a * b
