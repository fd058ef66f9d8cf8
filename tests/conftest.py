import importlib.util
import sys
from pathlib import Path

import pytest

from xsq import QQ, ConstructionData, build_skeleton

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def data_a():
    return ConstructionData(QQ, ["x"], [("S", "x^2")], [])


@pytest.fixture(scope="session")
def data_b():
    return ConstructionData(QQ, ["x", "y"],
                            [("S1", "x^2"), ("S2", "x*y")], [])


@pytest.fixture(scope="session")
def data_c():
    return ConstructionData(QQ, ["x", "y"],
                            [("S1", "x^2"), ("S2", "x*y")],
                            [("T", "y*S1 - x*S2")])


@pytest.fixture(scope="session")
def skel_a(data_a):
    return build_skeleton(data_a)


@pytest.fixture(scope="session")
def skel_b(data_b):
    return build_skeleton(data_b)


@pytest.fixture(scope="session")
def skel_c(data_c):
    return build_skeleton(data_c)


@pytest.fixture(scope="session")
def skel_d4f():
    """fixtures/d4f.json: four variables, four level-1 and two level-2
    generators."""
    return build_skeleton(input_data("d4f"))


def input_data(name):
    """The construction data of a checked-in input, fixtures/<name>.json,
    or of a benchmark input of xsqbench/workloads.py at seed 0: f1 and f2
    have three variables over GF(32003)."""
    path = ROOT / "fixtures" / ("%s.json" % name)
    if path.is_file():
        return ConstructionData.from_json(path.read_text())
    module = sys.modules.get("xsqbench_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "xsqbench_workloads", ROOT / "xsqbench" / "workloads.py")
        # registered before it runs: its dataclasses look it up by name
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return ConstructionData.from_dict(module.make_input(name, 0))


@pytest.fixture(scope="session")
def skeleton(skel_a, skel_b, skel_c, skel_d4f):
    """The skeleton of an input by name, built once a session: fixtures
    a-c and the inputs that :func:`input_data` reads."""
    built = {"a": skel_a, "b": skel_b, "c": skel_c, "d4f": skel_d4f}

    def get(name):
        if name not in built:
            built[name] = build_skeleton(input_data(name))
        return built[name]
    return get
