from pathlib import Path

import pytest

from xsq import QQ, ConstructionData, build_skeleton


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
    path = Path(__file__).resolve().parent.parent / "fixtures" / "d4f.json"
    return build_skeleton(ConstructionData.from_json(path.read_text()))
