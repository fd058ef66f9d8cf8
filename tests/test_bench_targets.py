"""Every function that a traced benchmark run wraps resolves by name.

``xsqbench/tracer.py`` wraps the functions of its ``TARGETS`` table by
module and attribute path, and a traced run raises on a target that no
longer exists.  These tests resolve the same names without installing the
tracer, so a renamed or deleted target fails the ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "xsqbench" / "tracer.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("xsqbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = [(modname, path) for modname, path, *_ in _load_targets()]


def resolve(modname, path):
    """The object the tracer wraps for (module, attribute path): a method
    must be defined on its class itself, as the tracer reads the class's
    own namespace."""
    owner = importlib.import_module(modname)
    *outer, leaf = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if leaf not in owner.__dict__:
            raise AttributeError("%s.%s defines no %s"
                                 % (modname, ".".join(outer), leaf))
        return owner.__dict__[leaf]
    return getattr(owner, leaf)


@pytest.mark.parametrize("modname, path", TARGETS,
                         ids=["%s:%s" % t for t in TARGETS])
def test_traced_target_resolves(modname, path):
    target = resolve(modname, path)
    assert callable(target) or isinstance(target, classmethod)


@pytest.mark.parametrize("modname, path", [
    ("xsq.groebner", "Subquotient.contains"),
    ("xsq.groebner", "monomials_leq"),
])
def test_a_missing_target_does_not_resolve(modname, path):
    with pytest.raises(AttributeError):
        resolve(modname, path)
