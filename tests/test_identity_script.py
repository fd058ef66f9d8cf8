"""scripts/identity.py builds its grid of runs on inputs that parse; no
run is made."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from xsq import ConstructionData

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "identity.py"


def test_identity_grid_builds_and_its_inputs_parse(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("identity", SCRIPT)
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    paths = identity.write_inputs(tmp_path)
    runs = identity.grid(paths)
    assert len(runs) == 371
    assert Counter(part for part, _ in runs) == {"flags": 272, "budget": 96,
                                                 "break-h": 3}
    assert {args[1] for _, args in runs} == set(paths.values())
    for path in paths.values():
        assert isinstance(ConstructionData.from_json(Path(path).read_text()),
                          ConstructionData)
