"""scripts/identity.py builds its grid of runs on inputs that parse, runs a
checkout given by a relative path as the same checkout given by an absolute
one, runs each side's own copy of a demo, and refuses what cannot be an
identity: a checkout without sources, or a parent side whose flags runs
fail."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from xsq import ConstructionData

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "identity.py"


def load(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("identity", SCRIPT)
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    return identity


def test_identity_grid_builds_and_its_inputs_parse(monkeypatch, tmp_path):
    identity = load(monkeypatch)
    paths = identity.write_inputs(tmp_path)
    runs = identity.grid(paths)
    assert len(runs) == 507
    assert Counter(part for part, _ in runs) == {"flags": 336, "scale": 4,
                                                 "budget": 160, "break-h": 3,
                                                 "demos": 4}
    assert {args[1] for part, args in runs
            if part != "demos"} == set(paths.values())
    assert [args for part, args in runs if part == "demos"] == [
        ["demos/" + p.name] for p in sorted((ROOT / "demos").glob("*.py"))]
    for path in paths.values():
        assert isinstance(ConstructionData.from_json(Path(path).read_text()),
                          ConstructionData)


def test_a_relative_checkout_runs_as_the_absolute_one(monkeypatch, tmp_path):
    identity = load(monkeypatch)
    fixture = identity.write_inputs(tmp_path)["a_seed0"]
    monkeypatch.chdir(ROOT.parent)
    absolute = identity.run(str(ROOT), ["build", fixture])
    assert absolute[0] == 0 and absolute[1]
    assert identity.run(ROOT.name, ["build", fixture]) == absolute


def test_a_demo_runs_from_its_own_checkout(monkeypatch, tmp_path):
    identity = load(monkeypatch)
    demo = identity.DEMOS[0]
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / demo).parent.mkdir()
    (tmp_path / demo).write_text("import xsq\nprint('own copy')\n")
    assert identity.run(str(tmp_path), [demo]) == (0, b"own copy\n", b"")


def test_no_sources_or_a_failing_parent_is_not_identity(monkeypatch,
                                                         tmp_path, capsys):
    identity = load(monkeypatch)
    assert identity.main([str(tmp_path), str(ROOT)]) == 2
    # both sides fail alike in every run: no run differs, yet exit 1
    monkeypatch.setattr(identity, "run", lambda checkout, args: (1, b"", b""))
    assert identity.main([str(ROOT), str(ROOT)]) == 1
    out = capsys.readouterr().out
    assert "0 of 507 runs differ" in out
    assert "336 flags runs fail on the parent side" in out
