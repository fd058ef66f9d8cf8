"""Text stdout of every command on fixtures a-c, compared byte for byte with
the recorded files under tests/golden/.

The recorded files are the output of the default flags.  A change that
alters any of them changes what the command reports; regenerate a file
only when that change is intended, with

    python -m xsq.cli <command> fixtures/<fixture>.json > tests/golden/<command>_<fixture>.txt
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("fixture", ["fixture_a", "fixture_b", "fixture_c"])
@pytest.mark.parametrize("command", ["build", "verify", "homotopy", "compare"])
def test_stdout_matches_golden(command, fixture):
    out = subprocess.run(
        [sys.executable, "-m", "xsq.cli", command,
         str(ROOT / "fixtures" / ("%s.json" % fixture))],
        capture_output=True)
    assert out.returncode == 0, out.stderr.decode()
    expected = (GOLDEN / ("%s_%s.txt" % (command, fixture))).read_bytes()
    assert out.stdout == expected
