"""Text stdout of the commands compared byte for byte with the recorded
files under tests/golden/.

Recorded cases: every command on fixtures a-c with the default flags;
homotopy and compare on fixtures a and b at --max-degree 9 and on fixture b
over GF(32003) at --max-degree 9, where truncated linear algebra dominates;
every command on six edge inputs (no level-1 generators, no variables, a
zero boundary image, two generators with the same boundary image, boundary
images of degrees 2 and 3, the non-homogeneous image x^2 - y beside
x*y), on an input over GF(7) whose boundary images are
monomials with coefficients other than one, on its analogue over Q
with the non-integral coefficient 3/2, whose output prints 2/3 and 3/2,
on f1, the three-variable input over GF(32003) of the benchmark's
fp-3var workload, and on fixture c over GF(2^61 - 1), whose residues and
their products pass 64 bits; every command on fixture c with its level-2
generator named g0_0, the tensor's first symbol, so that the coproduct
renames a symbol of each summand; every command on fixture c with --order
lex, the one order that is not degree-compatible (only build prints other
bases under it: the others print what they print without it); every
command on d3 (fixtures/d3.json), the smallest input with three variables,
block-order eliminations and larger bases; build on d4f (fixtures/d4f.json),
the one checked-in input with two level-2 generators; and the --format json
stdout of every command on fixture c, on the GF(7) input and on its
analogue over Q.  A change that alters any of them changes what the
command reports; regenerate a file only when that change is intended, with

    python -m xsq.cli <command> <input> [flags] > tests/golden/<command>_<case>.txt

(the .json files with --format json).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ["build", "verify", "homotopy", "compare"]

# case -> (fixture, prime modulus replacing the field or None), at degree 9
ROWS_CASES = {
    "fixture_a_d9": ("fixture_a", None),
    "fixture_b_d9": ("fixture_b", None),
    "fixture_b_gf32003_d9": ("fixture_b", 32003),
}

EDGE_INPUTS = {
    "empty_s2": {"field": "Q", "S1": ["x", "y"], "S2": [], "S3": []},
    "empty_s1": {"field": "Q", "S1": [],
                 "S2": [{"name": "S", "image": "0"}], "S3": []},
    "zero_image": {"field": "Q", "S1": ["x"],
                   "S2": [{"name": "S", "image": "0"},
                          {"name": "T", "image": "x^2"}], "S3": []},
    "repeated_image": {"S1": ["x", "y"],
                       "S2": [{"name": "A", "image": "x*y"},
                              {"name": "B", "image": "x*y"}]},
    "fp7_nonunit_image": {"field": {"Fp": 7}, "S1": ["x", "y"],
                          "S2": [{"name": "S1", "image": "3*x^2"},
                                 {"name": "S2", "image": "-x*y"}],
                          "S3": [{"name": "T", "image": "y*S1 + 3*x*S2"}]},
    "f1": {"field": {"Fp": 32003}, "S1": ["x", "y", "z"],
           "S2": [{"name": "A", "image": "x*y"},
                  {"name": "B", "image": "y*z"}],
           "S3": [{"name": "T", "image": "z*A - x*B"}]},
    "q_fractions": {"field": "Q", "S1": ["x", "y"],
                    "S2": [{"name": "S1", "image": "3/2*x^2"},
                           {"name": "S2", "image": "-x*y"}],
                    "S3": [{"name": "T", "image": "y*S1 + 3/2*x*S2"}]},
    "fixture_c_gf_m61": {"field": {"Fp": 2**61 - 1}, "S1": ["x", "y"],
                         "S2": [{"name": "S1", "image": "x^2"},
                                {"name": "S2", "image": "x*y"}],
                         "S3": [{"name": "T", "image": "y*S1 - x*S2"}]},
    "mixed_degrees": {"field": "Q", "S1": ["x", "y"],
                      "S2": [{"name": "A", "image": "x*y"},
                             {"name": "B", "image": "x^2*y + y^3"}],
                      "S3": []},
    # fixture c with its level-2 generator named g0_0, the tensor's first
    # symbol: the coproduct renames both copies, g0_0_a and g0_0_b
    "clashing_names": {"field": "Q", "S1": ["x", "y"],
                       "S2": [{"name": "S1", "image": "x^2"},
                              {"name": "S2", "image": "x*y"}],
                       "S3": [{"name": "g0_0", "image": "y*S1 - x*S2"}]},
    # the one input whose ideals are not weight-homogeneous: x^2 - y mixes
    # degrees 2 and 1, and y*A - x*B = -y^2 leads with no generator's lead
    "non_homogeneous": {"field": "Q", "S1": ["x", "y"],
                        "S2": [{"name": "A", "image": "x^2 - y"},
                               {"name": "B", "image": "x*y"}],
                        "S3": []},
}


def run_cli(*args):
    out = subprocess.run([sys.executable, "-m", "xsq.cli", *map(str, args)],
                         capture_output=True)
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout


def fixture(name):
    return ROOT / "fixtures" / ("%s.json" % name)


@pytest.mark.parametrize("name", ["fixture_a", "fixture_b", "fixture_c"])
@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden(command, name):
    expected = (GOLDEN / ("%s_%s.txt" % (command, name))).read_bytes()
    assert run_cli(command, fixture(name)) == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_lex_stdout_matches_golden(command):
    expected = (GOLDEN / ("%s_fixture_c_lex.txt" % command)).read_bytes()
    assert run_cli(command, fixture("fixture_c"), "--order", "lex") == expected


@pytest.mark.parametrize("command", ["verify", "homotopy", "compare"])
def test_order_changes_only_what_build_prints(command):
    # --order orders the bases that build prints; no other command reads it
    path = fixture("fixture_c")
    assert run_cli(command, path, "--order", "lex") == run_cli(command, path)


@pytest.mark.parametrize("command", COMMANDS)
def test_d3_stdout_matches_golden(command):
    expected = (GOLDEN / ("%s_d3.txt" % command)).read_bytes()
    assert run_cli(command, fixture("d3")) == expected


def test_d4f_build_matches_golden():
    expected = (GOLDEN / "build_d4f.txt").read_bytes()
    assert run_cli("build", fixture("d4f")) == expected


@pytest.mark.parametrize("case", sorted(ROWS_CASES))
@pytest.mark.parametrize("command", ["homotopy", "compare"])
def test_rows_stdout_matches_golden(command, case, tmp_path):
    name, modulus = ROWS_CASES[case]
    path = fixture(name)
    if modulus is not None:
        obj = json.loads(path.read_text())
        obj["field"] = {"Fp": modulus}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
    expected = (GOLDEN / ("%s_%s.txt" % (command, case))).read_bytes()
    assert run_cli(command, path, "--max-degree", "9") == expected


@pytest.mark.parametrize("case", sorted(EDGE_INPUTS))
@pytest.mark.parametrize("command", COMMANDS)
def test_edge_input_matches_golden(command, case, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(EDGE_INPUTS[case]))
    expected = (GOLDEN / ("%s_%s.txt" % (command, case))).read_bytes()
    assert run_cli(command, path) == expected


@pytest.mark.parametrize("case", ["fixture_c", "fp7_nonunit_image",
                                  "q_fractions"])
@pytest.mark.parametrize("command", COMMANDS)
def test_json_stdout_matches_golden(command, case, tmp_path):
    if case in EDGE_INPUTS:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(EDGE_INPUTS[case]))
    else:
        path = fixture(case)
    expected = (GOLDEN / ("%s_%s.json" % (command, case))).read_bytes()
    assert run_cli(command, path, "--format", "json") == expected
