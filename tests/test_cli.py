import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from .test_crossed import PAIRING_FAMILIES

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "xsq.cli", *args],
        capture_output=True, text=True)


@pytest.mark.parametrize("fixture", ["fixture_a", "fixture_b", "fixture_c"])
@pytest.mark.parametrize("command", ["build", "verify", "homotopy", "compare"])
def test_commands_pass_and_are_deterministic(command, fixture):
    path = str(FIXTURES / ("%s.json" % fixture))
    degree = "4" if command in ("homotopy", "compare") else "6"
    first = run_cli(command, path, "--format", "json",
                    "--max-degree", degree)
    second = run_cli(command, path, "--format", "json",
                     "--max-degree", degree)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr == ""
    # and the text renderer is deterministic as well
    t1 = run_cli(command, path, "--max-degree", degree)
    t2 = run_cli(command, path, "--max-degree", degree)
    assert t1.stdout == t2.stdout and t1.returncode == 0


def test_json_reports_roundtrip(tmp_path):
    path = str(FIXTURES / "fixture_a.json")
    out = run_cli("build", path, "--format", "json").stdout
    obj = json.loads(out)
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


def test_build_report_names_the_corners():
    out = run_cli("build", str(FIXTURES / "fixture_a.json"),
                  "--format", "json")
    obj = json.loads(out.stdout)
    assert obj["square"]["left"] == ["S"]
    assert obj["square"]["right"] == ["-x^2 + S"]
    assert obj["moore"]["ker_d0_level1"] == ["S"]


def test_empty_level1_data_gives_trivial_square(tmp_path):
    blank = tmp_path / "blank.json"
    blank.write_text(json.dumps({"field": "Q", "S1": ["x"],
                                 "S2": [], "S3": []}))
    out = run_cli("build", str(blank), "--format", "json")
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["square"]["top"] == []
    homot = run_cli("homotopy", str(blank), "--format", "json")
    hobj = json.loads(homot.stdout)
    assert hobj["pi0"]["relations"] == []


def test_invalid_boundary_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": "Q", "S1": ["x", "y"],
        "S2": [{"name": "S1", "image": "x^2"}],
        "S3": [{"name": "T", "image": "y*S1"}]}))
    out = run_cli("build", str(bad))
    assert out.returncode == 2
    assert "nonzero boundary" in out.stderr
    assert "x^2*y" in out.stderr


def test_unknown_top_level_key_exits_2(tmp_path):
    # a misspelt key would otherwise drop its generators without a word
    obj = json.loads((FIXTURES / "fixture_c.json").read_text())
    obj["s3"] = obj.pop("S3")
    bad = tmp_path / "input.json"
    bad.write_text(json.dumps(obj))
    out = run_cli("build", str(bad))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: unknown key 's3'")
    # a missing key still takes its default
    del obj["s3"]
    bad.write_text(json.dumps(obj))
    assert run_cli("build", str(bad)).returncode == 0


@pytest.mark.parametrize("where", ["S2", "S3"])
def test_unknown_entry_key_is_named(tmp_path, where):
    obj = {"S1": ["x"], "S2": [{"name": "A", "image": "x^2"}],
           "S3": [{"name": "T", "image": "x^2*A - A*A"}]}
    obj[where][0]["w"] = 1
    out = _run_on(tmp_path, obj, "build")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == ("error: unknown key 'w' in an %s entry (the keys "
                          "are name and image)\n" % where)


def test_missing_file_exits_2():
    out = run_cli("build", "no_such_file.json")
    assert out.returncode == 2


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    out = run_cli("build", str(bad))
    assert out.returncode == 2


def test_budget_exhaustion_exits_3():
    out = run_cli("build", str(FIXTURES / "fixture_b.json"),
                  "--budget", "40")
    assert out.returncode == 3
    assert "budget" in out.stderr


@pytest.mark.parametrize("budget, code", [("0", 2), ("-5", 2), ("1", 3)])
def test_budget_below_one_is_refused(budget, code):
    out = run_cli("build", str(FIXTURES / "fixture_a.json"),
                  "--budget", budget)
    assert out.returncode == code
    assert out.stdout == ""
    if code == 2:
        assert out.stderr == "error: --budget must be at least 1\n"
    else:
        assert out.stderr == "error: step budget of 1 reductions exceeded\n"


def test_exponent_limit_exits_3(monkeypatch, capsys):
    # no input within the parser's bounds reaches 2^31 - 1, so the limit is
    # lowered below the squares of fixture a
    from xsq import cli, rings
    monkeypatch.setattr(rings, "MAX_EXPONENT", 1)
    assert cli.main(["build", str(FIXTURES / "fixture_a.json")]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: exponent above the limit of 1\n"


def test_break_h_fails_exactly_the_pairing_families():
    out = run_cli("verify", str(FIXTURES / "fixture_a.json"),
                  "--break-h", "--format", "json")
    assert out.returncode == 1
    obj = json.loads(out.stdout)
    failing = set()
    for rep in obj["reports"]:
        for item in rep["items"]:
            if item["status"] == "fail" and not item["informational"]:
                failing.add(item["check"])
    assert failing == PAIRING_FAMILIES


def test_verify_clean_exit_0():
    out = run_cli("verify", str(FIXTURES / "fixture_c.json"))
    assert out.returncode == 0


def test_degenerate_degree_bound():
    out = run_cli("homotopy", str(FIXTURES / "fixture_a.json"),
                  "--max-degree", "0", "--format", "json")
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["pi1"]["dims"] == [0]
    assert len(obj["pi0"]["dims"]) == 1


@pytest.mark.parametrize("degree, code", [("32", 0), ("33", 2),
                                          ("-1", 2)])
def test_degree_bound_is_limited(degree, code):
    # build reads no filtered rows, so the limit itself costs nothing
    out = run_cli("build", str(FIXTURES / "fixture_a.json"),
                  "--max-degree", degree)
    assert out.returncode == code
    if code:
        assert out.stdout == ""
        assert out.stderr == "error: --max-degree must be between 0 and 32\n"


def test_lex_order_flag_changes_reported_basis():
    out = run_cli("build", str(FIXTURES / "fixture_b.json"),
                  "--order", "lex", "--format", "json")
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["peiffer_level1"]["reduced"]


def _run_on(tmp_path, obj, *args):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return run_cli(*args, str(path))


def test_non_string_image_exits_2(tmp_path):
    out = _run_on(tmp_path, {"field": "Q", "S1": ["x"],
                             "S2": [{"name": "S", "image": 3}], "S3": []},
                  "build")
    assert out.returncode == 2
    assert "S2 image for 'S'" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("where", ["S1", "S2", "S3"])
def test_non_string_name_exits_2(tmp_path, where):
    obj = {"field": "Q", "S1": ["x"], "S2": [{"name": "S", "image": "x^2"}],
           "S3": []}
    if where == "S1":
        obj["S1"] = [3]
    else:
        obj[where].append({"name": 4, "image": "x" if where == "S2" else "S"})
    out = _run_on(tmp_path, obj, "build")
    assert out.returncode == 2
    assert where in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("name", ["a b", "", "9T"])
@pytest.mark.parametrize("where", ["S2", "S3"])
def test_name_that_is_not_a_variable_exits_2(tmp_path, where, name):
    obj = {"S1": ["x"], "S2": [{"name": "A", "image": "x^2"}], "S3": []}
    obj[where].append({"name": name,
                       "image": "x" if where == "S2" else "x^2*A - A*A"})
    for command in ("build", "verify", "homotopy", "compare"):
        out = _run_on(tmp_path, obj, command)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == ("error: %s name %r is not a variable name (a "
                              "letter or _, then letters, digits or _)\n"
                              % (where, name))


def test_deep_parentheses_exit_2(tmp_path):
    image = "(" * 3000 + "x^2" + ")" * 3000
    out = _run_on(tmp_path, {"field": "Q", "S1": ["x"],
                             "S2": [{"name": "S", "image": image}],
                             "S3": []}, "build")
    assert out.returncode == 2
    assert "nested deeper" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("image", ["(x+1)^5000", "((x+1)^60)^60"])
def test_high_degree_power_exits_2(tmp_path, image):
    out = _run_on(tmp_path, {"field": "Q", "S1": ["x"],
                             "S2": [{"name": "S", "image": image}],
                             "S3": []}, "build")
    assert out.returncode == 2
    assert "power of degree above 64" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("image", ["(x+y+z+w)^17", "((x+y+z)^10)^3"])
def test_power_of_many_terms_exits_2(tmp_path, image):
    # the multinomial bound comb(t + n - 1, n) is checked before expanding:
    # 1140 terms for the first, 50116 (of 496 actual) for the second
    out = _run_on(tmp_path, {"field": "Q", "S1": ["x", "y", "z", "w"],
                             "S2": [{"name": "S", "image": image}],
                             "S3": []}, "build")
    assert out.returncode == 2
    assert "power may expand to more than 1000 terms" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("modulus", [2**61 + 1, 7.5, 2**89 - 1])
def test_bad_modulus_exits_2(tmp_path, modulus):
    out = _run_on(tmp_path, {"field": {"Fp": modulus}, "S1": ["x"],
                             "S2": [{"name": "S", "image": "x^2"}],
                             "S3": []}, "build")
    assert out.returncode == 2
    assert "modulus" in out.stderr and "Traceback" not in out.stderr


def test_large_prime_modulus_builds(tmp_path):
    out = _run_on(tmp_path, {"field": {"Fp": 2**61 - 1}, "S1": ["x"],
                             "S2": [{"name": "S", "image": "x^2"}],
                             "S3": []}, "build", "--format", "json")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["input"]["field"] == {"Fp": 2**61 - 1}


def test_non_utf8_input_exits_2(tmp_path):
    bad = tmp_path / "input.json"
    bad.write_bytes(b"\xff\xfe")
    out = run_cli("build", str(bad))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: cannot read input: ")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("image", ["1/7*x", "1/14*x"])
def test_rational_literal_not_defined_mod_p_exits_2(tmp_path, image):
    out = _run_on(tmp_path, {"field": {"Fp": 7}, "S1": ["x"],
                             "S2": [{"name": "S", "image": image}],
                             "S3": []}, "build")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == ("error: S2 image for 'S': denominator divisible "
                          "by the characteristic 7 (at position 0)\n")


@pytest.mark.parametrize("image, parsed", [("7/7*x", "x"), ("14/7*x", "2*x")])
def test_rational_literal_defined_mod_p_builds(tmp_path, image, parsed):
    out = _run_on(tmp_path, {"field": {"Fp": 7}, "S1": ["x"],
                             "S2": [{"name": "S", "image": image}],
                             "S3": []}, "build", "--format", "json")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["input"]["S2"][0]["image"] == parsed


@pytest.mark.parametrize("command", ["build", "verify", "homotopy", "compare"])
def test_the_budget_bounds_the_whole_command(command):
    # each command on fixture c spends more than 1000 steps in all, though
    # no single basis, normal form or lift needs that many
    out = run_cli(command, str(FIXTURES / "fixture_c.json"),
                  "--budget", "1000")
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == "error: step budget of 1000 reductions exceeded\n"


@pytest.mark.parametrize("fixture", ["fixture_b", "fixture_c"])
def test_reports_are_the_plain_data_the_cli_prints(fixture):
    from xsq import (ConstructionData, build_skeleton, compare_XY,
                     compare_corner, homotopy_report)
    path = FIXTURES / ("%s.json" % fixture)
    skel = build_skeleton(ConstructionData.from_json(path.read_text()))
    homotopy = homotopy_report(skel, D=4)
    corner = compare_corner(skel, D=4)
    if fixture == "fixture_b":
        split = compare_XY(skel, D=4)
        reports, ok = (homotopy, corner, split), corner["ok"] and split["ok"]
    else:
        split = {"skipped": "the split comparison needs data without "
                            "level-2 generators"}
        reports, ok = (homotopy, corner), corner["ok"]
    for report in reports:
        assert json.loads(json.dumps(report)) == report
    printed = [json.loads(run_cli(command, str(path), "--format", "json",
                                  "--max-degree", "4").stdout)
               for command in ("homotopy", "compare")]
    assert printed[0] == {**homotopy, "command": "homotopy"}
    assert printed[1] == {"command": "compare", "corner": corner,
                          "split": split, "ok": ok}


def test_deeply_nested_json_exits_2(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    for command in ("build", "verify", "homotopy", "compare"):
        out = run_cli(command, str(deep))
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: invalid JSON: ")
        assert out.stderr.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints ints of any length")
def test_coefficient_past_the_digit_limit_exits_3(tmp_path):
    # the image prints; products of it in the square's relations have
    # more digits than str() writes out for an int
    image = "1" + "0" * 2200 + "*x"
    out = _run_on(tmp_path, {"S1": ["x"],
                             "S2": [{"name": "A", "image": image}]},
                  "verify")
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == ("error: coefficient above the limit of %d digits\n"
                          % sys.get_int_max_str_digits())


FIXTURE_A = str(FIXTURES / "fixture_a.json")
COMMAND_NAMES = "the commands are build, verify, homotopy, compare"

# each malformed command line, with the one error line it must print
MALFORMED = {
    "no command": ([], "no command (%s)" % COMMAND_NAMES),
    "unknown command": (["foo", FIXTURE_A],
                        "'foo' is not a command (%s)" % COMMAND_NAMES),
    "option before the command": (
        ["--format", "json", "build", FIXTURE_A],
        "'--format' is not a command (%s)" % COMMAND_NAMES),
    "no input": (["build", "--format", "json"], "no INPUT file after build"),
    "two inputs": (["build", FIXTURE_A, "other.json"],
                   "one INPUT file expected, got %r, 'other.json'"
                   % FIXTURE_A),
    "unknown option": (["build", FIXTURE_A, "--verbose"],
                       "unknown option '--verbose'"),
    "option prefix": (["build", FIXTURE_A, "--max", "9"],
                      "unknown option '--max'"),
    "missing value": (["build", FIXTURE_A, "--budget"],
                      "--budget needs a value"),
    # the token after an option that takes a value is its value
    "option as a value": (
        ["build", FIXTURE_A, "--budget", "--format", "json"],
        "--budget needs an integer, not '--format'"),
    "non-integer degree": (["build", FIXTURE_A, "--max-degree", "x"],
                           "--max-degree needs an integer, not 'x'"),
    "empty degree": (["build", FIXTURE_A, "--max-degree="],
                     "--max-degree needs an integer, not ''"),
    "unknown order": (["build", FIXTURE_A, "--order", "foo"],
                      "--order must be degrevlex or lex, not 'foo'"),
    "unknown format": (["build", FIXTURE_A, "--format=xml"],
                       "--format must be text or json, not 'xml'"),
    "flag with a value": (["verify", FIXTURE_A, "--break-h=1"],
                          "--break-h takes no value"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_command_line_exits_2(case):
    argv, message = MALFORMED[case]
    out = run_cli(*argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: %s\n" % message


SAME_COMMAND_LINE = [
    ["build", FIXTURE_A, "--format", "json", "--order", "lex"],
    ["build", FIXTURE_A, "--format=json", "--order=lex"],
    ["build", "--format", "json", "--order=lex", FIXTURE_A],
    ["build", "--order", "degrevlex", FIXTURE_A, "--format", "text",
     "--order", "lex", "--format=json"],
]


def test_option_spellings_and_places_parse_alike():
    from xsq import cli
    first, *rest = [vars(cli.parse_args(argv)) for argv in SAME_COMMAND_LINE]
    assert first == {"command": "build", "input": FIXTURE_A,
                     "max_degree": 6, "budget": 10**6, "order": "lex",
                     "format": "json", "break_h": False}
    assert all(args == first for args in rest)
    repeated = cli.parse_args(["homotopy", FIXTURE_A, "--max-degree", "3",
                               "--budget=7", "--max-degree=4", "--break-h",
                               "--budget", "9"])
    assert (repeated.max_degree, repeated.budget, repeated.break_h) == \
        (4, 9, True)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["build", "-h"],
                                  ["compare", FIXTURE_A, "--help"]])
def test_help_prints_the_usage(argv):
    from xsq import cli
    out = run_cli(*argv)
    assert out.returncode == 0
    assert out.stderr == ""
    assert out.stdout == cli.USAGE
    assert out.stdout.startswith("usage: xsq COMMAND INPUT ")
    for name in ("build", "verify", "homotopy", "compare", "--max-degree",
                 "--budget", "--order", "--format"):
        assert name in out.stdout
    assert "--break-h" not in out.stdout


@pytest.mark.parametrize("command", ["build", "verify"])
def test_closed_stdout_exits_1_without_traceback(command):
    # build's report fits the stdout buffer and fails at the final flush;
    # verify's is larger and fails inside main's write
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "xsq.cli", command, FIXTURE_A,
             "--format", "json"],
            stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert out.returncode == 1
    assert out.stderr == ""
