"""CLI surface: exit codes, artifacts, determinism, JSON reports."""
import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shlex
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hext import chern_futaki, cli, coeffs_from_C, graded_algebra, ratpoly
from hext.profile_ode import certificate, integrate
from hext.cli import EXIT_FAIL, EXIT_NO_BRACKET, EXIT_OK, EXIT_USAGE, main
from hext.errors import NoBracket, StepFailure

from conftest import REFERENCE

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_lines():
    """Each line of the sh block under README's "## CLI" heading, split as sh does."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    argvs = [shlex.split(line, comments=True) for line in block.split("```", 1)[0].splitlines()]
    return [argv for argv in argvs if argv]


def _payload(report_text):
    doc = json.loads(report_text)
    doc.pop("wall_time_s", None)
    return doc


def test_certify_ok(tmp_path, capsys):
    out = tmp_path / "cert"
    assert main(["certify", "--m", "1", "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "all claims pass" in text
    assert "LCplusN" in text and "v2_upper_bound" in text
    rows = json.loads((out / "certificate.json").read_text())
    byid = {r["id"]: r for r in rows}
    assert byid["LCplusN"]["lhs"] == "-33/20"
    assert byid["v2_upper_bound"]["rhs"] == "15/2"
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["pass"] is True
    assert "wall_time_s" not in report  # artifact reports carry no wall clock


def test_certify_usage_error():
    assert main(["certify", "--m", "2"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [["certify", "--out="], ["certify", "--out", ""],
                                  ["alpha", "--n", "3", "--d", "2", "--out=", "--json"]])
def test_empty_out_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    # Path("") is the working directory: an empty --out must not write there
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_missing_required_flag_is_usage_error():
    assert main(["shoot"]) == EXIT_USAGE
    assert main(["alpha", "--n", "3"]) == EXIT_USAGE


def test_alpha_methods_agree_and_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["alpha", "--n", "3", "--d", "2", "--method", "series", "--out", str(out1)]) == EXIT_OK
    assert main(["alpha", "--n", "3", "--d", "2", "--method", "recursion", "--out", str(out2)]) == EXIT_OK
    csv1 = (out1 / "alpha.csv").read_bytes()
    csv2 = (out2 / "alpha.csv").read_bytes()
    assert csv1 == csv2
    assert csv1.decode() == "q,k,alpha\n0,0,1\n1,0,-1\n1,1,2\n2,0,1\n2,1,0\n2,2,2\n"
    # repeated identical runs are byte-identical, including the report
    out3 = tmp_path / "c"
    assert main(["alpha", "--n", "3", "--d", "2", "--method", "series", "--out", str(out3)]) == EXIT_OK
    assert (out3 / "alpha.csv").read_bytes() == csv1
    assert (out3 / "report.json").read_bytes() != b""
    r1 = json.loads((out1 / "report.json").read_text())
    r3 = json.loads((out3 / "report.json").read_text())
    assert r1 == r3
    assert r1["payload_sha256"] == r3["payload_sha256"]


def test_futaki_cli(tmp_path, capsys):
    out = tmp_path / "f"
    assert main(["futaki", "--n", "2", "--d", "1", "--q", "1", "--json", "--out", str(out)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["value"] == "0/1"
    saved = json.loads((out / "futaki.json").read_text())
    assert saved["value"] == "0/1" and saved["kappa_coefficient"] is True
    assert main(["futaki", "--n", "3", "--d", "2", "--q", "5"]) == EXIT_USAGE


def test_grassmann_cli(tmp_path, capsys):
    assert main(["grassmann", "--k", "2"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.count("PASS") == 3
    assert main(["grassmann", "--k", "9"]) == EXIT_USAGE
    out = tmp_path / "g"
    assert main(["grassmann", "--k", "9", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert main(["grassmann", "--k", "3", "--json", "--out", str(out)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    saved = json.loads((out / "report.json").read_text())
    assert saved["payload_sha256"] == doc["payload_sha256"]
    assert [i["pass"] for i in saved["outputs"]["identities"]] == [True] * 3


def test_negative_exponent_values_are_values(capsys):
    assert main(["scan", "--m", "1", "--c-min", "-1e1", "--c-max", "2", "--steps", "4"]) == EXIT_OK
    capsys.readouterr()
    assert main(["shoot", "--m", "1", "--c-min", "-1e2", "--json"]) == EXIT_OK
    spaced = json.loads(capsys.readouterr().out)
    assert main(["shoot", "--m", "1", "--c-min=-1e2", "--json"]) == EXIT_OK
    joined = json.loads(capsys.readouterr().out)
    assert spaced["parameters"]["c_min"] == -100.0
    assert spaced["payload_sha256"] == joined["payload_sha256"]


@pytest.mark.parametrize("argv", [
    ["shoot", "--m", "1", "--c-min", "-inf"],
    ["scan", "--m", "1", "--c-min", "-nan", "--c-max", "1"],
    ["scan", "--m", "1", "--c-min", "-Infinity", "--c-max", "1"],
], ids=["shoot-inf", "scan-nan", "scan-Infinity"])
def test_negative_non_finite_values_reach_the_library(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: the C window must be finite\n"


def test_scan_window_wider_than_floats_is_usage_error(tmp_path, capsys, shot_m1):
    """scan spaces its grid by --c-max - --c-min, so that width must be a
    finite float; shoot builds no grid and takes the same window."""
    window = ["--m", "1", "--c-min", "-1.7e308", "--c-max", "1.7e308"]
    out = tmp_path / "s"
    assert main(["scan", *window, "--steps", "5", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        "error: the C window [-1.7e+308, 1.7e+308] is wider than the float range\n"
    )
    assert main(["shoot", *window, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["outputs"]["c_star"] == shot_m1.c_star


def test_scan_cli(tmp_path, capsys):
    out = tmp_path / "s"
    code = main(
        ["scan", "--m", "1", "--c-min", "2", "--c-max", "7.5", "--steps", "10",
         "--json", "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["sign_changes"] >= 1
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "C,defect,error"
    assert len(lines) == 11
    # above the certificate's window L*C + N >= -2 + 1/100: the top is free
    assert main(["scan", "--m", "1", "--c-min", "2", "--c-max", "9", "--steps", "4"]) == EXIT_OK


@pytest.mark.parametrize("m", ["5", "6"])
def test_scan_cli_counts_a_root_next_to_a_lost_point(m, capsys):
    # the last positive point is followed directly by a lost one
    argv = ["scan", "--m", m, "--c-min", "-50", "--c-max", "12", "--steps", "64", "--json"]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["summary"]["sign_changes"] == 1


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=lambda argv: argv[1])
def test_readme_cli_examples_run(argv, tmp_path):
    assert argv[0] == "hext"
    if "--out" in argv:  # every artifact goes to tmp_path
        i = argv.index("--out")
        argv = argv[:i] + argv[i + 2:]
    assert main(argv[1:] + ["--out", str(tmp_path)]) == EXIT_OK


def test_nonexist_cli(capsys):
    assert main(["nonexist", "--m", "1", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["B"] == "-8/3"
    assert doc["outputs"]["C"] == "10/3"
    assert doc["outputs"]["integral_q"] == "0/1"
    assert doc["outputs"]["alt_satisfies_boundary"] is False
    assert doc["outputs"]["margin"] > 0


def test_nonexist_verdict_can_fail(monkeypatch, capsys):
    # by F1 the margin is 2*int(phi_h) > 0, so only a patched solve reaches
    # this: the report keeps every output and its verdict fails
    monkeypatch.setattr(integrate, "_defect", lambda m, sol: -1.0)
    assert main(["nonexist", "--m", "1", "--json"]) == EXIT_FAIL
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"pass": False}
    assert doc["outputs"]["margin"] == -1.0
    assert doc["outputs"]["B"] == "-8/3" and doc["outputs"]["C"] == "10/3"
    assert main(["nonexist", "--m", "1"]) == EXIT_FAIL
    assert capsys.readouterr().out.splitlines()[-1].endswith("is not > 0: no contradiction")


def test_nonexist_reports_the_A_of_its_report(monkeypatch, capsys):
    # A is read from the report, not written as the 0 it must be: a report
    # patched to the m = 1 certificate's coefficients (A = 9) shows that A
    real = integrate.hcsck_nonexistence
    monkeypatch.setattr(integrate, "hcsck_nonexistence",
                        lambda m: dataclasses.replace(real(m), coeffs=coeffs_from_C(m, Fraction(22, 3))))
    assert main(["nonexist", "--m", "1", "--json"]) == EXIT_OK
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert (outputs["A"], outputs["B"], outputs["C"]) == ("9/1", "-50/3", "22/3")


def test_certify_failed_claim_is_reported(monkeypatch, tmp_path, capsys):
    sqrt_upper = ratpoly.sqrt_upper
    monkeypatch.setattr(ratpoly, "sqrt_upper", lambda x, *a: sqrt_upper(x, *a) + 1)
    out = tmp_path / "cert"
    assert main(["certify", "--json", "--out", str(out)]) == EXIT_FAIL
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"pass": False, "failed_claim": "v2_upper_bound"}
    rows = json.loads((out / "certificate.json").read_text())
    assert [r["id"] for r in rows if not r["pass"]] == ["v2_upper_bound"]
    assert {r["id"]: r for r in rows}["v2_upper_bound"]["pass"] is False
    assert main(["certify"]) == EXIT_FAIL
    text = capsys.readouterr().out
    assert text.splitlines()[-1] == "FAILED claim: v2_upper_bound"


def test_c_whose_coefficients_overflow_a_float(capsys):
    # at m = 1 the exact A or B of C = -1e308 and -6.7e307 exceed the float
    # range, and -3.3e307 fails its solve: per-point errors, not a traceback
    argv = ["scan", "--m", "1", "--c-min", "-1e308", "--c-max", "1", "--steps", "4", "--json"]
    assert main(argv) == EXIT_OK
    points = json.loads(capsys.readouterr().out)["outputs"]["points"]
    assert [p["error"] is not None for p in points] == [True, True, True, False]
    assert points[0]["error"] == "m=1, C=-1e+308: the coefficients do not fit a float"
    assert points[3]["defect"] > 0
    # shoot solves nothing below C_h, where every defect is positive
    assert main(["shoot", "--m", "1", "--c-min", "-1e308", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["outputs"]["c_star"] - 4.126269829713513) < 1e-6
    assert doc["outputs"]["bracket"][0] == 10 / 3


def test_shoot_cli_artifacts_and_no_bracket(tmp_path, capsys):
    out = tmp_path / "shoot"
    assert main(["shoot", "--m", "1", "--json", "--out", str(out)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"]["c_min"] is None and doc["parameters"]["c_max"] is None  # no clip
    assert 2 < doc["outputs"]["c_star"] < 22 / 3
    assert abs(doc["outputs"]["defect"]) < 1e-8
    assert doc["outputs"]["not_hcsck"] is True
    traj_lines = (out / "trajectory.csv").read_text().splitlines()
    assert traj_lines[0] == "gamma,v,phi,phi_prime,lambda"
    first = traj_lines[1].split(",")
    assert first[0] == "1" and first[1] == "2"
    curve_lines = (out / "profile_curve.csv").read_text().splitlines()
    assert curve_lines[0] == "gamma,tau,s,phi"
    # a window on the wrong side of the root has no sign change, and so has
    # one above the root bracket [C_h, C_top] = [10/3, 4.357]
    assert main(["shoot", "--m", "1", "--c-min", "7.8", "--c-max", "8.0"]) == EXIT_NO_BRACKET
    assert main(["shoot", "--m", "1", "--c-min", "9"]) == EXIT_NO_BRACKET


def test_shoot_fails_when_the_defect_misses_the_tolerance(defect_padded, monkeypatch, capsys):
    # the root loop may stop on its C tolerance first: with every defect
    # padded to |defect| > 1e-9, m = 16 ends there with no answer at --tol 1e-10
    assert main(["shoot", "--m", "16", "--tol", "1e-10", "--json"]) == EXIT_FAIL
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"pass": False, "reason": "error"}
    assert "m=16" in doc["outputs"]["message"] and "|defect|=" in doc["outputs"]["message"]
    monkeypatch.undo()
    assert main(["shoot", "--m", "1", "--tol", "1e-10", "--json"]) == EXIT_OK
    assert abs(json.loads(capsys.readouterr().out)["outputs"]["defect"]) < 1e-10


def test_every_subcommand_honors_json(capsys):
    commands = [
        ["certify", "--m", "1"],
        ["nonexist", "--m", "1"],
        ["scan", "--m", "1", "--c-min", "2", "--c-max", "5", "--steps", "4"],
        ["alpha", "--n", "2", "--d", "1"],
        ["futaki", "--n", "2", "--d", "2", "--q", "1"],
        ["grassmann", "--k", "1"],
    ]
    for argv in commands:
        assert main(argv + ["--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)  # stdout is the report alone
        assert {"command", "parameters", "outputs", "summary", "payload_sha256", "wall_time_s"} <= set(doc)
        assert doc["command"] == argv[0]


def _canonical(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# one report of each form: every subcommand, then an error report (every
# defect padded past --tol, as in test_shoot_fails_when_the_defect_misses_the_tolerance)
# and a no-bracket report
_REPORT_FORMS = [
    ["shoot", "--m", "1"],
    ["certify"],
    ["nonexist", "--m", "2"],
    ["scan", "--m", "1", "--c-min", "-1e308", "--c-max", "9", "--steps", "6"],
    ["alpha", "--n", "3", "--d", "2"],
    ["futaki", "--n", "3", "--d", "2", "--q", "1"],
    ["grassmann", "--k", "2"],
    ["shoot", "--m", "16", "--tol", "1e-10"],
    ["shoot", "--m", "1", "--c-min", "9"],
]


@pytest.mark.parametrize("argv,code", zip(_REPORT_FORMS, [EXIT_OK] * 7 + [EXIT_FAIL, EXIT_NO_BRACKET]),
                         ids=[argv[0] for argv in _REPORT_FORMS[:7]] + ["error", "no-bracket"])
def test_report_bytes_are_json_dumps(argv, code, request, tmp_path, capsys):
    # report.json and --json are written from one encoding of the payload;
    # both must stay the bytes json.dumps(indent=2, sort_keys=True) gives
    if code == EXIT_FAIL:
        request.getfixturevalue("defect_padded")
    out = tmp_path / "out"
    assert main(argv + ["--json", "--out", str(out)]) == code
    stdout = capsys.readouterr().out
    saved = (out / "report.json").read_text(encoding="utf-8")
    doc = json.loads(saved)
    assert saved == _canonical(doc)
    printed = json.loads(stdout)
    assert stdout == _canonical({**doc, "wall_time_s": printed["wall_time_s"]})
    # the unhashed keys sort after every payload key
    assert min(set(printed) - set(doc)) > max(doc)


_AWKWARD = st.text(st.sampled_from(['"', "\\", "\n", "\t", "\u2028", "é", "ü", "日", "\U0001f600", "a", " ", "}", ","]),
                   max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _AWKWARD,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_AWKWARD, inner, max_size=3),
    max_leaves=12,
)
_OBJECT = st.dictionaries(_AWKWARD, _JSON, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_AWKWARD, _OBJECT, _OBJECT, _OBJECT, st.floats())
def test_report_text_is_json_dumps_of_any_payload(command, parameters, outputs, summary, wall):
    doc = {"command": command, "parameters": parameters, "outputs": outputs, "summary": summary}
    report = cli._report_json(doc)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    doc["payload_sha256"] = hashlib.sha256(blob).hexdigest()
    assert report == _canonical(doc)
    assert cli._with_wall_time(report, wall) == _canonical({**doc, "wall_time_s": wall})


@pytest.mark.parametrize("argv", _REPORT_FORMS[:7], ids=lambda argv: argv[0])
def test_one_indented_report_encoding_per_call(argv, monkeypatch, tmp_path, capsys):
    # an indented json.dumps takes json's pure-Python encoder: a report is
    # encoded once for report.json and --json together
    real, encoded = json.dumps, []

    def counting(obj, *args, **kwargs):
        if kwargs.get("indent") is not None and isinstance(obj, dict) and "payload_sha256" in obj:
            encoded.append(obj)
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", counting)
    assert main(argv + ["--json", "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(encoded) == 1
    capsys.readouterr()


def test_shoot_m3_never_crashes():
    # beyond the certified window the command must still exit 0 or 2
    assert main(["shoot", "--m", "3"]) in (EXIT_OK, EXIT_NO_BRACKET)


def test_json_payload_deterministic(capsys):
    assert main(["futaki", "--n", "3", "--d", "3", "--q", "2", "--json"]) == EXIT_OK
    first = _payload(capsys.readouterr().out)
    assert main(["futaki", "--n", "3", "--d", "3", "--q", "2", "--json"]) == EXIT_OK
    second = _payload(capsys.readouterr().out)
    assert first == second
    assert first["payload_sha256"] == second["payload_sha256"]


@pytest.mark.parametrize(
    "argv",
    [
        ["shoot", "--m", "0"],
        ["shoot", "--m", "-2"],
        ["scan", "--m", "0", "--c-min", "0", "--c-max", "1"],
        ["nonexist", "--m", "0"],
        ["certify", "--m", "0"],
        ["shoot", "--m", "1", "--c-min", "nan"],
        ["shoot", "--m", "1", "--c-max", "inf"],
        ["shoot", "--m", "1", "--tol", "-1"],
        ["shoot", "--m", "1", "--tol", "0"],
        ["shoot", "--m", "1", "--c-min", "5", "--c-max", "2"],
        ["shoot", "--m", "1", "--c-min", "3", "--c-max", "3"],
        ["scan", "--m", "1", "--c-min", "3", "--c-max", "2"],
        ["scan", "--m", "1", "--c-min", "0", "--c-max", "1", "--steps", "1"],
        ["scan", "--m", "1", "--c-min", "x", "--c-max", "1"],
        ["shoot", "--m", "1", "--tol", "1e300"],
        ["shoot", "--m", "1", "--tol", "0.5"],
        ["shoot", "--m", "1", "--tol", "1e-13"],
    ],
)
def test_invalid_input_is_one_line_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


# one argv per subcommand that only the library rejects, except certify's --m,
# which argparse's choices reject
_REJECTED = [
    ["shoot", "--m", "1", "--tol", "0.5"],
    ["certify", "--m", "2"],
    ["nonexist", "--m", "0"],
    ["scan", "--m", "1", "--c-min", "0", "--c-max", "1", "--steps", "1"],
    ["alpha", "--n", "9", "--d", "1"],
    ["futaki", "--n", "3", "--d", "2", "--q", "5"],
    ["grassmann", "--k", "9"],
]


@pytest.mark.parametrize("argv", _REJECTED, ids=[argv[0] for argv in _REJECTED])
def test_invalid_input_does_no_work(argv, tmp_path, capsys):
    out = tmp_path / "out"
    for json_flag in ([], ["--json"]):
        assert main(argv + json_flag + ["--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        assert not out.exists()


def _mostly(valid, *invalid):
    """Draws from each of `invalid` one time in ten, else from `valid`."""
    return st.integers(0, 9).flatmap(lambda k: invalid[k] if k < len(invalid) else valid)


_JUNK = st.sampled_from(["x", "", "1.5", "nan", "inf", "-inf", "1e400", "-1e6", "-0", "-2", "0"])
_HUGE = st.just(str(10**30))  # for every integer flag but --m, which would make runs slow
_M = _mostly(st.integers(1, 3).map(str), _JUNK)
_INT = _mostly(st.integers(1, 9).map(str), _JUNK, _HUGE)
_FLOAT = _mostly(st.floats(-60.0, 10.0).map(repr) | st.sampled_from(["-1e300", "1e300"]), _JUNK)
_TOL = _mostly(st.sampled_from(["1e-8", "1e-3", "1e-12"]), _JUNK)
# (flag, values, always given); m stays <= 3 so that every run is quick
_FLAGS = {
    "shoot": [("--m", _M, True), ("--tol", _TOL, False),
              ("--c-min", _FLOAT, False), ("--c-max", _FLOAT, False)],
    "certify": [("--m", _M, False)],
    "nonexist": [("--m", _M, True)],
    "scan": [("--m", _M, True), ("--c-min", _FLOAT, True), ("--c-max", _FLOAT, True),
             ("--steps", _mostly(st.integers(2, 12).map(str), _JUNK, _HUGE), False)],
    "alpha": [("--n", _INT, True), ("--d", _INT, True),
              ("--method", st.sampled_from(["recursion", "closed", "series", "bogus"]), False)],
    "futaki": [("--n", _INT, True), ("--d", _INT, True), ("--q", _INT, True)],
    "grassmann": [("--k", _mostly(st.integers(1, 6).map(str), _JUNK, _HUGE), True)],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values, always in _FLAGS[command]:
        if always or draw(st.booleans()):
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_argv())
@example(["scan", "--m", "1", "--c-min", "-5", "--c-max", "1", "--steps", str(10**30)])  # a numpy traceback once
def test_fuzzed_argv_never_tracebacks(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_NO_BRACKET, EXIT_USAGE), argv
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert len(err.getvalue().splitlines()) == 1, argv
    else:
        assert err.getvalue() == "", argv


@pytest.mark.parametrize(
    "argv,exit_code",
    [(["scan", "--m", "1", "--c-min", "-1e300", "--c-max", "1", "--steps", "8"], EXIT_OK),
     (["shoot", "--m", "1", "--c-min", "-1e300"], EXIT_OK),
     (["scan", "--m", "1", "--c-min", "-1e308", "--c-max", "1", "--steps", "4"], EXIT_OK),
     (["shoot", "--m", "1", "--c-min", "-1e308"], EXIT_OK)],
    ids=["scan", "shoot", "scan-float-max", "shoot-float-max"],
)
def test_overflowing_c_prints_nothing_on_stderr(argv, exit_code):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == exit_code
    assert [str(w.message) for w in caught] == []
    assert err.getvalue() == ""


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


# (argv, the home module and name of the library call that the subcommand
# makes, which the body looks up through the hext package when it runs)
_LIBRARY_CALLS = [
    (["shoot", "--m", "1"], integrate, "shoot"),
    (["certify"], certificate, "certify_m1"),
    (["nonexist", "--m", "1"], integrate, "hcsck_nonexistence"),
    (["scan", "--m", "1", "--c-min", "2", "--c-max", "5", "--steps", "4"], integrate, "defect_scan"),
    (["alpha", "--n", "3", "--d", "2"], chern_futaki, "alpha_recursive"),
    (["futaki", "--n", "3", "--d", "2", "--q", "1"], chern_futaki, "futaki_closed"),
    (["grassmann", "--k", "2"], graded_algebra, "rank1_check"),
]


@pytest.mark.parametrize("argv,home,call", _LIBRARY_CALLS, ids=[argv[0] for argv, _, _ in _LIBRARY_CALLS])
def test_library_errors_give_one_report_form(argv, home, call, monkeypatch, tmp_path, capsys):
    fail = _raise(StepFailure("no progress"))
    monkeypatch.setattr(home, call, fail)
    out = tmp_path / "out"
    assert main(argv + ["--json", "--out", str(out)]) == EXIT_FAIL
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"pass": False, "reason": "error"}
    assert doc["outputs"] == {"message": "no progress"}
    assert json.loads((out / "report.json").read_text())["payload_sha256"] == doc["payload_sha256"]
    assert main(argv) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == "error: no progress\n" and captured.err == ""


def test_shoot_no_bracket_report(monkeypatch, capsys):
    monkeypatch.setattr(integrate, "shoot", _raise(NoBracket("no sign change")))
    assert main(["shoot", "--m", "1", "--json"]) == EXIT_NO_BRACKET
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"pass": False, "reason": "no-bracket"}
    assert doc["outputs"] == {"message": "no sign change"}


def test_out_naming_a_file_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    for out in (blocker, blocker / "sub"):
        assert main(["futaki", "--n", "3", "--d", "2", "--q", "1", "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err and "is not a directory" in captured.err
    assert blocker.read_text() == "keep"


def test_out_through_a_dangling_symlink_is_usage_error(tmp_path, capsys):
    # stat finds nothing at a dangling link, yet mkdir cannot make a directory there
    link = tmp_path / "out"
    link.symlink_to(tmp_path / "missing")
    for out in (link, link / "sub"):
        assert main(["futaki", "--n", "3", "--d", "2", "--q", "1", "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err == f"error: --out {out}: {link} is a dangling symbolic link\n"
    assert list(tmp_path.iterdir()) == [link]


def test_out_the_os_rejects_is_usage_error(tmp_path, capsys):
    # a 300-character component is longer than any file system takes
    out = tmp_path / ("a" * 300)
    assert main(["certify", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err and captured.err.startswith(f"error: --out {out}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("blocked", ["certificate.json", "report.json"])
def test_out_holding_a_directory_where_a_file_goes_is_usage_error(blocked, tmp_path, capsys):
    # the run does its work, then refuses before writing any file
    (tmp_path / blocked / "inner").mkdir(parents=True)
    for json_flag in ([], ["--json"]):
        assert main(["certify", "--out", str(tmp_path)] + json_flag) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {tmp_path}: {tmp_path / blocked} is a directory\n"
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == \
            [blocked, f"{blocked}/inner"]


@pytest.mark.parametrize("target,why", [
    ("missing/x", "resolves to {real}, whose parent is not a directory"),
    ("report.json", "is a symbolic link loop"),
], ids=["into-a-missing-directory", "loop"])
def test_out_holding_a_file_link_that_cannot_be_written_is_usage_error(target, why, tmp_path, capsys):
    # the run does its work, then refuses before writing any file
    link = tmp_path / "report.json"
    link.symlink_to(tmp_path / target)
    for json_flag in ([], ["--json"]):
        assert main(["futaki", "--n", "3", "--d", "2", "--q", "1", "--out", str(tmp_path)] + json_flag) \
            == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        why_text = why.format(real=os.path.realpath(link))
        assert captured.err == f"error: --out {tmp_path}: {link} {why_text}\n"
        assert list(tmp_path.iterdir()) == [link]


def test_a_dangling_file_link_whose_directory_exists_is_written_through(tmp_path, capsys):
    (tmp_path / "out").mkdir()
    link = tmp_path / "out" / "report.json"
    link.symlink_to(tmp_path / "report-target.json")
    assert main(["futaki", "--n", "3", "--d", "2", "--q", "1", "--out", str(tmp_path / "out")]) == EXIT_OK
    assert link.is_symlink()
    assert json.loads((tmp_path / "report-target.json").read_text())["outputs"]["futaki_json"] == "futaki.json"


def test_only_the_cli_writes_json_or_csv():
    # the library returns values; cli.py alone turns them into report and artifact text
    src = Path(cli.__file__).parent
    importers = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if {n.partition(".")[0] for n in names} & {"json", "csv"}:
                importers.add(path.relative_to(src).as_posix())
    assert importers == {"cli.py"}


def test_report_hashes_match_the_golden_table(tmp_path, capsys):
    # the benchmark's golden payload hashes, recorded with --json --out DIR:
    # the outputs then name their artifact files
    golden = json.loads(REFERENCE.read_text(encoding="utf-8"))["golden_sha256"]
    assert len(golden) == 280
    out = tmp_path / "out"
    wrong = []
    for key, want in sorted(golden.items()):
        code = main(key.split() + ["--json", "--out", str(out)])
        got = json.loads(capsys.readouterr().out)["payload_sha256"]
        if code != EXIT_OK or got != want:
            wrong.append((key, code, got))
    assert wrong == []
