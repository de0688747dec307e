"""CLI surface: exit codes, artifacts, determinism, JSON reports."""
import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hext import cli
from hext.cli import EXIT_FAIL, EXIT_NO_BRACKET, EXIT_OK, EXIT_USAGE, main
from hext.errors import NoBracket, StepFailure

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


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


def test_alpha_cap_respects_env(monkeypatch):
    assert main(["alpha", "--n", "9", "--d", "1"]) == EXIT_USAGE
    monkeypatch.setenv("HEXT_MAX_N", "9")
    assert main(["alpha", "--n", "9", "--d", "1"]) == EXIT_OK


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
    # beyond the admissible maximum: usage error
    assert main(["scan", "--m", "1", "--c-min", "2", "--c-max", "9", "--steps", "4"]) == EXIT_USAGE


def test_nonexist_cli(capsys):
    assert main(["nonexist", "--m", "1", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["B"] == "-8/3"
    assert doc["outputs"]["C"] == "10/3"
    assert doc["outputs"]["integral_q"] == "0/1"
    assert doc["outputs"]["alt_satisfies_boundary"] is False
    assert doc["outputs"]["margin"] > 0


def test_shoot_cli_artifacts_and_no_bracket(tmp_path, capsys):
    out = tmp_path / "shoot"
    assert main(["shoot", "--m", "1", "--json", "--out", str(out)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert 2 < doc["outputs"]["c_star"] < 22 / 3
    assert abs(doc["outputs"]["defect"]) < 1e-8
    assert doc["outputs"]["not_hcsck"] is True
    traj_lines = (out / "trajectory.csv").read_text().splitlines()
    assert traj_lines[0] == "gamma,v,phi,phi_prime,lambda"
    first = traj_lines[1].split(",")
    assert first[0] == "1" and first[1] == "2"
    curve_lines = (out / "profile_curve.csv").read_text().splitlines()
    assert curve_lines[0] == "gamma,tau,s,phi"
    # a window on the wrong side of the root has no sign change
    assert main(["shoot", "--m", "1", "--c-min", "7.8", "--c-max", "8.0"]) == EXIT_NO_BRACKET


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
        ["shoot", "--m", "1", "--c-min", "9"],
        ["scan", "--m", "1", "--c-min", "3", "--c-max", "2"],
        ["scan", "--m", "1", "--c-min", "0", "--c-max", "1", "--steps", "1"],
        ["scan", "--m", "1", "--c-min", "x", "--c-max", "1"],
        ["shoot", "--m", "1", "--tol", "1e300"],
        ["shoot", "--m", "1", "--tol", "0.5"],
    ],
)
def test_invalid_input_is_one_line_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def _mostly(valid, invalid):
    """Draws from `valid` nine times in ten."""
    return st.integers(0, 9).flatmap(lambda k: invalid if k == 0 else valid)


_JUNK = st.sampled_from(["x", "", "1.5", "nan", "inf", "1e400", "-0", "-2", "0"])
_M = _mostly(st.integers(1, 3).map(str), _JUNK)
_INT = _mostly(st.integers(1, 9).map(str), _JUNK)
_FLOAT = _mostly(st.floats(-60.0, 10.0).map(repr) | st.sampled_from(["-1e300", "1e300"]), _JUNK)
_TOL = _mostly(st.sampled_from(["1e-8", "1e-3", "1e-12"]), _JUNK)
# (flag, values, always given); m stays <= 3 so that every run is quick
_FLAGS = {
    "shoot": [("--m", _M, True), ("--tol", _TOL, False),
              ("--c-min", _FLOAT, False), ("--c-max", _FLOAT, False)],
    "certify": [("--m", _M, False)],
    "nonexist": [("--m", _M, True)],
    "scan": [("--m", _M, True), ("--c-min", _FLOAT, True), ("--c-max", _FLOAT, True),
             ("--steps", _mostly(st.integers(2, 12).map(str), _JUNK), False)],
    "alpha": [("--n", _INT, True), ("--d", _INT, True),
              ("--method", st.sampled_from(["recursion", "closed", "series", "bogus"]), False)],
    "futaki": [("--n", _INT, True), ("--d", _INT, True), ("--q", _INT, True)],
    "grassmann": [("--k", _mostly(st.integers(1, 6).map(str), _JUNK), True)],
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
     (["shoot", "--m", "1", "--c-min", "-1e300"], EXIT_NO_BRACKET)],
    ids=["scan", "shoot"],
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


# (argv, the library call in hext.cli that the subcommand makes)
_LIBRARY_CALLS = [
    (["shoot", "--m", "1"], "shoot"),
    (["certify"], "certify_m1"),
    (["nonexist", "--m", "1"], "hcsck_nonexistence"),
    (["scan", "--m", "1", "--c-min", "2", "--c-max", "5", "--steps", "4"], "defect_scan"),
    (["alpha", "--n", "3", "--d", "2"], None),  # through the method table
    (["futaki", "--n", "3", "--d", "2", "--q", "1"], "futaki_closed"),
    (["grassmann", "--k", "2"], "rank1_check"),
]


@pytest.mark.parametrize("argv,call", _LIBRARY_CALLS, ids=[argv[0] for argv, _ in _LIBRARY_CALLS])
def test_library_errors_give_one_report_form(argv, call, monkeypatch, tmp_path, capsys):
    fail = _raise(StepFailure("no progress"))
    if call is None:
        monkeypatch.setitem(cli._ALPHA_METHODS, "recursion", fail)
    else:
        monkeypatch.setattr(cli, call, fail)
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
    monkeypatch.setattr(cli, "shoot", _raise(NoBracket("no sign change")))
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


@pytest.mark.parametrize("argv", [["alpha", "--n", "3", "--d", "1"], ["futaki", "--n", "3", "--d", "2", "--q", "1"]])
def test_bad_hext_max_n_is_usage_error(argv, monkeypatch, capsys):
    monkeypatch.setenv("HEXT_MAX_N", "x")
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: HEXT_MAX_N must be an integer, got 'x'\n"


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
