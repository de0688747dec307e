"""Negative test of the benchmark's own checks: each must be able to fail.

    python3 perfbench/selftest.py

Runs a few real CLI calls through the harness, first against the true
reference (no call may fail), then once per corruption, each of which must
make the check fail and raise the failed fraction:

* a corrupted C*_ref (shifted by 0.5) fails ``shoot`` and ``scan``;
* a flipped defect sign in a ``scan`` report fails the sign check;
* a wrong golden hash fails ``certify``.

It also checks that BENCHMARK.json names exactly the metrics the harness
prints.  Exits 0 when every case behaves, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import run
import tracing
import workloads

CALLS = [
    ["shoot", "--m", "1", "--c-min", "-50"],
    ["scan", "--m", "1", "--c-min", "-10", "--c-max", "8", "--steps", "64"],
    ["scan", "--m", "3", "--c-min", "-10", "--c-max", "2.4", "--steps", "64"],
    ["certify"],
    ["alpha", "--n", "4", "--d", "2", "--method", "recursion"],
    ["alpha", "--n", "4", "--d", "2", "--method", "series"],
    ["grassmann", "--k", "2"],
]


class FlipDefect:
    """Stands in for hext.cli: flips the sign of one defect in scan reports."""

    def __init__(self, cli):
        self.cli = cli

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        report = json.loads(buf.getvalue())
        if report["command"] == "scan":
            point = next(p for p in report["outputs"]["points"] if p["defect"])
            point["defect"] = -point["defect"]
        sys.stdout.write(json.dumps(report))
        return rc


def shifted_c_star(ref):
    ref = copy.deepcopy(ref)
    ref["c_star"][1] += 0.5
    return ref


def wrong_golden(ref):
    ref = copy.deepcopy(ref)
    ref["golden"]["certify"] = "0" * 64
    return ref


def run_calls(cli, ref, calls):
    runner = run.Runner(cli, workloads.Checker(ref), run.RUN_DIR / "selftest-out")
    for argv in calls:
        runner.call(argv)
    return runner


def check_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for key, want in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        got = [(m["name"], m["unit"]) for m in doc[key]]
        if got != list(want):
            errors.append(f"BENCHMARK.json {key} differs from the harness: {got} vs {want}")
    if doc["command"][1:] != ["perfbench/run.py"]:
        errors.append(f"unexpected command {doc['command']}")
    return errors


def main() -> int:
    run.RUN_DIR.mkdir(exist_ok=True)
    cli = run.import_cli()
    ref = workloads.load_reference()
    cases = [
        ("true reference", cli, ref, CALLS, None),
        ("corrupted C*_ref", cli, shifted_c_star(ref), CALLS[:2], {"shoot", "scan"}),
        ("flipped defect sign", FlipDefect(cli), ref, CALLS[1:3], {"scan"}),
        ("wrong golden hash", cli, wrong_golden(ref), CALLS[3:4], {"certify"}),
    ]
    errors = check_benchmark_json()
    if run.tail(list(range(100)))[:2] != (89, 90.0) or run.tail([3, 1, 2])[0] != 2:
        errors.append("tail() does not follow its rule")
    for label, target, reference, calls, must_fail in cases:
        runner = run_calls(target, reference, calls)
        failed = {f["argv"][0] for f in runner.failures}
        frac = len(runner.failures) / runner.attempted
        print(f"{label:22s} attempted={runner.attempted} failed={len(runner.failures)} "
              f"failed_frac={frac:.3g}")
        for failure in runner.failures:
            print(f"    {' '.join(failure['argv'])}: {failure['errors'][0]}")
        if must_fail is None and failed:
            errors.append(f"{label}: calls failed against the true reference")
        if must_fail is not None and (failed != must_fail or frac == 0):
            errors.append(f"{label}: expected {sorted(must_fail)} to fail, got {sorted(failed)}")
    run.shutil.rmtree(run.RUN_DIR / "selftest-out", ignore_errors=True)
    for error in errors:
        print("SELFTEST FAIL:", error)
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
