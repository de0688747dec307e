"""Workload inputs and output checks for the hext benchmark.

A workload is a stream of CLI argument vectors drawn from a seed, one
*cycle* after another.  The draws are stratified (every m, every n and every
k appears once per cycle, with the free values drawn), so that the seed
changes the inputs but not the mix of work.  Timed runs take the stream until
their time is up; traced runs repeat its first cycle, so that every traced
cycle does the same work and counts repeat exactly between runs at one seed.

The checks here are pure functions of a call's exit code, its JSON report,
its artifact directory and the reference table, so the self-test can feed
them corrupted inputs.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

SHOOT_MS = (1, 2, 4, 8)
SCAN_MS = tuple(range(1, 9))
SCAN_STEPS = 64
N_CAP = 8  # the CLI's default HEXT_MAX_N
K_CAP = 6
ALPHA_METHODS = ("recursion", "closed", "series")

SHOOT_C_ERR = 1e-6
SHOOT_DEFECT = 1e-8
SHOOT_PHI_PRIME = 1e-6
SCAN_SIGN_GUARD = 1e-6

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """Reference table: C*_ref and c_adm per m, golden payload hashes."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {
        "c_star": {int(m): float(v) for m, v in doc["c_star_ref"].items()},
        "c_adm": {int(m): Fraction(v) for m, v in doc["c_adm"].items()},
        "golden": dict(doc["golden_sha256"]),
    }


def argv_key(argv) -> str:
    return " ".join(argv)


def shoot_cycle(rng: random.Random, ref: dict):
    return [
        ["shoot", "--m", str(m), "--c-min", repr(rng.uniform(-60.0, -40.0))]
        for m in SHOOT_MS
    ]


def scan_cycle(rng: random.Random, ref: dict):
    cycle = []
    for m in SCAN_MS:
        a = rng.uniform(-60.0, 0.0)
        b = float(ref["c_adm"][m]) - rng.uniform(0.0, 1.0)
        cycle.append(["scan", "--m", str(m), "--c-min", repr(a), "--c-max", repr(b),
                      "--steps", str(SCAN_STEPS)])
    return cycle


def checks_cycle(rng: random.Random, ref: dict):
    """certify first (the warm-up call), then a shuffled mix of the rest."""
    rest = []
    for n in range(2, N_CAP + 1):
        d = rng.randint(1, n)
        rest += [["alpha", "--n", str(n), "--d", str(d), "--method", meth]
                 for meth in ALPHA_METHODS]
    for n in range(2, N_CAP + 1):
        d, q = rng.randint(1, n), rng.randint(1, n - 1)
        rest.append(["futaki", "--n", str(n), "--d", str(d), "--q", str(q)])
    rest += [["grassmann", "--k", str(k)] for k in range(1, K_CAP + 1)]
    rng.shuffle(rest)
    return [["certify"]] + rest


def checks_space():
    """Every argv the `checks` workload can draw, for the golden hashes."""
    yield ["certify"]
    for n in range(2, N_CAP + 1):
        for d in range(1, n + 1):
            for meth in ALPHA_METHODS:
                yield ["alpha", "--n", str(n), "--d", str(d), "--method", meth]
            for q in range(1, n):
                yield ["futaki", "--n", str(n), "--d", str(d), "--q", str(q)]
    for k in range(1, K_CAP + 1):
        yield ["grassmann", "--k", str(k)]


CYCLES = {"shoot": shoot_cycle, "scan": scan_cycle, "checks": checks_cycle}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"hext-bench/{workload}/{seed}")


def stream(workload: str, seed: int, ref: dict):
    """The workload's argv, cycle after cycle, each cycle drawn afresh."""
    rng = _rng(workload, seed)
    while True:
        yield from CYCLES[workload](rng, ref)


def first_cycle(workload: str, seed: int, ref: dict):
    """The first cycle of `stream`."""
    return CYCLES[workload](_rng(workload, seed), ref)


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def payload_sha256(report: dict) -> str:
    """Recompute the CLI's payload hash from the parsed report."""
    payload = {k: report[k] for k in ("command", "parameters", "outputs", "summary")}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _artifact_errors(report: dict, out_dir: Path):
    errors = []
    names = ["report.json"] + [
        v for k, v in report.get("outputs", {}).items()
        if k.endswith(("_csv", "_json")) and isinstance(v, str)
    ]
    for name in names:
        path = out_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            errors.append(f"artifact {name} missing or empty")
    return errors


class Checker:
    """Checks one call's outputs; keeps the alpha rows seen per (n, d) so the
    three methods can be compared row for row."""

    def __init__(self, ref: dict):
        self.ref = ref
        self.alpha_rows = {}

    def check(self, argv, rc, report, out_dir: Path):
        """Return a list of failure messages, empty when the call is correct."""
        if rc != 0:
            return [f"exit code {rc}"]
        if not isinstance(report, dict):
            return ["no JSON report on stdout"]
        errors = _artifact_errors(report, out_dir)
        if report.get("summary", {}).get("pass") is not True:
            errors.append("summary.pass is not true")
        errors += getattr(self, "_check_" + argv[0])(argv, report)
        return errors

    def _check_shoot(self, argv, report):
        m = int(_flag(argv, "--m"))
        out = report["outputs"]
        errors = []
        err = abs(out["c_star"] - self.ref["c_star"][m])
        if not err <= SHOOT_C_ERR:
            errors.append(f"|C* - C*_ref| = {err:.3g} > {SHOOT_C_ERR:g} (m={m})")
        if not abs(out["defect"]) < SHOOT_DEFECT:
            errors.append(f"|defect| = {abs(out['defect']):.3g} >= {SHOOT_DEFECT:g}")
        if not out["a_slope"] > 0:
            errors.append(f"a_slope = {out['a_slope']!r} is not positive")
        dev = abs(out["phi_prime_end"] + 1.0)
        if not dev <= SHOOT_PHI_PRIME:
            errors.append(f"|phi'(m+1) + 1| = {dev:.3g} > {SHOOT_PHI_PRIME:g}")
        return errors

    def _check_scan(self, argv, report):
        m = int(_flag(argv, "--m"))
        c_ref = self.ref["c_star"][m]
        out = report["outputs"]
        points, brackets = out["points"], out["brackets"]
        errors = []
        if len(points) != int(_flag(argv, "--steps")):
            errors.append(f"{len(points)} points, expected {_flag(argv, '--steps')}")
        for p in points:
            if p["error"] or p["defect"] is None:
                errors.append(f"point error at C={p['C']!r}: {p['error']}")
            elif abs(p["C"] - c_ref) > SCAN_SIGN_GUARD and (p["defect"] > 0) != (p["C"] < c_ref):
                errors.append(
                    f"defect {p['defect']:.3g} at C={p['C']!r} has the wrong sign "
                    f"(C*_ref={c_ref!r})"
                )
        lo, hi = float(_flag(argv, "--c-min")), float(_flag(argv, "--c-max"))
        if min(abs(c_ref - lo), abs(c_ref - hi)) <= SCAN_SIGN_GUARD:
            return errors  # C*_ref on the window edge: either answer is right
        if lo < c_ref < hi:
            if len(brackets) != 1:
                errors.append(f"{len(brackets)} brackets, expected one around {c_ref!r}")
            elif not brackets[0][0] - SCAN_SIGN_GUARD <= c_ref <= brackets[0][1] + SCAN_SIGN_GUARD:
                errors.append(f"bracket {brackets[0]} misses C*_ref={c_ref!r}")
        elif brackets:
            errors.append(f"bracket {brackets[0]} reported, C*_ref={c_ref!r} is outside the window")
        return errors

    def _golden(self, argv, report):
        errors = []
        got = report.get("payload_sha256")
        if got != payload_sha256(report):
            errors.append("payload_sha256 does not match the payload")
        want = self.ref["golden"].get(argv_key(argv))
        if got != want:
            errors.append(f"payload_sha256 {got} != golden {want}")
        return errors

    def _check_certify(self, argv, report):
        errors = self._golden(argv, report)
        claims = report["outputs"]["claims"]
        if not claims:
            errors.append("certificate has no claims")
        errors += [f"claim {c['id']} fails" for c in claims if c["pass"] is not True]
        return errors

    def _check_alpha(self, argv, report):
        errors = self._golden(argv, report)
        key = (_flag(argv, "--n"), _flag(argv, "--d"))
        rows = report["outputs"]["rows"]
        seen = self.alpha_rows.setdefault(key, (_flag(argv, "--method"), rows))
        if seen[1] != rows:
            errors.append(
                f"alpha rows for n={key[0]} d={key[1]}: method "
                f"{_flag(argv, '--method')} disagrees with {seen[0]}"
            )
        return errors

    def _check_futaki(self, argv, report):
        return self._golden(argv, report)

    def _check_grassmann(self, argv, report):
        errors = self._golden(argv, report)
        ids = report["outputs"]["identities"]
        if not ids:
            errors.append("no determinant identities reported")
        errors += [f"identity {i['name']} fails" for i in ids if i["pass"] is not True]
        return errors
