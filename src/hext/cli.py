"""Command-line front end.

Every subcommand builds a RunReport: command, parameters, outputs (inline
values or artifact file names), a pass/fail summary, and the wall time.
Artifacts and report payloads are byte-identical across repeated runs with
identical flags; the wall time lives outside the hashed payload.

Exit codes: 0 pass, 1 fail/error, 2 no defect bracket, 64 usage error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

from .chern_futaki import (
    alpha_closed,
    alpha_recursive,
    alpha_series,
    futaki_closed,
    table_size_cap,
)
from .errors import CertificateFailure, HextError, NoBracket
from .graded_algebra import rank1_check
from .profile_ode import (
    EPS_FLOOR,
    admissible_C_max,
    certify_m1,
    defect_scan,
    hcsck_nonexistence,
    reconstruct_curve,
    residual_check,
    shoot,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NO_BRACKET = 2
EXIT_USAGE = 64

_ALPHA_METHODS = {
    "recursion": alpha_recursive,
    "closed": alpha_closed,
    "series": alpha_series,
}


@dataclass
class RunReport:
    command: str
    parameters: Dict
    outputs: Dict = field(default_factory=dict)
    summary: Dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def payload(self) -> Dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "outputs": self.outputs,
            "summary": self.summary,
        }

    def payload_sha256(self) -> str:
        blob = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_json(self, include_wall_time: bool = True) -> str:
        doc = self.payload()
        doc["payload_sha256"] = self.payload_sha256()
        if include_wall_time:
            doc["wall_time_s"] = self.wall_time_s
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _write_text(out_dir: Path, name: str, text: str) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return name


def _emit(report: RunReport, args, human_lines) -> None:
    if args.out:
        _write_text(Path(args.out), "report.json", report.to_json(include_wall_time=False))
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        for line in human_lines:
            print(line)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message} (see {self.prog} --help)\n")
        raise SystemExit(EXIT_USAGE)


def _checked(convert, ok, what: str):
    """An argparse type: `convert`, then reject values failing `ok`."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_scan_steps = _checked(int, lambda v: v >= 2, "at least 2")
_finite_float = _checked(float, math.isfinite, "finite")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "positive and finite")


def _usage_error(msg: str) -> int:
    sys.stderr.write(f"error: {msg}\n")
    return EXIT_USAGE


def cmd_shoot(args) -> int:
    c_top = float(admissible_C_max(args.m, EPS_FLOOR))
    if args.c_max is not None:
        c_top = min(c_top, args.c_max)
    if not args.c_min < c_top:
        return _usage_error(
            f"--c-min {args.c_min:g} must lie below --c-max and the admissible maximum"
            f" (here {c_top:.10g})"
        )
    started = time.perf_counter()
    params = {
        "m": args.m,
        "tol": args.tol,
        "c_min": args.c_min,
        "c_max": args.c_max,
    }
    report = RunReport(command="shoot", parameters=params)
    try:
        result = shoot(args.m, defect_tol=args.tol, c_min=args.c_min, c_max=args.c_max)
    except NoBracket as exc:
        report.summary = {"pass": False, "reason": "no-bracket"}
        report.outputs = {"message": str(exc)}
        report.wall_time_s = time.perf_counter() - started
        _emit(report, args, [f"no bracket: {exc}"])
        return EXIT_NO_BRACKET
    except HextError as exc:
        report.summary = {"pass": False, "reason": "error"}
        report.outputs = {"message": str(exc)}
        report.wall_time_s = time.perf_counter() - started
        _emit(report, args, [f"error: {exc}"])
        return EXIT_FAIL

    residual = residual_check(result.trajectory)
    curve = reconstruct_curve(result.trajectory)
    report.outputs = {
        "c_star": result.c_star,
        "defect": result.defect,
        "a_slope": result.a_slope,
        "not_hcsck": result.not_hcsck,
        "phi_prime_end": result.phi_prime_end,
        "bracket": list(result.bracket),
        "iterations": result.iterations,
        "residual": residual,
        "grid_points": int(result.trajectory.grid.size),
    }
    if args.out:
        out_dir = Path(args.out)
        report.outputs["trajectory_csv"] = _write_text(
            out_dir, "trajectory.csv", result.trajectory.to_csv()
        )
        report.outputs["profile_curve_csv"] = _write_text(
            out_dir, "profile_curve.csv", curve.to_csv()
        )
    report.summary = {"pass": True}
    report.wall_time_s = time.perf_counter() - started
    _emit(
        report,
        args,
        [
            f"m={args.m}: C* = {result.c_star:.12g}  (bracket {result.bracket[0]:.6g} .. {result.bracket[1]:.6g})",
            f"defect = {result.defect:.3e}, phi'(m+1) = {result.phi_prime_end:.10f}",
            f"lambda slope A = {result.a_slope:.10g}  (hcscK excluded: {result.not_hcsck})",
            f"ODE residual (4th-order differences of v) = {residual:.3e}",
        ],
    )
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.m != 1:
        return _usage_error("the certificate is only available for --m 1")
    started = time.perf_counter()
    report = RunReport(command="certify", parameters={"m": args.m})
    try:
        cert = certify_m1()
        failed = None
    except CertificateFailure as exc:
        cert = exc.certificate
        failed = exc.claim_id
    rows = []
    lines = []
    if cert is not None:
        for c in cert.claims:
            rows.append(
                {
                    "id": c.id,
                    "lhs": _frac_str(c.lhs),
                    "cmp": c.cmp,
                    "rhs": _frac_str(c.rhs),
                    "pass": c.passed,
                }
            )
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status}  {c.id:22s} {_frac_str(c.lhs)} {c.cmp} {_frac_str(c.rhs)}")
    report.outputs = {"claims": rows}
    report.summary = {"pass": failed is None, "failed_claim": failed}
    report.wall_time_s = time.perf_counter() - started
    if args.out and cert is not None:
        report.outputs["certificate_json"] = _write_text(
            Path(args.out), "certificate.json", cert.to_json()
        )
    lines.append("all claims pass" if failed is None else f"FAILED claim: {failed}")
    _emit(report, args, lines)
    return EXIT_OK if failed is None else EXIT_FAIL


def cmd_nonexist(args) -> int:
    started = time.perf_counter()
    report = RunReport(command="nonexist", parameters={"m": args.m})
    try:
        rep = hcsck_nonexistence(args.m)
    except HextError as exc:
        report.summary = {"pass": False}
        report.outputs = {"message": str(exc)}
        report.wall_time_s = time.perf_counter() - started
        _emit(report, args, [f"error: {exc}"])
        return EXIT_FAIL
    report.outputs = {
        "A": "0/1",
        "B": _frac_str(rep.coeffs.B),
        "C": _frac_str(rep.coeffs.C),
        "integral_q": _frac_str(rep.integral),
        "margin": rep.margin,
        "target": rep.target,
        "alt_B": _frac_str(rep.alt_B),
        "alt_C": _frac_str(rep.alt_C),
        "alt_integral": _frac_str(rep.alt_integral),
        "alt_satisfies_boundary": rep.alt_satisfies_boundary,
    }
    report.summary = {"pass": rep.margin > 0}
    report.wall_time_s = time.perf_counter() - started
    _emit(
        report,
        args,
        [
            f"m={args.m}: A=0 forces B={_frac_str(rep.coeffs.B)}, C={_frac_str(rep.coeffs.C)}"
            f" (alternative constants B={_frac_str(rep.alt_B)}, C={_frac_str(rep.alt_C)}"
            f" fail p(1)=2: {not rep.alt_satisfies_boundary})",
            f"exact integral of q = {_frac_str(rep.integral)}"
            f" (alternative value {_frac_str(rep.alt_integral)})",
            f"v(m+1) - 2(m+1)^2 = {rep.margin:.6f} > 0: constant-lambda closing impossible",
        ],
    )
    return EXIT_OK


def cmd_scan(args) -> int:
    started = time.perf_counter()
    params = {
        "m": args.m,
        "c_min": args.c_min,
        "c_max": args.c_max,
        "steps": args.steps,
    }
    report = RunReport(command="scan", parameters=params)
    c_cap = float(admissible_C_max(args.m, EPS_FLOOR))
    if args.c_max > c_cap + 1e-9:
        return _usage_error(
            f"--c-max {args.c_max:g} exceeds the admissible maximum {c_cap:.10g}"
        )
    if not args.c_min < args.c_max:
        return _usage_error("--c-min must lie below --c-max")
    try:
        scan = defect_scan(args.m, args.c_min, args.c_max, args.steps)
    except (HextError, ValueError) as exc:
        report.summary = {"pass": False}
        report.outputs = {"message": str(exc)}
        report.wall_time_s = time.perf_counter() - started
        _emit(report, args, [f"error: {exc}"])
        return EXIT_FAIL
    report.outputs = {
        "points": [
            {"C": p.c, "defect": p.defect, "error": p.error} for p in scan.points
        ],
        "brackets": [list(b) for b in scan.brackets],
    }
    report.summary = {"pass": True, "sign_changes": len(scan.brackets)}
    report.wall_time_s = time.perf_counter() - started
    if args.out:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["C", "defect", "error"])
        for p in scan.points:
            d = "" if p.defect is None else f"{p.defect:.17g}"
            writer.writerow([f"{p.c:.17g}", d, p.error or ""])
        report.outputs["scan_csv"] = _write_text(Path(args.out), "scan.csv", buf.getvalue())
    human = [
        f"m={args.m}: scanned {args.steps} values of C in [{args.c_min:g}, {args.c_max:g}]",
        f"defect sign changes: {len(scan.brackets)}",
    ] + [f"  bracket: C in ({lo:.8g}, {hi:.8g})" for lo, hi in scan.brackets]
    _emit(report, args, human)
    return EXIT_OK


def cmd_alpha(args) -> int:
    started = time.perf_counter()
    cap = table_size_cap()
    if args.n > cap:
        return _usage_error(f"--n {args.n} exceeds the cap {cap} (set HEXT_MAX_N to raise)")
    if not 1 <= args.d <= args.n or args.n < 2:
        return _usage_error("need n >= 2 and 1 <= d <= n")
    report = RunReport(
        command="alpha",
        parameters={"n": args.n, "d": args.d, "method": args.method},
    )
    table = _ALPHA_METHODS[args.method](args.n, args.d, max_n=cap)
    csv_text = table.to_csv()
    report.outputs = {
        "rows": [
            {"q": q, "k": k, "alpha": str(v.numerator)}
            for q, row in enumerate(table.entries)
            for k, v in enumerate(row)
        ]
    }
    report.summary = {"pass": True}
    report.wall_time_s = time.perf_counter() - started
    if args.out:
        report.outputs["alpha_csv"] = _write_text(Path(args.out), "alpha.csv", csv_text)
    _emit(report, args, csv_text.rstrip("\n").split("\n"))
    return EXIT_OK


def cmd_futaki(args) -> int:
    started = time.perf_counter()
    cap = table_size_cap()
    if args.n > cap:
        return _usage_error(f"--n {args.n} exceeds the cap {cap} (set HEXT_MAX_N to raise)")
    if not 1 <= args.d <= args.n or args.n < 2:
        return _usage_error("need n >= 2 and 1 <= d <= n")
    if not 1 <= args.q <= args.n - 1:
        return _usage_error("need 1 <= q <= n-1")
    report = RunReport(
        command="futaki", parameters={"n": args.n, "d": args.d, "q": args.q}
    )
    value = futaki_closed(args.n, args.d, args.q)
    report.outputs = {"value": _frac_str(value.r), "kappa_coefficient": True}
    report.summary = {"pass": True}
    report.wall_time_s = time.perf_counter() - started
    if args.out:
        report.outputs["futaki_json"] = _write_text(
            Path(args.out), "futaki.json", value.to_json()
        )
    _emit(
        report,
        args,
        [f"F_{args.q}(n={args.n}, d={args.d}) = ({_frac_str(value.r)}) * kappa"],
    )
    return EXIT_OK


def cmd_grassmann(args) -> int:
    if not 1 <= args.k <= 6:
        return _usage_error("need 1 <= k <= 6")
    started = time.perf_counter()
    report = RunReport(command="grassmann", parameters={"k": args.k})
    rep = rank1_check(args.k)
    report.outputs = {
        "identities": [
            {"name": i.name, "pass": i.passed, "witness": i.witness}
            for i in rep.identities
        ]
    }
    report.summary = {"pass": rep.passed}
    report.wall_time_s = time.perf_counter() - started
    lines = [
        f"{'PASS' if i.passed else 'FAIL'}  {i.name}"
        + (f"  witness: {i.witness}" if i.witness else "")
        for i in rep.identities
    ]
    _emit(report, args, lines)
    return EXIT_OK if rep.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="print the run report as JSON only")
        p.add_argument("--out", default=None, help="directory for file artifacts")

    p = sub.add_parser("shoot", help="solve the boundary value problem by shooting on C")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-8, help="defect tolerance")
    p.add_argument("--c-min", type=_finite_float, default=-50.0, help="lower end of the bracket scan")
    p.add_argument("--c-max", type=_finite_float, default=None, help="upper end of the bracket scan (default: admissible maximum)")
    common(p)
    p.set_defaults(func=cmd_shoot)

    p = sub.add_parser("certify", help="run the exact m=1 certificate")
    p.add_argument("--m", type=_positive_int, default=1)
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("nonexist", help="constant-lambda (A=0) contradiction check")
    p.add_argument("--m", type=_positive_int, required=True)
    common(p)
    p.set_defaults(func=cmd_nonexist)

    p = sub.add_parser("scan", help="defect over a grid of C values")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--c-min", type=_finite_float, required=True)
    p.add_argument("--c-max", type=_finite_float, required=True)
    p.add_argument("--steps", type=_scan_steps, default=64)
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("alpha", help="Chern coefficient table for a hypersurface")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--method", choices=sorted(_ALPHA_METHODS), default="recursion"
    )
    common(p)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("futaki", help="closed-formula Bando-Futaki invariant")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_futaki)

    p = sub.add_parser("grassmann", help="rank-one determinant identities")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_grassmann)

    return parser


_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?", re.IGNORECASE)


def _attach_negative_values(argv):
    """Write `--opt -1e6` as `--opt=-1e6`: argparse reads a token that starts
    with "-" as an option unless it looks like -5 or -.5."""
    out = []
    for token in argv:
        option = out[-1] if out else ""
        if option.startswith("--") and "=" not in option and _NEGATIVE_NUMBER.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except HextError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
