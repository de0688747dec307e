"""Command-line front end, and the one module that turns exact values into report and artifact text.

Each subcommand is one row of a table: its flags and a body.  One runner
turns every row into a run report: command, parameters (the row's flags),
outputs (inline values or artifact file names), a pass/fail summary, and the
wall time.  Artifacts and report payloads are byte-identical across repeated
runs with identical flags; the wall time lives outside the hashed payload.
Importing this module loads errors.py and no other module of hext: each
command loads the modules it runs on its first call in a process, inside its
wall time.  No command loads scipy; certify, alpha, futaki and grassmann never
load numpy, and the first shoot, nonexist or scan imports it.

Exit codes: 0 pass, 1 fail/error, 2 no defect bracket, 64 usage error.
argparse only parses (numbers, choices, required flags); every rule on a
value is written once, in errors.py, and applied by the library function
that takes it, which raises InvalidInput before any work.  A usage error is
one line on stderr, with no report and no artifacts: a flag argparse cannot
parse, an InvalidInput (a non-positive --m, a non-finite number, a --tol
outside the range its help names, an empty or too wide C window, more than
MAX_SCAN_STEPS scan points, n above MAX_N, ...), or an --out that is
empty, is or lies under a file, has a name the OS rejects, or (found after
the work, before any write) holds a file of the run that resolves to a
directory, is a symbolic link loop, or links into nothing (a path whose
parent is not a directory).  A dangling link whose target's directory
exists is written through.
A library error ends every subcommand in one report form: summary {"pass":
false, "reason": "error"} (exit 1), or "no-bracket" (exit 2) when --c-min
and --c-max clip shoot's root bracket to a window without a sign change,
with the message in outputs.message.  A check that runs and fails is no
error: a failed certificate claim, rank-one identity or non-positive hcscK
margin comes back from the library as data, and its report keeps the full
outputs with "pass": false (certify names its failed_claim), exit 1.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import stat
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import hext
from .errors import DEFECT_TOL_RANGE, SHOOT_DEFECT_TOL, HextError, InvalidInput, NoBracket

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NO_BRACKET = 2
EXIT_USAGE = 64


def _frac_str(x) -> str:
    """A rational as "p/q" text, the form of every exact value in JSON output."""
    return f"{x.numerator}/{x.denominator}"


def _report_json(payload: Dict) -> str:
    """report.json's text: the payload (command, parameters, outputs,
    summary) and its sha256, indented, keys sorted."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc = {**payload, "payload_sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _with_wall_time(report_json: str, wall_time_s: float) -> str:
    """--json's text: report.json's with "wall_time_s" as its last member.
    That key sorts after every payload key, so these are the bytes of
    json.dumps(indent=2, sort_keys=True) on the whole report, without
    encoding the payload again: an indented dump takes json's pure-Python
    encoder, about 0.4 ms on a 64-point scan report."""
    return f'{report_json[:-3]},\n  "wall_time_s": {json.dumps(wall_time_s)}\n}}\n'


@dataclass
class _Outcome:
    """What a body hands the runner; the exit code follows summary["pass"].
    artifacts maps each artifact's file name to its text thunk, which runs
    only under --out; its output key is the file name with "_" for "."."""

    outputs: Dict
    human: List[str]
    summary: Dict = field(default_factory=lambda: {"pass": True})
    artifacts: Dict[str, Callable[[], str]] = field(default_factory=dict)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message} (see {self.prog} --help)\n")
        raise SystemExit(EXIT_USAGE)


def _flag(name: str, type=None, **options) -> Tuple[str, Dict]:
    """A table flag: required unless it has a default."""
    return name, {"type": type, "required": "default" not in options, **options}


_M = _flag("--m", int)
_N = _flag("--n", int)
_D = _flag("--d", int)


def _shoot(a) -> _Outcome:
    result = hext.shoot(a.m, defect_tol=a.tol, c_min=a.c_min, c_max=a.c_max)
    residual = hext.residual_check(result.trajectory)
    curve = hext.reconstruct_curve(result.trajectory)
    outputs = {f: getattr(result, f) for f in
               ("c_star", "defect", "a_slope", "not_hcsck", "phi_prime_end", "bracket", "iterations")}
    outputs.update(residual=residual, grid_points=int(result.trajectory.grid.size))
    human = [
        f"m={a.m}: C* = {result.c_star:.12g}  (bracket {result.bracket[0]:.6g} .. {result.bracket[1]:.6g})",
        f"defect = {result.defect:.3e}, phi'(m+1) = {result.phi_prime_end:.10f}",
        f"lambda slope A = {result.a_slope:.10g}  (hcscK excluded: {result.not_hcsck})",
        f"ODE residual (4th-order differences of v) = {residual:.3e}",
    ]
    artifacts = {"trajectory.csv": result.trajectory.to_csv, "profile_curve.csv": curve.to_csv}
    return _Outcome(outputs, human, artifacts=artifacts)


def _certify(a) -> _Outcome:
    cert = hext.certify_m1()
    failed = cert.first_failed()
    rows = [{"id": c.id, "lhs": _frac_str(c.lhs), "cmp": c.cmp, "rhs": _frac_str(c.rhs), "pass": c.passed}
            for c in cert.claims]
    human = [
        f"{'PASS' if r['pass'] else 'FAIL'}  {r['id']:22s} {r['lhs']} {r['cmp']} {r['rhs']}"
        for r in rows
    ]
    human.append("all claims pass" if failed is None else f"FAILED claim: {failed}")
    summary = {"pass": failed is None, "failed_claim": failed}
    artifacts = {"certificate.json": lambda: json.dumps(rows, indent=2, sort_keys=True) + "\n"}
    return _Outcome({"claims": rows}, human, summary, artifacts)


def _nonexist(a) -> _Outcome:
    rep = hext.hcsck_nonexistence(a.m)
    outputs = {
        "A": _frac_str(rep.coeffs.A),
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
    excluded = rep.margin > 0  # the A = 0 profile cannot close
    verdict = "> 0: constant-lambda closing impossible" if excluded else "is not > 0: no contradiction"
    human = [
        "m={m}: A=0 forces B={B}, C={C} (alternative constants B={alt_B}, C={alt_C}"
        " fail p(1)=2: {fails})".format(m=a.m, fails=not rep.alt_satisfies_boundary, **outputs),
        "exact integral of q = {integral_q} (alternative value {alt_integral})".format(**outputs),
        f"v(m+1) - 2(m+1)^2 = {rep.margin:.6f} {verdict}",
    ]
    return _Outcome(outputs, human, {"pass": excluded})


def _scan_csv(points) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["C", "defect", "error"])
    for p in points:
        d = "" if p.defect is None else f"{p.defect:.17g}"
        writer.writerow([f"{p.c:.17g}", d, p.error or ""])
    return buf.getvalue()


def _scan(a) -> _Outcome:
    scan = hext.defect_scan(a.m, a.c_min, a.c_max, a.steps)
    brackets = scan.brackets  # a property that walks every point
    outputs = {
        "points": [{"C": p.c, "defect": p.defect, "error": p.error} for p in scan.points],
        "brackets": [list(b) for b in brackets],
    }
    human = [
        f"m={a.m}: scanned {a.steps} values of C in [{a.c_min:g}, {a.c_max:g}]",
        f"defect sign changes: {len(brackets)}",
    ] + [f"  bracket: C in ({lo:.8g}, {hi:.8g})" for lo, hi in brackets]
    summary = {"pass": True, "sign_changes": len(brackets)}
    return _Outcome(outputs, human, summary, {"scan.csv": lambda: _scan_csv(scan.points)})


# each --method choice and the function of hext that computes it
_ALPHA_METHODS = {"recursion": "alpha_recursive", "closed": "alpha_closed", "series": "alpha_series"}


def _alpha(a) -> _Outcome:
    table = getattr(hext, _ALPHA_METHODS[a.method])(a.n, a.d)
    rows = [{"q": q, "k": k, "alpha": str(v.numerator)}
            for q, row in enumerate(table.entries) for k, v in enumerate(row)]
    human = ["q,k,alpha"] + [f"{r['q']},{r['k']},{r['alpha']}" for r in rows]  # alpha.csv's lines
    artifacts = {"alpha.csv": lambda: "\n".join(human) + "\n"}
    return _Outcome({"rows": rows}, human, artifacts=artifacts)


def _futaki(a) -> _Outcome:
    outputs = {"value": _frac_str(hext.futaki_closed(a.n, a.d, a.q).r), "kappa_coefficient": True}
    doc = {"n": a.n, "d": a.d, "q": a.q, **outputs}
    human = [f"F_{a.q}(n={a.n}, d={a.d}) = ({outputs['value']}) * kappa"]
    artifacts = {"futaki.json": lambda: json.dumps(doc, sort_keys=True) + "\n"}
    return _Outcome(outputs, human, artifacts=artifacts)


def _grassmann(a) -> _Outcome:
    rep = hext.rank1_check(a.k)
    identities = [{"name": i.name, "pass": i.passed, "witness": i.witness} for i in rep.identities]
    human = [
        f"{'PASS' if i.passed else 'FAIL'}  {i.name}" + (f"  witness: {i.witness}" if i.witness else "")
        for i in rep.identities
    ]
    return _Outcome({"identities": identities}, human, {"pass": rep.passed})


# name: (help, flags, body).  A flag is (flag, add_argument keywords) and
# its dest is a report parameter.  Each body calls the library through the
# hext package as it runs, which loads the call's home module on first use.
_COMMANDS = {
    "shoot": (
        "solve the boundary value problem by shooting on C",
        (
            _M,
            _flag("--tol", float, default=SHOOT_DEFECT_TOL,
                  help="defect tolerance, in [%g, %g]" % DEFECT_TOL_RANGE),
            _flag("--c-min", float, default=None,
                  help="lower clip of the root bracket [C_h, C_top] (default: none)"),
            _flag("--c-max", float, default=None,
                  help="upper clip of the root bracket [C_h, C_top] (default: none)"),
        ),
        _shoot,
    ),
    "certify": ("run the exact m=1 certificate", (_flag("--m", int, choices=[1], default=1),), _certify),
    "nonexist": ("constant-lambda (A=0) contradiction check", (_M,), _nonexist),
    "scan": (
        "defect over a grid of C values",
        (_M, _flag("--c-min", float), _flag("--c-max", float), _flag("--steps", int, default=64)),
        _scan,
    ),
    "alpha": (
        "Chern coefficient table for a hypersurface",
        (_N, _D, _flag("--method", choices=sorted(_ALPHA_METHODS), default="recursion")),
        _alpha,
    ),
    "futaki": ("closed-formula Bando-Futaki invariant", (_N, _D, _flag("--q", int)), _futaki),
    "grassmann": ("rank-one determinant identities", (_flag("--k", int),), _grassmann),
}


def _out_error(out: Path) -> Optional[str]:
    """Why mkdir cannot make `out` a directory, or None: its nearest existing
    ancestor is no directory or a dangling symlink, or the OS rejects a name
    (too long, ...)."""
    for p in (out, *out.parents):
        try:
            return None if stat.S_ISDIR(p.stat().st_mode) else f"{p} is not a directory"
        except (FileNotFoundError, NotADirectoryError):
            if p.is_symlink():  # stat follows the link to nothing; mkdir fails on the link
                return f"{p} is a dangling symbolic link"
        except OSError as exc:
            return exc.strerror


def _run(args) -> int:
    started = time.perf_counter()
    try:
        if args.out is not None:  # --out must be a directory, or a path mkdir can create
            why = _out_error(Path(args.out)) if args.out else "an empty path is not a directory"
            if why:  # an empty --out has its own rule: Path("") is the working directory
                raise InvalidInput(f"--out {args.out}: {why}")
        done = _COMMANDS[args.command][2](args)  # the row's body
        code = EXIT_OK if done.summary["pass"] else EXIT_FAIL
    except InvalidInput as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except HextError as exc:
        no_bracket = isinstance(exc, NoBracket)
        reason, code = ("no-bracket", EXIT_NO_BRACKET) if no_bracket else ("error", EXIT_FAIL)
        human = [f"{'no bracket' if no_bracket else 'error'}: {exc}"]
        done = _Outcome({"message": str(exc)}, human, {"pass": False, "reason": reason})
    if args.out:  # the outputs name the artifact files
        done.outputs.update((name.replace(".", "_"), name) for name in done.artifacts)
    if args.out or args.json:
        parameters = {k: v for k, v in vars(args).items() if k not in ("command", "json", "out")}
        report = _report_json({"command": args.command, "parameters": parameters,
                               "outputs": done.outputs, "summary": done.summary})
    if args.out:  # every file name is checked before the first write
        out = Path(args.out)
        files = {**done.artifacts, "report.json": lambda: report}
        for name in files if out.exists() else ():  # a new --out holds no file yet
            real = Path(os.path.realpath(out / name))  # the path a write through its links opens
            why = ("is a directory" if real.is_dir() else
                   "is a symbolic link loop" if real.is_symlink() else  # realpath left a loop unresolved
                   None if real.parent.is_dir() else f"resolves to {real}, whose parent is not a directory")
            if why:
                sys.stderr.write(f"error: --out {args.out}: {out / name} {why}\n")
                return EXIT_USAGE
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text(), encoding="utf-8", newline="\n")
    wall_time_s = time.perf_counter() - started
    if args.json:
        sys.stdout.write(_with_wall_time(report, wall_time_s))
    else:
        for line in done.human:
            print(line)
    return code


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv):
    """Write `--opt -1e6` as `--opt=-1e6`, and so for every "-" token that
    float() parses (-inf, -nan too): argparse reads a token that starts with
    "-" as an option unless it looks like -5 or -.5."""
    out = []
    for token in argv:
        option = out[-1] if out else ""
        if option.startswith("--") and "=" not in option and token.startswith("-") and _is_float(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parser() -> _Parser:
    parser = _Parser(prog="hext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.add_argument("--json", action="store_true", help="print the run report as JSON only")
        p.add_argument("--out", default=None, help="directory for file artifacts")
    return parser


_PARSER = _parser()  # built once: building takes longer than most parses


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
