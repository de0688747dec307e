"""Write perfbench/reference.json, the table the benchmark checks against.

    python3 perfbench/make_reference.py

Two parts, made two different ways:

* ``c_star_ref`` and ``c_adm`` do not use the code under test.  For each m
  the boundary data p(1) = 2, p(m+1) = -2 are solved for A and B in exact
  rationals, ``v' = 2*sqrt(2)*sqrt(v) + q(gamma)`` is integrated from
  ``v(1) = 2`` with mpmath's Taylor-series ``odefun`` at 30 digits, and
  ``findroot`` solves ``v(m+1) = 2(m+1)^2`` for C.  ``c_adm`` is the largest
  C with ``int_1^{m+1} q >= -2 + 1/100``, from the same exact integral.
* ``golden_sha256`` is the payload hash of every argv the ``checks`` workload
  can draw, recorded from the package in ``src/`` when this file was made.
  Those payloads are exact (no floats), so any change to them is a change of
  behaviour.

Needs mpmath (the package's test extra).
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_PATH, argv_key, checks_space  # noqa: E402

M_VALUES = range(1, 9)
EPS = Fraction(1, 100)
DPS = 30


def boundary_ab(m: int, C: Fraction):
    """A and B with p(1) = 2 and p(m+1) = -2, p = A g^3/3 + B g^2/2 + C."""
    s = m + 1
    # A/3 + B/2 = 2 - C ;  A s^3/3 + B s^2/2 = -2 - C
    det = Fraction(1, 3) * Fraction(s * s, 2) - Fraction(1, 2) * Fraction(s ** 3, 3)
    r1, r2 = 2 - C, -2 - C
    A = (r1 * Fraction(s * s, 2) - Fraction(1, 2) * r2) / det
    B = (Fraction(1, 3) * r2 - Fraction(s ** 3, 3) * r1) / det
    return A, B


def integral_q(m: int, C: Fraction) -> Fraction:
    A, B = boundary_ab(m, C)
    s = m + 1
    return A * Fraction(s ** 5 - 1, 15) + B * Fraction(s ** 4 - 1, 8) + C * Fraction(s * s - 1, 2)


def c_adm(m: int) -> Fraction:
    """Largest C with int q >= -2 + EPS; the integral is affine in C."""
    n0, n1 = integral_q(m, Fraction(0)), integral_q(m, Fraction(1))
    slope = n1 - n0
    return (-2 + EPS - n0) / slope


def defect(m: int, C) -> mpmath.mpf:
    """v(m+1) - 2(m+1)^2; raises ValueError if v leaves the positive reals."""
    C = mpmath.mpf(C)
    s = m + 1
    one = mpmath.mpf(1)
    det = one / 3 * s * s / 2 - one / 2 * s ** 3 / 3
    A = ((2 - C) * s * s / 2 - (-2 - C) / 2) / det
    B = ((-2 - C) / 3 - (2 - C) * s ** 3 / 3) / det
    r2 = 2 * mpmath.sqrt(2)

    def rhs(g, v):
        return r2 * mpmath.sqrt(v) + (A / 3 * g ** 3 + B / 2 * g ** 2 + C) * g

    f = mpmath.odefun(rhs, 1, mpmath.mpf(2), tol=mpmath.mpf(10) ** (2 - DPS))
    v_end = f(s)
    if not isinstance(v_end, mpmath.mpf) or v_end <= 0:
        raise ValueError(f"v is not positive real at C={C}")
    return v_end - 2 * s * s


def c_star(m: int) -> mpmath.mpf:
    """Root of the defect: step up from C = 2 (positive defect) by 1/64
    until the sign flips, then solve on that bracket."""
    lo = mpmath.mpf(2)
    if not defect(m, lo) > 0:
        raise RuntimeError(f"defect at C=2 is not positive for m={m}")
    step = mpmath.mpf(1) / 64
    hi = lo + step
    while defect(m, hi) > 0:
        lo, hi = hi, hi + step
    return mpmath.findroot(lambda c: defect(m, c), (lo, hi), solver="anderson",
                           tol=mpmath.mpf(10) ** (8 - 2 * DPS))


def golden_hashes():
    sys.path.insert(0, str(ROOT / "src"))
    import hext.cli

    out = ROOT / ".bench_run" / "golden"
    golden = {}
    for argv in checks_space():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = hext.cli.main(argv + ["--json", "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"{argv_key(argv)} exited {rc}")
        golden[argv_key(argv)] = json.loads(buf.getvalue())["payload_sha256"]
    shutil.rmtree(out)
    return golden


def main() -> int:
    mpmath.mp.dps = DPS
    refs, adm = {}, {}
    for m in M_VALUES:
        root = c_star(m)
        refs[str(m)] = float(root)
        adm[str(m)] = f"{c_adm(m).numerator}/{c_adm(m).denominator}"
        print(f"m={m}: C*_ref = {mpmath.nstr(root, 20)}  c_adm = {float(c_adm(m)):.12g}")
    doc = {
        "c_star_ref": refs,
        "c_adm": adm,
        "golden_sha256": golden_hashes(),
        "made_by": "perfbench/make_reference.py",
        "mpmath": mpmath.__version__,
        "dps": DPS,
    }
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH.name}: {len(doc['golden_sha256'])} golden hashes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
