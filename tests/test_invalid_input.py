"""Every rule on an integer, an exact number's type, a window, an interval,
a width, a tolerance or a weight list is written once, in hext/errors.py,
and applied by the library function that takes the value: a value outside
the rule raises InvalidInput, a ValueError, and a value of a type the exact
layer does not take raises TypeError, before any work.  Shape and content
checks (a zero polynomial, a non-square matrix, a data class's consistency)
stay with their function as a plain ValueError; test_every_check_can_fail.py
pins those."""
import math
import re
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from hext import (
    MAX_SCAN_STEPS,
    CoeffSet,
    GrassmannElement,
    InvalidInput,
    LNConstants,
    TruncatedPoly,
    alpha_recursive,
    ratpoly,
    coeffs_from_C,
    compute_LN,
    defect_scan,
    futaki_closed,
    futaki_localized,
    hcsck_coeffs,
    hcsck_nonexistence,
    rank1_check,
    scalar_projector_check,
    shoot,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "hext"
X_SQUARED_MINUS_2 = ratpoly.poly([-2, 0, 1])

_CALLS = {
    "shoot-tol-above-1e-3": lambda: shoot(1, defect_tol=0.5),
    "shoot-tol-below-floor": lambda: shoot(1, defect_tol=1e-13),
    "shoot-tol-nan": lambda: shoot(1, defect_tol=math.nan),
    "shoot-c-max-nan": lambda: shoot(1, c_max=math.nan),
    "shoot-c-min-inf": lambda: shoot(1, c_min=-math.inf),
    "shoot-c-min-huge-int": lambda: shoot(1, c_min=-10**400),
    "shoot-c-max-huge-int": lambda: shoot(1, c_max=10**400),
    "shoot-tol-huge-int": lambda: shoot(1, defect_tol=10**400),
    "shoot-empty-window": lambda: shoot(1, c_min=3.0, c_max=3.0),
    "shoot-c-min-bool": lambda: shoot(1, c_min=False),
    "shoot-c-max-bool": lambda: shoot(1, c_max=True),
    "scan-infinite-window": lambda: defect_scan(1, -math.inf, 1.0, 8),
    "scan-huge-int-window": lambda: defect_scan(1, -10**400, 1.0, 8),
    "scan-window-wider-than-floats": lambda: defect_scan(1, -1.7e308, 1.7e308, 5),
    "scan-window-2e308-wide": lambda: defect_scan(1, -1e308, 1e308, 5),
    # a Fraction end once met the message's float format: a TypeError
    "shoot-empty-fraction-window": lambda: shoot(1, c_min=F(5), c_max=F(4)),
    "scan-empty-fraction-window": lambda: defect_scan(1, F(5), F(2), 4),
    "scan-fraction-window-wider-than-floats": lambda: defect_scan(1, F(-1.7e308), F(1.7e308), 5),
    "scan-bool-window-bottom": lambda: defect_scan(1, False, 1.0, 2),
    "scan-bool-window-top": lambda: defect_scan(1, -1.0, True, 2),
    "scan-open-window-bottom": lambda: defect_scan(1, None, 1.0, 8),
    "scan-open-window-top": lambda: defect_scan(1, -1.0, None, 8),
    # distinct exact ends that round to one float: the window is decided on
    # the floats it is scanned and clipped at
    "scan-window-empty-as-floats": lambda: defect_scan(1, F(1, 3), F(1, 3) + F(1, 10**30), 3),
    "shoot-window-empty-as-floats": lambda: shoot(1, c_min=F(4), c_max=F(4) + F(1, 10**30)),
    "scan-too-many-steps": lambda: defect_scan(1, 0.0, 1.0, MAX_SCAN_STEPS + 1),
    "scan-huge-steps": lambda: defect_scan(1, 0.0, 1.0, 10**30),
    "scan-one-step": lambda: defect_scan(1, 0.0, 1.0, 1),
    "scan-float-steps": lambda: defect_scan(1, 2.0, 5.0, 2.5),
    "scan-bool-steps": lambda: defect_scan(1, 2.0, 5.0, True),
    "params-n-above-cap": lambda: alpha_recursive(9, 2),
    "params-n-bool": lambda: alpha_recursive(True, 1),
    "params-n-float": lambda: alpha_recursive(3.0, 2),
    "futaki-n-above-cap": lambda: futaki_closed(9, 2, 1),
    "params-d-bool": lambda: alpha_recursive(3, True),
    "params-d-float": lambda: alpha_recursive(3, 2.0),
    "params-d-above-n": lambda: alpha_recursive(3, 4),
    "futaki-d-bool": lambda: futaki_closed(3, True, 1),
    "futaki-q-bool": lambda: futaki_closed(3, 2, True),
    "futaki-q-float": lambda: futaki_closed(3, 2, 1.0),
    "futaki-q-above-n-1": lambda: futaki_closed(3, 2, 3),
    "alpha-d-bool": lambda: alpha_recursive(3, True),
    "rank1-k-above-8": lambda: rank1_check(9),
    "rank1-k-bool": lambda: rank1_check(True),
    "rank1-k-float": lambda: rank1_check(2.0),
    "nonexist-m-0": lambda: hcsck_nonexistence(0),
    "coeffs-m-0": lambda: hcsck_coeffs(0),
    "coeffs-m-minus-2": lambda: hcsck_coeffs(-2),
    "coeffs-m-bool": lambda: coeffs_from_C(True, 2),
    "coeffs-m-float": lambda: compute_LN(1.0),
    "coeffset-m-bool": lambda: CoeffSet(True, F(22, 3), F(9), F(50, 3)),
    "lnconstants-m-float": lambda: LNConstants(1.0, F(-1), F(1)),
    "coeffs-c-nan": lambda: coeffs_from_C(1, math.nan),
    "coeffs-c-inf": lambda: coeffs_from_C(1, np.float64(-np.inf)),
    "lc-plus-n-c-nan": lambda: compute_LN(1).lc_plus_n(math.nan),
    "lc-plus-n-c-inf": lambda: compute_LN(1).lc_plus_n(math.inf),
    "grassmann-ring-bool": lambda: GrassmannElement(True),
    "grassmann-ring-float": lambda: GrassmannElement(2.0),
    "grassmann-ring-negative": lambda: GrassmannElement(-1),
    "grassmann-generator-bool": lambda: GrassmannElement.generator(2, True),
    "grassmann-generator-float": lambda: GrassmannElement.generator(2, 1.0),
    "grassmann-generator-out-of-range": lambda: GrassmannElement.generator(2, 2),
    "grassmann-power-bool": lambda: GrassmannElement(2, {(True, 0): 1}),
    "grassmann-power-float": lambda: GrassmannElement(2, {(1.0, 0): 1}),
    "grassmann-power-negative": lambda: GrassmannElement(2, {(-1, 0): 1}),
    "grassmann-mask-bool": lambda: GrassmannElement(2, {(0, True): 1}),
    "grassmann-mask-float": lambda: GrassmannElement(2, {(0, 1.0): 1}),
    "grassmann-mask-out-of-range": lambda: GrassmannElement(2, {(0, 0b100): 1}),
    "truncpoly-order-bool": lambda: TruncatedPoly(True),
    "truncpoly-order-float": lambda: TruncatedPoly(2.0),
    "truncpoly-order-zero": lambda: TruncatedPoly(0),
    "truncpoly-exponent-bool": lambda: TruncatedPoly(2, {(0, True, 0): 1}),
    "truncpoly-exponent-float": lambda: TruncatedPoly(2, {(0, 0, 1.0): 1}),
    "truncpoly-exponent-negative": lambda: TruncatedPoly(2, {(-1, 0, 0): 1}),
    "truncpoly-pow-bool": lambda: TruncatedPoly.t(2) ** True,
    "truncpoly-pow-float": lambda: TruncatedPoly.t(2) ** 2.0,
    "truncpoly-pow-negative": lambda: TruncatedPoly.t(2) ** -1,
    # these three once never returned: a reversed window counts a negative
    # number of roots and no interval reaches a width <= 0, so it split forever
    "isolate-reversed-window": lambda: ratpoly.isolate_roots(X_SQUARED_MINUS_2, 2, -2, 1),
    "isolate-zero-width": lambda: ratpoly.isolate_roots(X_SQUARED_MINUS_2, 0, 2, 0),
    "isolate-negative-width": lambda: ratpoly.isolate_roots(X_SQUARED_MINUS_2, 0, 2, -1),
    "isolate-point-window": lambda: ratpoly.isolate_roots(X_SQUARED_MINUS_2, 1, 1, 1),
    "count-roots-reversed-window": lambda: ratpoly.count_roots(X_SQUARED_MINUS_2, 2, -2),
}


@pytest.mark.parametrize("call", list(_CALLS.values()), ids=list(_CALLS))
def test_library_rejects_invalid_input(call):
    with pytest.raises(InvalidInput) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert "\n" not in str(info.value)


# values of a type the exact layer does not take: a bool is no int there, and
# only coeffs_from_C takes a float, which the integrator feeds back
_TYPE_ERRORS = {
    "coeffs-c-bool": lambda: coeffs_from_C(1, True),
    "coeffs-c-str": lambda: coeffs_from_C(1, "1/3"),
    "lc-plus-n-c-bool": lambda: compute_LN(1).lc_plus_n(True),
    "lc-plus-n-c-str": lambda: compute_LN(1).lc_plus_n("1/3"),
    "grassmann-coefficient-bool": lambda: GrassmannElement.scalar(2, True),
    "truncpoly-coefficient-bool": lambda: TruncatedPoly(2, {(0, 0, 0): True}),
    "futaki-weight-bool": lambda: futaki_localized(2, 1, [0, True, 2]),
    "projector-entry-bool": lambda: scalar_projector_check([[True, False], [False, False]], 1),
    "projector-a-bool": lambda: scalar_projector_check([[1, 0], [0, 0]], True),
    "scale-float": lambda: ratpoly.scale(X_SQUARED_MINUS_2, 0.1),
    "count-roots-bool": lambda: ratpoly.count_roots(X_SQUARED_MINUS_2, False, True),
    "isolate-roots-float-width": lambda: ratpoly.isolate_roots(X_SQUARED_MINUS_2, 0, 2, 0.5),
    "interval-eval-float": lambda: ratpoly.interval_eval(X_SQUARED_MINUS_2, 0.5, 1),
    "sqrt-upper-bool": lambda: ratpoly.sqrt_upper(True),
    # the float layer takes numbers only: float() would parse a str
    "shoot-c-min-str": lambda: shoot(1, c_min="4"),
    "scan-window-str": lambda: defect_scan(1, "0", 1.0, 4),
}


@pytest.mark.parametrize("call", list(_TYPE_ERRORS.values()), ids=list(_TYPE_ERRORS))
def test_exact_layer_rejects_other_types(call):
    with pytest.raises(TypeError) as info:
        call()
    assert "\n" not in str(info.value)


def test_finite_float_c_is_its_exact_binary_value():
    assert coeffs_from_C(1, np.float64(0.1)) == coeffs_from_C(1, F(0.1))
    assert coeffs_from_C(1, 2.5) == coeffs_from_C(1, F(5, 2))
    assert compute_LN(1).lc_plus_n(0.1) == compute_LN(1).lc_plus_n(F(0.1))


# `type(x) is not int` and `isinstance(x, bool)`, the two spellings of the
# integer rule; operand dispatch such as isinstance(other, (int, Fraction))
# is no rule and does not match
_INTEGER_RULE = re.compile(r"\bis (not )?int\b|isinstance\([^,]+, bool\)")


def test_integer_rules_live_in_errors_only():
    lines = [
        (f"{path.relative_to(SRC)}", line)
        for path in sorted(SRC.rglob("*.py")) if path.name != "errors.py"
        for line in path.read_text().splitlines()
    ]
    assert [(f, line) for f, line in lines if _INTEGER_RULE.search(line)] == []
    # every other rule too: outside errors.py only the CLI's --out check, on
    # a path rather than a library argument, raises InvalidInput
    assert [f for f, line in lines if "raise InvalidInput" in line] == ["cli.py"]
