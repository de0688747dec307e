"""Every consistency check of the library trips on an input made to break it:
a check that no input can fail proves nothing.  Each case names the check,
builds the smallest input that violates it, and pins the exception type and
its message."""
from fractions import Fraction as F

import numpy as np
import pytest

from hext import (
    AlphaTable,
    CoeffSet,
    FutakiValue,
    InvalidInput,
    LNConstants,
    Trajectory,
    alpha_recursive,
    coeffs_from_C,
    ratpoly,
    reconstruct_curve,
    residual_check,
    scalar_projector_check,
)
from hext.profile_ode.certificate import CertificateM1, _step_upper


def _alpha_3_2(changes=()):
    """alpha_recursive(3, 2) = ((1,), (-1, 2), (1, 0, 2)) with the entries
    changes maps (q, k) -> value replaced."""
    rows = [list(row) for row in alpha_recursive(3, 2).entries]
    for (q, k), value in dict(changes).items():
        rows[q][k] = F(value)
    return tuple(tuple(row) for row in rows)


def _trajectory(grid, v):
    return Trajectory(np.array(grid), np.array(v), coeffs_from_C(1, 4))


X_MINUS_1 = ratpoly.poly([-1, 1])

_CHECKS = {
    "alpha-table-row-count": (
        lambda: AlphaTable(3, 2, _alpha_3_2()[:2]),
        ValueError, "table must have rows q = 0 .. n-1"),
    "alpha-table-row-length": (
        lambda: AlphaTable(3, 2, ((F(1),), (F(-1),), (F(1), F(0), F(2)))),
        ValueError, "row 1 must have 2 entries"),
    "alpha-table-first-column": (
        lambda: AlphaTable(3, 2, _alpha_3_2({(1, 0): 1})),
        ValueError, "alpha[1][0] must be (-1)^1"),
    "alpha-table-diagonal": (
        lambda: AlphaTable(3, 2, _alpha_3_2({(1, 1): 3})),
        ValueError, "alpha[1][1] violates the diagonal sum"),
    "alpha-csv-integer": (
        lambda: AlphaTable(3, 2, _alpha_3_2({(2, 1): F(1, 2)})),
        ValueError, "alpha entries must be integers"),
    "futaki-hyperplane": (
        lambda: FutakiValue(n=3, d=1, q=1, r=F(1)),
        ValueError, "hyperplanes must have vanishing invariant"),
    "ln-signs": (
        lambda: LNConstants(1, F(1), F(1)),
        ValueError, "expected L < 0 and N > 0"),
    "ln-2l-plus-n": (
        lambda: LNConstants(1, F(-1), F(1)),
        ValueError, "expected 2L + N > 2/5"),
    # the edges of each comparison: L = 0, L > 0 with N > 0, N = 0, and
    # 2L + N exactly 2/5 at two splits of it between L and N
    "ln-l-zero": (
        lambda: LNConstants(1, F(0), F(1)),
        ValueError, "expected L < 0 and N > 0"),
    "ln-l-positive": (
        lambda: LNConstants(1, F(1, 2), F(1)),
        ValueError, "expected L < 0 and N > 0"),
    "ln-n-zero": (
        lambda: LNConstants(1, F(-1), F(0)),
        ValueError, "expected L < 0 and N > 0"),
    "ln-2l-plus-n-at-two-fifths": (
        lambda: LNConstants(1, F(-1, 10), F(3, 5)),
        ValueError, "expected 2L + N > 2/5"),
    "ln-2l-plus-n-at-two-fifths-small-l": (
        lambda: LNConstants(1, F(-1, 100), F(21, 50)),
        ValueError, "expected 2L + N > 2/5"),
    "coeffset-p-at-m-plus-1": (
        lambda: CoeffSet(1, F(2), F(0), F(0)),  # p(1) = 2 but p(2) = 2
        ValueError, "boundary identity p(m+1) == -2 violated"),
    "trajectory-shape": (
        lambda: _trajectory([1.0, 1.5, 2.0], [2.0, 5.0]),
        ValueError, "grid and v must be matching 1-d arrays"),
    "trajectory-span": (
        lambda: _trajectory([1.0, 1.5], [2.0, 5.0]),
        ValueError, "grid must span [1, m+1]"),
    "residual-uniform-grid": (
        lambda: residual_check(_trajectory([1.0, 1.25, 1.5, 2.0], [2.0, 3.5, 5.0, 8.0])),
        ValueError, "residual_check needs a uniform grid of at least 5 points"),
    "curve-too-few-points": (
        lambda: reconstruct_curve(_trajectory([1.0, 1.5, 2.0], [2.0, 5.0, 8.0])),
        ValueError, "margin leaves too few interior points"),
    "step-upper-radicand": (
        lambda: _step_upper(F(-10), F(0), F(1, 2)),
        ValueError, "step bound radicand must be nonnegative"),
    "certificate-unknown-claim": (
        lambda: CertificateM1([], {}).claim("no_such_claim"),
        KeyError, "'no_such_claim'"),
    "ratpoly-divide-by-zero": (
        lambda: ratpoly.divmod_poly(X_MINUS_1, ()),
        ZeroDivisionError, "polynomial division by zero"),
    "ratpoly-count-empty-interval": (
        lambda: ratpoly.count_roots(X_MINUS_1, 2, 2),
        InvalidInput, "need a < b"),
    "ratpoly-count-zero-polynomial": (
        lambda: ratpoly.count_roots((), 0, 1),
        ValueError, "the zero polynomial has no finite root count"),
    "ratpoly-isolate-zero-polynomial": (
        lambda: ratpoly.isolate_roots((), 0, 1, F(1, 10)),
        ValueError, "the zero polynomial has no finite root count"),
    "ratpoly-isolate-root-endpoint": (
        lambda: ratpoly.isolate_roots(X_MINUS_1, 1, 2, F(1, 10)),
        ValueError, "interval endpoints must not be roots"),
    "ratpoly-isolate-root-left-endpoint": (  # p(b) = 2: the guard must test for 0
        lambda: ratpoly.isolate_roots(X_MINUS_1, 1, 3, F(1, 10)),
        ValueError, "interval endpoints must not be roots"),
    "ratpoly-isolate-root-right-endpoint": (
        lambda: ratpoly.isolate_roots(X_MINUS_1, 0, 1, F(1, 10)),
        ValueError, "interval endpoints must not be roots"),
    "ratpoly-interval-reversed": (
        lambda: ratpoly.interval_eval(X_MINUS_1, 2, 1),
        InvalidInput, "need lo <= hi"),
    "ratpoly-poly-float": (
        lambda: ratpoly.poly([-1, 0.5]),
        TypeError, "0.5 is neither an int nor a Fraction"),
    "ratpoly-poly-bool": (
        lambda: ratpoly.poly([True, 1]),
        TypeError, "True is neither an int nor a Fraction"),
    "ratpoly-eval-float": (
        lambda: ratpoly.eval_at(X_MINUS_1, 0.5),
        TypeError, "0.5 is neither an int nor a Fraction"),
    "projector-not-square": (
        lambda: scalar_projector_check([[1, 0]], 1),
        ValueError, "A must be a nonempty square matrix"),
}


@pytest.mark.parametrize("case", list(_CHECKS.values()), ids=list(_CHECKS))
def test_check_trips(case):
    call, exc, message = case
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_ln_constants_inside_every_bound_construct():
    ln = LNConstants(1, F(-1, 100), F(1, 2))  # 2L + N = 12/25 > 2/5
    assert (ln.L, ln.N) == (F(-1, 100), F(1, 2))
