"""Coefficient tables by three methods, the closed invariant formula, and
its localization check."""
import json
from fractions import Fraction as F
from math import comb

import pytest

from hext import (
    alpha_closed,
    alpha_recursive,
    alpha_series,
    futaki_closed,
    futaki_localized,
)
from hext.chern_futaki import _fixed_points, _futaki_formula, _table_from_series
from hext.cli import EXIT_OK, main
from hext.errors import SeriesMismatch
from hext.graded_algebra import TruncatedPoly


def test_params_validation():
    alpha_recursive(3, 2)
    with pytest.raises(ValueError):
        alpha_recursive(1, 1)
    with pytest.raises(ValueError):
        alpha_recursive(3, 4)
    with pytest.raises(ValueError):
        alpha_recursive(3, 0)


def test_recursion_hand_run_n3_d2():
    t = alpha_recursive(3, 2)
    assert t.entries == (
        (F(1),),
        (F(-1), F(2)),
        (F(1), F(0), F(2)),
    )


def test_closed_term_by_term_n3_d2():
    t = alpha_closed(3, 2)
    # alpha_11 = [b=0: 1*2*(-1)*C(1,1)] + [b=1: 4*1*1*C(0,0)] = 2
    assert t.entries[1][1] == 2
    assert t == alpha_recursive(3, 2)


def test_series_q2_coefficient_n3_d2():
    t = alpha_series(3, 2)
    assert (t.entries[2][2], t.entries[2][1], t.entries[2][0]) == (2, 0, 1)


def test_three_way_equality_full_range():
    for n in range(2, 9):
        for d in range(1, n + 1):
            a = alpha_recursive(n, d)
            b = alpha_closed(n, d)
            c = alpha_series(n, d)
            assert a == b
            assert a == c


def test_first_column_alternates():
    for n in (2, 4, 7):
        for d in (1, n):
            t = alpha_recursive(n, d)
            for q in range(n):
                assert t.entries[q][0] == (-1) ** q


def test_hyperplane_diagonal_is_binomial():
    for n in range(2, 9):
        t = alpha_recursive(n, 1)
        for q in range(n):
            assert t.entries[q][q] == comb(n, q)


def test_zero_above_diagonal_in_closed_sum():
    # binom(a-b, k-b) empties the sum for k > a (subset-count convention:
    # zero outside 0 <= j <= n)
    def binom0(n, j):
        return comb(n, j) if 0 <= j <= n else 0

    for n, d in ((4, 2), (5, 3)):
        for a in range(n):
            for k in range(a + 1, n):
                total = sum(
                    comb(n + 1, b) * F(d) ** (k - b) * (-1) ** (a - b) * binom0(a - b, k - b)
                    for b in range(k + 1)
                )
                assert total == 0


def test_series_mismatch_detected():
    bogus = TruncatedPoly(3, {(1, 0, 0): F(1), (0, 0, 0): F(1)})  # bare t^1 term
    with pytest.raises(SeriesMismatch):
        _table_from_series(bogus, 3, 2)


def test_table_cap():
    with pytest.raises(ValueError):
        alpha_recursive(9, 1)


def test_alpha_csv_export(tmp_path):
    assert main(["alpha", "--n", "3", "--d", "2", "--out", str(tmp_path)]) == EXIT_OK
    text = (tmp_path / "alpha.csv").read_text(encoding="utf-8")
    assert text == "q,k,alpha\n0,0,1\n1,0,-1\n1,1,2\n2,0,1\n2,1,0\n2,2,2\n"


def test_futaki_spot_values():
    assert futaki_closed(2, 2, 1).r == F(-3, 2)
    assert futaki_closed(3, 3, 2).r == 8


def test_futaki_hyperplanes_vanish():
    for n in range(2, 9):
        for q in range(1, n):
            assert futaki_closed(n, 1, q).r == 0


def test_futaki_value_rejects_bad_q():
    with pytest.raises(ValueError):
        futaki_closed(3, 2, 0)
    with pytest.raises(ValueError):
        futaki_closed(3, 2, 3)


def test_futaki_json_export(tmp_path):
    assert main(["futaki", "--n", "2", "--d", "2", "--q", "1", "--out", str(tmp_path)]) == EXIT_OK
    doc = json.loads((tmp_path / "futaki.json").read_text(encoding="utf-8"))
    assert doc == {
        "n": 2,
        "d": 2,
        "q": 1,
        "value": "-3/2",
        "kappa_coefficient": True,
    }


def _finite_difference_degree_at_most(values, max_deg):
    """Exact finite differences: (max_deg+1)-th difference must vanish."""
    diffs = list(values)
    for _ in range(max_deg + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return all(v == 0 for v in diffs)


def test_futaki_polynomial_structure():
    """F_q / (n+1-d)^(n-q) is a polynomial in d of degree <= q."""
    for n in range(2, 7):
        for q in range(1, n):
            # probe at integers away from d = n+1 where the prefactor vanishes
            samples = [
                _futaki_formula(n, F(d), q) / (n + 1 - F(d)) ** (n - q)
                for d in range(-(q + 4), 0)
            ]
            assert _finite_difference_degree_at_most(samples, q)


def test_localized_rejects_bad_weights():
    with pytest.raises(ValueError):
        futaki_localized(3, 2, (0, 1, 1, 2))
    with pytest.raises(ValueError):
        futaki_localized(3, 2, (0, 1, 2))
    with pytest.raises(ValueError):
        futaki_localized(3, 2, (0, 1, 2, 3, 4))
    with pytest.raises(TypeError):
        futaki_localized(3, 2, (0, 1, 2, 0.5))


def test_localized_volume():
    """V = int_X c_1^(n-1) = d (n+1-d)^(n-1), independent of the weights."""
    for weights in ((0, 1, 3, 7, 12, 20, 31, 45, 60), (5, -2, 9, 4, 11, -7, 1, 2, 13)):
        for n in range(2, 9):
            for d in range(1, n + 1):
                points = _fixed_points(n, d, weights[: n + 1])
                vol = sum(c[1] ** (n - 1) * u for c, u in points)
                assert vol == d * (n + 1 - d) ** (n - 1)
