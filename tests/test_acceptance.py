"""Acceptance suite.

Each test implements one exit criterion at its stated tolerance and prints a
single pass/fail line (visible with `pytest -s`).  Criterion 8 compares the
closed Bando-Futaki formula with its equivariant localization exactly; a
companion test corrupts one closed value and checks that criterion 8 names it.
"""
import contextlib
import random
import time
from fractions import Fraction as F
from math import comb

import mpmath
import numpy as np

from hext import (
    IntegratorConfig,
    admissible_C_max,
    alpha_closed,
    alpha_recursive,
    alpha_series,
    certify_m1,
    coeffs_from_C,
    compute_LN,
    futaki_closed,
    futaki_localized,
    hcsck_nonexistence,
    integrate_v,
    rank1_check,
    residual_check,
    scalar_projector_check,
    shoot,
)


@contextlib.contextmanager
def _criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {label}: PASS", flush=True)


def test_criterion_1_m1_certificate():
    with _criterion("1 (m=1 certificate, exact)"):
        t0 = time.perf_counter()
        cert = certify_m1()
        elapsed = time.perf_counter() - t0
        assert cert.all_pass
        assert cert.claim("L_value").lhs == F(-33, 80)
        assert cert.claim("N_value").lhs == F(11, 8)
        assert cert.claim("LCplusN").lhs == F(-33, 20)
        assert cert.claim("delta_prime").lhs == 4
        assert cert.claim("A_value").lhs == 9
        assert cert.details["gamma0_lo"] > F(6, 5)
        assert cert.details["gamma0_hi"] < F(13, 10)
        assert cert.claim("q_min_bound").lhs > F(-9, 2)
        assert cert.claim("v2_upper_bound").lhs <= F(15, 2)
        assert elapsed < 1.0


def test_criterion_2_m1_shooting():
    with _criterion("2 (m=1 shooting)"):
        t0 = time.perf_counter()
        res = shoot(1)
        elapsed = time.perf_counter() - t0
        assert 2 < res.c_star < 22 / 3
        assert abs(res.trajectory.v[-1] - 8.0) < 1e-8
        assert abs(res.phi_prime_end + 1.0) < 1e-5
        assert res.trajectory.interior_positive()
        assert residual_check(res.trajectory) < 1e-6
        assert abs(res.a_slope) > 1e-3
        assert elapsed < 5.0


def test_criterion_3_hcsck_nonexistence():
    with _criterion("3 (hcscK non-existence, m=1..5)"):
        t0 = time.perf_counter()
        for m in range(1, 6):
            rep = hcsck_nonexistence(m)
            assert rep.coeffs.A == 0
            assert rep.margin > 0.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0


def test_criterion_4_ode_property_suite():
    with _criterion("4 (ODE property suite)"):
        rng = random.Random(20260810)
        mpmath.mp.dps = 30
        pairs = []
        while len(pairs) < 50:
            m = rng.randint(1, 10)
            cmax = admissible_C_max(m, F(1, 100))
            c = cmax - F(rng.randint(0, 5000), 100)
            pairs.append((m, c))
        for m, c in pairs:
            ln = compute_LN(m)
            traj = integrate_v(m, c)
            floor = 2.0 + min(0.0, float(ln.lc_plus_n(c))) - 1e-6
            assert traj.v.min() >= floor
            # independent quadrature of q against the exact L*C + N split
            a, b, cc = (float(x) for x in coeffs_from_C(m, c).float_abc())
            val = mpmath.quad(
                lambda t: (a / 3 * t ** 3 + b / 2 * t ** 2 + cc) * t, [1, m + 1]
            )
            assert abs(float(val) - float(ln.lc_plus_n(c))) < 1e-10
        # grid-refinement stability
        cfg = IntegratorConfig()
        for m, c in ((1, F(22, 3)), (1, 2), (7, 2)):
            d1 = integrate_v(m, c, cfg).defect
            d2 = integrate_v(m, c, cfg.halved()).defect
            assert abs(d1 - d2) < 10 * cfg.rel_tol


def test_criterion_5_alpha_tables():
    with _criterion("5 (alpha tables, three-way exact)"):
        t0 = time.perf_counter()
        for n in range(2, 9):
            for d in range(1, n + 1):
                a = alpha_recursive(n, d)
                assert a.same_entries(alpha_closed(n, d))
                assert a.same_entries(alpha_series(n, d))
        for n in range(2, 9):
            hyperplane = alpha_recursive(n, 1)
            for q in range(n):
                assert hyperplane.get(q, q) == comb(n, q)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0


def test_criterion_6_futaki_closed():
    with _criterion("6 (Futaki closed formula)"):
        for n in range(2, 9):
            for q in range(1, n):
                assert futaki_closed(n, 1, q).r == 0
        assert futaki_closed(2, 2, 1).r == F(-3, 2)
        assert futaki_closed(3, 3, 2).r == 8


def test_criterion_7_grassmann_lemma():
    with _criterion("7 (Grassmann determinant lemma)"):
        for k in (1, 2, 3, 4, 5, 6):
            assert rank1_check(k).passed
        assert scalar_projector_check([[1, 1], [2, 2]], 3).passed
        assert scalar_projector_check([[4, 0], [0, 4]], 4).passed
        assert scalar_projector_check([[0, 0], [0, 0]], 1).passed


LOCALIZATION_WEIGHTS = ((0, 1, 3, 7, 12, 20, 31, 45, 60), (5, -2, 9, 4, 11, -7, 1, 2, 13))


def _localization_mismatches(weights):
    """(n, d, q), 2 <= n <= 8, where futaki_localized at the first n+1 weights
    differs from futaki_closed(n, d, q).r * kappa."""
    bad = []
    for n in range(2, 9):
        w = weights[: n + 1]
        for d in range(1, n + 1):
            kappa = d * (w[0] - F(sum(w), n + 1))
            assert kappa != 0
            local = futaki_localized(n, d, w)
            closed = [futaki_closed(n, d, q).r * kappa for q in range(1, n)]
            bad += [(n, d, q) for q in range(1, n) if local[q - 1] != closed[q - 1]]
    return bad


def test_criterion_8_futaki_localization():
    with _criterion("8 (Futaki closed formula = localization, exact)"):
        for weights in LOCALIZATION_WEIGHTS:
            assert _localization_mismatches(weights) == []


def test_criterion_8_catches_a_corrupted_closed_value(monkeypatch):
    import hext.chern_futaki as cf

    formula = cf._futaki_formula

    def corrupted(n, d, q):
        return formula(n, d, q) + (F(1, 1000) if (n, d, q) == (5, 3, 2) else 0)

    monkeypatch.setattr(cf, "_futaki_formula", corrupted)
    for weights in LOCALIZATION_WEIGHTS:
        assert _localization_mismatches(weights) == [(5, 3, 2)]
