"""Unit tests for the exact polynomial layer."""
import random
from fractions import Fraction as F

import numpy as np
import pytest

from hext import ratpoly as rp


def test_eval_and_derivative():
    p = rp.poly([F(22, 3), 0, F(-25, 3), 3])  # 3x^3 - 25/3 x^2 + 22/3
    assert rp.eval_at(p, 1) == 2
    assert rp.eval_at(p, 2) == -2
    assert rp.derivative(p) == rp.poly([0, F(-50, 3), 9])


def test_divmod_reconstructs():
    rng = random.Random(7)
    for _ in range(25):
        a = rp.poly([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))])
        b = rp.poly([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))])
        if not b:
            continue
        q, r = rp.divmod_poly(a, b)
        assert rp.add(rp.mul(q, b), r) == a
        assert rp.degree(r) < rp.degree(b)


def _numpy_root_count(coeffs, a, b):
    # independent oracle: numpy eigenvalue roots, filtered to the interval
    c = [float(x) for x in reversed(coeffs)]
    roots = np.roots(c)
    real = roots[np.abs(roots.imag) < 1e-9].real
    # drop near-duplicates (Sturm counts distinct roots)
    real = np.sort(real)
    distinct = []
    for r in real:
        if not distinct or abs(r - distinct[-1]) > 1e-7:
            distinct.append(r)
    return sum(1 for r in distinct if a < r <= b)


def test_sturm_count_against_numpy_roots():
    rng = random.Random(20260810)
    for _ in range(60):
        deg = rng.randint(1, 5)
        p = rp.poly([F(rng.randint(-6, 6)) for _ in range(deg + 1)])
        if rp.degree(p) < 1:
            continue
        a, b = F(-3), F(3)
        if rp.eval_at(p, a) == 0 or rp.eval_at(p, b) == 0:
            continue
        assert rp.count_roots(p, a, b) == _numpy_root_count(p, float(a), float(b))


def test_isolate_roots_brackets_each_root():
    # (x-1/2)(x-3/2)(x+2) = x^3 + x^2 - 13/4 x + 3/2
    p = rp.mul(rp.mul(rp.poly([-F(1, 2), 1]), rp.poly([-F(3, 2), 1])), rp.poly([2, 1]))
    ivs = rp.isolate_roots(p, F(-3), F(3), F(1, 10 ** 4))
    assert len(ivs) == 3
    roots = [F(-2), F(1, 2), F(3, 2)]
    for (lo, hi), r in zip(ivs, roots):
        assert lo <= r <= hi
        assert hi - lo <= F(1, 10 ** 4)


def test_isolate_certificate_cubic():
    # q'(gamma) for the m=1 certificate coefficients
    qp = rp.poly([F(22, 3), 0, -25, 12])
    ivs = rp.isolate_roots(qp, F(1), F(2), F(1, 10 ** 6))
    assert len(ivs) == 1
    lo, hi = ivs[0]
    assert F(191, 100) < lo < hi < F(192, 100)


def test_interval_eval_encloses_samples():
    rng = random.Random(99)
    p = rp.poly([F(22, 3), 0, F(-25, 3), 3])
    for _ in range(40):
        lo = F(rng.randint(-200, 190), 100)
        hi = lo + F(rng.randint(1, 10), 100)
        enc_lo, enc_hi = rp.interval_eval(p, lo, hi)
        for t in range(5):
            x = lo + (hi - lo) * F(t, 4)
            v = rp.eval_at(p, x)
            assert enc_lo <= v <= enc_hi


@pytest.mark.parametrize("lo,hi", [(-2, -F(1, 2)), (F(1, 2), 2), (-2, 1), (-1, 2)],
                         ids=["below-0", "above-0", "straddle-low", "straddle-high"])
def test_interval_eval_is_tight_on_monomials(lo, hi):
    # x^k takes its extremes over [lo, hi] at the ends or at 0, and the grid
    # of 13 points holds all three, so its min and max are the exact range
    grid = [lo + (hi - lo) * F(j, 12) for j in range(13)]
    for k in range(5):
        xk = rp.poly([0] * k + [1])
        values = [x ** k for x in grid]
        assert rp.interval_eval(xk, lo, hi) == (min(values), max(values))


def test_sqrt_upper_is_tight_upper_bound():
    for x in (F(2), F(5, 3), F(73, 960), F(0), F(10 ** 12)):
        r = rp.sqrt_upper(x)
        assert r * r >= x
        # tightness: (r - 1e-29)^2 < x unless x is tiny
        if x > 0:
            slack = F(1, 10 ** 29)
            assert (r - slack) * (r - slack) < x or r <= slack


def test_sqrt_upper_rejects_negative():
    with pytest.raises(ValueError):
        rp.sqrt_upper(F(-1))


def test_repeated_root_counts_once():
    # (x-1)^2 (x+2) = x^3 - 3x + 2: squarefree divides out the double root
    p = rp.mul(rp.mul(rp.poly([-1, 1]), rp.poly([-1, 1])), rp.poly([2, 1]))
    assert p == rp.poly([2, -3, 0, 1])
    assert rp.squarefree(p) == rp.poly([-2, 1, 1])
    assert rp.count_roots(p, -3, 2) == 2
    ivs = rp.isolate_roots(p, -3, 2, F(1, 100))
    assert len(ivs) == 2
    assert ivs[0][0] < -2 < ivs[0][1] and ivs[1][0] < 1 < ivs[1][1]
