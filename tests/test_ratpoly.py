"""Unit tests for the exact polynomial layer."""
import random
import signal
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def _oracle_variations(chain, x):
    signs = [v > 0 for v in (rp.eval_at(c, x) for c in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _oracle_count(chain, lo, hi):
    return _oracle_variations(chain, lo) - _oracle_variations(chain, hi)


def _oracle_isolate(p, a, b, width):
    """The reference for isolate_roots: bisection by Sturm counts on the
    Fraction chain alone, down to the width, with the same midpoint nudges."""
    pp = rp.squarefree(p)
    chain = rp.sturm_chain(pp)
    out, stack = [], [(a, b)]
    while stack:
        lo, hi = stack.pop()
        n = _oracle_count(chain, lo, hi)
        if n == 0:
            continue
        if n == 1 and hi - lo <= width:
            out.append((lo, hi))
            continue
        mid, k = (lo + hi) / 2, 128
        while rp.eval_at(pp, mid) == 0:
            k += 1
            mid = lo + (hi - lo) * F(k, 257)
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(out)


_POINT = st.integers(-12, 12).map(lambda k: F(k, 4))
_COEFF = st.one_of(st.integers(-9, 9), st.builds(F, st.integers(-9, 9), st.integers(1, 12)))


@st.composite
def _polys(draw):
    """A nonzero polynomial with integer or rational coefficients times
    rational roots of multiplicity up to 3, and those roots."""
    p = rp.poly(draw(st.lists(_COEFF, min_size=1, max_size=5)))
    assume(p)
    roots = draw(st.lists(st.tuples(_POINT, st.integers(1, 3)), max_size=3))
    for r, k in roots:
        for _ in range(k):
            p = rp.mul(p, rp.poly([-r, 1]))
    return p, [r for r, _ in roots]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_polys(), _POINT, st.integers(1, 24),
       st.sampled_from([F(1), F(1, 10), F(1, 64), F(1, 1000)]))
def test_integer_chain_matches_the_fraction_oracle(p_roots, a, quarters, width):
    # roots and endpoints share a grid of quarters, so midpoints often hit a
    # root and take the nudges
    p, roots = p_roots
    b = a + F(quarters, 4)
    chain = rp.sturm_chain(rp.squarefree(p))
    for lo, hi in [(a, b)] + [(a, r) for r in roots if a < r] + [(r, b) for r in roots if r < b]:
        assert rp.count_roots(p, lo, hi) == _oracle_count(chain, lo, hi)
    assume(rp.eval_at(p, a) and rp.eval_at(p, b))
    assert rp.isolate_roots(p, a, b, width) == _oracle_isolate(p, a, b, width)


def test_a_vanishing_squarefree_part_ends_the_nudges(monkeypatch):
    # a nonzero squarefree part of degree d vanishes at <= d points, so d + 1
    # nudges that all hit a root must end in an error, not an endless loop
    sturm = rp._sturm

    def vanishing(p):
        sf, nroots = sturm(p)
        return (0,) * len(sf), nroots

    def timeout(*_):
        raise TimeoutError("isolate_roots kept nudging")

    monkeypatch.setattr(rp, "_sturm", vanishing)
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="the squarefree part vanishes identically"):
            rp.isolate_roots(rp.poly([-2, 0, 1]), -2, 2, F(1, 10))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
