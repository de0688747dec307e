"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are tuples of Fraction coefficients in ascending order.  This is
the substrate for the certified inequality work: root counts on a Sturm chain
held in integers, bisection isolation to a target width (an isolated root is
refined by sign), interval enclosures of polynomial ranges, and rational upper
bounds on square roots.  Nothing here touches floating point.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .errors import _exact, _interval, _width

Poly = Tuple[Fraction, ...]


def poly(coeffs: Iterable) -> Poly:
    """Normalized polynomial (trailing zeros stripped) of int or Fraction coefficients."""
    cs = [_exact(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    return len(p) - 1


def eval_at(p: Poly, x) -> Fraction:
    acc, x = Fraction(0), _exact(x)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return poly(k * c for k, c in enumerate(p) if k)


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, scale(q, -1))


def scale(p: Poly, c) -> Poly:
    c = _exact(c)
    return poly(c * ci for ci in p)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def divmod_poly(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    """(q, r) with a = q*b + r and deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = degree(b)
    q, r = [Fraction(0)] * max(len(a) - db, 1), list(a)
    for k in range(len(a) - 1 - db, -1, -1):
        q[k] = f = r[k + db] / b[-1]
        r[k:k + db + 1] = [x - f * c for x, c in zip(r[k:], b)]
    return poly(q), poly(r[:db])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        _, r = divmod_poly(a, b)
        a, b = b, r
    if a:
        a = scale(a, 1 / a[-1])  # monic for determinism
    return a


def squarefree(p: Poly) -> Poly:
    g = poly_gcd(p, derivative(p))
    if degree(g) <= 0:
        return p
    q, _ = divmod_poly(p, g)
    return q


def sturm_chain(p: Poly) -> List[Poly]:
    chain = [p, derivative(p)]
    while chain[-1]:
        _, r = divmod_poly(chain[-2], chain[-1])
        chain.append(scale(r, -1))
    return [c for c in chain if c]


def _ints(p: Poly) -> Tuple[int, ...]:
    """p times the lcm of its denominators: the same sign at every x."""
    m = math.lcm(*(c.denominator for c in p))
    return tuple(c.numerator * (m // c.denominator) for c in p)


def _sign(p: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial p at x = n/d (d > 0): the sign of
    d^deg p(x) = sum c_i n^i d^(deg - i), by homogeneous Horner in ints."""
    n, d = x.numerator, x.denominator
    acc, dk = 0, 1
    for c in reversed(p):
        acc, dk = acc * n + c * dk, dk * d
    return (acc > 0) - (acc < 0)


def _sturm(p: Poly):
    """The squarefree part of p as _ints, and nroots(lo, hi): its distinct real
    roots in (lo, hi], counted on its Sturm chain in ints; ValueError if p == 0."""
    if not p:
        raise ValueError("the zero polynomial has no finite root count")
    chain = [_ints(c) for c in sturm_chain(squarefree(p))]

    def variations(x):
        signs = [s for s in (_sign(c, x) for c in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return chain[0], lambda lo, hi: variations(lo) - variations(hi)


def _split(sf: Sequence[int], lo: Fraction, hi: Fraction) -> Tuple[Fraction, int]:
    """A point of (lo, hi) where sf does not vanish, and sf's sign there: the
    midpoint, else the first of the nudges lo + (hi - lo) k/257, k = 129, 130,
    ...  A nonzero sf of degree d vanishes at <= d points, so d + 1 nudges
    that all hit a root mean sf == 0: ValueError."""
    mid, k = (lo + hi) / 2, 128
    while not (s := _sign(sf, mid)):
        k += 1
        if k - 128 > len(sf):
            raise ValueError("the squarefree part vanishes identically")
        mid = lo + (hi - lo) * Fraction(k, 257)
    return mid, s


def count_roots(p: Poly, a, b) -> int:
    """Number of distinct real roots of p in (a, b]; ValueError if p == 0."""
    a, b = _interval(a, b)
    _, nroots = _sturm(p)
    return nroots(a, b)


def isolate_roots(p: Poly, a, b, width) -> List[Tuple[Fraction, Fraction]]:
    """Isolating intervals, each of width <= `width`, for the distinct real
    roots of p in (a, b).  Requires a < b, width > 0, p != 0, p(a) != 0 and
    p(b) != 0; all returned interval endpoints are rational non-roots, so
    each interval brackets exactly one root with a strict sign change or
    Sturm count 1.  An interval of one root is halved by sign alone.
    """
    a, b = _interval(a, b)
    width = _width(width)
    sf, nroots = _sturm(p)
    if eval_at(p, a) == 0 or eval_at(p, b) == 0:
        raise ValueError("interval endpoints must not be roots")
    out: List[Tuple[Fraction, Fraction]] = []
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        n = nroots(lo, hi)
        if n == 1:
            # one simple root: sf changes sign across it, and only there
            s_lo = _sign(sf, lo)
            while hi - lo > width:
                mid, s = _split(sf, lo, hi)
                lo, hi = (mid, hi) if s == s_lo else (lo, mid)
            out.append((lo, hi))
        elif n:
            mid, _ = _split(sf, lo, hi)
            stack.append((lo, mid))
            stack.append((mid, hi))
    out.sort(key=lambda iv: iv[0])
    return out


def _pow_interval(lo: Fraction, hi: Fraction, k: int) -> Tuple[Fraction, Fraction]:
    """[min, max] of x^k over [lo, hi]: x^k is monotone there unless k is even,
    k > 0, and 0 lies inside (x^0 = 1 everywhere)."""
    ends = (lo ** k, hi ** k)
    if k and k % 2 == 0 and lo < 0 < hi:
        return Fraction(0), max(ends)
    return min(ends), max(ends)


def interval_eval(p: Poly, lo, hi) -> Tuple[Fraction, Fraction]:
    """Enclosure [min, max] of p over [lo, hi] by monomial interval bounds."""
    lo, hi = _interval(lo, hi, point_ok=True)
    lo_sum, hi_sum = Fraction(0), Fraction(0)
    for k, c in enumerate(p):
        ends = [c * e for e in _pow_interval(lo, hi, k)]
        lo_sum += min(ends)
        hi_sum += max(ends)
    return lo_sum, hi_sum


def sqrt_upper(x) -> Fraction:
    """Rational r with r*r >= x and r - sqrt(x) < 10**-30."""
    x = _exact(x)
    if x < 0:
        raise ValueError("negative radicand")
    s = 10 ** 30
    num = x.numerator * s * s
    ceil_scaled = -((-num) // x.denominator)
    r = math.isqrt(ceil_scaled)
    if r * r < ceil_scaled:
        r += 1
    return Fraction(r, s)
