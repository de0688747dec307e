"""Exact coefficient algebra for the momentum-profile boundary value problem.

The first-order problem on [1, m+1] is

    (2*gamma + phi) * phi' = q(gamma),   q(gamma) = p(gamma) * gamma,
    p(gamma) = A*gamma^3/3 + B*gamma^2/2 + C,

with phi(1) = phi(m+1) = 0.  Imposing p(1) = 2 and p(m+1) = -2 (the smooth
closing of the metric at the two sections) makes A and B affine functions of
the remaining free parameter C; the class index m is >= 1 (m = 0 gives no
Kahler class).  Everything in this module is computed in exact rational
arithmetic; floating point enters only in the integrator, whose _abc rounds
A, B and C for every solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

from .. import ratpoly
from ..errors import _class_index, _shooting_c

Rational = Union[int, float, Fraction]

@dataclass(frozen=True)
class CoeffSet:
    """The shooting parameter C together with the induced linear coefficients.

    Invariants (checked exactly at construction):
        A/3 + B/2 + C == 2
        A*(m+1)^3/3 + B*(m+1)^2/2 + C == -2
    """

    m: int
    C: Fraction
    A: Fraction
    B: Fraction

    def __post_init__(self):
        _class_index(self.m)
        s = self.m + 1
        if self.A / 3 + self.B / 2 + self.C != 2:
            raise ValueError("boundary identity p(1) == 2 violated")
        if self.A * s ** 3 / 3 + self.B * s ** 2 / 2 + self.C != -2:
            raise ValueError("boundary identity p(m+1) == -2 violated")

    @property
    def p(self) -> ratpoly.Poly:
        """p(gamma) = A*gamma^3/3 + B*gamma^2/2 + C, ascending coefficients."""
        return ratpoly.poly([self.C, 0, self.B / 2, self.A / 3])

    @property
    def q(self) -> ratpoly.Poly:
        """q(gamma) = p(gamma) * gamma."""
        return ratpoly.poly([0, *self.p])

    @property
    def P(self) -> ratpoly.Poly:
        """The antiderivative P(gamma) = int_1^gamma q, so P(1) == 0."""
        prim = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.q)]
        prim[0] = -ratpoly.eval_at(prim, 1)
        return ratpoly.poly(prim)


@dataclass(frozen=True)
class LNConstants:
    """The split int_1^{m+1} q dt = L*C + N into C-linear and C-free parts.

    L < 0 and N > 0 hold for every m >= 1, and 2L + N > 2/5; all three are
    enforced at construction.
    """

    m: int
    L: Fraction
    N: Fraction

    def __post_init__(self):
        _class_index(self.m)
        if not (self.L < 0 and self.N > 0):
            raise ValueError("expected L < 0 and N > 0")
        if not (2 * self.L + self.N > Fraction(2, 5)):
            raise ValueError("expected 2L + N > 2/5")

    def lc_plus_n(self, C: Rational) -> Fraction:
        """L*C + N at C as coeffs_from_C takes it (errors._shooting_c)."""
        return self.L * _shooting_c(C) + self.N


@lru_cache(maxsize=128)
def _linear_maps(m: int) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """A(C) = a1*C + a0 and B(C) = b1*C + b0, computed once per m."""
    s = Fraction((m + 1) ** 2)
    mm = Fraction(m)
    a1 = 3 / mm * (1 - 1 / s)
    a0 = -6 / mm * (1 / s + 1)
    b1 = -2 * (1 + 1 / mm - 1 / (mm * s))
    b0 = 4 + 4 / mm * (1 + 1 / s)
    return a1, a0, b1, b0


def coeffs_from_C(m: int, C: Rational) -> CoeffSet:
    """Resolve the boundary constraints p(1) = 2, p(m+1) = -2 for C, an int,
    a Fraction or a finite float (a bool or another type raises TypeError)."""
    _class_index(m)
    C = _shooting_c(C)
    a1, a0, b1, b0 = _linear_maps(m)
    return CoeffSet(m=m, C=C, A=a1 * C + a0, B=b1 * C + b0)


def hcsck_coeffs(m: int) -> CoeffSet:
    """The unique coefficient set with A == 0 (constant lambda): C_h is the
    root -a0/a1 of A(C) = a1*C + a0 (a1 > 0 for every m), which is
    2 + 4/((m+1)^2 - 1); B then follows from the boundary constraints.
    """
    _class_index(m)  # before _linear_maps divides by m
    a1, a0, _, _ = _linear_maps(m)
    return coeffs_from_C(m, -a0 / a1)


def compute_LN(m: int) -> LNConstants:
    """Split the exact integral int_1^{m+1} p(t)*t dt into L*C + N."""
    _class_index(m)
    a1, a0, b1, b0 = _linear_maps(m)
    s = m + 1
    i5 = Fraction(s ** 5 - 1, 15)
    i4 = Fraction(s ** 4 - 1, 8)
    i2 = Fraction(s ** 2 - 1, 2)
    L = a1 * i5 + b1 * i4 + i2
    N = a0 * i5 + b0 * i4
    return LNConstants(m=m, L=L, N=N)
