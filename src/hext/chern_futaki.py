"""Chern-form coefficient tables and Bando-Futaki invariants of hypersurfaces.

For a smooth degree-d hypersurface in CP^n (d <= n) the q-th Chern form
decomposes as sum_k alpha_{q,k} * omega^k * (dd^c xi)^{q-k} with integer
coefficients alpha_{q,k}.  The table is computed three independent ways and
must agree entrywise:

  * alpha_recursive - the triangular recurrences;
  * alpha_closed    - the explicit double sum per entry;
  * alpha_series    - expanding (1+t*omega)^{n+1} / (1 + t*(d*omega + eta))
                      in the truncated ring and reading off t^q.

futaki_closed evaluates the closed formula for the q-th Bando-Futaki
invariant as an exact rational multiple of the eigenvalue kappa of the
defining polynomial under the vector field.  futaki_localized computes the
same invariants independently, by equivariant localization on CP^n at
chosen torus weights, and must equal the closed values times kappa.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from typing import List, Tuple

from .errors import SeriesMismatch, _integer, _weights
from .graded_algebra import TruncatedPoly

# the largest ambient dimension: the suite checks the three alpha methods
# against each other, and the closed invariants against localization, for
# every n up to here
MAX_N = 8


def _hypersurface(n: int, d: int) -> None:
    """InvalidInput unless 2 <= n <= MAX_N and 1 <= d <= n: the degree-d
    hypersurfaces in CP^n that the tables and invariants take."""
    _integer("the ambient dimension n", n, 2, MAX_N)
    _integer("the degree d (at most n)", d, 1, n)


def _diagonal(n: int, d: int, q: int) -> Fraction:
    return Fraction(sum((-d) ** j * comb(n + 1, q - j) for j in range(q + 1)))


@dataclass(frozen=True)
class AlphaTable:
    """Triangular array alpha[q][k] = entries[q][k], 0 <= k <= q <= n-1;
    == compares (n, d, entries)."""

    n: int
    d: int
    entries: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        _hypersurface(self.n, self.d)
        if len(self.entries) != self.n:
            raise ValueError("table must have rows q = 0 .. n-1")
        for q, row in enumerate(self.entries):
            if len(row) != q + 1:
                raise ValueError(f"row {q} must have {q + 1} entries")
            if row[0] != (-1) ** q:
                raise ValueError(f"alpha[{q}][0] must be (-1)^{q}")
            if row[q] != _diagonal(self.n, self.d, q):
                raise ValueError(f"alpha[{q}][{q}] violates the diagonal sum")
        if any(v.denominator != 1 for row in self.entries for v in row):
            raise ValueError("alpha entries must be integers")


def alpha_recursive(n: int, d: int) -> AlphaTable:
    """Table from the triangular recurrences

        alpha_{00} = 1,
        alpha_{qq} = binom(n+1, q) - d * alpha_{(q-1)(q-1)},
        alpha_{q(q-k)} = -(d * alpha_{(q-1)(q-k-1)} + alpha_{(q-1)(q-k)}),
        alpha_{q0} = (-1)^q.
    """
    _hypersurface(n, d)
    rows: List[List[Fraction]] = [[Fraction(1)]]
    for q in range(1, n):
        prev = rows[q - 1]
        row = [Fraction(0)] * (q + 1)
        row[0] = Fraction((-1) ** q)
        row[q] = Fraction(comb(n + 1, q)) - d * prev[q - 1]
        for k in range(1, q):  # fills alpha_{q, q-k}
            row[q - k] = -(d * prev[q - k - 1] + prev[q - k])
        rows.append(row)
    return AlphaTable(n=n, d=d, entries=tuple(tuple(r) for r in rows))


def alpha_closed(n: int, d: int) -> AlphaTable:
    """Table from the per-entry double sum

        alpha_{a,k} = sum_{b=0}^{k} binom(n+1, b) d^(k-b) (-1)^(a-b) binom(a-b, k-b).

    Independent code path from the recursion on purpose.
    """
    _hypersurface(n, d)
    rows = []
    for a in range(n):
        row = []
        for k in range(a + 1):
            total = Fraction(0)
            for b in range(k + 1):
                total += (
                    comb(n + 1, b)
                    * Fraction(d) ** (k - b)
                    * (-1) ** (a - b)
                    * comb(a - b, k - b)
                )
            row.append(total)
        rows.append(tuple(row))
    return AlphaTable(n=n, d=d, entries=tuple(rows))


def _table_from_series(series: TruncatedPoly, n: int, d: int) -> AlphaTable:
    rows = []
    for q in range(n):
        coeff = series.t_coefficient(q)
        for (b, c), v in coeff.items():
            if b + c != q and v != 0:
                raise SeriesMismatch(
                    f"t^{q} coefficient has a term omega^{b} eta^{c} of total "
                    f"degree {b + c} != {q}"
                )
        row = tuple(coeff.get((k, q - k), Fraction(0)) for k in range(q + 1))
        rows.append(row)
    return AlphaTable(n=n, d=d, entries=tuple(rows))


def alpha_series(n: int, d: int) -> AlphaTable:
    """Table read off the generating series

        (1 + t*omega)^(n+1) / (1 + t*(d*omega + eta))

    in the truncated ring; the t^q coefficient must be homogeneous of total
    (omega, eta)-degree q, which is checked and raised as SeriesMismatch
    otherwise.
    """
    _hypersurface(n, d)
    t = TruncatedPoly.t(n)
    w = TruncatedPoly.omega(n)
    e = TruncatedPoly.eta(n)
    numer = (1 + t * w) ** (n + 1)
    denom = 1 + t * (w * d + e)
    series = numer * denom.inv()
    return _table_from_series(series, n, d)


@dataclass(frozen=True)
class FutakiValue:
    """F_q = r * kappa for the exact rational r stored here."""

    n: int
    d: int
    q: int
    r: Fraction

    def __post_init__(self):
        if self.d == 1 and self.r != 0:
            raise ValueError("hyperplanes must have vanishing invariant")


def _futaki_formula(n: int, d, q: int) -> Fraction:
    """The closed expression, evaluated at arbitrary rational d (tests use
    this to probe polynomial structure outside the geometric range)."""
    d = Fraction(d)
    total = sum(
        (-d) ** j * (j + 1) * comb(n, q - j - 1) for j in range(q)
    )
    return -((n + 1 - d) ** (n - q)) * Fraction((d - 1) * (n + 1), n) * total


def futaki_closed(n: int, d: int, q: int) -> FutakiValue:
    """Closed formula for the q-th invariant, 1 <= q <= n-1:

        F_q = -(n+1-d)^(n-q) * (d-1)(n+1)/n
              * sum_{j=0}^{q-1} (-d)^j (j+1) binom(n, q-j-1) * kappa.
    """
    _hypersurface(n, d)
    _integer("the invariant index q (at most n - 1)", q, 1, n - 1)
    return FutakiValue(n=n, d=d, q=q, r=_futaki_formula(n, d, q))


def _fixed_points(n: int, d: int, weights) -> List[Tuple[List[Fraction], Fraction]]:
    """(c, e_i/D_i) at each fixed point p_i, i >= 1, of X = {x_0^d = 0} in CP^n
    under the torus with distinct rational weights w_0..w_n: c[q] is the t^q
    coefficient of prod_{j!=i}(1 + t(w_j - w_i)) / (1 + t e_i), e_i = d(w_0 - w_i)
    and D_i = prod_{j!=i}(w_j - w_i).  p_0 is not on X (e_0 = 0)."""
    _hypersurface(n, d)
    w = _weights(n, weights)
    points = []
    for i in range(1, n + 1):
        e = d * (w[0] - w[i])
        tangent = [w[j] - w[i] for j in range(n + 1) if j != i]
        c = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for x in tangent:
            for k in range(n - 1, 0, -1):
                c[k] += x * c[k - 1]
        for k in range(1, n):  # divide by 1 + t e
            c[k] -= e * c[k - 1]
        points.append((c, e / prod(tangent)))
    return points


def futaki_localized(n: int, d: int, weights) -> Tuple[Fraction, ...]:
    """(F_1, ..., F_{n-1}) of X = {x_0^d = 0} by Atiyah-Bott localization.

    With the moment normalisation omega = c_1 - s, s = int c_1^n / (n V),
    V = int c_1^(n-1), int omega^n vanishes and so does the harmonic term:
    F_q = int c_q omega^(n-q).  Equals futaki_closed(n, d, q).r * kappa with
    kappa = d(w_0 - mean w); shares no code with the closed formula.
    """
    points = _fixed_points(n, d, weights)
    vol = sum(c[1] ** (n - 1) * u for c, u in points)
    s = sum(c[1] ** n * u for c, u in points) / (n * vol)
    return tuple(
        sum(c[q] * (c[1] - s) ** (n - q) * u for c, u in points) for q in range(1, n)
    )
