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
defining polynomial under the vector field.  futaki_series_diag is a
diagnostic re-derivation through the generating-series pipeline whose
absolute normalization is deliberately left free; it reports the ratio to
the closed formula across degrees rather than asserting equality.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Tuple

from .errors import SeriesMismatch
from .graded_algebra import TruncatedPoly
from .ratpoly import _frac_str

DEFAULT_MAX_N = 8


def table_size_cap() -> int:
    """Ambient-dimension cap; overridable via the HEXT_MAX_N environment variable."""
    raw = os.environ.get("HEXT_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"HEXT_MAX_N must be an integer, got {raw!r}")


@dataclass(frozen=True)
class HypersurfaceParams:
    """Degree-d hypersurface in CP^n with d <= n."""

    n: int
    d: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError("ambient dimension n must be an integer >= 2")
        if not isinstance(self.d, int) or not 1 <= self.d <= self.n:
            raise ValueError("degree d must satisfy 1 <= d <= n")


def _check_cap(n: int) -> None:
    cap = table_size_cap()
    if n > cap:
        raise ValueError(f"n={n} exceeds the configured cap {cap}")


def _diagonal(n: int, d: int, q: int) -> Fraction:
    return Fraction(sum((-d) ** j * comb(n + 1, q - j) for j in range(q + 1)))


@dataclass(frozen=True)
class AlphaTable:
    """Triangular array alpha[q][k], 0 <= k <= q <= n-1, with provenance."""

    n: int
    d: int
    entries: Tuple[Tuple[Fraction, ...], ...]
    provenance: str

    def __post_init__(self):
        HypersurfaceParams(self.n, self.d)
        if self.provenance not in ("recursion", "closed", "series"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if len(self.entries) != self.n:
            raise ValueError("table must have rows q = 0 .. n-1")
        for q, row in enumerate(self.entries):
            if len(row) != q + 1:
                raise ValueError(f"row {q} must have {q + 1} entries")
            if row[0] != (-1) ** q:
                raise ValueError(f"alpha[{q}][0] must be (-1)^{q}")
            if row[q] != _diagonal(self.n, self.d, q):
                raise ValueError(f"alpha[{q}][{q}] violates the diagonal sum")
        if self.entries[0][0] != 1:
            raise ValueError("alpha[0][0] must be 1")

    def get(self, q: int, k: int) -> Fraction:
        return self.entries[q][k]

    def same_entries(self, other: "AlphaTable") -> bool:
        return (
            self.n == other.n and self.d == other.d and self.entries == other.entries
        )

    def to_csv(self) -> str:
        """Rows q,k,alpha with exact integer strings."""
        lines = ["q,k,alpha"]
        for q, row in enumerate(self.entries):
            for k, v in enumerate(row):
                if v.denominator != 1:
                    raise ValueError("alpha entries must be integers")
                lines.append(f"{q},{k},{v.numerator}")
        return "\n".join(lines) + "\n"


def alpha_recursive(n: int, d: int) -> AlphaTable:
    """Table from the triangular recurrences

        alpha_{00} = 1,
        alpha_{qq} = binom(n+1, q) - d * alpha_{(q-1)(q-1)},
        alpha_{q(q-k)} = -(d * alpha_{(q-1)(q-k-1)} + alpha_{(q-1)(q-k)}),
        alpha_{q0} = (-1)^q.
    """
    HypersurfaceParams(n, d)
    _check_cap(n)
    rows: List[List[Fraction]] = [[Fraction(1)]]
    for q in range(1, n):
        prev = rows[q - 1]
        row = [Fraction(0)] * (q + 1)
        row[0] = Fraction((-1) ** q)
        row[q] = Fraction(comb(n + 1, q)) - d * prev[q - 1]
        for k in range(1, q):  # fills alpha_{q, q-k}
            row[q - k] = -(d * prev[q - k - 1] + prev[q - k])
        rows.append(row)
    return AlphaTable(
        n=n, d=d, entries=tuple(tuple(r) for r in rows), provenance="recursion"
    )


def alpha_closed(n: int, d: int) -> AlphaTable:
    """Table from the per-entry double sum

        alpha_{a,k} = sum_{b=0}^{k} binom(n+1, b) d^(k-b) (-1)^(a-b) binom(a-b, k-b).

    Independent code path from the recursion on purpose.
    """
    HypersurfaceParams(n, d)
    _check_cap(n)
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
    return AlphaTable(n=n, d=d, entries=tuple(rows), provenance="closed")


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
    return AlphaTable(n=n, d=d, entries=tuple(rows), provenance="series")


def alpha_series(n: int, d: int) -> AlphaTable:
    """Table read off the generating series

        (1 + t*omega)^(n+1) / (1 + t*(d*omega + eta))

    in the truncated ring; the t^q coefficient must be homogeneous of total
    (omega, eta)-degree q, which is checked and raised as SeriesMismatch
    otherwise.
    """
    HypersurfaceParams(n, d)
    _check_cap(n)
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

    def to_json(self) -> str:
        obj = {
            "n": self.n,
            "d": self.d,
            "q": self.q,
            "value": _frac_str(self.r),
            "kappa_coefficient": True,
        }
        return json.dumps(obj, sort_keys=True) + "\n"


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
    HypersurfaceParams(n, d)
    if not 1 <= q <= n - 1:
        raise ValueError("need 1 <= q <= n-1")
    return FutakiValue(n=n, d=d, q=q, r=_futaki_formula(n, d, q))


@dataclass
class DiagnosticOracle:
    """Series-pipeline value with its d-ratio report for fixed (n, q).

    The pipeline drops the overall normalization (powers of 2*pi and the
    substitution t -> sqrt(-1)/(2*pi) compress several conventions), so the
    informative output is the ratio to the closed formula across degrees; a
    ratio varying with d is reported, never raised.
    """

    n: int
    d: int
    q: int
    kappa: Fraction
    value: Fraction
    ratios: Dict[int, Optional[Fraction]] = field(default_factory=dict)

    @property
    def ratio_constant_in_d(self) -> Optional[bool]:
        vals = [r for r in self.ratios.values() if r is not None]
        if not vals:
            return None
        return all(v == vals[0] for v in vals)


def _diag_value(n: int, d: int, q: int) -> Fraction:
    """t^q coefficient of the series pipeline, as a multiple of kappa.

    The integrand -(theta-term + kappa-term) is wedged with sum_j omega^j and
    integrated via the substitution rules theta*omega^(n-1) -> kappa/n and
    omega^(n-1) -> d (all other monomials integrate to zero).  theta is a
    commuting degree-0 bookkeeping symbol appearing at most linearly, so the
    two parts are tracked as separate (t, omega)-series with theta and kappa
    factored out.
    """
    t = TruncatedPoly.t(n)
    w = TruncatedPoly.omega(n)
    inv_sq = ((1 + t * w * d) ** 2).inv()
    # theta part: t*(1+t*omega)^n * (d - (n+1) - n*t*omega*d) / (1+t*omega*d)^2
    theta_core = t * (1 + t * w) ** n * ((d - (n + 1)) + t * w * (-n * d)) * inv_sq
    # kappa (harmonic) part: t^2*(1+t*omega)^(n+1) / (1+t*omega*d)^2
    kappa_core = t * t * (1 + t * w) ** (n + 1) * inv_sq
    wedge = TruncatedPoly.zero(n)
    for j in range(n):
        wedge = wedge + w ** j
    theta_total = -theta_core * wedge
    kappa_total = -kappa_core * wedge
    return theta_total.coefficient(q, n - 1, 0) * Fraction(1, n) + kappa_total.coefficient(
        q, n - 1, 0
    ) * d


def futaki_series_diag(n: int, d: int, q: int, kappa: Fraction = Fraction(1)) -> DiagnosticOracle:
    """Diagnostic series value at (n, d, q) with the ratio report over
    d' in {2, ..., n} for the same (n, q).  Linear in kappa by construction."""
    HypersurfaceParams(n, d)
    _check_cap(n)
    if not 1 <= q <= n - 1:
        raise ValueError("need 1 <= q <= n-1")
    kappa = Fraction(kappa)
    value = _diag_value(n, d, q) * kappa
    ratios: Dict[int, Optional[Fraction]] = {}
    for dd in range(2, n + 1):
        closed = _futaki_formula(n, dd, q)
        if closed == 0:
            ratios[dd] = None
        else:
            ratios[dd] = _diag_value(n, dd, q) / closed
    return DiagnosticOracle(n=n, d=d, q=q, kappa=kappa, value=value, ratios=ratios)
