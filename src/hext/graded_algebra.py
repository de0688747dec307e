"""Finite exterior algebra and nilpotent-truncated series arithmetic.

Two exact engines live here, built on one sparse-polynomial core
(_SparsePoly): a map from monomial keys to exact rational coefficients with
the shared sum, difference, negation, scalar multiple, equality and repr.
GrassmannElement is a polynomial in a central even variable lambda over the
exterior algebra on n_gen odd generators; its lambda-free elements are the
exterior algebra itself; it keys a monomial by one int, power << n_gen | mask.
It exists to verify the rank-one determinant identities
det(I - lam*A) * (1 - lam*a) = 1 and (I - lam*A)^{-1} = I + lam/(1 - lam*a) * A
for A_ij = alpha_i * beta_j.  A matrix is a list of rows.  _det works over any
commutative ring with +, - and *; _matmul takes GrassmannElements and sums
each entry into one dict.
TruncatedPoly is a commutative polynomial ring in (t, omega, eta) where every
monomial with omega-degree + eta-degree >= n vanishes (forms above top degree
on an (n-1)-dimensional space) and t is kept to degree <= n; it is the series
engine behind the Chern coefficient tables.  Each type adds its own key
rule, monomial text and product; both invert 1 - x for nilpotent x by one
finite geometric series (_geometric).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Tuple, Union

from .errors import (
    GeneratorMismatch,
    NotIdempotentFamily,
    NotInvertible,
    TruncationMismatch,
    _exact,
    _integer,
)

Scalar = Union[int, Fraction]
Key = Union[int, Tuple[int, ...]]  # a stored monomial key: packed int or exponent tuple


def _compact(terms: Dict[Key, Scalar]) -> Dict[Key, Scalar]:
    """terms without zeros, integral coefficients as ints."""
    return {key: c.numerator if c.denominator == 1 else c for key, c in terms.items() if c}


class _SparsePoly:
    """Sparse polynomial over Q: terms maps a monomial key to an exact
    coefficient, an int when integral and a Fraction otherwise; zero
    coefficients are never stored.  _ring is the integer that fixes the ring
    (generator count, truncation order); operands over different rings raise
    _mismatch.

    The public constructor checks the ring parameter, every key (_key returns
    the key to store, None when the monomial vanishes) and every coefficient
    once; operator results are built unchecked by _new.  __mul__ stays in each
    subclass body, so each product is a name of its own class (perfbench
    wraps it there).
    """

    __slots__ = ("_ring", "terms")
    # a subclass sets _least (smallest ring parameter), _what (its name in
    # messages), _mismatch (an exception type), _key(key) and _monomial(key)

    def __init__(self, ring: int, terms: Optional[Dict[tuple, Scalar]] = None):
        _integer(self._what, ring, self._least)
        self._ring = ring
        stored = ((self._key(key), c) for key, c in (terms or {}).items())
        self.terms = _compact({key: _exact(c) for key, c in stored if key is not None})

    def _new(self, terms: Dict[Key, Scalar]):
        """An element over self's ring with terms as given: checked, exact and
        compact already."""
        out = object.__new__(type(self))
        out._ring = self._ring
        out.terms = terms
        return out

    def _operand(self, other):
        """other as an element to add to self, or None if it cannot be one."""
        return other if isinstance(other, type(self)) else None

    def _check(self, other: "_SparsePoly") -> None:
        if self._ring != other._ring:
            raise self._mismatch(f"{self._what} differs: {self._ring} vs {other._ring}")

    def _plus(self, other, sign: int):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)  # already compact; only touched keys change
        for key, c in other.terms.items():
            c = out.pop(key, 0) + sign * c
            if c:
                out[key] = c.numerator if c.denominator == 1 else c
        return self._new(out)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def _scale(self, value: Scalar):
        """self times the int or Fraction value."""
        return self._new(_compact({key: c * value for key, c in self.terms.items()}))

    def __eq__(self, other) -> bool:
        return (isinstance(other, type(self)) and self._ring == other._ring
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        parts = [f"{c}*{self._monomial(key)}" for key, c in sorted(self.terms.items())]
        return f"{type(self).__name__}({' + '.join(parts) or 0})"


@functools.lru_cache(maxsize=1 << 12)
def _below_parity(b: int) -> int:
    """Bitmask (negative when infinite) whose bit i is the parity of the
    generators of b below i.  For disjoint a, b the sign of e_a * e_b is the
    parity of (a & _below_parity(b)).bit_count(); cut it to the low n_gen
    bits before it meets a packed key, whose higher bits hold the power."""
    q = 0
    while b:
        low = b & -b
        q ^= -(low << 1)  # every bit above this generator
        b ^= low
    return q


@functools.lru_cache(maxsize=1 << 12)
def _above_parity(a: int) -> int:
    """The mirror of _below_parity: bit i is the parity of the generators of
    a above i, so (b & _above_parity(a)) has the parity of (a & _below_parity(b))."""
    return _below_parity(a) ^ a ^ -(a.bit_count() & 1)  # all of a, less below i and at i


def _label(mask: int) -> str:
    """Monomial text of a generator bitmask: e01*e03 for 0b101, 1 for 0."""
    if mask == 0:
        return "1"
    return "*".join(f"e{i + 1:02d}" for i in range(mask.bit_length()) if mask >> i & 1)


class GrassmannElement(_SparsePoly):
    """Polynomial in a central even variable lambda over the exterior algebra
    on n_gen >= 0 odd generators (n_gen = 0 gives polynomials over Q).

    The constructor takes terms keyed by (lambda power, generator-subset
    bitmask); terms keys each by power << n_gen | bitmask, which sorts by
    power, then bitmask.  Scalars enter + and - only through scalar.
    """

    __slots__ = ()
    _least, _what, _mismatch = 0, "the number of generators", GeneratorMismatch
    n_gen = property(lambda self: self._ring)

    def _key(self, key: Tuple[int, int]) -> int:
        power, mask = key
        _integer("the lambda power", power, 0)
        _integer("the generator bitmask", mask, 0, (1 << self._ring) - 1)
        return power << self._ring | mask

    def _monomial(self, key: int) -> str:
        """lambda^2*e01 for the key of (2, 0b1); the generator label alone at power 0."""
        power, mask = divmod(key, 1 << self._ring)
        return _label(mask) if power == 0 else f"lambda^{power}*{_label(mask)}"

    @classmethod
    def scalar(cls, n_gen: int, value: Scalar) -> "GrassmannElement":
        return cls(n_gen, {(0, 0): value})

    @classmethod
    def generator(cls, n_gen: int, i: int) -> "GrassmannElement":
        _integer("the generator index", i, 0, n_gen - 1)
        return cls(n_gen, {(0, 1 << i): 1})

    @classmethod
    def lam(cls, n_gen: int) -> "GrassmannElement":
        """The variable lambda."""
        return cls(n_gen, {(1, 0): 1})

    def __mul__(self, other) -> "GrassmannElement":
        if type(other) is not GrassmannElement:  # element * element skips both checks
            if isinstance(other, (int, Fraction)):
                return self._scale(other)
            if not isinstance(other, GrassmannElement):
                return NotImplemented
        return self._new(_compact(self._mul_into({}, other)))

    def _mul_into(self, out: Dict[int, Scalar], other: "GrassmannElement"):
        """Add self * other into the dict out, uncompacted; return out.  The
        factor with fewer terms runs outside, its sign mask looked up once per
        term; the product of disjoint monomials is keyed by the sum of keys."""
        self._check(other)
        low = (1 << self._ring) - 1
        outer, inner, parity = self.terms, other.terms.items(), _above_parity
        if len(outer) > len(inner):
            outer, inner, parity = other.terms, outer.items(), _below_parity
        for ko, co in outer.items():
            mo = ko & low
            sign = parity(mo) & low
            for ki, ci in inner:
                if ki & mo:
                    continue  # repeated odd generator squares to zero
                c = co * ci
                out[ko + ki] = out.get(ko + ki, 0) + (-c if (ki & sign).bit_count() & 1 else c)
        return out

    __rmul__ = __mul__  # reached only with a scalar or foreign left operand

    def witness(self) -> Optional[str]:
        """None for zero; otherwise the lowest monomial (lowest lambda power,
        then lowest generator bitmask) with its coefficient, as text."""
        if not self.terms:
            return None
        key = min(self.terms)
        power, mask = divmod(key, 1 << self._ring)
        return f"lambda^{power} * {_label(mask)} (coefficient {self.terms[key]})"


# -- matrix algebra over any ring with +, - and * -------------------------------


def _size(rows) -> int:
    """k for a k-by-k matrix with k >= 1; ValueError for any other shape."""
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("A must be a nonempty square matrix")
    return len(rows)


def _det(rows):
    """Determinant of a nonempty square matrix over a commutative ring, by
    Laplace expansion down the rows memoised over column sets: the minor on
    the first |S| rows and the columns S (a bitmask) is the signed sum, over
    j in S, of the minor on S - {j} times rows[|S| - 1][j], with sign
    (-1)^(columns of S above j).  That is k*(2^(k-1) - 1) products (186 at
    k = 6).  Fraction-free and without a zero or a unary minus: the exterior
    algebra has nilpotents, so no division is available.
    """
    k = len(rows)
    minors = {0: None}
    for cols in range(1, 1 << k):
        row, total, above = rows[cols.bit_count() - 1], None, 0
        for j in range(k - 1, -1, -1):
            if cols >> j & 1:
                minor = minors[cols ^ 1 << j]
                term = row[j] if minor is None else minor * row[j]
                total = term if total is None else total - term if above & 1 else total + term
                above += 1
        minors[cols] = total
    return minors[(1 << k) - 1]


def _matmul(X, Y):
    """Product of square matrices of GrassmannElements given as lists of
    rows: each entry sums its k products into one dict, compacted once."""
    out = []
    for row in X:
        sums = [{} for _ in Y]
        for x, y_row in zip(row, Y):
            for terms, y in zip(sums, y_row):
                x._mul_into(terms, y)
        out.append([row[0]._new(_compact(terms)) for terms in sums])
    return out


def _first_mismatch(X, Y):
    """(i, j, X_ij - Y_ij) at the first entry, in row-major order, where the
    matrices differ; None when they are equal."""
    for i, (x_row, y_row) in enumerate(zip(X, Y)):
        for j, (x, y) in enumerate(zip(x_row, y_row)):
            if x != y:
                return i, j, x - y
    return None


def _geometric(x, one, length: int):
    """sum_{j < length} x^j, which is 1/(1 - x) when x^length == 0; raises
    ValueError when x^length != 0.  Stops at the first vanishing power."""
    total, power = one, x
    for _ in range(length - 1):
        if power.is_zero():
            break
        total, power = total + power, power * x
    if not power.is_zero():
        raise ValueError(f"not nilpotent: x^{length} != 0, so 1/(1 - x) has no finite series")
    return total


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    witness: Optional[str] = None  # None, or where the identity fails
    passed = property(lambda self: self.witness is None)


@dataclass
class RankOneReport:
    identities: List[IdentityCheck]

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.identities)


def rank1_check(k: int) -> RankOneReport:
    """rank1_identities on A_ij = alpha_i * beta_j, for k in 1..8, where
    alpha_i and beta_i are the generators 2i and 2i + 1 of 2k."""
    _integer("the matrix size k (each step in k costs about 2.5x)", k, 1, 8)
    gen = [GrassmannElement.generator(2 * k, i) for i in range(2 * k)]
    return rank1_identities([[gen[2 * i] * gen[2 * j + 1] for j in range(k)] for i in range(k)])


def rank1_identities(rows) -> RankOneReport:
    """Check the three rank-one identities on the square matrix A of
    GrassmannElements given by its rows, with a = -Tr A:

    (i)   A@A == a*A;
    (ii)  (I - lam*A) * (I + lam * geom(a) * A) == I, where geom(a) is the
          finite geometric series sum (lam*a)^j (a is nilpotent);
    (iii) det(I - lam*A) * (1 - lam*a) == 1, the determinant by _det's
          memoised Laplace expansion.

    All three hold for A_ij = alpha_i * beta_j with odd alpha, beta; a
    failing identity carries the lowest monomial where it fails.  Rows that
    do not form a nonempty square raise ValueError, and the first entry that
    is not a GrassmannElement raises TypeError; entries over different
    generator sets raise GeneratorMismatch from the arithmetic.
    """
    k = _size(rows)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if not isinstance(e, GrassmannElement):
                raise TypeError(f"entry ({i},{j}) is {e!r}, not a GrassmannElement")
    n_gen = rows[0][0].n_gen
    a = -sum((rows[i][i] for i in range(k)), GrassmannElement(n_gen))

    # (i) A^2 == a * A
    bad = _first_mismatch(_matmul(rows, rows), [[a * e for e in row] for row in rows])
    witness_i = None if bad is None else (
        f"entry ({bad[0]},{bad[1]}) monomial {_label(min(bad[2].terms) % (1 << n_gen))}"
    )

    one, zero, lam = (GrassmannElement.scalar(n_gen, 1), GrassmannElement(n_gen),
                      GrassmannElement.lam(n_gen))
    eye = [[one if i == j else zero for j in range(k)] for i in range(k)]
    lam_A = [[lam * e for e in row] for row in rows]
    lam_a = lam * a

    # 1/(1 - lam*a) as a finite geometric series: a nilpotent element of the
    # exterior algebra on n_gen generators has a^(n_gen + 1) == 0
    geom = _geometric(lam_a, one, n_gen + 1)

    M = [[eye[i][j] - lam_A[i][j] for j in range(k)] for i in range(k)]
    M_inv = [[eye[i][j] + geom * lam_A[i][j] for j in range(k)] for i in range(k)]

    # (ii) M @ M_inv == I
    bad = _first_mismatch(_matmul(M, M_inv), eye)
    witness_ii = None if bad is None else f"entry ({bad[0]},{bad[1]}): {bad[2].witness()}"

    # (iii) det(I - lam*A) * (1 - lam*a) == 1
    witness_iii = (_det(M) * (one - lam_a) - one).witness()

    names = ("A_squared_equals_aA", "inverse_formula", "determinant_geometric")
    witnesses = (witness_i, witness_ii, witness_iii)
    return RankOneReport([IdentityCheck(n, w) for n, w in zip(names, witnesses)])


@dataclass
class ScalarProjectorReport:
    rank: int
    det_coeffs: Tuple[Fraction, ...]
    expected_coeffs: Tuple[Fraction, ...]

    @property
    def passed(self) -> bool:
        return self.det_coeffs == self.expected_coeffs


def scalar_projector_check(A, a) -> ScalarProjectorReport:
    """Check det(I - lam*A) == (1 - lam*a)^(Tr A / a) for a rational matrix
    with A@A == a*A and a != 0.

    A/a is then idempotent over Q, so Tr A / a is its rank, an integer in
    0..n.
    """
    rows = [[_exact(x) for x in row] for row in A]
    n = _size(rows)
    a = _exact(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    # A @ A == a * A, exactly, over the algebra on no generators
    scalars = [[GrassmannElement.scalar(0, x) for x in row] for row in rows]
    squared = _matmul(scalars, scalars)
    bad = _first_mismatch(squared, [[e * a for e in row] for row in scalars])
    if bad is not None:
        i, j, _ = bad
        raise NotIdempotentFamily(f"(A@A)[{i}][{j}] = {squared[i][j].terms.get(0, 0)} "
                                  f"differs from a*A[{i}][{j}] = {a * rows[i][j]}")
    rank = int(sum(rows[i][i] for i in range(n)) / a)

    # det(I - lam*A) as a polynomial in lam over the algebra on no generators
    det = _det([[GrassmannElement(0, {(0, 0): int(i == j), (1, 0): -x})
                 for j, x in enumerate(row)] for i, row in enumerate(rows)])
    degree = max(det.terms)  # with no generators, a key is the power of lam

    expected = [comb(rank, j) * (-a) ** j for j in range(rank + 1)]
    return ScalarProjectorReport(
        rank=rank,
        det_coeffs=tuple(Fraction(det.terms.get(p, 0)) for p in range(degree + 1)),
        expected_coeffs=tuple(expected),
    )


# -- truncated commutative series in (t, omega, eta) --------------------------


class TruncatedPoly(_SparsePoly):
    """Polynomial in t, omega, eta modulo the truncation ideal.

    terms maps exponents (a, b, c) of t^a omega^b eta^c to its coefficient.
    Monomials with b + c >= order vanish identically (forms above the top
    degree of an (order-1)-dimensional space), and t is kept to degree
    <= order.  The order is fixed at construction; arithmetic between
    different orders raises TruncationMismatch.  An int or a Fraction is a
    constant in + and -.
    """

    __slots__ = ()
    _least, _what, _mismatch = 1, "truncation order", TruncationMismatch
    order = property(lambda self: self._ring)

    def _key(self, key: Tuple[int, int, int]) -> Optional[Tuple[int, int, int]]:
        ta, ob, ec = key
        for e in key:
            _integer("a monomial exponent", e, 0)
        return key if ob + ec < self._ring and ta <= self._ring else None

    @classmethod
    def t(cls, order: int) -> "TruncatedPoly":
        return cls(order, {(1, 0, 0): 1})

    @classmethod
    def omega(cls, order: int) -> "TruncatedPoly":
        return cls(order, {(0, 1, 0): 1})

    @classmethod
    def eta(cls, order: int) -> "TruncatedPoly":
        return cls(order, {(0, 0, 1): 1})

    def _operand(self, other) -> Optional["TruncatedPoly"]:
        if isinstance(other, (int, Fraction)):
            return self._new(_compact({(0, 0, 0): other}))
        return other if isinstance(other, TruncatedPoly) else None

    def __mul__(self, other) -> "TruncatedPoly":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check(other)
        n = self._ring
        out: Dict[Tuple[int, int, int], Scalar] = {}
        for (a1, b1, c1), x in self.terms.items():
            for (a2, b2, c2), y in other.terms.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                if key[1] + key[2] < n and key[0] <= n:
                    out[key] = out.get(key, 0) + x * y
        return self._new(_compact(out))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "TruncatedPoly":
        _integer("the exponent", e, 0)
        result = self._new({(0, 0, 0): 1})
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def coefficient(self, a: int, b: int, c: int) -> Fraction:
        return Fraction(self.terms.get((a, b, c), 0))

    def inv(self) -> "TruncatedPoly":
        """Inverse in the quotient ring; needs a nonzero constant term.

        u = 1 - self/c0 has no constant term, so every monomial of u^j has
        a + b + c >= j, while none above 2*order - 1 survives: u is nilpotent
        and the geometric series for 1/(1 - u) ends exactly.
        """
        c0 = self.coefficient(0, 0, 0)
        if c0 == 0:
            raise NotInvertible("zero constant term")
        one = self._new({(0, 0, 0): 1})
        return _geometric(one - self * (1 / c0), one, 2 * self._ring + 1) * (1 / c0)

    def t_coefficient(self, q: int) -> Dict[Tuple[int, int], Fraction]:
        """Coefficient of t^q as a map (omega_deg, eta_deg) -> value."""
        return {(b, c): Fraction(v) for (a, b, c), v in self.terms.items() if a == q}

    def _monomial(self, key: Tuple[int, int, int]) -> str:
        return "t^{}*w^{}*h^{}".format(*key)
