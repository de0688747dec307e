"""Finite exterior algebra and nilpotent-truncated series arithmetic.

Two exact engines live here, built on one sparse-polynomial core
(_SparsePoly): a map from monomial keys to exact rational coefficients with
the shared sum, difference, negation, scalar multiple and equality.
GrassmannElement is a polynomial in a central even variable lambda over the
exterior algebra on n_gen odd generators; its lambda-free elements are the
exterior algebra itself.  It exists to verify the rank-one determinant
identities det(I - lam*A) * (1 - lam*a) = 1 and
(I - lam*A)^{-1} = I + lam/(1 - lam*a) * A for A_ij = alpha_i * beta_j.
TruncatedPoly is a commutative polynomial ring in (t, omega, eta) where every
monomial with omega-degree + eta-degree >= n vanishes (forms above top degree
on an (n-1)-dimensional space) and t is kept to degree <= n; it is the series
engine behind the Chern coefficient tables.  Each type adds its own key
rule and product; both invert 1 - x for nilpotent x by one finite geometric
series (_geometric).
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Tuple, Union

from .errors import (
    GeneratorMismatch,
    InvalidInput,
    NotIdempotentFamily,
    NotInvertible,
    TruncationMismatch,
)
from .ratpoly import _exact, _frac_str

Scalar = Union[int, Fraction]


def _compact(terms: Dict[tuple, Scalar]) -> Dict[tuple, Scalar]:
    """terms without zeros, integral coefficients as ints."""
    return {key: c.numerator if c.denominator == 1 else c for key, c in terms.items() if c}


class _SparsePoly:
    """Sparse polynomial over Q: terms maps a monomial key to an exact
    coefficient, an int when integral and a Fraction otherwise; zero
    coefficients are never stored.  _ring is the integer that fixes the ring
    (generator count, truncation order); operands over different rings raise
    _mismatch.

    The public constructor checks the ring parameter, every key (_key, which
    also says whether the key survives) and every coefficient once; operator
    results are built unchecked by _new.  __mul__ stays in each subclass body,
    so each product is a name of its own class (perfbench wraps it there).
    """

    __slots__ = ("_ring", "terms")
    # a subclass sets _least (smallest ring parameter), _what (its name in
    # messages), _mismatch (an exception type) and _key(key)

    def __init__(self, ring: int, terms: Optional[Dict[tuple, Scalar]] = None):
        if type(ring) is not int or ring < self._least:  # a bool is no int here
            raise ValueError(f"{self._what} must be an integer >= {self._least}, got {ring!r}")
        self._ring = ring
        self.terms = _compact(
            {key: _exact(c) for key, c in (terms or {}).items() if self._key(key)}
        )

    def _new(self, terms: Dict[tuple, Scalar]):
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


@functools.lru_cache(maxsize=1 << 12)
def _below_parity(b: int) -> int:
    """Bitmask (negative when infinite) whose bit i is the parity of the
    generators of b below i.  For disjoint a, b the sign of e_a * e_b is the
    parity of (a & _below_parity(b)).bit_count()."""
    q = 0
    while b:
        low = b & -b
        q ^= -(low << 1)  # every bit above this generator
        b ^= low
    return q


def _label(mask: int) -> str:
    """Monomial text of a generator bitmask: e01*e03 for 0b101, 1 for 0."""
    if mask == 0:
        return "1"
    return "*".join(f"e{i + 1:02d}" for i in range(mask.bit_length()) if mask >> i & 1)


def _monomial(power: int, mask: int) -> str:
    """lambda^2*e01 for (2, 0b1); the generator label alone at power 0."""
    return _label(mask) if power == 0 else f"lambda^{power}*{_label(mask)}"


class GrassmannElement(_SparsePoly):
    """Polynomial in a central even variable lambda over the exterior algebra
    on n_gen >= 0 odd generators (n_gen = 0 gives polynomials over Q).

    terms maps (lambda power, generator-subset bitmask) to its coefficient.
    Scalars enter + and - only through GrassmannElement.scalar.
    """

    __slots__ = ()
    _least, _what, _mismatch = 0, "the number of generators", GeneratorMismatch
    n_gen = property(lambda self: self._ring)

    def _key(self, key: Tuple[int, int]) -> bool:
        power, mask = key
        if type(power) is not int or power < 0:
            raise ValueError(f"lambda power {power!r} is not a nonnegative integer")
        if type(mask) is not int or mask < 0 or mask >> self._ring:
            raise ValueError(f"bitmask {mask!r} outside {self._ring} generators")
        return True

    @classmethod
    def scalar(cls, n_gen: int, value: Scalar) -> "GrassmannElement":
        return cls(n_gen, {(0, 0): value})

    @classmethod
    def generator(cls, n_gen: int, i: int) -> "GrassmannElement":
        if not 0 <= i < n_gen:
            raise ValueError(f"generator index {i} out of range")
        return cls(n_gen, {(0, 1 << i): 1})

    @classmethod
    def lam(cls, n_gen: int) -> "GrassmannElement":
        """The variable lambda."""
        return cls(n_gen, {(1, 0): 1})

    def __mul__(self, other) -> "GrassmannElement":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._check(other)
        out: Dict[Tuple[int, int], Scalar] = {}
        for (pa, ma), ca in self.terms.items():
            for (pb, mb), cb in other.terms.items():
                if ma & mb:
                    continue  # repeated odd generator squares to zero
                key = (pa + pb, ma | mb)
                c = ca * cb
                if (ma & _below_parity(mb)).bit_count() & 1:
                    c = -c
                out[key] = out.get(key, 0) + c
        return self._new(_compact(out))

    __rmul__ = __mul__  # reached only with a scalar or foreign left operand

    def witness(self) -> Optional[str]:
        """None for zero; otherwise the lowest monomial (lowest lambda power,
        then lowest generator bitmask) with its coefficient, as text."""
        if not self.terms:
            return None
        power, mask = min(self.terms)
        return f"lambda^{power} * {_label(mask)} (coefficient {self.terms[power, mask]})"

    def to_json(self) -> str:
        """Canonical form: sorted monomial labels, rational strings."""
        obj = {
            "generators": self._ring,
            "terms": {_monomial(*key): _frac_str(c) for key, c in self.terms.items()},
        }
        return json.dumps(obj, sort_keys=True)

    def __repr__(self) -> str:
        if not self.terms:
            return "GrassmannElement(0)"
        parts = [f"{c}*{_monomial(*key)}" for key, c in sorted(self.terms.items())]
        return "GrassmannElement(" + " + ".join(parts) + ")"


class AlgebraMatrix:
    """Square matrix of GrassmannElements over one shared generator set."""

    def __init__(self, entries: List[List[GrassmannElement]]):
        k = len(entries)
        if k == 0 or any(len(row) != k for row in entries):
            raise ValueError("entries must form a nonempty square array")
        n_gen = entries[0][0].n_gen
        if any(e.n_gen != n_gen for row in entries for e in row):
            raise GeneratorMismatch("matrix entries over different generator sets")
        self.entries = entries
        self.k = k
        self.n_gen = n_gen

    @classmethod
    def rank_one(cls, k: int) -> "AlgebraMatrix":
        """A_ij = alpha_i * beta_j with alpha_i, beta_i the 2k generators."""
        n_gen = 2 * k
        alpha = [GrassmannElement.generator(n_gen, 2 * i) for i in range(k)]
        beta = [GrassmannElement.generator(n_gen, 2 * i + 1) for i in range(k)]
        return cls([[alpha[i] * beta[j] for j in range(k)] for i in range(k)])

    def trace(self) -> GrassmannElement:
        return sum((self.entries[i][i] for i in range(self.k)), GrassmannElement(self.n_gen))

    def det_leibniz(self) -> GrassmannElement:
        """Leibniz sum; valid because even entries commute pairwise."""
        return _leibniz(self.entries, GrassmannElement.scalar(self.n_gen, 1))

    def det_cofactor(self) -> GrassmannElement:
        """First-row cofactor expansion (entries must commute: even elements)."""
        if self.k == 1:
            return self.entries[0][0]
        acc = GrassmannElement(self.n_gen)
        for j in range(self.k):
            minor = AlgebraMatrix(
                [
                    [self.entries[i][jj] for jj in range(self.k) if jj != j]
                    for i in range(1, self.k)
                ]
            )
            term = self.entries[0][j] * minor.det_cofactor()
            acc = acc + (term if j % 2 == 0 else -term)
        return acc


# -- matrix algebra over any ring with +, - and * -------------------------------


def _perm_sign(perm: Tuple[int, ...]) -> int:
    inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
    return -1 if inversions & 1 else 1


def _leibniz(rows, one):
    """Determinant as the sum over all permutations, in a commutative ring
    whose unit is `one`.

    Fraction-free on purpose: the exterior algebra has nilpotents, so no
    division is available.
    """
    total = one - one
    for perm in itertools.permutations(range(len(rows))):
        term = rows[0][perm[0]]
        for i in range(1, len(perm)):
            term = term * rows[i][perm[i]]
        total = total + term if _perm_sign(perm) > 0 else total - term
    return total


def _matmul(X, Y):
    """Product of square matrices given as lists of rows."""
    n = len(Y)
    return [
        [sum((row[l] * Y[l][j] for l in range(1, n)), row[0] * Y[0][j]) for j in range(n)]
        for row in X
    ]


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
    passed: bool
    witness: Optional[str] = None


@dataclass
class RankOneReport:
    k: int
    identities: List[IdentityCheck]

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.identities)

    def first_failure(self) -> Optional[IdentityCheck]:
        return next((i for i in self.identities if not i.passed), None)


def rank1_check(k: int) -> RankOneReport:
    """rank1_identities on A_ij = alpha_i * beta_j, for k in 1..6."""
    if type(k) is not int or not 1 <= k <= 6:  # a bool is no int here
        raise InvalidInput(f"the matrix size k must be an integer in 1..6 (cost grows as 4^k), got {k!r}")
    return rank1_identities(AlgebraMatrix.rank_one(k))


def rank1_identities(A: AlgebraMatrix) -> RankOneReport:
    """Check the three rank-one identities on A, with a = -Tr A:

    (i)   A@A == a*A;
    (ii)  (I - lam*A) * (I + lam * geom(a) * A) == I, where geom(a) is the
          finite geometric series sum (lam*a)^j (a is nilpotent);
    (iii) det(I - lam*A) * (1 - lam*a) == 1 by Leibniz expansion.

    All three hold for A_ij = alpha_i * beta_j with odd alpha, beta; a
    failing identity carries the lowest monomial where it fails.
    """
    k, entries = A.k, A.entries
    a = -A.trace()

    # (i) A^2 == a * A
    bad = _first_mismatch(_matmul(entries, entries), [[a * e for e in row] for row in entries])
    witness_i = None if bad is None else (
        f"entry ({bad[0]},{bad[1]}) monomial {_label(min(bad[2].terms)[1])}"
    )

    one, zero, lam = (GrassmannElement.scalar(A.n_gen, 1), GrassmannElement(A.n_gen),
                      GrassmannElement.lam(A.n_gen))
    eye = [[one if i == j else zero for j in range(k)] for i in range(k)]
    lam_A = [[lam * e for e in row] for row in entries]
    lam_a = lam * a

    # 1/(1 - lam*a) as a finite geometric series: a nilpotent element of the
    # exterior algebra on n_gen generators has a^(n_gen + 1) == 0
    geom = _geometric(lam_a, one, A.n_gen + 1)

    M = [[eye[i][j] - lam_A[i][j] for j in range(k)] for i in range(k)]
    M_inv = [[eye[i][j] + geom * lam_A[i][j] for j in range(k)] for i in range(k)]

    # (ii) M @ M_inv == I
    bad = _first_mismatch(_matmul(M, M_inv), eye)
    witness_ii = None if bad is None else f"entry ({bad[0]},{bad[1]}): {bad[2].witness()}"

    # (iii) det(I - lam*A) * (1 - lam*a) == 1
    witness_iii = (_leibniz(M, one) * (one - lam_a) - one).witness()

    return RankOneReport(
        k=k,
        identities=[
            IdentityCheck(name, witness is None, witness)
            for name, witness in (
                ("A_squared_equals_aA", witness_i),
                ("inverse_formula", witness_ii),
                ("determinant_geometric", witness_iii),
            )
        ],
    )


@dataclass
class ScalarProjectorReport:
    dim: int
    a: Fraction
    rank: int
    det_coeffs: Tuple[Fraction, ...]
    expected_coeffs: Tuple[Fraction, ...]

    @property
    def passed(self) -> bool:
        return self.det_coeffs == self.expected_coeffs


def scalar_projector_check(A, a) -> ScalarProjectorReport:
    """Check det(I - lam*A) == (1 - lam*a)^(Tr A / a) for a rational matrix
    with A@A == a*A and a != 0.

    Tr A / a is the rank of A/a and is always a nonnegative integer for a
    genuine idempotent family; a fractional value is rejected (that branch
    of the exponential formula is out of scope here).
    """
    rows = [[_exact(x) for x in row] for row in A]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("A must be a nonempty square matrix")
    a = _exact(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    # A @ A == a * A, exactly
    squared = _matmul(rows, rows)
    bad = _first_mismatch(squared, [[a * x for x in row] for row in rows])
    if bad is not None:
        i, j, _ = bad
        raise NotIdempotentFamily(
            f"(A@A)[{i}][{j}] = {squared[i][j]} differs from a*A[{i}][{j}] = {a * rows[i][j]}"
        )
    trace = sum(rows[i][i] for i in range(n))
    rank = trace / a
    if rank.denominator != 1 or rank < 0:
        raise NotImplementedError(
            f"Tr A / a = {rank} is not a nonnegative integer; fractional powers unsupported"
        )
    rank = int(rank)

    # det(I - lam*A) as a polynomial in lam over the algebra on no generators
    det = _leibniz(
        [
            [GrassmannElement(0, {(0, 0): int(i == j), (1, 0): -x}) for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ],
        GrassmannElement.scalar(0, 1),
    )
    degree = max(power for power, _ in det.terms)

    expected = [comb(rank, j) * (-a) ** j for j in range(rank + 1)]
    return ScalarProjectorReport(
        dim=n,
        a=a,
        rank=rank,
        det_coeffs=tuple(Fraction(det.terms.get((p, 0), 0)) for p in range(degree + 1)),
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

    def _key(self, key: Tuple[int, int, int]) -> bool:
        ta, ob, ec = key
        # type() is int: a float or a bool is no exponent
        if not type(ta) is type(ob) is type(ec) is int or min(ta, ob, ec) < 0:
            raise ValueError(f"exponents {key!r} are not nonnegative integers")
        return ob + ec < self._ring and ta <= self._ring

    @classmethod
    def const(cls, order: int, value: Scalar) -> "TruncatedPoly":
        return cls(order, {(0, 0, 0): value})

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
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
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

    def constant_term(self) -> Fraction:
        return self.coefficient(0, 0, 0)

    def inv(self) -> "TruncatedPoly":
        """Inverse in the quotient ring; needs a nonzero constant term.

        u = 1 - self/c0 has no constant term, so every monomial of u^j has
        a + b + c >= j, while none above 2*order - 1 survives: u is nilpotent
        and the geometric series for 1/(1 - u) ends exactly.
        """
        c0 = self.constant_term()
        if c0 == 0:
            raise NotInvertible("zero constant term")
        one = self._new({(0, 0, 0): 1})
        return _geometric(one - self * (1 / c0), one, 2 * self._ring + 1) * (1 / c0)

    def t_coefficient(self, q: int) -> Dict[Tuple[int, int], Fraction]:
        """Coefficient of t^q as a map (omega_deg, eta_deg) -> value."""
        return {(b, c): Fraction(v) for (a, b, c), v in self.terms.items() if a == q}

    def to_json(self) -> str:
        terms = {f"t^{a}*omega^{b}*eta^{c}": _frac_str(v) for (a, b, c), v in self.terms.items()}
        return json.dumps({"order": self._ring, "terms": terms}, sort_keys=True)

    def __repr__(self) -> str:
        if not self.terms:
            return "TruncatedPoly(0)"
        parts = [f"{v}*t^{a}*w^{b}*h^{c}" for (a, b, c), v in sorted(self.terms.items())]
        return "TruncatedPoly(" + " + ".join(parts) + ")"
