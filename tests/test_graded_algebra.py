"""Exterior algebra, rank-one determinant identities, truncated series ring."""
import operator
import random
import re
from fractions import Fraction as F

import pytest

from hext import (
    GrassmannElement,
    TruncatedPoly,
    futaki_localized,
    rank1_check,
    rank1_identities,
    scalar_projector_check,
)
from hext.errors import (
    GeneratorMismatch,
    NotIdempotentFamily,
    NotInvertible,
    TruncationMismatch,
)
from hext.graded_algebra import _det, _matmul


def _cofactor(rows):
    """Determinant by first-row cofactor expansion, in a commutative ring: the
    test oracle for _det."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0] - rows[0][0]
    for j, x in enumerate(rows[0]):
        term = x * _cofactor([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def _sum_of_products(X, Y):
    """Matrix product with each entry a sum of element products, one new
    element per addition: the test oracle for _matmul."""
    n = len(Y)
    return [
        [sum((row[l] * Y[l][j] for l in range(1, n)), row[0] * Y[0][j]) for j in range(n)]
        for row in X
    ]


def _gen(n, i):
    return GrassmannElement.generator(n, i)


def _rank_one(k):
    """The rows of A_ij = alpha_i * beta_j, with alpha_i, beta_i the 2k
    generators, as rank1_check builds them."""
    gen = [_gen(2 * k, i) for i in range(2 * k)]
    return [[gen[2 * i] * gen[2 * j + 1] for j in range(k)] for i in range(k)]


def test_anticommutation_and_nilpotency():
    n = 4
    e1, e2, e3, e4 = (_gen(n, i) for i in range(4))
    assert e1 * e2 == -(e2 * e1)
    assert (e1 * e1).is_zero()
    # even elements commute
    a = e1 * e2
    b = e3 * e4
    assert a * b == b * a


def _random_element(rng, n_gen, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        key = (rng.randrange(3), rng.randrange(1 << n_gen))  # lambda power, generators
        terms[key] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return GrassmannElement(n_gen, terms)


def test_associativity_distributivity_random():
    rng = random.Random(20260810)
    n = 6
    for _ in range(40):
        x = _random_element(rng, n)
        y = _random_element(rng, n)
        z = _random_element(rng, n)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


def test_generator_mismatch():
    with pytest.raises(GeneratorMismatch):
        _gen(2, 0) * _gen(4, 0)


def _inversion_sign(a, b):
    """The sign of e_a * e_b for disjoint generator bitmasks a and b: -1 to
    the number of inversions of a's indices followed by b's."""
    seq = [i for mask in (a, b) for i in range(mask.bit_length()) if mask >> i & 1]
    inversions = sum(x > y for i, x in enumerate(seq) for y in seq[i + 1:])
    return -1 if inversions % 2 else 1


@pytest.mark.parametrize("n_gen", [0, 1, 2, 3, 4, 5])
def test_monomial_products_against_inversion_counts(n_gen):
    # every pair of generator masks: the sign of the product is the parity
    # of the inversions of the concatenated index lists, zero on overlap
    rng = random.Random(500 + n_gen)
    values = [1, -2, 3, F(1, 3), F(-5, 2), F(7, 6)]
    for a in range(1 << n_gen):
        for b in range(1 << n_gen):
            (pa, pb), (ca, cb) = rng.choices(range(4), k=2), rng.choices(values, k=2)
            x = GrassmannElement(n_gen, {(pa, a): ca})
            y = GrassmannElement(n_gen, {(pb, b): cb})
            # terms are keyed by the packed power << n_gen | mask
            want = {} if a & b else {(pa + pb) << n_gen | a | b: _inversion_sign(a, b) * ca * cb}
            assert (x * y).terms == want


@pytest.mark.parametrize("n_gen", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("sizes", [(1, 3), (3, 3), (4, 2)],
                         ids=["left-shorter", "same-length", "right-shorter"])
def test_multi_term_products_in_both_loop_orders(n_gen, sizes):
    # the product walks the factor with fewer terms outside, so x * y and
    # y * x take both loop orders; each must be the sum of its pairwise
    # monomial products, signed by inversion counts, and even elements
    # commute while odd ones anticommute
    rng = random.Random(600 + 10 * n_gen + sizes[0])
    values = [1, -2, 3, F(1, 3), F(-5, 2), F(7, 6)]

    def terms(n_terms, parity):
        out = {}
        while len(out) < n_terms:
            mask = rng.randrange(1 << n_gen)
            if parity is None or mask.bit_count() % 2 == parity:
                out[rng.randrange(4), mask] = rng.choice(values)  # lambda power 0..3
        return out

    def pairwise(x_terms, y_terms):
        want = {}
        for (pa, a), ca in x_terms.items():
            for (pb, b), cb in y_terms.items():
                if not a & b:
                    key = (pa + pb, a | b)
                    want[key] = want.get(key, 0) + _inversion_sign(a, b) * ca * cb
        return GrassmannElement(n_gen, want)

    for parity in (None, 0, 1):
        for _ in range(20):
            x_terms, y_terms = terms(sizes[0], parity), terms(sizes[1], parity)
            x, y = GrassmannElement(n_gen, x_terms), GrassmannElement(n_gen, y_terms)
            assert x * y == pairwise(x_terms, y_terms)
            assert y * x == pairwise(y_terms, x_terms)
            if parity is not None:
                assert x * y == (-(y * x) if parity else y * x)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_rank1_identities(k):
    rep = rank1_check(k)
    assert rep.passed
    assert [i.name for i in rep.identities] == [
        "A_squared_equals_aA",
        "inverse_formula",
        "determinant_geometric",
    ]
    assert all(i.witness is None for i in rep.identities)


def test_rank1_k1_det_is_single_pair():
    # det(I - lam*A) = 1 - lam*alpha1*beta1 since (alpha1*beta1)^2 = 0
    A = _rank_one(1)
    a = -A[0][0]
    assert (a * a).is_zero()
    assert A[0][0] == _gen(2, 0) * _gen(2, 1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_rank1_identities_fail_on_a_corrupted_matrix(k):
    A = _rank_one(k)
    A[0][1] = A[0][1] * 2  # no longer alpha_0 * beta_1
    rep = rank1_identities(A)
    assert not rep.passed
    assert [i.passed for i in rep.identities] == [False, False, False]
    assert [i.witness for i in rep.identities] == [
        "entry (0,0) monomial e01*e02*e03*e04",
        "entry (0,0): lambda^2 * e01*e02*e03*e04 (coefficient 1)",
        "lambda^2 * e01*e02*e03*e04 (coefficient 1)",
    ]
    assert next(i for i in rep.identities if not i.passed).name == "A_squared_equals_aA"


def test_rank1_rejects_out_of_range():
    with pytest.raises(ValueError):
        rank1_check(0)
    with pytest.raises(ValueError):
        rank1_check(9)
    with pytest.raises(ValueError):  # a = -Tr A = -1 is not nilpotent
        rank1_identities([[GrassmannElement.scalar(2, 1)]])


@pytest.mark.parametrize("rows", [
    [],
    [[_gen(2, 0) * _gen(2, 1), _gen(2, 0) * _gen(2, 1)]],
    [[_gen(4, 0) * _gen(4, 1)], [_gen(4, 2) * _gen(4, 3)]],
], ids=["empty", "one-by-two", "two-by-one"])
def test_rank1_identities_need_a_nonempty_square(rows):
    with pytest.raises(ValueError, match="nonempty square"):
        rank1_identities(rows)


@pytest.mark.parametrize("rows,entry", [
    ([[1]], "(0,0)"),  # once an AttributeError on 'int' object
    ([[_gen(2, 0), _gen(2, 1)], [_gen(2, 1), F(1)]], "(1,1)"),
], ids=["int", "fraction"])
def test_rank1_identities_name_the_first_entry_of_another_type(rows, entry):
    with pytest.raises(TypeError, match=re.escape(f"entry {entry} is ")) as info:
        rank1_identities(rows)
    assert str(info.value).endswith(", not a GrassmannElement")


def test_rank1_identities_reject_two_generator_sets():
    rows = _rank_one(2)
    rows[1][0] = _gen(2, 0) * _gen(2, 1)  # over 2 generators, the rest over 4
    with pytest.raises(GeneratorMismatch):
        rank1_identities(rows)


def test_witness_reporting():
    n = 2
    one = GrassmannElement.scalar(n, 1)
    x = one
    y = one + GrassmannElement.lam(n) * (_gen(n, 0) * _gen(n, 1))
    w = (x - y).witness()
    assert w is not None and "lambda^1" in w
    assert (x - one).witness() is None


def test_lam_poly_coefficients_stay_exact():
    rng = random.Random(77)

    def random_poly():
        terms = {}
        for _ in range(4):
            key = (rng.randrange(3), rng.randrange(1 << 6))
            if rng.random() < 0.5:
                terms[key] = F(rng.randint(-5, 5), rng.randint(1, 4))
            else:
                terms[key] = rng.randint(-3, 3)
        return GrassmannElement(6, terms)

    kinds = set()
    for _ in range(30):
        x, y = random_poly(), random_poly()
        for poly in (x * y, (x * y) * y, x + y, x - y):
            for c in poly.terms.values():
                assert c != 0
                assert type(c) is int or (type(c) is F and c.denominator != 1)
                kinds.add(type(c))
    assert kinds == {int, F}
    assert type(GrassmannElement(6, {(0, 0): F(6, 3)}).terms[0]) is int
    with pytest.raises(TypeError):
        GrassmannElement(6, {(0, 0): 0.5})
    for power in (-1, 1.5):
        with pytest.raises(ValueError):
            GrassmannElement(6, {(power, 0): 1})


@pytest.mark.parametrize("key", [(0.5, 0, 0), (0, 1.0, 0), (0, 0, F(1)), (True, 0, 0), (0, 0, -1)])
def test_truncpoly_exponents_are_nonnegative_integers(key):
    # t^0.5 was stored once, and its square printed as t^1.0
    with pytest.raises(ValueError, match="exponent must be an integer >= 0"):
        TruncatedPoly(3, {key: 1})


@pytest.mark.parametrize("build", [
    lambda: GrassmannElement(True, {(0, 1): 1}),  # once written as "generators": true
    lambda: GrassmannElement(2.5),
    lambda: GrassmannElement(-1),
    lambda: TruncatedPoly(2.5, {(0, 0, 0): 1}),
    lambda: TruncatedPoly(True),
    lambda: TruncatedPoly(0),
    lambda: TruncatedPoly.t(F(2)),
], ids=["grassmann-bool", "grassmann-float", "grassmann-negative",
        "truncpoly-float", "truncpoly-bool", "truncpoly-zero", "truncpoly-fraction"])
def test_ring_parameter_is_an_int(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


@pytest.mark.parametrize("build", [
    lambda: TruncatedPoly.t(3) ** True,  # returned t
    lambda: TruncatedPoly.t(3) ** 1.0,
    lambda: GrassmannElement.generator(2, True),  # returned e02
    lambda: GrassmannElement.generator(2, 1.0),  # ended in a TypeError from <<
], ids=["pow-bool", "pow-float", "generator-bool", "generator-float"])
def test_integer_arguments_are_ints(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()
    assert TruncatedPoly.t(3) ** 1 == TruncatedPoly.t(3)
    assert GrassmannElement.generator(2, 1).terms == {0 << 2 | 0b10: 1}


@pytest.mark.parametrize(
    "build",
    [
        lambda: GrassmannElement.scalar(2, 0.1),
        lambda: GrassmannElement(2, {(0, 0b11): 0.5}),
        lambda: TruncatedPoly(2, {(0, 0, 0): 0.1}),
        lambda: TruncatedPoly.const(2, 0.5),
        lambda: scalar_projector_check([[0.5, 0.5], [0.5, 0.5]], 1.0),
        lambda: scalar_projector_check([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], 1.0),
        lambda: futaki_localized(2, 1, [0, 0.5, 2]),
    ],
)
def test_floats_do_not_enter_the_exact_layer(build):
    with pytest.raises(TypeError):
        build()
    assert GrassmannElement.scalar(2, F(1, 10)).terms == {0 << 2 | 0: F(1, 10)}
    assert TruncatedPoly(2, {(0, 0, 0): 3}).terms == {(0, 0, 0): F(3)}


@pytest.mark.parametrize("element", [
    GrassmannElement.scalar(2, 1), TruncatedPoly.const(2, 1),
], ids=["grassmann", "truncpoly"])
@pytest.mark.parametrize("operand", [0.5, "x"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_foreign_operands_raise_type_error(element, operand, op):
    with pytest.raises(TypeError):
        op(element, operand)
    with pytest.raises(TypeError):
        op(operand, element)


def _random_even_rows(rng, k, scalar, coeff, n_gen=6):
    """k x k even elements on n_gen generators: each entry is scalar() plus
    two terms coeff() * e_i * e_j at random i, j."""
    gens = [_gen(n_gen, i) for i in range(n_gen)]
    rows = [[GrassmannElement.scalar(n_gen, scalar()) for _ in range(k)] for _ in range(k)]
    for row in rows:
        for j in range(k):
            for _ in range(2):
                ii, jj = rng.randrange(n_gen), rng.randrange(n_gen)
                row[j] = row[j] + (gens[ii] * gens[jj]) * coeff()
    return rows


def test_det_vs_cofactor_random_even_matrices():
    # every size up to 6, so a sign slip at any row of the expansion shows
    rng = random.Random(33)
    for k in range(1, 7):
        for _ in range(10 if k < 5 else 2):  # k = 5, 6 cost 0.1-0.3 s a matrix
            rows = _random_even_rows(rng, k, lambda: F(rng.randint(-3, 3)),
                                     lambda: F(rng.randint(-2, 2)))
            assert _det(rows) == _cofactor(rows)


def test_det_vs_cofactor_fractional_coefficients():
    rng = random.Random(34)
    values = [F(1, 3), F(-5, 2), F(7, 6), F(-2, 9)]
    for k in range(1, 7):
        for _ in range(10 if k < 5 else 2):
            rows = _random_even_rows(rng, k, lambda: rng.choice(values), lambda: rng.choice(values))
            det = _det(rows)
            assert det == _cofactor(rows)
            assert any(c.denominator != 1 for c in det.terms.values())


def test_det_vs_cofactor_on_the_rank_one_matrix():
    # M = I - lam*A of rank1_check(6)
    n_gen, A = 12, _rank_one(6)
    one, lam = GrassmannElement.scalar(n_gen, 1), GrassmannElement.lam(n_gen)
    M = [[(one if i == j else GrassmannElement(n_gen)) - lam * e for j, e in enumerate(row)]
         for i, row in enumerate(A)]
    det = _det(M)
    assert det == _cofactor(M)
    assert not (det - one).is_zero()


class _Counted:
    """An int under +, - and *, counting every product."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __add__(self, other):
        return _Counted(self.value + other.value)

    def __sub__(self, other):
        return _Counted(self.value - other.value)

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.value * other.value)


@pytest.mark.parametrize("k,products", [(1, 0), (2, 2), (3, 9), (4, 28), (5, 75), (6, 186)])
def test_det_products_memoised_over_column_sets(k, products):
    # k*(2^(k-1) - 1) products: each minor on rows 1..i and i columns, for
    # 1 <= i < k, is formed once and extended by each of its k - i free
    # columns, so no product is repeated across the expansion
    assert products == k * (2 ** (k - 1) - 1)
    rng = random.Random(35 + k)
    rows = [[_Counted(rng.randint(-9, 9)) for _ in range(k)] for _ in range(k)]
    _Counted.products = 0
    det = _det(rows)
    assert _Counted.products == products
    assert det.value == _cofactor(rows).value


def _random_mixed_rows(rng, k, n_gen=6):
    """k x k elements on n_gen generators with odd and even terms, shared
    generators, lambda powers 0..2 and int or Fraction coefficients; some
    entries are zero."""
    values = [1, -1, 2, -3, F(1, 3), F(-5, 2), F(7, 6), F(-2, 9)]
    return [[GrassmannElement(n_gen, {(rng.randrange(3), rng.randrange(1 << n_gen)):
                                      rng.choice(values) for _ in range(rng.randrange(5))})
             for _ in range(k)] for _ in range(k)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_matmul_vs_sum_of_products(k):
    rng = random.Random(40 + k)
    kinds = set()
    for _ in range(20):
        X, Y = _random_mixed_rows(rng, k), _random_mixed_rows(rng, k)
        for P, Q in ((X, Y), (Y, X), (X, X)):
            product = _matmul(P, Q)
            assert product == _sum_of_products(P, Q)
            for c in (c for row in product for e in row for c in e.terms.values()):
                assert c != 0
                assert type(c) is int or (type(c) is F and c.denominator != 1)
                kinds.add(type(c))
    assert kinds == {int, F}


def test_matmul_checks_every_product_pair():
    # one entry over 2 generators, the rest over 4: whichever product meets
    # it raises, as a product of the two would
    for i, j in ((0, 0), (1, 2), (2, 1)):
        rng = random.Random(7)
        X, Y = _random_mixed_rows(rng, 3, 4), _random_mixed_rows(rng, 3, 4)
        Y[i][j] = _gen(2, 0)
        with pytest.raises(GeneratorMismatch):
            _matmul(X, Y)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_matmul_work(monkeypatch, k):
    # k^3 products, each added into its entry's dict, and k^2 new elements:
    # no product builds an element of its own and no sum copies a dict
    A = _rank_one(k)
    counts = {"_mul_into": 0, "_new": 0, "_plus": 0}
    for name in counts:
        method = getattr(GrassmannElement, name)

        def counted(*args, _method=method, _name=name):
            counts[_name] += 1
            return _method(*args)

        monkeypatch.setattr(GrassmannElement, name, counted)
    product = _matmul(A, A)
    assert counts == {"_mul_into": k ** 3, "_new": k ** 2, "_plus": 0}
    monkeypatch.undo()
    assert product == _sum_of_products(A, A)


def test_scalar_projector_instances():
    rep = scalar_projector_check([[1, 1], [2, 2]], 3)
    assert rep.passed and rep.rank == 1
    assert rep.det_coeffs == (F(1), F(-3))  # 1 - 3*lam

    rep = scalar_projector_check([[7, 0, 0], [0, 7, 0], [0, 0, 7]], 7)
    assert rep.passed and rep.rank == 3
    assert rep.det_coeffs == (F(1), F(-21), F(147), F(-343))

    rep = scalar_projector_check([[0, 0], [0, 0]], 1)
    assert rep.passed and rep.rank == 0
    assert rep.det_coeffs == (F(1),)


def test_scalar_projector_rank_two_in_six_dimensions():
    # a*P for the orthogonal projector P onto the span of u, w in Q^6: the
    # n_gen = 0 determinant expands all six rows
    u, w = (1, 2, 0, -1, 3, 1), (0, 1, 1, 2, -1, 0)
    uu, uw, ww = (sum(x * y for x, y in zip(p, q)) for p, q in ((u, u), (u, w), (w, w)))
    g = uu * ww - uw * uw  # P = [u w] G^-1 [u w]^T with G the Gram matrix
    a = F(-3, 2)
    A = [[a * F(ww * u[i] * u[j] - uw * (u[i] * w[j] + w[i] * u[j]) + uu * w[i] * w[j], g)
          for j in range(6)] for i in range(6)]
    rep = scalar_projector_check(A, a)
    assert rep.passed and rep.rank == 2
    assert rep.det_coeffs == (F(1), F(3), F(9, 4))  # (1 + 3/2 lam)^2


def test_scalar_projector_rejects_non_idempotent():
    with pytest.raises(NotIdempotentFamily):
        scalar_projector_check([[1, 0], [0, 2]], 1)
    with pytest.raises(ValueError):
        scalar_projector_check([[0, 0], [0, 0]], 0)


@pytest.mark.parametrize("A,a,message", [
    ([[1, 0], [0, 2]], 1, "(A@A)[1][1] = 4 differs from a*A[1][1] = 2"),
    ([[F(1, 2), 0], [0, 1]], 1, "(A@A)[0][0] = 1/4 differs from a*A[0][0] = 1/2"),
    ([[0, 1], [0, 0]], 1, "(A@A)[0][1] = 0 differs from a*A[0][1] = 1"),
    ([[1, 1], [1, 1]], 3, "(A@A)[0][0] = 2 differs from a*A[0][0] = 3"),
])
def test_scalar_projector_names_the_first_non_idempotent_entry(A, a, message):
    with pytest.raises(NotIdempotentFamily) as info:
        scalar_projector_check(A, a)
    assert str(info.value) == message


def test_ts_geometric_series():
    n = 4
    t = TruncatedPoly.t(n)
    w = TruncatedPoly.omega(n)
    e = TruncatedPoly.eta(n)
    u = t * (w * 2 + e)  # nilpotent under the truncation
    inv = (1 - u).inv()
    series = TruncatedPoly.const(n, 1)
    power = u
    while not power.is_zero():
        series = series + power
        power = power * u
    assert inv == series


def test_ts_geometric_series_randomized():
    rng = random.Random(606)
    n = 4
    keys = [
        (a, b, c)
        for a in range(n + 1)
        for b in range(n)
        for c in range(n - b)
        if a + b + c >= 1
    ]
    for _ in range(30):
        terms = {}
        for _ in range(4):
            terms[keys[rng.randrange(len(keys))]] = F(rng.randint(-4, 4), rng.randint(1, 3))
        u = TruncatedPoly(n, terms)  # zero constant term, hence nilpotent
        series = TruncatedPoly.const(n, 1)
        power = u
        while not power.is_zero():
            series = series + power
            power = power * u
        assert (1 - u).inv() == series


def test_ts_pow_binomials():
    n = 5
    t = TruncatedPoly.t(n)
    w = TruncatedPoly.omega(n)
    p = (1 + t * w) ** (n + 1)
    from math import comb

    for j in range(n):  # omega^j survives only below the truncation order
        assert p.coefficient(j, j, 0) == comb(n + 1, j)


def test_ts_inv_roundtrip_random():
    rng = random.Random(4242)
    n = 4
    keys = [
        (a, b, c)
        for a in range(n + 1)
        for b in range(n)
        for c in range(n - b)
    ]
    for _ in range(100):
        terms = {}
        for _ in range(5):
            terms[keys[rng.randrange(len(keys))]] = F(rng.randint(-6, 6), rng.randint(1, 3))
        terms[(0, 0, 0)] = F(rng.choice([1, -1, 2, 3]))  # unit constant term
        x = TruncatedPoly(n, terms)
        assert x.inv() * x == TruncatedPoly.const(n, 1)


def test_ts_inv_requires_unit():
    n = 3
    with pytest.raises(NotInvertible):
        TruncatedPoly.t(n).inv()


def test_mixed_orders_rejected():
    with pytest.raises(TruncationMismatch):
        TruncatedPoly.t(3) * TruncatedPoly.t(4)
    with pytest.raises(TruncationMismatch):
        TruncatedPoly.t(3) + TruncatedPoly.t(4)


def test_truncation_drops_top_degrees():
    n = 3
    w = TruncatedPoly.omega(n)
    e = TruncatedPoly.eta(n)
    assert (w ** 2 * e).is_zero()  # total form degree n vanishes
    t = TruncatedPoly.t(n)
    assert (t ** (n + 1)).is_zero()
