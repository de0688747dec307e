"""Exterior algebra, rank-one determinant identities, truncated series ring."""
import operator
import random
from fractions import Fraction as F

import pytest

from hext import (
    AlgebraMatrix,
    GrassmannElement,
    TruncatedPoly,
    admissible_C_max,
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

def _gen(n, i):
    return GrassmannElement.generator(n, i)


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


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
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
    A = AlgebraMatrix.rank_one(1)
    a = -A.trace()
    assert (a * a).is_zero()
    assert A.entries[0][0] == _gen(2, 0) * _gen(2, 1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_rank1_identities_fail_on_a_corrupted_matrix(k):
    A = AlgebraMatrix.rank_one(k)
    A.entries[0][1] = A.entries[0][1] * 2  # no longer alpha_0 * beta_1
    rep = rank1_identities(A)
    assert not rep.passed
    assert [i.passed for i in rep.identities] == [False, False, False]
    assert [i.witness for i in rep.identities] == [
        "entry (0,0) monomial e01*e02*e03*e04",
        "entry (0,0): lambda^2 * e01*e02*e03*e04 (coefficient 1)",
        "lambda^2 * e01*e02*e03*e04 (coefficient 1)",
    ]
    assert rep.first_failure().name == "A_squared_equals_aA"


def test_rank1_rejects_out_of_range():
    with pytest.raises(ValueError):
        rank1_check(0)
    with pytest.raises(ValueError):
        rank1_check(7)
    with pytest.raises(ValueError):  # a = -Tr A = -1 is not nilpotent
        rank1_identities(AlgebraMatrix([[GrassmannElement.scalar(2, 1)]]))


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
    assert type(GrassmannElement(6, {(0, 0): F(6, 3)}).terms[0, 0]) is int
    with pytest.raises(TypeError):
        GrassmannElement(6, {(0, 0): 0.5})
    for power in (-1, 1.5):
        with pytest.raises(ValueError):
            GrassmannElement(6, {(power, 0): 1})


@pytest.mark.parametrize("key", [(0.5, 0, 0), (0, 1.0, 0), (0, 0, F(1)), (True, 0, 0), (0, 0, -1)])
def test_truncpoly_exponents_are_nonnegative_integers(key):
    # t^0.5 was stored once, and its square printed as t^1.0
    with pytest.raises(ValueError, match="not nonnegative integers"):
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: GrassmannElement.scalar(2, 0.1),
        lambda: GrassmannElement(2, {(0, 0b11): 0.5}),
        lambda: TruncatedPoly(2, {(0, 0, 0): 0.1}),
        lambda: TruncatedPoly.const(2, 0.5),
        lambda: scalar_projector_check([[0.5, 0.5], [0.5, 0.5]], 1.0),
        lambda: scalar_projector_check([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], 1.0),
        lambda: admissible_C_max(1, 0.1),
    ],
)
def test_floats_do_not_enter_the_exact_layer(build):
    with pytest.raises(TypeError):
        build()
    assert GrassmannElement.scalar(2, F(1, 10)).terms == {(0, 0): F(1, 10)}
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


def test_leibniz_vs_cofactor_random_even_matrices():
    rng = random.Random(33)
    n_gen = 6
    gens = [_gen(n_gen, i) for i in range(n_gen)]
    for _ in range(10):
        entries = []
        for i in range(3):
            row = []
            for j in range(3):
                e = GrassmannElement.scalar(n_gen, F(rng.randint(-3, 3)))
                for _ in range(2):
                    ii, jj = rng.randrange(n_gen), rng.randrange(n_gen)
                    coeff = F(rng.randint(-2, 2))
                    e = e + (gens[ii] * gens[jj]) * coeff
                row.append(e)
            entries.append(row)
        mat = AlgebraMatrix(entries)
        assert mat.det_leibniz() == mat.det_cofactor()


def test_leibniz_vs_cofactor_fractional_coefficients():
    rng = random.Random(34)
    n_gen = 6
    gens = [_gen(n_gen, i) for i in range(n_gen)]
    values = [F(1, 3), F(-5, 2), F(7, 6), F(-2, 9)]
    for _ in range(10):
        entries = []
        for i in range(3):
            row = []
            for j in range(3):
                e = GrassmannElement.scalar(n_gen, rng.choice(values))
                for _ in range(2):
                    ii, jj = rng.randrange(n_gen), rng.randrange(n_gen)
                    e = e + (gens[ii] * gens[jj]) * rng.choice(values)
                row.append(e)
            entries.append(row)
        mat = AlgebraMatrix(entries)
        det = mat.det_leibniz()
        assert det == mat.det_cofactor()
        assert any(c.denominator != 1 for c in det.terms.values())


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


def test_scalar_projector_rejects_non_idempotent():
    with pytest.raises(NotIdempotentFamily):
        scalar_projector_check([[1, 0], [0, 2]], 1)
    with pytest.raises(ValueError):
        scalar_projector_check([[0, 0], [0, 0]], 0)


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


def test_canonical_json_golden():
    n = 4
    x = GrassmannElement.scalar(n, 1) + (_gen(n, 0) * _gen(n, 1)) * F(3, 2)
    assert (
        x.to_json()
        == '{"generators": 4, "terms": {"1": "1/1", "e01*e02": "3/2"}}'
    )
    p = 1 + TruncatedPoly.t(2) * TruncatedPoly.omega(2)
    assert (
        p.to_json()
        == '{"order": 2, "terms": {"t^0*omega^0*eta^0": "1/1", "t^1*omega^1*eta^0": "1/1"}}'
    )
