"""The exact m = 1 certificate: every claim, exact endpoints, JSON surface."""
import json
import time
from fractions import Fraction as F

import numpy as np
import pytest

from hext import certify_m1, ratpoly
from hext.cli import EXIT_OK, main
from hext.profile_ode import certificate
from hext.profile_ode.certificate import _step_upper

EXPECTED_ORDER = [
    "L_value",
    "N_value",
    "delta_prime",
    "C_value",
    "LCplusN",
    "A_value",
    "B_value",
    "q_polynomial",
    "p_sign_at_6_5",
    "p_sign_at_13_10",
    "gamma0_unique",
    "gamma0_above_1_2",
    "gamma0_below_1_3",
    "q_min_bound",
    "v_prime_floor",
    "v2_upper_bound",
    "v2_below_target",
]


def test_all_claims_pass_quickly():
    t0 = time.perf_counter()
    cert = certify_m1()
    elapsed = time.perf_counter() - t0
    assert cert.first_failed() is None
    assert elapsed < 1.0
    assert [c.id for c in cert.claims] == EXPECTED_ORDER


def test_exact_claim_values():
    cert = certify_m1()
    assert cert.claim("L_value").lhs == F(-33, 80)
    assert cert.claim("N_value").lhs == F(11, 8)
    assert cert.claim("delta_prime").lhs == 4
    assert cert.claim("C_value").lhs == F(22, 3)
    assert cert.claim("LCplusN").lhs == F(-33, 20)
    assert cert.claim("A_value").lhs == 9
    assert cert.claim("B_value").lhs == F(-50, 3)
    assert cert.claim("q_polynomial").lhs == 0
    assert cert.claim("p_sign_at_6_5").lhs == F(194, 375)
    assert cert.claim("p_sign_at_13_10").lhs == F(-159, 1000)
    assert cert.claim("v2_upper_bound").rhs == F(15, 2)
    assert cert.claim("v2_below_target").rhs == 8


def test_gamma0_certified_interval():
    cert = certify_m1()
    lo, hi = cert.details["gamma0_lo"], cert.details["gamma0_hi"]
    assert F(6, 5) < lo < hi < F(13, 10)
    assert hi - lo <= F(1, 10 ** 6)


def test_q_min_bound_against_dense_grid():
    """The certified lower bound must sit just below the dense-grid minimum."""
    cert = certify_m1()
    bound = cert.details["q_min_lower_bound"]
    g = np.linspace(1.0, 2.0, 200001)
    q = 3 * g ** 4 - 25 / 3 * g ** 3 + 22 / 3 * g
    grid_min = q.min()
    assert float(bound) <= grid_min
    assert grid_min - float(bound) < 1e-3
    assert bound > F(-9, 2)


def test_two_step_bound_values():
    cert = certify_m1()
    assert cert.details["P_at_3_2"] == F(73, 960)
    assert cert.details["P_at_2"] == F(-33, 20)
    u1 = cert.details["upper_at_3_2"]
    u2 = cert.details["upper_at_2"]
    assert F(534, 100) < u1 < F(535, 100)
    assert F(749, 100) < u2 <= F(15, 2)


def test_step_bound_takes_a_zero_radicand():
    # 4h^2 + 2(v_a + dP) = 1 - 1 = 0: the square root is 0, not an error
    assert _step_upper(F(-1, 2), F(0), F(1, 2)) == F(1, 2)


def test_json_schema(tmp_path):
    assert main(["certify", "--out", str(tmp_path)]) == EXIT_OK
    rows = json.loads((tmp_path / "certificate.json").read_text(encoding="utf-8"))
    assert isinstance(rows, list)
    assert len(rows) == len(EXPECTED_ORDER)
    for row in rows:
        assert set(row) == {"id", "lhs", "cmp", "rhs", "pass"}
        assert row["pass"] is True
        for side in ("lhs", "rhs"):
            p, q = row[side].split("/")
            int(p), int(q)
    byid = {r["id"]: r for r in rows}
    assert byid["LCplusN"]["lhs"] == "-33/20"
    assert byid["v2_upper_bound"]["rhs"] == "15/2"


def test_a_failed_claim_is_returned(monkeypatch):
    # a square-root bound 1 too high lifts the two-step bound above 15/2
    sqrt_upper = ratpoly.sqrt_upper
    monkeypatch.setattr(ratpoly, "sqrt_upper", lambda x, *a: sqrt_upper(x, *a) + 1)
    cert = certify_m1()
    assert cert.first_failed() is not None
    assert cert.first_failed() == "v2_upper_bound"
    assert [c.id for c in cert.claims] == EXPECTED_ORDER
    assert [c.id for c in cert.claims if not c.passed] == ["v2_upper_bound"]


def test_a_verdict_is_its_own_comparison():
    # a claim stores its comparison, not a verdict that could disagree with it
    assert certificate.Claim("x", F(1), "<", F(0)).passed is False
    assert certificate.Claim("x", F(0), "<", F(1)).passed is True
    claims = certify_m1().claims
    assert all(c.passed == certificate._CMP[c.cmp](c.lhs, c.rhs) for c in claims)
    assert {c.cmp for c in claims} == {"==", "<", "<=", ">"}


def test_two_roots_of_p_end_the_certificate(monkeypatch):
    monkeypatch.setattr(ratpoly, "isolate_roots", lambda *a: [(F(1), F(3, 2)), (F(3, 2), F(2))])
    cert = certify_m1()
    assert cert.first_failed() == "gamma0_unique"
    assert cert.claims[-1].id == "gamma0_unique"
    assert cert.claim("gamma0_unique").lhs == 2
    assert [c.id for c in cert.claims] == EXPECTED_ORDER[:EXPECTED_ORDER.index("gamma0_unique") + 1]


@pytest.mark.parametrize("name,value,failing", [
    ("_G0_LO", F(9, 8), ["v_prime_floor"]),  # 4 * 9/8 - 9/2 = 0
    ("_G0_LO", F(32, 25), ["p_sign_at_6_5", "gamma0_above_1_2"]),  # above gamma_0
    ("_G0_HI", F(5, 4), ["p_sign_at_13_10", "gamma0_below_1_3"]),  # below gamma_0
    ("_Q_FLOOR", F(-5), ["v_prime_floor"]),  # 24/5 - 5 < 0
    ("_Q_FLOOR", F(-4), ["q_min_bound"]),  # min q is about -4.13
    ("_V2_CEILING", F(8), ["v2_below_target"]),  # not below 2(m+1)^2 = 8
    ("_V2_CEILING", F(7), ["v2_upper_bound"]),  # the bound on v(2) is about 7.49
], ids=["g0-lo-down", "g0-lo-up", "g0-hi-down", "q-floor-down", "q-floor-up", "v2-ceiling-up",
        "v2-ceiling-down"])
def test_every_threshold_is_read_by_a_claim(monkeypatch, name, value, failing):
    # each threshold is one name, so moving it either way fails a claim
    # that rests on it
    monkeypatch.setattr(certificate, name, value)
    cert = certify_m1()
    assert [c.id for c in cert.claims] == EXPECTED_ORDER
    assert [c.id for c in cert.claims if not c.passed] == failing
