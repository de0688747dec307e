import math
from fractions import Fraction

import pytest

from hext import compute_LN, shoot
from hext.profile_ode import integrate


# C* from 30-digit mpmath shooting, independent of hext: the c_star_ref
# table that perfbench/make_reference.py writes to perfbench/reference.json
C_STAR_REF = {
    1: 4.126269829713513,
    2: 2.887105996252412,
    3: 2.5075511798715646,
    4: 2.3333414347427235,
    5: 2.2371370935797725,
    6: 2.177875481997457,
    7: 2.1385968007529557,
    8: 2.1111469195527324,
}


def c_top(m: int, eps: Fraction) -> Fraction:
    """The largest C with L*C + N >= -2 + eps (L < 0 reverses the inequality):
    the top of the C window the m = 1 certificate's condition allows, the
    draw range of the property tests."""
    ln = compute_LN(m)
    return (-2 + eps - ln.N) / ln.L


@pytest.fixture(scope="session")
def shot_m1():
    """One converged m=1 shooting run, shared across the suite."""
    return shoot(1)


@pytest.fixture
def defect_padded(monkeypatch):
    """Every endpoint defect moved 1e-9 further from zero, its sign kept: no
    solve meets a tolerance below that, so a shoot at such a tolerance runs
    Brent's method to its C tolerance and ends in StepFailure."""
    real = integrate._defect

    def padded(m, sol):
        d = real(m, sol)
        return d + math.copysign(1e-9, d)

    monkeypatch.setattr(integrate, "_defect", padded)
