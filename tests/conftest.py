import math

import pytest

from hext import shoot
from hext.profile_ode import integrate


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

    def padded(m, C):
        d = real(m, C)
        return d + math.copysign(1e-9, d)

    monkeypatch.setattr(integrate, "_defect", padded)
