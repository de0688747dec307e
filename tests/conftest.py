import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from hext import compute_LN, shoot
from hext.profile_ode import integrate

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# C* from 30-digit mpmath shooting, independent of hext: the c_star_ref
# table that perfbench/make_reference.py writes to perfbench/reference.json
C_STAR_REF = {
    int(m): c
    for m, c in json.loads(REFERENCE.read_text(encoding="utf-8"))["c_star_ref"].items()
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
    the root loop until its bracket is narrower than 1e-12 (or for its 60
    steps) and ends in StepFailure."""
    real = integrate._defect

    def padded(m, sol):
        d = real(m, sol)
        return d + math.copysign(1e-9, d)

    monkeypatch.setattr(integrate, "_defect", padded)
