"""Profile-curve reconstruction in the arc coordinate."""
import numpy as np
import pytest

from hext import Trajectory, coeffs_from_C, integrate_v, reconstruct_curve
from hext.profile_ode import integrate


def test_curve_monotone_and_anchored(shot_m1):
    curve = reconstruct_curve(shot_m1.trajectory)
    assert np.all(np.diff(curve.s) > 0)
    assert abs(np.interp(1.5, curve.gamma, curve.s)) < 1e-9  # anchor at gamma_mid = 1 + m/2
    assert np.all(curve.tau == curve.gamma - 1.0)


def test_curve_derivative_matches_reciprocal_phi(shot_m1):
    curve = reconstruct_curve(shot_m1.trajectory)
    ds = np.gradient(curve.s, curve.gamma)
    band = (curve.gamma >= 1.05) & (curve.gamma <= 1.95)
    ds_dgamma = 1 / curve.phi
    rel = np.abs(ds[band] - ds_dgamma[band]) / ds_dgamma[band]
    assert rel.max() < 1e-3


def test_margin_excludes_endpoints(shot_m1, monkeypatch):
    monkeypatch.setattr(integrate, "_CURVE_MARGIN", 1e-2)
    curve = reconstruct_curve(shot_m1.trajectory)
    assert curve.gamma[0] >= 1.0 + 1e-2
    assert curve.gamma[-1] <= 2.0 - 1e-2


def test_requires_interior_positive():
    traj = integrate_v(1, 2)  # positive defect, fine
    curve = reconstruct_curve(traj)
    assert np.all(np.diff(curve.s) > 0)
    # v = 2*gamma^2 is phi = 0 throughout
    grid = np.linspace(1.0, 2.0, 11)
    with pytest.raises(ValueError, match="phi > 0"):
        reconstruct_curve(Trajectory(grid, 2.0 * grid ** 2, coeffs_from_C(1, 2)))


def test_curve_csv(shot_m1):
    curve = reconstruct_curve(shot_m1.trajectory)
    lines = curve.to_csv().split("\n")
    assert lines[0] == "gamma,tau,s,phi"
    row = lines[1].split(",")
    assert float(row[1]) == float(row[0]) - 1.0
