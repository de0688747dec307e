"""Every input rule lives in the library function that takes the value and
raises InvalidInput, a ValueError, before any work."""
import math

import pytest

from hext import HypersurfaceParams, InvalidInput, futaki_closed, hcsck_nonexistence, rank1_check
from hext.profile_ode import MAX_SCAN_STEPS, defect_scan, hcsck_coeffs, shoot

_CALLS = {
    "shoot-tol-above-1e-3": lambda: shoot(1, defect_tol=0.5),
    "shoot-tol-nan": lambda: shoot(1, defect_tol=math.nan),
    "shoot-c-max-nan": lambda: shoot(1, c_max=math.nan),
    "shoot-c-min-inf": lambda: shoot(1, c_min=-math.inf),
    "shoot-c-min-huge-int": lambda: shoot(1, c_min=-10**400),
    "shoot-c-max-huge-int": lambda: shoot(1, c_max=10**400),
    "shoot-tol-huge-int": lambda: shoot(1, defect_tol=10**400),
    "shoot-empty-window": lambda: shoot(1, c_min=3.0, c_max=3.0),
    "scan-infinite-window": lambda: defect_scan(1, -math.inf, 1.0, 8),
    "scan-huge-int-window": lambda: defect_scan(1, -10**400, 1.0, 8),
    "scan-too-many-steps": lambda: defect_scan(1, 0.0, 1.0, MAX_SCAN_STEPS + 1),
    "scan-huge-steps": lambda: defect_scan(1, 0.0, 1.0, 10**30),
    "scan-one-step": lambda: defect_scan(1, 0.0, 1.0, 1),
    "params-n-above-cap": lambda: HypersurfaceParams(9, 2),
    "futaki-n-above-cap": lambda: futaki_closed(9, 2, 1),
    "rank1-k-above-6": lambda: rank1_check(7),
    "nonexist-m-0": lambda: hcsck_nonexistence(0),
    "coeffs-m-0": lambda: hcsck_coeffs(0),
    "coeffs-m-minus-2": lambda: hcsck_coeffs(-2),
}


@pytest.mark.parametrize("call", list(_CALLS.values()), ids=list(_CALLS))
def test_library_rejects_invalid_input(call):
    with pytest.raises(InvalidInput) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert "\n" not in str(info.value)
