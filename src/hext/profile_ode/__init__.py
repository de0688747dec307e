"""Momentum-profile boundary value problem: exact coefficient algebra,
adaptive integration, parameter shooting, and the m = 1 certificate.

hext's loading rule holds here too: importing this package loads none of its
modules.  Its names are the rows of hext's table homed in it; __getattr__
imports a name's home (.certificate, .coeffs or .integrate) on first use and
looks the name up there every time.  .integrate alone imports numpy."""
import importlib

from .. import _HOMES as _PACKAGE_HOMES

_HOMES = {name: home.removeprefix(".profile_ode") for name, home in _PACKAGE_HOMES.items()
          if home.startswith(".profile_ode.")}
__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_HOMES[name], __name__), name)


def __dir__():
    return sorted({*globals(), *_HOMES})
