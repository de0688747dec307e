"""Momentum-profile boundary value problem: exact coefficient algebra,
adaptive integration, parameter shooting, and the m = 1 certificate.

hext's loading rule holds here too: importing this package loads none of its
modules.  Its names are the rows of hext's table homed in it, served by
hext's one loader: a name's home (.certificate, .coeffs or .integrate) is
imported on first use and the name looked up there every time.  .integrate
alone imports numpy."""
from .. import _HOMES as _PACKAGE_HOMES, _loader

_HOMES = {name: home.removeprefix(".profile_ode") for name, home in _PACKAGE_HOMES.items()
          if home.startswith(".profile_ode.")}
__all__, __getattr__, __dir__ = _loader(globals(), _HOMES)
