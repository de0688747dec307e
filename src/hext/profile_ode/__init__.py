"""Momentum-profile boundary value problem: exact coefficient algebra,
adaptive integration, parameter shooting, and the m = 1 certificate.

This package holds modules only: .coeffs, .integrate and .certificate.
Importing it loads none of them, and it serves none of their names: each
public name is served by hext alone (hext.shoot, hext.certify_m1, ...),
from its home module here.  .integrate alone imports numpy."""
