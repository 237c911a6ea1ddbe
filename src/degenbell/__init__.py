"""degenbell: exact symbolic toolkit for deformed Bell polynomials.

The package works over exact rational arithmetic with the deformation
parameter λ kept symbolic, so identity checks are proofs-for-all-λ rather
than spot checks.  Public surface:

* :mod:`degenbell.core` -- Rational / LambdaPoly / XPoly arithmetic.
* :mod:`degenbell.series` -- truncated formal power series in t.
* :mod:`degenbell.numbers` -- deformed Stirling, Bernoulli, and Bell
  families.
* :mod:`degenbell.opcalc` -- the x^(1-λ)·d/dx operator calculus.
* :mod:`degenbell.identities` -- the named-identity verification harness.
* :mod:`degenbell.cli` -- the ``degenbell`` command-line tool.
"""

from .core import (
    LambdaPoly,
    Rational,
    XPoly,
    format_rational,
    parse_rational,
)
from .identities import (
    Counterexample,
    FamilyTables,
    VerifyReport,
    catalog_ids,
    verify,
    verify_all,
)
from .numbers import (
    bell_deg,
    bernoulli_deg,
    bracket_deg,
    falling_deg,
    rising_deg,
    stirling1_deg,
    stirling2_deg,
)
from .opcalc import ExpExpr, op_apply, op_power
from .series import Series

__all__ = [
    "Counterexample",
    "ExpExpr",
    "FamilyTables",
    "LambdaPoly",
    "Rational",
    "Series",
    "VerifyReport",
    "XPoly",
    "bell_deg",
    "bernoulli_deg",
    "bracket_deg",
    "catalog_ids",
    "falling_deg",
    "format_rational",
    "op_apply",
    "op_power",
    "parse_rational",
    "rising_deg",
    "stirling1_deg",
    "stirling2_deg",
    "verify",
    "verify_all",
]

__version__ = "0.1.0"
