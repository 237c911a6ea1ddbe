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

The package namespace re-exports the core types, ``Series`` and the family
builders.  ``Series`` resolves on first use, so ``import degenbell`` loads
``core`` and ``numbers`` and not the series engine.  ``opcalc`` and
``identities`` are imported as submodules
(``from degenbell.identities import verify``), so ``import degenbell`` and
the ``table``, ``eval`` and ``series`` commands do not load them.
"""

from typing import TYPE_CHECKING

from .core import (
    LambdaPoly,
    Rational,
    XPoly,
    format_rational,
    parse_rational,
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

if TYPE_CHECKING:
    from .series import Series

__all__ = [
    "LambdaPoly",
    "Rational",
    "Series",
    "XPoly",
    "bell_deg",
    "bernoulli_deg",
    "bracket_deg",
    "falling_deg",
    "format_rational",
    "parse_rational",
    "rising_deg",
    "stirling1_deg",
    "stirling2_deg",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """``degenbell.Series``, loading the series engine on first use."""
    if name == "Series":
        from .series import Series
        return Series
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
