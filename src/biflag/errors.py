"""Exception hierarchy shared by all biflag modules.

Validation-type errors (bad parameters, bad config files, out-of-domain
inputs) derive from ValueError; numerical failures (root bracketing,
inconsistent power balances) derive from ArithmeticError. The CLI maps
the former to exit code 1 and the latter to exit code 2.
"""


class BiflagError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(BiflagError, ValueError):
    """A constructor or function argument violates its invariant."""


class DomainError(BiflagError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class SlenderBodyError(BiflagError, ValueError):
    """Slender-body drag law evaluated where ln(4*lambda/d) <= 2.90."""


class AsymmetryError(BiflagError, ValueError):
    """Closed-form solver invoked with geometrically distinct flagella."""


class ConfigError(BiflagError, ValueError):
    """A configuration document failed to parse or validate."""


class NumericalError(BiflagError, ArithmeticError):
    """Base class for numerical failures."""


class BracketError(NumericalError):
    """The force-balance root lies outside the accepted speed range."""


class InconsistencyError(NumericalError):
    """Computed quantities violate a physical consistency requirement."""
