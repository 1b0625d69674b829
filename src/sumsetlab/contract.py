"""What the command line needs of the sumset layer before a handler runs.

The budget's default, the bound names that ``experiment --enforce``
accepts, and the three failures that ``main`` maps to exit codes.  They
live here, apart from :mod:`sumsetlab.sumsets`, so that a run which
never enumerates does not load it; ``sumsets`` re-exports all of them.
This module imports nothing.
"""

DEFAULT_BUDGET = 10 ** 7

HYPOTHESIS_CHOICES = ("none", "thm1", "thm2", "thm3")


class BudgetExceeded(RuntimeError):
    """The requested computation is larger than the configured budget."""


class CannotSatisfyHypothesis(ValueError):
    """No instance with these parameters can satisfy the requested hypothesis."""


class InstanceFormatError(ValueError):
    """Malformed instance document."""
