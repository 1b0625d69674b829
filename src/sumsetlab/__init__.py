"""sumsetlab: exact verification of restricted-sumset lower bounds over
Z/pZ and the constant-term identities behind them.

The package enumerates restricted sumsets by brute force, evaluates the
corresponding lower-bound formulas with explicit hypothesis checking,
certifies bounds through nonvanishing polynomial coefficients, and
cross-checks the Dyson/Aomoto-style constant-term identities against
their factorial closed forms — all in exact integer arithmetic.
"""

from types import ModuleType as _ModuleType

from .contract import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CannotSatisfyHypothesis,
    InstanceFormatError,
)
from .ffield import (
    NotPrime,
    OutOfRange,
    PrimeField,
    is_prime,
)
from .mpoly import difference_coeff
from .identities import (
    AomotoParams,
    DegreeInfeasible,
    HypothesisViolated,
    InterpolationMismatch,
    LeadingCoefficientReport,
    NonIntegerResult,
    ParameterOutOfRange,
    TooFewVariables,
    aomoto_closed_form,
    aomoto_constant_term,
    chi,
    dyson_closed_form,
    dyson_constant_term,
    key_coefficient,
    key_coefficient_closed_form,
    leading_coefficient_check,
    zeilberger_coefficient,
)

# The names sumsets defines, looked up there on first use (PEP 562), so
# that importing the package, or a run that never enumerates, does not
# load it.
_SUMSETS_NAMES = frozenset((
    "BoundEntry", "BoundReport", "CertificateReport", "CoverageReport",
    "CoverageSweepResult", "ExperimentTrial", "InstanceAnalysis", "NotInShrinkRegime",
    "SplitMix64", "SumsetInstance", "analyze", "certificate_check", "compute_bounds",
    "coverage_check", "coverage_sweep", "coverage_threshold",
    "enumerate_restricted_sumset", "instance_from_dict", "instance_to_dict",
    "load_instance", "parameter_hypothesis_met", "random_instance", "run_experiment",
    "shrink_sizes", "uniform_forbidden",
))

__version__ = "0.1.0"

# every public name bound above, the submodules aside, and sumsets' names
__all__ = sorted(_SUMSETS_NAMES.union(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)))


def __getattr__(name):
    if name in _SUMSETS_NAMES:
        from . import sumsets
        return getattr(sumsets, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()).union(__all__))
