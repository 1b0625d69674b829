"""The result records are named tuples, the package names resolve to
their modules' objects, and importing the CLI stays light."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sumsetlab
import sumsetlab.contract as contract
import sumsetlab.sumsets as sumsets
from sumsetlab import AomotoParams, ParameterOutOfRange, coverage_check

SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = {
    "BoundEntry": ("name", "formula", "value", "hypothesis_met", "reason"),
    "BoundReport": ("thm1", "thm2", "thm3", "old"),
    "CertificateReport": ("method", "coefficient_integer", "coefficient_mod_p",
                          "claimed_bound", "certificate_valid"),
    "CoverageReport": ("subset", "n", "threshold", "hypothesis_met", "covered", "missing"),
    "CoverageSweepResult": ("p", "m", "s_set", "subset_size", "threshold", "mode", "rows"),
    "InstanceAnalysis": ("sumset", "bounds", "certificate", "degree_infeasible",
                         "violations"),
    "ExperimentTrial": ("index", "p", "n", "k", "m", "analysis"),
    "AomotoParams": ("n", "s", "a", "b", "m"),
    "LeadingCoefficientReport": ("n", "s", "b", "m", "degree", "sample_values",
                                 "coefficients", "leading_coefficient",
                                 "expected_leading", "agree"),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_fields_in_order(name):
    record = getattr(sumsetlab, name)
    assert record._fields == FIELDS[name]
    assert issubclass(record, tuple)
    assert record.__slots__ == ()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_records_are_immutable(name):
    record = getattr(sumsetlab, name)
    # AomotoParams checks its ranges, so every record gets valid values
    values = (1,) * len(FIELDS[name])
    instance = record(*values)
    with pytest.raises(AttributeError):
        setattr(instance, FIELDS[name][0], 2)
    with pytest.raises(AttributeError):
        instance.extra = 2


def test_record_repr():
    report = coverage_check(7, [1], [0, 1, 3])
    assert repr(report) == ("CoverageReport(subset=(0, 1, 3), n=1, threshold=5, "
                            "hypothesis_met=False, covered=False, missing=(2, 4, 5, 6))")
    assert report == ((0, 1, 3), 1, 5, False, False, (2, 4, 5, 6))


@pytest.mark.parametrize("args, message", [
    ((0, 0, 1, 1, 0), "n must be >= 1, got 0"),
    ((2, 3, 1, 1, 0), "s must lie in [0, 2], got 3"),
    ((2, -1, 1, 1, 0), "s must lie in [0, 2], got -1"),
    ((2, 0, -1, 1, 0), "a, b, m must be >= 0, got a=-1, b=1, m=0"),
    ((2, 0, 1, -1, 0), "a, b, m must be >= 0, got a=1, b=-1, m=0"),
    ((2, 0, 1, 1, -1), "a, b, m must be >= 0, got a=1, b=1, m=-1"),
])
def test_aomoto_params_refusals(args, message):
    with pytest.raises(ParameterOutOfRange, match=f"^{re.escape(message)}$"):
        AomotoParams(*args)
    with pytest.raises(ParameterOutOfRange, match=f"^{re.escape(message)}$"):
        AomotoParams(**dict(zip(FIELDS["AomotoParams"], args)))


def test_aomoto_params_construction():
    params = AomotoParams(2, 1, a=0, b=1, m=2)
    assert params == AomotoParams(n=2, s=1, a=0, b=1, m=2) == (2, 1, 0, 1, 2)
    assert repr(params) == "AomotoParams(n=2, s=1, a=0, b=1, m=2)"


def test_cli_import_leaves_heavy_modules_out():
    # -S: no site hook may import these first and hide what the package
    # pulls in; sumsets loads only in the commands that run it
    code = ("import sys, sumsetlab.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'typing', "
            "'fractions', 'decimal', 'numbers', 'sumsetlab.sumsets') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# sumsetlab.__all__ as it was when the package still imported sumsets
# eagerly; the lazy names must not change it
PACKAGE_NAMES = [
    "AomotoParams", "BoundEntry", "BoundReport", "BudgetExceeded",
    "CannotSatisfyHypothesis", "CertificateReport", "CoverageReport",
    "CoverageSweepResult", "DEFAULT_BUDGET", "DegreeInfeasible", "ExperimentTrial",
    "HypothesisViolated", "InstanceAnalysis", "InstanceFormatError",
    "InterpolationMismatch", "LeadingCoefficientReport", "NonIntegerResult",
    "NotInShrinkRegime", "NotPrime", "OutOfRange", "ParameterOutOfRange",
    "PrimeField", "SplitMix64", "SumsetInstance", "TooFewVariables", "analyze",
    "aomoto_closed_form", "aomoto_constant_term", "certificate_check", "chi",
    "compute_bounds", "coverage_check", "coverage_sweep", "coverage_threshold",
    "difference_coeff", "dyson_closed_form", "dyson_constant_term",
    "enumerate_restricted_sumset", "instance_from_dict", "instance_to_dict",
    "is_prime", "key_coefficient", "key_coefficient_closed_form",
    "leading_coefficient_check", "load_instance", "parameter_hypothesis_met",
    "random_instance", "run_experiment", "shrink_sizes", "uniform_forbidden",
    "zeilberger_coefficient",
]


def test_all_star_import_and_dir_give_the_pinned_names():
    assert sumsetlab.__all__ == PACKAGE_NAMES
    namespace = {}
    exec("from sumsetlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PACKAGE_NAMES
    assert set(PACKAGE_NAMES) <= set(dir(sumsetlab))


def test_each_package_name_is_its_modules_object():
    # the two constants have no __module__; contract defines them
    for name in PACKAGE_NAMES:
        value = getattr(sumsetlab, name)
        home = getattr(value, "__module__", "sumsetlab.contract")
        assert getattr(importlib.import_module(home), name) is value, name


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'sumsetlab' has no attribute 'bogus'$"):
        sumsetlab.bogus
    with pytest.raises(ImportError):
        exec("from sumsetlab import bogus", {})


def test_sumsets_re_exports_the_contract():
    for name in ("DEFAULT_BUDGET", "HYPOTHESIS_CHOICES", "BudgetExceeded",
                 "CannotSatisfyHypothesis", "InstanceFormatError"):
        assert getattr(sumsets, name) is getattr(contract, name), name
    assert [(error.__name__, error.__bases__) for error in (
        contract.BudgetExceeded, contract.CannotSatisfyHypothesis,
        contract.InstanceFormatError)] == [
        ("BudgetExceeded", (RuntimeError,)), ("CannotSatisfyHypothesis", (ValueError,)),
        ("InstanceFormatError", (ValueError,))]
