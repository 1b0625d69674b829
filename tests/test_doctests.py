"""The docstring examples of every sumsetlab module run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import sumsetlab

MODULES = ["sumsetlab"] + sorted(
    f"sumsetlab.{info.name}" for info in pkgutil.iter_modules(sumsetlab.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"


def test_the_examples_are_found():
    # identities 10 (ratio_text 4, aomoto_constant_term 2, relabel_sign 2,
    # zeilberger_sign 1, sweep 1), mpoly.difference_coeff 4,
    # sumsets.coverage_check 2 and ffield.PrimeField 1: an example that
    # stops being found fails here
    found = sum(doctest.testmod(importlib.import_module(name)).attempted for name in MODULES)
    assert found == 17
