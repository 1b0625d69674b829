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
    # four on mpoly.difference_coeff, four on identities.ratio_text, one on
    # ffield.PrimeField
    found = sum(doctest.testmod(importlib.import_module(name)).attempted for name in MODULES)
    assert found >= 9
