"""Run the library's docstring examples as doctests."""

import doctest

import pytest

import repro.bench.tables

MODULES = [repro.bench.tables]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert results.failed == 0
    assert results.attempted > 0  # the module actually carries examples
