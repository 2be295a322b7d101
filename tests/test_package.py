"""Public surface: the package exports and the README library example."""

import doctest
from pathlib import Path

import xjac

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    for name in xjac.__all__:
        assert hasattr(xjac, name), name


def test_readme_example_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 1
    assert result.failed == 0
