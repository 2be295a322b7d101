"""Public surface: the package exports and the README library example."""

import ast
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


def test_sources_parse_at_the_python_floor():
    """pyproject.toml requires Python >= 3.10, so no module may use syntax
    that only a newer interpreter running the tests accepts, such as
    `except*` on 3.11.  feature_version is the parser's best effort."""
    for path in sorted(Path(xjac.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
