import pytest

from xjac.curve import HyperellipticCurve
from xjac.field import finite_field

# session scope so expensive enumerations amortize across test files;
# curves cache their point/divisor tables internally


@pytest.fixture(scope="session")
def F7():
    return finite_field(7)


@pytest.fixture(scope="session")
def F9():
    return finite_field(3, 2)


@pytest.fixture(scope="session")
def F11():
    return finite_field(11)


@pytest.fixture(scope="session")
def F13():
    return finite_field(13)


@pytest.fixture(scope="session")
def F27():
    return finite_field(3, 3)


@pytest.fixture(scope="session")
def c7(F7):
    """Reference curve y^2 = x^5 + 1 over F_7."""
    return HyperellipticCurve(F7, "1,0,0,0,0,1")


@pytest.fixture(scope="session")
def c9(F9):
    return HyperellipticCurve(F9, "1,0,0,0,0,1")


@pytest.fixture(scope="session")
def c11(F11):
    return HyperellipticCurve(F11, "1,1,0,0,0,1")


@pytest.fixture(scope="session")
def c13(F13):
    return HyperellipticCurve(F13, "1,2,0,0,0,1")


@pytest.fixture(scope="session")
def c27(F27):
    """y^2 = x^5 + x, the lexicographically first squarefree quintic."""
    return HyperellipticCurve(F27, "0,1,0,0,0,1")


@pytest.fixture
def table_builds(monkeypatch):
    """The curves whose _class_table gets built, one entry per build."""
    builds = []
    class_table = HyperellipticCurve._class_table

    def counting_table(self):
        if self._table is None:
            builds.append(self)
        return class_table(self)

    monkeypatch.setattr(HyperellipticCurve, "_class_table", counting_table)
    return builds
