"""Exception types shared across the package.

Every type derives from XjacError, and every validation failure also
from ValueError.  cli.main maps ConfigError, any other ValueError and
OSError to exit 2 and BudgetExceededError, which is no ValueError, to
exit 3; it does not catch XjacError itself.
"""


class XjacError(Exception):
    """Root of the package exception hierarchy."""


class NotPrimeError(XjacError, ValueError):
    """Field characteristic is not prime."""


class EvenCharacteristicError(XjacError, ValueError):
    """Characteristic 2 is outside the supported odd-characteristic range."""


class NotIrreducibleError(XjacError, ValueError):
    """Extension modulus factors over the base field."""


class NotMonicError(XjacError, ValueError):
    """Polynomial was required to be monic."""


class WrongDegreeError(XjacError, ValueError):
    """Polynomial degree violates a structural requirement."""


class NonElementError(XjacError, ValueError):
    """Integer encoding is outside [0, q) for the field at hand."""


class FieldMismatchError(XjacError, ValueError):
    """Operands belong to different fields."""


class BothZeroError(XjacError, ValueError):
    """gcd(0, 0) requested; there is no monic generator."""


class NotSquarefreeError(XjacError, ValueError):
    """Curve polynomial has a repeated root."""


class PointNotOnCurveError(XjacError, ValueError):
    """Affine coordinates do not satisfy the curve equation."""


class InvalidDivisorError(XjacError, ValueError):
    """Pair (u, v) is not a reduced Mumford representative."""


class NegativeScalarError(XjacError, ValueError):
    """Scalar multiples are defined here for m >= 0 only."""


class KOutOfRangeError(XjacError, ValueError):
    """Output length k outside the range an extractor supports."""


class RequiresPrimeFieldError(XjacError, ValueError):
    """Bit-level extractors are defined over prime fields only."""


class TrivialCharacterError(XjacError, ValueError):
    """Nontrivial additive character required (a != 0)."""


class DegreeTooHighError(XjacError, ValueError):
    """Character-sum bound only covers 1 <= deg P < p."""


class LOutOfRangeError(XjacError, ValueError):
    """Interval length must satisfy 1 <= L <= p."""


class BadSubgroupBasisError(XjacError, ValueError):
    """Subgroup basis indices must be distinct integers in [0, n)."""


class BudgetExceededError(XjacError):
    """A command's work estimate exceeds its --budget (raised by the CLI)."""


class ConfigError(XjacError, ValueError):
    """Invalid or inconsistent CLI / config-file parameters."""


class CacheError(XjacError, ValueError):
    """Cache file exists but fails schema or consistency validation."""
