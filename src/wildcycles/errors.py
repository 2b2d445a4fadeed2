"""Exception types shared across the toolkit."""


class WildcyclesError(Exception):
    """Base class for all toolkit errors."""


class NotPrime(WildcyclesError):
    """Modulus fails primality validation."""


class ZeroInverse(WildcyclesError):
    """Inverse of zero requested."""


class DomainMismatch(WildcyclesError):
    """Operands live over different coefficient domains."""


class ParseError(WildcyclesError):
    """Malformed input text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    pass


class IndexOutOfRange(WildcyclesError):
    """Variable index outside the polynomial's variable range."""


class ZeroOrderTerm(WildcyclesError):
    """Operator has a zero-order (multiplication) term where none is allowed."""


class NotCritical(WildcyclesError):
    """Polynomial has constant or linear part; origin is not critical."""


# the states (or curve pairs) an exhaustive enumeration may visit by default
DEFAULT_STATE_BUDGET = 10**7


class StateBudgetExceeded(WildcyclesError):
    """Requested state space exceeds the configured budget."""


class SingularCurve(WildcyclesError):
    """Hasse bound requested for a singular curve."""


class RefuseChar2(WildcyclesError):
    """Probe requires odd characteristic."""
