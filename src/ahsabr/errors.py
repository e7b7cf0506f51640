"""Exception hierarchy shared across the package."""


class AhSabrError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AhSabrError):
    """Invalid input: a bad configuration value, a missing or unreadable
    input file, an unwritable output path or malformed quote data."""


class NumericalError(AhSabrError):
    """Base class for errors signalling a numerical breakdown."""


class PriceOutOfBounds(NumericalError):
    """Option price outside the invertible (intrinsic, upper-bound) range."""


class SingularPivot(NumericalError):
    """Forward elimination hit a vanishing pivot in the tridiagonal solve."""


class NonpositiveShiftedStrike(NumericalError):
    """Strike plus shift is not positive; the CEV map is undefined there."""


class DegenerateStraddle(NumericalError):
    """ATM straddle quotes are inconsistent with a positive ATM density."""


class DegenerateButterfly(NumericalError):
    """Butterfly quotes imply a non-positive density next to the forward."""


class NegativeNuSquared(NumericalError):
    """Quotes admit no real vol-of-vol (nu^2 solved negative)."""


class RhoOutOfRange(NumericalError):
    """Quotes imply a correlation with |rho| >= 1."""


class UnstableDifferences(NumericalError):
    """Finite-difference limit evaluation did not stabilise under halving."""


class ConvergenceError(NumericalError):
    """A fixed-point or root-finding iteration failed to converge."""


class ForwardTooCloseToBoundary(ConfigError):
    """Grid would leave fewer than two nodes on one side of the forward."""


class MalformedRow(ConfigError):
    """A quote-file row could not be parsed."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class MissingStrike(ConfigError):
    """A required strike is absent from the supplied quotes."""

    def __init__(self, strike: float):
        super().__init__(f"no quote found at required strike {strike:.6%}")
        self.strike = strike


class AmbiguousQuote(ConfigError):
    """The quotes name more than one (contract, quote date), or two rows of
    one kind match one target strike: a calibration would mix them."""


class SchemaMismatch(ConfigError):
    """Report document carries an unsupported schema version or shape."""
