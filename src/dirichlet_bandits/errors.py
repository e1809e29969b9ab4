"""Exception types shared across the package."""


class BanditError(Exception):
    """Base class for all package-specific errors."""


class EmptyMeasureError(BanditError):
    """A measure would end up with no mass."""


class NegativeWeightError(BanditError):
    """An atom weight or mixture coefficient is negative."""


class NotNormalizedError(BanditError):
    """An operation requires a probability measure (total mass 1)."""


class InvalidParameterError(BanditError):
    """A constructor or operation parameter is out of its domain."""


class ResourceBudgetExceededError(BanditError):
    """The solver's count lattice is larger than its configured state budget."""


class TooLargeError(BanditError):
    """An instance is too large for exhaustive strategy evaluation."""


class NotRegularError(BanditError):
    """An index computation requires a regular discount sequence."""


class DegenerateHorizonError(BanditError):
    """The total discount weight is zero, so per-pull rates are undefined."""


class NonPositiveDiscountError(BanditError):
    """Break-even observation search requires strictly positive discounts."""


class HorizonTooShortError(BanditError):
    """The operation needs at least two remaining stages."""


class GeneratorFailedError(BanditError):
    """A random-instance generator failed its own validity self-check."""


class ConfigError(BanditError):
    """An instance configuration file is malformed.

    Carries optional line/column information for parse errors.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return f"{base} (line {self.line}, column {self.column})"
        return base
