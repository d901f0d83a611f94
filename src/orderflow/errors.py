"""Exception types shared across the package."""


class OrderflowError(Exception):
    """Base class for all orderflow errors."""


class DomainEscape(OrderflowError):
    """A relocated tuple pulls back outside the configuration window."""


class ArityMismatch(OrderflowError):
    """Operation applied to a configuration of the wrong arity."""


class NotALinearOrder(OrderflowError):
    """A pair configuration fails alternation or transitivity."""


class OutOfWindow(OrderflowError):
    """An integer is not an element of the expected window."""


class DegenerateWindow(OrderflowError):
    """Window too small for the requested operation."""


class WindowTooSmall(OrderflowError):
    """Window smaller than the arity of the requested code."""


class DegenerateInput(OrderflowError):
    """Numeric input with coincident entries where distinct ones are required."""


class GroundTooSmall(OrderflowError):
    """Ground window below the size bound a construction needs."""


class FormatError(OrderflowError):
    """Malformed text input.  Carries the offending line number when known."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno
