"""Exception types shared across the package."""


class DymartError(Exception):
    """Base class for package errors."""


class ParseError(DymartError):
    """Malformed textual input (numbers, words, specs, config files)."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DepthGuardError(DymartError):
    """A depth or exponent input is negative or above its limit."""


class PrecisionContractError(DymartError):
    """An approximator returned a value incompatible with its declared
    precision contract (detected where the true value's range is known)."""


class AnchorError(DymartError):
    """Evaluation point lies outside a function spec's anchor interval."""


class SignUndecidableError(DymartError):
    """Sign tests stayed inconclusive after the full escalation budget
    (near-flat or misspecified root-finding instance)."""


class InsufficientBitsError(DymartError):
    """A source prefix is too short to produce the requested output."""
