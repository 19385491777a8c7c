"""Exception taxonomy shared by all fggsl modules.

The CLI maps these onto exit codes: parse/validation/contract problems
exit 1, numeric failures exit 2, I/O failures (plain OSError) and
MemoryError exit 3.
"""


class FggslError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(FggslError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(FggslError, ValueError):
    """A documented precondition of an operation was violated."""


class ParseError(FggslError, ValueError):
    """A data file could not be parsed; message carries the line number."""


class ValidationError(FggslError, ValueError):
    """Parsed data or configuration failed a consistency check."""


class NumericError(FggslError, ArithmeticError):
    """A numeric computation failed (NaN gradients, non-convergence)."""
