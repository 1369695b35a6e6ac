"""Shared exception types.

The CLI maps these onto distinct exit codes, so downstream code should raise
the most specific class that applies rather than bare ValueError.
"""


class ConfigError(ValueError):
    """Bad configuration: unknown key, malformed value, impossible roster."""


class DataError(ValueError):
    """Input data violates an invariant (duplicates, non-monotone minutes)."""


class ParseError(DataError):
    """A row of an input file could not be parsed; message carries the line number."""


class ShapeError(ValueError):
    """Dimension mismatch between fitted objects and the data handed to them."""


class NumericError(ArithmeticError):
    """A computation produced non-finite intermediates."""


class FitError(RuntimeError):
    """Model estimation could not run on the given window."""
