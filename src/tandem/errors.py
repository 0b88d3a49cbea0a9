"""Exception taxonomy shared across the package."""


class TandemError(Exception):
    """Base class for all package errors."""


class ShapeError(TandemError):
    """Dimension or length mismatch between numeric arguments."""


class NumericError(TandemError):
    """Non-finite values where finite numbers are required, or divergence."""


class DataError(TandemError):
    """Dataset ingestion failure (parse error, missing value, bad level)."""


class IdxFormatError(DataError):
    """Malformed IDX image/label file."""


def caught(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc
