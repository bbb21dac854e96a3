"""Exception types shared across the package, the finiteness check that
every parameter constructor applies before its range checks, and the
conversion of fields read from input files."""

import math


class CalibmixError(Exception):
    """Base class for package errors."""


class ParamError(CalibmixError, ValueError):
    """Invalid parameter bundle or degenerate input (e.g. constant x design)."""


class DataError(CalibmixError, ValueError):
    """Malformed input data; message carries the offending row number when known."""


class AccuracyError(CalibmixError, RuntimeError):
    """A quadrature or series evaluation could not certify the requested tolerance."""


def require_finite(**values):
    """Raise ParamError naming the first of ``values`` that is NaN, infinite
    or not a real number at all (None, a string, an array)."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParamError("%s must be a finite real number, got %r"
                             % (name, value)) from exc
        if not finite:
            raise ParamError("%s must be finite, got %r" % (name, value))


def converted(kind, value, name):
    """kind(value), or a DataError naming the field when ``value`` (read
    from an input file) does not convert; int does not truncate, and takes
    no JSON true/false."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError("field %s: %s" % (name, exc)) from exc
    if kind is int and (isinstance(value, bool)
                        or out != value and not isinstance(value, str)):
        raise DataError("field %s: %r is not an integer" % (name, value))
    return out
