"""Exception types shared across the package, and its type and range checks."""

import math
import numbers


class RankfedError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(RankfedError):
    """Operands have incompatible or unexpected shapes."""


class ParameterError(RankfedError):
    """A configuration or call parameter is out of its valid range."""


class InputError(RankfedError):
    """Input data violates a precondition (empty batch, bad label, ...)."""


class InvariantError(RankfedError):
    """A documented invariant was violated (negative importance, bad weights, ...)."""


class NumericError(RankfedError):
    """A computation produced non-finite values."""


class ProtocolError(RankfedError):
    """Client/server exchange violated the round protocol (e.g. rank mismatch)."""


class UndefinedMetricError(RankfedError):
    """A metric is undefined for the given input (single-class AUC, constant CKA input)."""


def of_type(v, kind) -> bool:
    """``v`` is of ``kind``: for int any integral number, for float any real
    one, neither a bool."""
    want = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    return isinstance(v, want) and (kind is bool or not isinstance(v, bool))


def require_finite(name: str, value, low: float, strict: bool = False) -> None:
    """Raise ``ParameterError`` unless ``value`` is finite and >= ``low``
    (> ``low`` if ``strict``). NaN and infinities fail."""
    if not (math.isfinite(value) and (value > low if strict else value >= low)):
        raise ParameterError(
            f"{name} must be finite and {'>' if strict else '>='} {low}, got {value!r}")
