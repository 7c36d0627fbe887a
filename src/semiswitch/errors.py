"""Shared exception types.

ValueError is used for plain bad input everywhere; the two classes here
mark conditions a caller may want to treat specially: blowing a size
budget, and finding a counterexample to something the library asserts
can never happen (which means a bug, not bad input).  :func:`read_limit`
is the one reader of every size budget, :func:`require_int` the one
type check of a number that the library would otherwise coerce, and
:func:`require_code` the one check of a field element code.
"""

import os


def read_limit(value, default, name, env=None):
    """``value``, else the int in environment variable ``env``, else ``default``.

    Raises ValueError, naming ``name`` or ``env``, for a limit that is
    negative or not an int, or a non-integer environment value.
    """
    if value is None:
        raw = os.environ.get(env) if env else None
        try:
            value = default if raw is None else int(raw)
        except ValueError:
            raise ValueError(f"{env} must be an integer, got {raw!r}") from None
    if require_int(value, name) < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def require_int(value, name):
    """``value`` if it is an int; ValueError, naming ``name``, for a bool or any other type."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def require_code(value, order, name):
    """``value`` if it is an element code, an int in 0..order-1; ValueError, naming ``name``."""
    # type() rather than isinstance(): bools are ints too
    if type(value) is not int or not 0 <= value < order:
        raise ValueError(f"{name} {value!r} is not an int in 0..{order - 1}")
    return value


class BudgetExceeded(RuntimeError):
    """An enumeration or table would exceed the configured size budget."""


class ConsistencyError(AssertionError):
    """An internal invariant failed; carries a witness when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
