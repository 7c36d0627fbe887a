"""Shared exception types and the input checks.

The input boundary, the rule each public name is held to: a name in a
module's ``__all__`` checks its arguments and raises ValueError on bad
input of any shape, not a TypeError, AttributeError or IndexError from
deeper down, and it coerces nothing.  The arithmetic methods of
``gf.FieldCtx`` are hot-path primitives that take valid element codes
only: the search walk would pay for a check on every step, so their
callers check codes once at the edge.

ValueError is used for plain bad input everywhere; the two classes here
mark conditions a caller may want to treat specially: blowing a size
budget, and finding a counterexample to something the library asserts
can never happen (which means a bug, not bad input).  :func:`read_limit`
is the one reader of every size budget, :func:`require_int` the one
type check of a number that the library would otherwise coerce,
:func:`require_qn` the one check of a bare (q, n) pair,
:func:`require_code` the one check of a field element code, and
:func:`require_instance` the one check that an argument is the library
object it names (a bare tuple is not a ``LinearizedPoly``).
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


def require_qn(q, n):
    """ValueError unless q and n are ints with q >= 2 and n >= 1."""
    if require_int(q, "q") < 2 or require_int(n, "n") < 1:
        raise ValueError(f"need q >= 2 and n >= 1, got q={q}, n={n}")


def require_code(value, order, name):
    """``value`` if it is an element code, an int in 0..order-1; ValueError, naming ``name``."""
    # type() rather than isinstance(): bools are ints too
    if type(value) is not int or not 0 <= value < order:
        raise ValueError(f"{name} {value!r} is not an int in 0..{order - 1}")
    return value


def require_instance(value, cls, name):
    """``value`` if it is a ``cls``; ValueError, naming ``name`` and the class, otherwise."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


class BudgetExceeded(RuntimeError):
    """An enumeration or table would exceed the configured size budget."""


class ConsistencyError(AssertionError):
    """An internal invariant failed; carries a witness when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
