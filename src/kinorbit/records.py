"""What every layer of the package shares, and nothing else.

:class:`Record`, the base of the package's record types;
:class:`CatalogError`, the error a value outside its domain raises;
:func:`rat` and :func:`exact`, which read an exact ``Fraction``;
:func:`checked_float`, which converts one to a float; and :func:`real`,
the one reader of a named float entry.  Every layer imports this module,
so a command loads no linear algebra and no structure constants to build
a record, raise the error or read a value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational, Real

__all__ = ["CatalogError", "Record", "checked_float", "exact", "rat", "real"]


class Record:
    """A record: named fields, compared, hashed and shown field by field.

    A subclass names its fields once, ``__slots__ = _fields = (...)`` (it
    may add slots after the fields that are not fields), and its
    ``__init__`` coerces and validates the values before :meth:`_init`
    stores them.  ``==``, ``hash`` and ``repr`` read the fields in order,
    as for a dataclass.  A record refuses assignment and deletion;
    :meth:`_replace` gives a changed copy.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # the __set__ of each slot's descriptor, in slot order, collected once
    # per class: calling it skips the by-name lookup of object.__setattr__
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _init(self, *values) -> None:
        """Store ``values`` in the slots, in order, through their descriptors."""
        for store, value in zip(self._setters, values):
            store(self, value)

    @classmethod
    def _stored(cls, *values):
        """A record of ``values`` stored as they are, without ``__init__``'s
        checks: for values that pass them by construction."""
        record = cls.__new__(cls)
        record._init(*values)
        return record

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A record of this type with ``changes``, built and checked by ``__init__``."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild the record through __init__
        return type(self), self._values()


class CatalogError(ValueError):
    """Raised for unknown algebra names, inadmissible variant requests and
    parameter values outside their domain (a nonpositive scale or mass, a
    vanishing charge)."""


def rat(value) -> Fraction:
    """Coerce ``value`` to an exact ``Fraction``.

    Accepts ``Fraction``, integers, strings like ``"3/7"``, and floats
    (converted exactly via their binary expansion).  A ``bool`` is no
    number here: it raises the :class:`TypeError` that ``None`` does.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (Rational, str, float)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def exact(name: str, value) -> Fraction:
    """The exact value of the field or parameter ``name``, as :func:`rat`
    reads it; a value ``rat`` refuses (a bool, a non-finite float, a text
    that is no number) raises :class:`CatalogError` naming ``name``."""
    try:
        return rat(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        pass
    raise CatalogError(f"{name} must be a finite rational number, got {value!r}")


def checked_float(value, name: str) -> float:
    """The float nearest the exact ``value``, an int or ``Fraction``;
    :class:`OverflowError` naming ``name`` when it overflows, or when it is
    exactly nonzero but rounds to 0."""
    try:
        # the correctly rounded quotient float() forms, without the
        # dispatch of numbers.Rational.__float__
        result = value.numerator / value.denominator
    except OverflowError:
        result = math.inf if value > 0 else -math.inf
    if math.isinf(result) or (result == 0 and value != 0):
        raise OverflowError(f"{name} is {result!r} as a float but not exactly")
    return result


def real(name: str, value) -> float:
    """The float of the entry ``name``, the float counterpart of :func:`exact`.

    A finite ``float`` is returned as it is; an ``int`` or ``Fraction`` is
    :func:`checked_float` of it, so one that overflows, or is nonzero but
    rounds to 0, raises :class:`OverflowError` naming ``name``; any other
    finite real number (a NumPy scalar) is its ``float``.  A ``bool``, a
    value that is no real number or one that is not finite raises
    :class:`CatalogError` naming ``name``.
    """
    if type(value) is float:
        if math.isfinite(value):
            return value
    elif isinstance(value, bool) or not isinstance(value, Real):
        raise CatalogError(f"{name} must be a real number, got {value!r}")
    elif isinstance(value, (int, Fraction)):
        return checked_float(value, name)
    elif math.isfinite(converted := float(value)):
        return converted
    raise CatalogError(f"{name} must be finite, got {value!r}")

