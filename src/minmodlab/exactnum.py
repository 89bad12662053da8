"""Exact rational scalars, vectors, and covectors.

The computational core of this package is float-free: every scalar is a
``fractions.Fraction`` and every norm, pairing, and comparison below is
computed exactly.  ``Vector`` models a point of an N-section of a sup-norm
sequence space, ``Covector`` a functional on it (whose natural norm is the
l1 coefficient sum).  Coordinate accessors are 1-based, matching the usual
sequence-space indexing x_1, x_2, ...

``Record`` is the base of the lab's frozen result types, built with no code generated.

Serialization: rationals travel as the exact string ``p/q`` (``q`` omitted
when it is 1), vectors and covectors as ordered lists of such strings.
"""

from __future__ import annotations

import re
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from typing import Iterable, Iterator, Union

Rational = Fraction

RationalInput = Union[Rational, int, str]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")


def as_rational(value: RationalInput) -> Rational:
    """Coerce an int, Fraction, or ``p/q`` string to an exact rational.

    Floats are rejected on purpose: admitting one would silently poison the
    exactness guarantee everything downstream relies on.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: the core is exact; pass a Fraction, "
            "int, or 'p/q' string"
        )
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Rational) -> str:
    """Exact wire format ``p/q``, with ``/q`` omitted when q = 1.

    Output has no length cap: a value past the interpreter's int-to-str
    digit limit is rendered with the limit lifted, and the limit restored.
    Parsing keeps the limit.
    """
    value = as_rational(value)
    try:
        return str(value)
    except ValueError:  # only interpreters with the limit raise, so they have its setters
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)


def parse_rational(text: str) -> Rational:
    """Inverse of :func:`format_rational`; accepts only ``p`` or ``p/q`` with q != 0.

    A well-formed literal is refused only past the interpreter's int-to-str
    digit limit, which parsing keeps; the error names the limit.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(text.strip())
    except ValueError:  # only interpreters with the limit raise, so they have its getter
        digits = max(len(part) for part in text.strip().lstrip("+-").split("/"))
        raise ValueError(
            f"an entry of {digits} digits is too long for the lab's parser, "
            f"whose limit is {sys.get_int_max_str_digits()} digits"
        ) from None


class Record:
    """Frozen record over the public annotations of its own class body.

    It acts as ``@dataclass(frozen=True)`` on a class with no defaults, but
    generates no code at import; ``__post_init__`` runs where the class has one.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(f for f in cls.__dict__.get("__annotations__", ()) if not f.startswith("_"))
        cls._names = frozenset(cls._fields)
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if not kwargs and len(args) == len(fields):
            self.__dict__.update(zip(fields, args))
        else:  # the count and the names catch a field missing, unknown or given twice
            values = dict(zip(fields, args), **kwargs) if args else kwargs
            if len(args) + len(kwargs) != len(fields) or values.keys() != self._names:
                raise TypeError(f"{type(self).__qualname__}() takes each of the fields {fields} once")
            self.__dict__.update(values)
        if self._post_init:
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Entries(Record):
    """A nonempty tuple of exact rationals in the record's one field, read 1-based.

    Subclasses are ``Record``s over that one field, whose equality compares
    classes first, so a Vector never equals a Covector.
    """

    _noun: str  # "coordinate" or "coefficient"

    def __init__(self, values: Iterable[RationalInput]) -> None:
        entries = tuple(as_rational(v) for v in values)
        if not entries:
            raise ValueError(f"a {type(self).__name__.lower()} needs at least one {self._noun}")
        object.__setattr__(self, self._fields[0], entries)

    def __len__(self) -> int:
        return len(getattr(self, self._fields[0]))

    def __iter__(self) -> Iterator[Rational]:
        return iter(getattr(self, self._fields[0]))

    def _index(self, j: int, n: int) -> int:
        if not 1 <= j <= n:
            raise IndexError(f"{self._noun} {j} outside 1..{n}")
        return j - 1

    def _entry(self, j: int) -> Rational:
        entries = getattr(self, self._fields[0])
        return entries[self._index(j, len(entries))]

    def _replace(self, j: int, value: RationalInput):
        entries = list(getattr(self, self._fields[0]))
        entries[self._index(j, len(entries))] = as_rational(value)
        return type(self)(entries)

    def serialize(self) -> list[str]:
        return [format_rational(c) for c in getattr(self, self._fields[0])]


class Vector(_Entries):
    """Immutable point of an N-section, N = len(coords)."""

    coords: tuple[Rational, ...]
    _noun = "coordinate"

    coord = _Entries._entry  # 1-based coordinate x_j
    replace_coord = _Entries._replace

    def embed(self, n: int) -> "Vector":
        """Zero-pad into the n-section (n >= current length)."""
        if n < len(self.coords):
            raise ValueError(f"cannot embed a {len(self.coords)}-vector into {n} coordinates")
        return Vector(self.coords + (Fraction(0),) * (n - len(self.coords)))

    def __add__(self, other: "Vector") -> "Vector":
        _check_same_length(self, other)
        return Vector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        _check_same_length(self, other)
        return Vector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return Vector(tuple(-a for a in self.coords))

    def __rmul__(self, scalar: RationalInput) -> "Vector":
        c = as_rational(scalar)
        return Vector(tuple(c * a for a in self.coords))


class Covector(_Entries):
    """Immutable functional on an N-section; acts by the exact dot product."""

    coeffs: tuple[Rational, ...]
    _noun = "coefficient"

    coeff = _Entries._entry  # 1-based coefficient g_j
    replace_coeff = _Entries._replace

    def __call__(self, x: Vector) -> Rational:
        """Exact pairing g(x) = sum_j g_j x_j; lengths must agree."""
        _check_same_length(self, x)
        return sum((a * b for a, b in zip(self.coeffs, x.coords)), Fraction(0))


def _check_same_length(a, b) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")


def basis_vector(j: int, n: int) -> Vector:
    """e_j in the n-section (1-based)."""
    if not 1 <= j <= n:
        raise ValueError(f"basis index {j} outside 1..{n}")
    return Vector(tuple(Fraction(1 if i == j else 0) for i in range(1, n + 1)))


def sup_norm(x: Vector) -> Rational:
    """max_j |x_j| — the norm of the ambient sup-norm section."""
    return max(abs(c) for c in x.coords)


def dual_norm_l1(g: Covector) -> Rational:
    """sum_j |g_j| — the exact functional norm on a sup-norm section."""
    return sum((abs(c) for c in g.coeffs), Fraction(0))
