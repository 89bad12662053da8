"""Square operators on N-sections.

``Dense`` is the lab's one operator type: every engine reads the rows of
its matrix, so the builders (``identity``, ``diagonal``, ``add``) return a
``Dense`` eagerly.  ``RankOne`` only records the two factors of u (x) g,
the form in which perturbations are searched and reported, and is only
expanded: ``add`` puts u_i g on row i of a ``Dense``, and ``materialize``
expands u (x) g alone.  ``op_norm_sup``, the sup-operator norm, is the
maximal row l1 sum of a ``Dense``.

Dimension discipline is strict: mismatches raise ``ValueError`` instead
of broadcasting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .exactnum import Covector, Rational, RationalInput, Record, Vector, as_rational

Row = tuple[Rational, ...]
Matrix = tuple[Row, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Dense(Record):
    """Explicit square matrix, stored row-major."""

    entries: Matrix

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(as_rational, row)) for row in self.entries)
        n = len(rows)
        if n == 0:
            raise ValueError("a dense operator needs at least one row")
        for row in rows:
            if len(row) != n:
                raise ValueError(f"dense operator must be square: got a row of length {len(row)} in dimension {n}")
        object.__setattr__(self, "entries", rows)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def apply(self, x: Vector) -> Vector:
        if len(x) != self.dim:
            raise ValueError(f"dimension mismatch: operator is {self.dim}, vector is {len(x)}")
        return Vector(
            tuple(sum((a * b for a, b in zip(row, x.coords) if a), _ZERO) for row in self.entries)
        )


class RankOne(Record):
    """The factors of x -> functional(x) * direction."""

    direction: Vector
    functional: Covector

    def __post_init__(self) -> None:
        if len(self.direction) != len(self.functional):
            raise ValueError(
                f"dimension mismatch: direction is {len(self.direction)}, "
                f"functional is {len(self.functional)}"
            )

    @property
    def dim(self) -> int:
        return len(self.direction)


def diagonal(values: Iterable[RationalInput]) -> Dense:
    """Coordinatewise multiplication by a fixed vector."""
    d = tuple(as_rational(v) for v in values)
    n = len(d)
    return Dense(tuple(tuple(d[i] if i == j else _ZERO for j in range(n)) for i in range(n)))


def identity(n: int) -> Dense:
    return diagonal((_ONE,) * n)


def add(T: Dense, K: RankOne) -> Dense:
    """T + u (x) g: row i of T plus u_i g, and unchanged where u_i = 0; dimensions must agree."""
    if T.dim != K.dim:
        raise ValueError(f"dimension mismatch in sum: {T.dim} and {K.dim}")
    g = K.functional.coeffs
    return Dense(tuple(
        tuple(a + u * c for a, c in zip(row, g)) if u else row for row, u in zip(T.entries, K.direction.coords)
    ))


def materialize(K: RankOne) -> Dense:
    """The matrix of u (x) g: row i is u_i g, and zero where u_i = 0."""
    g = K.functional.coeffs
    zeros = (_ZERO,) * len(g)
    return Dense(tuple(tuple(u * c for c in g) if u else zeros for u in K.direction.coords))


def op_norm_sup(operator: Dense) -> Rational:
    """Exact operator norm for the sup norm: max row l1 sum.

    The sign vector of a maximal row (zero entries +1) attains it.
    """
    return max(sum((abs(e) for e in row if e), _ZERO) for row in operator.entries)
