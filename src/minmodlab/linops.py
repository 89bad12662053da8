"""Square operators on N-sections.

``Dense`` is the lab's one operator type: both engines read rows of a
matrix, so the builders (``identity``, ``diagonal``, ``add``) return a
``Dense`` eagerly.  ``RankOne`` only records the two factors of u (x) g,
the form in which perturbations are searched and reported; the builders
and ``materialize`` take its outer product, and ``op_norm_sup`` reads its
factors alone.
The sup-operator norm is the maximal row l1 sum of the matrix.

Dimension discipline is strict: mismatches raise ``ValueError`` instead
of broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .exactnum import Covector, Rational, RationalInput, Vector, as_rational

Row = tuple[Rational, ...]
Matrix = tuple[Row, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Dense:
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


@dataclass(frozen=True)
class RankOne:
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

    def rows(self) -> Matrix:
        g = self.functional.coeffs
        return tuple(tuple(u * gj for gj in g) if u else (_ZERO,) * len(g) for u in self.direction.coords)


Operator = Union[Dense, RankOne]


def diagonal(values: Iterable[RationalInput]) -> Dense:
    """Coordinatewise multiplication by a fixed vector."""
    d = tuple(as_rational(v) for v in values)
    n = len(d)
    return Dense(tuple(tuple(d[i] if i == j else _ZERO for j in range(n)) for i in range(n)))


def identity(n: int) -> Dense:
    return diagonal((_ONE,) * n)


def add(*operators: Operator) -> Dense:
    """Entrywise sum; dimensions must agree."""
    dims = {op.dim for op in operators}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch in sum: {sorted(dims)}")
    return Dense(tuple(
        tuple(sum((e for e in column if e), _ZERO) for column in zip(*rows))
        for rows in zip(*(materialize(op).entries for op in operators))
    ))


def materialize(operator: Operator) -> Dense:
    """The dense matrix; a ``Dense`` passes through, a ``RankOne`` is expanded."""
    if isinstance(operator, Dense):
        return operator
    return Dense(operator.rows())


def op_norm_sup(operator: Operator) -> Rational:
    """Exact operator norm for the sup norm: max row l1 sum.

    The sign vector of a maximal row (zero entries +1) attains it.  Row i of
    u (x) g sums to |u_i| ||g||_1, so a ``RankOne`` is read off its factors.
    """
    if isinstance(operator, RankOne):
        return max(map(abs, operator.direction.coords)) * sum(map(abs, operator.functional.coeffs), _ZERO)
    return max(sum((abs(e) for e in row if e), _ZERO) for row in materialize(operator).entries)
