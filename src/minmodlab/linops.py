"""Square operators on N-sections.

``Dense``, the lab's one operator type, stores integer rows: row i is
A_i / D_i with D_i > 0 the row's least common denominator, so
gcd(A_i, D_i) = 1.  The form is canonical, so equal matrices give equal
``Dense``, and every exact engine reads the rows as they are.
``Dense(entries)`` converts rationals once, by ``integer_row``; the builders
write rows through ``Dense.of_rows``, with no ``Fraction`` arithmetic, and
``entries`` is derived, for the facet LPs; ``apply`` reads the rows too.
``RankOne`` only records the factors of u (x) g: ``add`` puts u_i g on row
i by ``perturbed``, its integer core.  ``op_norm_sup`` is the maximal row
l1 sum.  Dimension mismatches raise ``ValueError`` instead of broadcasting.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .exactnum import Covector, Rational, RationalInput, Record, Vector, as_rational


def integer_row(values: Iterable[Rational]) -> tuple[tuple[int, ...], int]:
    """(A, D): the rationals v as the integers A = D v over their least common denominator D, so gcd(A, D) = 1."""
    ratios = [c.as_integer_ratio() for c in values]
    D = lcm(*(q for _, q in ratios))
    return tuple(p * (D // q) for p, q in ratios), D


class Dense(Record):
    """Explicit square matrix, stored as integer rows: row i is rows[i] / denominators[i]."""

    rows: tuple[tuple[int, ...], ...]
    denominators: tuple[int, ...]

    def __init__(self, entries: Iterable[Iterable[RationalInput]]) -> None:
        """Read a square matrix of rationals into its integer rows."""
        pairs = [integer_row(map(as_rational, row)) for row in entries]
        n = len(pairs)
        if n == 0:
            raise ValueError("a dense operator needs at least one row")
        for row, _ in pairs:
            if len(row) != n:
                raise ValueError(f"dense operator must be square: got a row of length {len(row)} in dimension {n}")
        self.__dict__.update(zip(self._fields, zip(*pairs)))

    @classmethod
    def of_rows(cls, rows: tuple, denominators: tuple) -> Dense:
        """The ``Dense`` of integer rows already in its form: tuples, each with gcd(A_i, D_i) = 1 and D_i > 0."""
        self = object.__new__(cls)
        self.__dict__.update(rows=rows, denominators=denominators)
        return self

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[Rational, ...], ...]:
        return tuple(tuple(Fraction(a, D) for a in row) for row, D in zip(self.rows, self.denominators))

    def apply(self, x: Vector) -> Vector:
        if len(x) != self.dim:
            raise ValueError(f"dimension mismatch: operator is {self.dim}, vector is {len(x)}")
        X, e = integer_row(x.coords)  # x = X / e, so (T x)_i = A_i X / (D_i e)
        return Vector(tuple(Fraction(sum(map(int.__mul__, row, X)), D * e)
                            for row, D in zip(self.rows, self.denominators)))


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
    """Coordinatewise multiplication by a fixed vector: row i is d_i e_i, over d_i's denominator."""
    ratios = [as_rational(v).as_integer_ratio() for v in values]
    if not ratios:
        raise ValueError("a dense operator needs at least one row")
    zeros = (0,) * len(ratios)
    return Dense.of_rows(tuple(zeros[:i] + (p,) + zeros[i + 1:] for i, (p, _) in enumerate(ratios)),
                         tuple(q for _, q in ratios))


def identity(n: int) -> Dense:
    return diagonal((1,) * n)


def perturbed(T: Dense, rank_one: tuple) -> Dense:
    """T + U (x) G / e for integers U, G and e > 0: row i is e A_i + D_i U_i G over e D_i, over their gcd.

    That is the row's lcm form, its one integer form with gcd 1 and D > 0, so
    no ``Fraction`` sum is needed; a row with U_i = 0 stays as it is.
    """
    U, G, e = rank_one
    rows, denominators = list(T.rows), list(T.denominators)
    for i, u in enumerate(U):
        if u:
            row = [e * a + denominators[i] * u * g for a, g in zip(rows[i], G)] + [e * denominators[i]]
            h = gcd(*row)  # e D_i rides last, so the gcd covers it
            rows[i], denominators[i] = tuple([x // h for x in row[:-1]]), row[-1] // h
    return Dense.of_rows(tuple(rows), tuple(denominators))


def add(T: Dense, K: RankOne) -> Dense:
    """T + u (x) g: ``perturbed`` by u = U/e_u and g = G/e_g from ``integer_row``; dimensions must agree."""
    if T.dim != K.dim:
        raise ValueError(f"dimension mismatch in sum: {T.dim} and {K.dim}")
    (U, e_u), (G, e_g) = integer_row(K.direction.coords), integer_row(K.functional.coeffs)
    return perturbed(T, (U, G, e_u * e_g))


def materialize(K: RankOne) -> Dense:
    """The matrix of u (x) g, added to the zero matrix: row i is u_i g, and zero where u_i = 0."""
    return add(diagonal((0,) * K.dim), K)


def op_norm_sup(operator: Dense) -> Rational:
    """Exact operator norm for the sup norm: max row l1 sum, sum_j |A_ij| / D_i.

    The sign vector of a maximal row (zero entries +1) attains it.
    """
    return max(Fraction(sum(map(abs, row)), D) for row, D in zip(operator.rows, operator.denominators))
