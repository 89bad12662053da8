"""Exact linear programming over the rationals.

A bounded-variable simplex with Bland's pivoting rule, specialised to the
one shape the facet programs have: every variable lies in a finite box,
every row reads ``coeffs . x <= rhs``, and the corner ``x = lower``
satisfies every row.  That corner with the row slacks as its basis is a
feasible start, so there is no phase 1 and no artificial variable, and a
compact feasible region means the optimum always exists.

Every tableau entry, bound, optimum, and witness coordinate is a
``fractions.Fraction``; the reported value is the objective evaluated at
the witness, and the witness is re-checked against every bound and
constraint before a result is returned.  Determinism is part of the
contract: the same program yields the same result object, witness included.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactnum import Rational, Record

_ZERO = Fraction(0)


class Constraint(Record):
    coeffs: tuple[Rational, ...]
    rhs: Rational
    corner_slack: Rational  # rhs - coeffs . lower >= 0, the row's slack at the start corner


class LinearProgram(Record):
    """Minimize objective . x subject to coeffs . x <= rhs rows and lower <= x <= upper.

    Every bound is finite and the corner x = lower satisfies every row.
    """

    objective: tuple[Rational, ...]
    constraints: tuple[Constraint, ...]
    lower: tuple[Rational, ...]
    upper: tuple[Rational, ...]

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def linear_program(
    objective: Sequence[Rational],
    constraints: Iterable[tuple],
    bounds: Sequence[tuple[Rational, Rational]],
) -> LinearProgram:
    """The program on ``Fraction`` data; constraints are (coeffs, rhs) pairs meaning coeffs . x <= rhs.

    The data are taken as given, not coerced or re-checked:
    ``_facet_minimum`` builds them from a validated operator, all
    Fractions, one bound pair per variable and rows of full width.  The one
    check kept is the one the simplex needs: ``ValueError`` when the corner
    x = lower violates a row.  An empty interval lower > upper passes here
    and fails ``solve``'s verification.
    """
    lower = tuple(lo for lo, _ in bounds)
    rows = []
    for i, (coeffs, rhs) in enumerate(constraints, 1):
        slack = rhs - _dot(coeffs, lower)
        if slack < 0:
            raise ValueError(f"row {i} is violated at the start corner x = lower")
        rows.append(Constraint(tuple(coeffs), rhs, slack))
    return LinearProgram(tuple(objective), tuple(rows), lower, tuple(up for _, up in bounds))


class LPResult(Record):
    value: Rational
    point: tuple[Rational, ...]


_PIVOT_CAP = 200_000


def _dot(coeffs: Sequence[Rational], point: Sequence[Rational]) -> Rational:
    return sum((c * x for c, x in zip(coeffs, point) if c), _ZERO)


def _corner_simplex(lp: LinearProgram) -> tuple[Rational, ...]:
    """Optimal vertex reached by Bland-rule pivots from the corner x = lower.

    The tableau is B^{-1} [A | I] over the columns (x_1..x_n, slack_1..slack_m).
    A row's slack rhs - coeffs . x >= 0 has no upper bound; the slacks
    start basic at their corner values, which ``linear_program`` computed
    and checked to be >= 0.  The reduced costs start equal to the costs,
    because every slack costs 0.
    """
    n = lp.num_vars
    m = len(lp.constraints)
    lo: list[Rational] = list(lp.lower) + [_ZERO] * m
    up: list[Optional[Rational]] = list(lp.upper) + [None] * m
    at_upper = [False] * (n + m)  # where a nonbasic variable rests
    T = []
    for i, con in enumerate(lp.constraints):
        unit = [_ZERO] * m
        unit[i] = Fraction(1)
        T.append(list(con.coeffs) + unit)
    basic_val = [con.corner_slack for con in lp.constraints]
    basis = list(range(n, n + m))
    in_basis = [False] * n + [True] * m
    d = list(lp.objective) + [_ZERO] * m

    for _ in range(_PIVOT_CAP):
        q = -1
        for j in range(n + m):
            dj = d[j]
            if not dj or in_basis[j] or lo[j] == up[j]:
                continue  # fixed variables never enter
            if (dj > 0) == at_upper[j]:  # improving: d < 0 at lower, d > 0 at upper
                q = j
                break
        if q < 0:
            break
        direction = -1 if at_upper[q] else 1

        own = None if up[q] is None else up[q] - lo[q]
        best: Optional[Rational] = None
        rowp = -1
        hit_upper = False
        for i in range(m):
            coef = T[i][q]
            if not coef:
                continue
            g = coef if direction > 0 else -coef
            bi = basis[i]
            if g > 0:
                cand = (basic_val[i] - lo[bi]) / g
            elif up[bi] is None:
                continue
            else:
                cand = (up[bi] - basic_val[i]) / -g
            if best is None or cand < best or (cand == best and bi < basis[rowp]):
                best = cand
                rowp = i
                hit_upper = g < 0
        if best is None and own is None:
            raise RuntimeError("internal: unbounded ratio test on a compact program")

        # the entering variable may reach its own opposite bound first
        flip = best is None or (own is not None and own <= best)
        delta = own if flip else best
        if delta:
            for i in range(m):
                c = T[i][q]
                if c:
                    basic_val[i] -= direction * c * delta
        if flip:
            at_upper[q] = not at_upper[q]
            continue
        leave = basis[rowp]
        in_basis[leave] = False
        at_upper[leave] = hit_upper
        basis[rowp] = q
        in_basis[q] = True
        basic_val[rowp] = (up[q] if at_upper[q] else lo[q]) + direction * delta

        piv = T[rowp][q]
        prow = [e / piv for e in T[rowp]]
        T[rowp] = prow
        # only the pivot row's nonzero columns change: a - f*0 == a exactly
        nonzero = [(j, p) for j, p in enumerate(prow) if p]
        for row in (*T, d):
            f = row[q]
            if f and row is not prow:
                for j, p in nonzero:
                    row[j] -= f * p
    else:  # Bland's rule forbids cycling; this is a bug guard
        raise RuntimeError("simplex failed to terminate")

    row_of = {bcol: i for i, bcol in enumerate(basis)}
    return tuple(
        basic_val[row_of[j]] if in_basis[j] else up[j] if at_upper[j] else lo[j]
        for j in range(n)
    )


def _verify(lp: LinearProgram, point: tuple[Rational, ...]) -> None:
    for j, x in enumerate(point):
        if x < lp.lower[j] or x > lp.upper[j]:
            raise RuntimeError(f"internal: solution violates bound of variable {j + 1}")
    for i, con in enumerate(lp.constraints):
        if _dot(con.coeffs, point) > con.rhs:
            raise RuntimeError(f"internal: solution violates constraint {i + 1}")


def solve(lp: LinearProgram) -> LPResult:
    """Exact optimum and witness point of a program built by ``linear_program``.

    The simplex starts at the corner x = lower.  The witness is
    deterministic (Bland's rule, fixed scan order) and is re-verified
    against the program before returning.
    """
    point = _corner_simplex(lp)
    _verify(lp, point)
    return LPResult(_dot(lp.objective, point), point)
