"""Exact linear programming over the rationals.

A bounded-variable two-phase simplex with Bland's pivoting rule.  Every
tableau entry, bound, optimum, and witness coordinate is a
``fractions.Fraction``; the reported value always equals the objective
re-evaluated at the witness, and the witness is re-checked against every
constraint before a result is returned.  Determinism is part of the
contract: the same program yields the same result object, witness included.

Standard form used internally: each row gains a slack s with
row . x + s = rhs, where s >= 0 for ``<=`` rows, s <= 0 for ``>=`` rows,
and s = 0 for equations.  Artificial variables are introduced only for
rows whose slack cannot absorb the initial residual, so well-posed
programs often skip phase 1 entirely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactnum import Rational, RationalInput, as_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)

Bound = Optional[Rational]


class Relation(enum.Enum):
    LE = "<="
    EQ = "="
    GE = ">="


def _as_relation(rel) -> Relation:
    if isinstance(rel, Relation):
        return rel
    try:
        return Relation(rel)
    except ValueError:
        raise ValueError(f"unknown relation {rel!r} (use '<=', '=', '>=')") from None


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Rational, ...]
    relation: Relation
    rhs: Rational


@dataclass(frozen=True)
class LinearProgram:
    """Minimize objective . x subject to rows and per-variable bounds.

    ``None`` in a bound means unbounded on that side.
    """

    objective: tuple[Rational, ...]
    constraints: tuple[Constraint, ...]
    lower: tuple[Bound, ...]
    upper: tuple[Bound, ...]

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def linear_program(
    objective: Iterable[RationalInput],
    constraints: Iterable[tuple] = (),
    bounds: Optional[Sequence[tuple[Optional[RationalInput], Optional[RationalInput]]]] = None,
) -> LinearProgram:
    """Validated constructor; constraints are (coeffs, relation, rhs) triples."""
    obj = tuple(as_rational(c) for c in objective)
    n = len(obj)
    if n == 0:
        raise ValueError("a program needs at least one variable")
    rows = []
    for coeffs, rel, rhs in constraints:
        crow = tuple(as_rational(c) for c in coeffs)
        if len(crow) != n:
            raise ValueError(f"constraint has {len(crow)} coefficients, expected {n}")
        rows.append(Constraint(crow, _as_relation(rel), as_rational(rhs)))
    if bounds is None:
        lower: tuple[Bound, ...] = (None,) * n
        upper: tuple[Bound, ...] = (None,) * n
    else:
        if len(bounds) != n:
            raise ValueError(f"got {len(bounds)} bound pairs, expected {n}")
        lo_list = []
        up_list = []
        for lo, up in bounds:
            lo_r = None if lo is None else as_rational(lo)
            up_r = None if up is None else as_rational(up)
            if lo_r is not None and up_r is not None and lo_r > up_r:
                raise ValueError(f"empty bound interval [{lo_r}, {up_r}]")
            lo_list.append(lo_r)
            up_list.append(up_r)
        lower = tuple(lo_list)
        upper = tuple(up_list)
    return LinearProgram(obj, tuple(rows), lower, upper)


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    value: Optional[Rational] = None
    point: Optional[tuple[Rational, ...]] = None


# nonbasic variable rest positions
_AT_LOWER, _AT_UPPER, _AT_FREE = 0, 1, 2

_PIVOT_CAP = 200_000


class _Simplex:
    def __init__(self, lp: LinearProgram) -> None:
        n = lp.num_vars
        m = len(lp.constraints)
        self.n = n
        self.m = m

        lo: list[Bound] = list(lp.lower)
        up: list[Bound] = list(lp.upper)
        rows = [list(con.coeffs) for con in lp.constraints]
        b = [con.rhs for con in lp.constraints]
        for i, con in enumerate(lp.constraints):
            for r, row in enumerate(rows):
                row.append(_ONE if r == i else _ZERO)
            if con.relation is Relation.LE:
                lo.append(_ZERO)
                up.append(None)
            elif con.relation is Relation.GE:
                lo.append(None)
                up.append(_ZERO)
            else:
                lo.append(_ZERO)
                up.append(_ZERO)
        ncols = n + m

        val: list[Rational] = []
        st: list[int] = []
        for j in range(ncols):
            if lo[j] is not None:
                val.append(lo[j])
                st.append(_AT_LOWER)
            elif up[j] is not None:
                val.append(up[j])
                st.append(_AT_UPPER)
            else:
                val.append(_ZERO)
                st.append(_AT_FREE)

        resid = []
        for i in range(m):
            row = rows[i]
            acc = b[i]
            for j in range(ncols):
                if val[j] and row[j]:
                    acc -= row[j] * val[j]
            resid.append(acc)

        # choose an initial basis: the row's slack when it can absorb the
        # residual, an artificial column otherwise
        basis: list[int] = [0] * m
        basic_val: list[Rational] = [_ZERO] * m
        art_rows: list[tuple[int, int]] = []  # (row, sign)
        for i in range(m):
            s = n + i
            v = resid[i] + val[s]
            if (lo[s] is None or v >= lo[s]) and (up[s] is None or v <= up[s]):
                basis[i] = s
                basic_val[i] = v
            else:
                sign = 1 if resid[i] >= 0 else -1
                basis[i] = ncols + len(art_rows)
                basic_val[i] = abs(resid[i])
                art_rows.append((i, sign))

        n_art = len(art_rows)
        total = ncols + n_art
        for k, (i, sign) in enumerate(art_rows):
            col = ncols + k
            for r in range(m):
                rows[r].append(Fraction(sign) if r == i else _ZERO)
            lo.append(_ZERO)
            up.append(None)
            val.append(_ZERO)
            st.append(_AT_LOWER)
        # the initial basis matrix is diagonal +/-1; normalize rows so every
        # basis column reads +1, keeping tableau = B^{-1} A
        T = []
        for i in range(m):
            if basis[i] >= ncols and rows[i][basis[i]] < 0:
                T.append([-e for e in rows[i]])
            else:
                T.append(list(rows[i]))

        in_basis = [False] * total
        for bcol in basis:
            in_basis[bcol] = True

        self.ncols = ncols
        self.total = total
        self.n_art = n_art
        self.lo = lo
        self.up = up
        self.val = val
        self.st = st
        self.T = T
        self.basis = basis
        self.basic_val = basic_val
        self.in_basis = in_basis

    def reduced_costs(self, cost: list[Rational]) -> list[Rational]:
        d = list(cost)
        for i in range(self.m):
            cb = cost[self.basis[i]]
            if cb:
                row = self.T[i]
                for j in range(self.total):
                    if row[j]:
                        d[j] -= cb * row[j]
        return d

    def run(self, d: list[Rational]) -> str:
        """Bland-rule iterations until optimal or unbounded."""
        lo = self.lo
        up = self.up
        T = self.T
        basis = self.basis
        basic_val = self.basic_val
        pivots = 0
        while True:
            pivots += 1
            if pivots > _PIVOT_CAP:  # Bland's rule forbids cycling; this is a bug guard
                raise RuntimeError("simplex failed to terminate")
            q = -1
            direction = 0
            for j in range(self.total):
                if self.in_basis[j]:
                    continue
                lj = lo[j]
                uj = up[j]
                if lj is not None and uj is not None and lj == uj:
                    continue  # fixed variables never enter
                dj = d[j]
                if not dj:
                    continue
                stj = self.st[j]
                if stj == _AT_LOWER:
                    if dj < 0:
                        q = j
                        direction = 1
                        break
                elif stj == _AT_UPPER:
                    if dj > 0:
                        q = j
                        direction = -1
                        break
                else:  # free at 0: either direction improves
                    q = j
                    direction = 1 if dj < 0 else -1
                    break
            if q < 0:
                return "optimal"

            own: Bound = None
            if lo[q] is not None and up[q] is not None:
                own = up[q] - lo[q]

            best: Bound = None
            rowp = -1
            hit = _AT_LOWER
            for i in range(self.m):
                coef = T[i][q]
                if not coef:
                    continue
                g = coef if direction > 0 else -coef
                bi = basis[i]
                if g > 0:
                    bound = lo[bi]
                    if bound is None:
                        continue
                    cand = (basic_val[i] - bound) / g
                    cand_hit = _AT_LOWER
                else:
                    bound = up[bi]
                    if bound is None:
                        continue
                    cand = (bound - basic_val[i]) / (-g)
                    cand_hit = _AT_UPPER
                if best is None or cand < best:
                    best = cand
                    rowp = i
                    hit = cand_hit
                elif cand == best and bi < basis[rowp]:
                    rowp = i
                    hit = cand_hit

            if best is None and own is None:
                return "unbounded"

            if best is None or (own is not None and own <= best):
                # the entering variable hits its own opposite bound first
                delta = own
                if delta:
                    for i in range(self.m):
                        c = T[i][q]
                        if c:
                            basic_val[i] -= direction * c * delta
                if self.st[q] == _AT_LOWER:
                    self.st[q] = _AT_UPPER
                    self.val[q] = up[q]
                else:
                    self.st[q] = _AT_LOWER
                    self.val[q] = lo[q]
                continue

            delta = best
            enter_val = self.val[q] + (delta if direction > 0 else -delta)
            if delta:
                for i in range(self.m):
                    c = T[i][q]
                    if c:
                        basic_val[i] -= direction * c * delta
            leave = basis[rowp]
            self.in_basis[leave] = False
            self.st[leave] = hit
            self.val[leave] = lo[leave] if hit == _AT_LOWER else up[leave]
            basis[rowp] = q
            self.in_basis[q] = True
            basic_val[rowp] = enter_val

            piv = T[rowp][q]
            prow = [e / piv for e in T[rowp]]
            T[rowp] = prow
            for i in range(self.m):
                if i == rowp:
                    continue
                f = T[i][q]
                if f:
                    trow = T[i]
                    T[i] = [a - f * p for a, p in zip(trow, prow)]
            f = d[q]
            if f:
                d[:] = [a - f * p for a, p in zip(d, prow)]

    def infeasibility(self) -> Rational:
        return sum(
            (self.basic_val[i] for i in range(self.m) if self.basis[i] >= self.ncols),
            _ZERO,
        )

    def point(self) -> tuple[Rational, ...]:
        row_of = {bcol: i for i, bcol in enumerate(self.basis)}
        out = []
        for j in range(self.n):
            if self.in_basis[j]:
                out.append(self.basic_val[row_of[j]])
            else:
                out.append(self.val[j])
        return tuple(out)


def _verify(lp: LinearProgram, point: tuple[Rational, ...], value: Rational) -> None:
    for j, x in enumerate(point):
        lo = lp.lower[j]
        up = lp.upper[j]
        if (lo is not None and x < lo) or (up is not None and x > up):
            raise RuntimeError(f"internal: solution violates bound of variable {j + 1}")
    for i, con in enumerate(lp.constraints):
        lhs = sum((c * x for c, x in zip(con.coeffs, point)), _ZERO)
        ok = (
            lhs <= con.rhs
            if con.relation is Relation.LE
            else lhs >= con.rhs
            if con.relation is Relation.GE
            else lhs == con.rhs
        )
        if not ok:
            raise RuntimeError(f"internal: solution violates constraint {i + 1}")
    check = sum((c * x for c, x in zip(lp.objective, point)), _ZERO)
    if check != value:
        raise RuntimeError("internal: objective value does not match the witness")


def solve(lp: LinearProgram) -> LPResult:
    """Exact optimum of a bounded-variable program.

    Returns OPTIMAL with exact value and witness point, INFEASIBLE, or
    UNBOUNDED.  The witness is deterministic (Bland's rule, fixed scan
    order) and is re-verified against the program before returning.
    """
    sx = _Simplex(lp)

    if sx.n_art:
        cost1 = [_ZERO] * sx.total
        for j in range(sx.ncols, sx.total):
            cost1[j] = _ONE
        outcome = sx.run(sx.reduced_costs(cost1))
        if outcome != "optimal":  # sum of artificials is bounded below by 0
            raise RuntimeError("internal: phase 1 cannot be unbounded")
        if sx.infeasibility() > 0:
            return LPResult(LPStatus.INFEASIBLE)
        for j in range(sx.ncols, sx.total):
            sx.lo[j] = _ZERO
            sx.up[j] = _ZERO

    cost2 = [_ZERO] * sx.total
    for j in range(sx.n):
        cost2[j] = lp.objective[j]
    outcome = sx.run(sx.reduced_costs(cost2))
    if outcome == "unbounded":
        return LPResult(LPStatus.UNBOUNDED)

    point = sx.point()
    value = sum((c * x for c, x in zip(lp.objective, point)), _ZERO)
    _verify(lp, point, value)
    return LPResult(LPStatus.OPTIMAL, value, point)

