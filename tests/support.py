"""Shared test helpers: exact random generators, an independent
vertex-enumeration optimum used to cross-check the simplex, and a
simplex-free certificate for reported minimum moduli.

Everything stays rational; random draws go through ``random.Random`` with
explicit seeds so failures replay.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

from minmodlab.exactnum import Covector, RationalInput, Vector, as_rational, sup_norm
from minmodlab.linops import Dense, RankOne, add, diagonal, identity, materialize
from minmodlab.lpsolve import LinearProgram, linear_program, solve
from minmodlab.minmod import MinModResult, _certified_rows


def small_fraction(rng: random.Random, span: int = 8) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 2, 4, 8)))


def random_sphere_point(rng: random.Random, n: int, denominator: int = 64) -> Vector:
    """Exact random point with sup norm exactly 1."""
    coords = [Fraction(rng.randint(-denominator, denominator), denominator) for _ in range(n)]
    pin = rng.randrange(n)
    coords[pin] = Fraction(rng.choice((-1, 1)))
    return Vector(tuple(coords))


def scale(factor: RationalInput, operator: Dense) -> Dense:
    """The operator times an exact scalar."""
    c = as_rational(factor)
    return Dense(tuple(tuple(c * e for e in row) for row in operator.entries))


def random_rank_one(rng: random.Random, n: int) -> RankOne:
    u = Vector(tuple(small_fraction(rng, 4) for _ in range(n)))
    g = Covector(tuple(small_fraction(rng, 4) for _ in range(n)))
    return RankOne(u, g)


def random_structured_operator(rng: random.Random, n: int, depth: int = 2) -> Dense:
    """Random operator from every builder, or an expanded rank-one record."""
    kinds = ["dense", "diagonal", "rankone", "identity"]
    if depth > 0:
        kinds += ["sum", "scaled"]
    kind = rng.choice(kinds)
    if kind == "dense":
        return Dense(tuple(tuple(small_fraction(rng, 4) for _ in range(n)) for _ in range(n)))
    if kind == "diagonal":
        return diagonal(small_fraction(rng, 4) for _ in range(n))
    if kind == "rankone":
        return materialize(random_rank_one(rng, n))
    if kind == "identity":
        return identity(n)
    if kind == "sum":
        return add(random_structured_operator(rng, n, depth - 1), random_rank_one(rng, n))
    return scale(small_fraction(rng, 3), random_structured_operator(rng, n, depth - 1))


def solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Exact Gaussian elimination; None when the system is singular."""
    n = len(rows)
    a = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [e / inv for e in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [e - f * p for e, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def solve_inverse(op: Dense) -> Optional[Dense]:
    """T^-1 built column by column with ``solve_square``; None when T is singular."""
    rows = [list(row) for row in op.entries]
    n = len(rows)
    columns = [solve_square(rows, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    if None in columns:
        return None
    return Dense(tuple(zip(*columns)))


def certified_inverse(op: Dense) -> tuple[list, int, tuple]:
    """(M, d, (A, D)): the library's certified inverse M/d of the operator, read off its integer rows."""
    return _certified_rows(op.rows, op.denominators)


def forbid_fraction_arithmetic(patch) -> None:
    """Make every arithmetic and comparison dunder of ``Fraction`` raise, under a monkeypatch context."""

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic where only integers were expected")

    for name in ("add", "sub", "mul", "truediv", "floordiv", "pow"):
        patch.setattr(Fraction, f"__{name}__", forbidden)
        patch.setattr(Fraction, f"__r{name}__", forbidden)
    for name in ("abs", "neg", "lt", "le", "gt", "ge", "eq"):
        patch.setattr(Fraction, f"__{name}__", forbidden)


def certifies(op: Dense, result: MinModResult) -> bool:
    """Check m(T) = result.value without the simplex or the library's elimination.

    The witness is a unit sphere point, so sup_norm(T x) bounds m(T) from
    above.  For invertible T, S = T^-1 comes from ``solve_inverse``, and
    ||x|| = ||S T x|| <= ||S|| ||T x|| bounds it from below by 1/||S||, the
    largest row l1 sum of S; a singular T needs T x = 0.
    """
    if sup_norm(result.witness) != 1 or sup_norm(op.apply(result.witness)) != result.value:
        return False
    inverse = solve_inverse(op)
    if inverse is None:
        return result.value == 0
    return result.value * max(sum(abs(e) for e in row) for row in inverse.entries) == 1


def enumerate_box_lp_optimum(lp: LinearProgram) -> Optional[tuple[Fraction, tuple]]:
    """Exact optimum of a fully-boxed program by vertex enumeration.

    Every variable bound is finite (the feasible set is compact, so the
    optimum sits at a vertex: n linearly independent active conditions).
    Returns None when no feasible vertex exists, which for a compact
    region means the program is infeasible.
    """
    n = lp.num_vars
    conditions: list[tuple[list[Fraction], Fraction]] = []
    for coeffs, rhs in lp.constraints:
        conditions.append((list(coeffs), rhs))
    for j in range(n):
        unit = [Fraction(1 if t == j else 0) for t in range(n)]
        conditions.append((unit, lp.lower[j]))
        conditions.append((unit, lp.upper[j]))

    def feasible(point) -> bool:
        for j in range(n):
            if point[j] < lp.lower[j] or point[j] > lp.upper[j]:
                return False
        for coeffs, rhs in lp.constraints:
            if sum(c * x for c, x in zip(coeffs, point)) > rhs:
                return False
        return True

    best: Optional[tuple[Fraction, tuple]] = None
    for combo in itertools.combinations(range(len(conditions)), n):
        rows = [conditions[i][0] for i in combo]
        rhs = [conditions[i][1] for i in combo]
        point = solve_square(rows, rhs)
        if point is None or not feasible(point):
            continue
        value = sum(c * x for c, x in zip(lp.objective, point))
        if best is None or value < best[0]:
            best = (value, tuple(point))
    return best


def random_boxed_lp(rng: random.Random, n: int) -> LinearProgram:
    """Random program with finite box bounds and rows that hold at the corner x = lower."""
    objective = [small_fraction(rng, 4) for _ in range(n)]
    bounds = []
    for _ in range(n):
        lo = Fraction(rng.randint(-4, 0), rng.choice((1, 2)))
        up = lo + Fraction(rng.randint(1, 6), rng.choice((1, 2)))
        bounds.append((lo, up))
    constraints = []
    for _ in range(rng.randint(0, 3)):
        coeffs = [small_fraction(rng, 3) for _ in range(n)]
        at_corner = sum(c * lo for c, (lo, _) in zip(coeffs, bounds))
        rhs = at_corner + Fraction(rng.randint(0, 8), rng.choice((1, 2, 4)))
        constraints.append((coeffs, rhs))
    return linear_program(objective, constraints, bounds)


def lp_agrees_with_enumeration(lp: LinearProgram) -> bool:
    """True when the simplex optimum equals the vertex-enumeration optimum."""
    reference = enumerate_box_lp_optimum(lp)
    return reference is not None and solve(lp).value == reference[0]
