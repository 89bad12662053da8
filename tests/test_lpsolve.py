"""Exact bounded-variable simplex against hand examples and an enumeration oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from minmodlab.lpsolve import linear_program, solve
from support import lp_agrees_with_enumeration, random_boxed_lp


def program(objective, constraints, bounds):
    """``linear_program`` on the given numbers as Fractions, the only data it takes."""
    return linear_program(
        [Fraction(c) for c in objective],
        [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, rhs in constraints],
        [(Fraction(lo), Fraction(up)) for lo, up in bounds],
    )


def test_facet_subproblem_balances_two_rows():
    # minimize t = -s subject to x/2 + t >= 1, -x + t >= 0, x in [0, 1],
    # s in [-2, 0]: the optimum balances both rows at x = t = 2/3.
    lp = program(
        [0, -1],
        [
            ([Fraction(-1, 2), 1], -1),
            ([1, 1], 0),
        ],
        [(0, 1), (-2, 0)],
    )
    result = solve(lp)
    assert result.value == Fraction(2, 3)
    assert result.point == (Fraction(2, 3), Fraction(-2, 3))


def test_upper_bound_is_used():
    lp = program([-1], [], [(0, 5)])
    result = solve(lp)
    assert result.value == -5
    assert result.point == (5,)


def test_empty_bound_interval_rejected():
    # the constructor does not look at intervals; verification rejects the point
    with pytest.raises(RuntimeError):
        solve(program([1], [], [(1, 0)]))


def test_infeasible_corner_rejected():
    # the start corner x = lower must satisfy every row
    with pytest.raises(ValueError, match="row 2"):
        linear_program([1], [([1], 2), ([1], 0)], [(1, 2)])


def test_solver_is_deterministic():
    lp = program(
        [-1, -2, 0],
        [
            ([1, 1, 1], 2),
            ([1, -1, 0], 1),
        ],
        [(0, 3), (0, 3), (0, 3)],
    )
    first = solve(lp)
    second = solve(lp)
    assert first == second
    assert first.value == -4
    assert all(isinstance(c, Fraction) for c in (first.value, *first.point))


def test_degenerate_ties_terminate():
    # all five rows are active at the start corner; Bland's rule must not cycle
    lp = program(
        [-1, -1],
        [
            ([-1, 0], 0),
            ([0, -1], 0),
            ([-1, -1], 0),
            ([1, -1], 0),
            ([-1, 1], 0),
        ],
        [(0, 1), (0, 1)],
    )
    result = solve(lp)
    assert result.value == -2
    assert result.point == (1, 1)


def test_agreement_with_vertex_enumeration():
    rng = random.Random(20240901)
    moved = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        lp = random_boxed_lp(rng, n)
        assert lp_agrees_with_enumeration(lp)
        if solve(lp).point != lp.lower:
            moved += 1
    # the generator must make the simplex pivot, not just confirm its start
    assert moved > 100
