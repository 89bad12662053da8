"""Exact bounded-variable simplex against hand examples and an enumeration oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from minmodlab.lpsolve import (
    LPStatus,
    Relation,
    linear_program,
    solve,
)
from support import lp_agrees_with_enumeration, random_boxed_lp


def test_one_variable_lower_bounded():
    lp = linear_program([1], [([1], ">=", 3)])
    result = solve(lp)
    assert result.status is LPStatus.OPTIMAL
    assert result.value == 3
    assert result.point == (3,)


def test_facet_subproblem_balances_two_rows():
    # minimize t subject to x/2 + t >= 1, -x + t >= 0, x in [0, 1], t >= 0:
    # the optimum balances both rows at x = t = 2/3.
    lp = linear_program(
        [0, 1],
        [
            (["1/2", 1], ">=", 1),
            ([-1, 1], ">=", 0),
        ],
        bounds=[(0, 1), (0, None)],
    )
    result = solve(lp)
    assert result.status is LPStatus.OPTIMAL
    assert result.value == Fraction(2, 3)
    assert result.point == (Fraction(2, 3), Fraction(2, 3))


def test_infeasible_pair():
    lp = linear_program([1], [([1], "<=", 0), ([1], ">=", 1)])
    assert solve(lp).status is LPStatus.INFEASIBLE


def test_unbounded_free_variable():
    lp = linear_program([1])
    assert solve(lp).status is LPStatus.UNBOUNDED


def test_upper_bound_is_used():
    lp = linear_program([-1], bounds=[(0, 5)])
    result = solve(lp)
    assert result.status is LPStatus.OPTIMAL
    assert result.value == -5
    assert result.point == (5,)


def test_equality_constraint():
    lp = linear_program([1, 1], [([1, 2], "=", 4)], bounds=[(0, None), (0, None)])
    result = solve(lp)
    assert result.status is LPStatus.OPTIMAL
    assert result.value == 2
    assert result.point == (0, 2)


def test_free_variables_through_phase_one():
    # x and y are free, so phase one has to manufacture a feasible start.
    lp = linear_program(
        [1, 1],
        [
            ([1, 1], ">=", 1),
            ([1, -1], "=", 0),
        ],
    )
    result = solve(lp)
    assert result.status is LPStatus.OPTIMAL
    assert result.value == 1
    assert result.point == (Fraction(1, 2), Fraction(1, 2))


def test_empty_bound_interval_rejected():
    with pytest.raises(ValueError):
        linear_program([1], bounds=[(1, 0)])


def test_constraint_width_checked():
    with pytest.raises(ValueError):
        linear_program([1, 1], [([1], "<=", 0)])
    with pytest.raises(ValueError):
        linear_program([1], bounds=[(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        linear_program([])


def test_unknown_relation_rejected():
    with pytest.raises(ValueError):
        linear_program([1], [([1], "<", 0)])


def test_relation_enum_round_trips_tokens():
    assert Relation("<=") is Relation.LE
    assert Relation("=") is Relation.EQ
    assert Relation(">=") is Relation.GE


def test_solver_is_deterministic():
    lp = linear_program(
        [1, 2, 0],
        [
            ([1, 1, 1], ">=", 2),
            ([1, -1, 0], "<=", 1),
        ],
        bounds=[(0, 3), (0, 3), (0, 3)],
    )
    first = solve(lp)
    second = solve(lp)
    assert first == second
    assert first.status is LPStatus.OPTIMAL


def test_degenerate_ties_terminate():
    # many constraints active at the same vertex; Bland's rule must not cycle
    lp = linear_program(
        [1, 1],
        [
            ([1, 0], ">=", 0),
            ([0, 1], ">=", 0),
            ([1, 1], ">=", 0),
            ([1, -1], ">=", 0),
            ([-1, 1], ">=", 0),
        ],
        bounds=[(0, 1), (0, 1)],
    )
    result = solve(lp)
    assert result.status is LPStatus.OPTIMAL
    assert result.value == 0
    assert result.point == (0, 0)


def test_agreement_with_vertex_enumeration():
    rng = random.Random(20240901)
    optimal = 0
    infeasible = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        lp = random_boxed_lp(rng, n)
        assert lp_agrees_with_enumeration(lp)
        status = solve(lp).status
        if status is LPStatus.OPTIMAL:
            optimal += 1
        elif status is LPStatus.INFEASIBLE:
            infeasible += 1
    # the generator must actually exercise both outcomes
    assert optimal > 100
    assert infeasible > 10

