"""The deflation family: functional, operator, repair, and closed-form values."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmodlab.constructions import (
    c0_family,
    closed_form_min_modulus,
    deflation,
    deflation_operator,
    deflation_repair,
    direct_sum_operator,
    geometric_functional,
    minimizing_vector,
    shifted_geometric_functional,
)
from minmodlab.exactnum import (
    Covector,
    Vector,
    basis_vector,
    dual_norm_l1,
    sup_norm,
)
from minmodlab.linops import Dense, RankOne, add, identity, materialize
from minmodlab.minmod import min_modulus_sup


def test_geometric_functional_coefficients():
    assert geometric_functional(3).coeffs == (0, Fraction(1, 2), Fraction(1, 4))
    assert geometric_functional(1).coeffs == (0,)
    assert shifted_geometric_functional(3).coeffs == (
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
    )


def test_functional_dual_norm_stays_below_one():
    assert dual_norm_l1(geometric_functional(4)) == Fraction(7, 8)
    for n in range(1, 12):
        assert dual_norm_l1(geometric_functional(n)) == 1 - Fraction(1, 2 ** (n - 1))


def test_functional_vanishes_on_first_basis_vector():
    for n in range(2, 8):
        assert geometric_functional(n)(basis_vector(1, n)) == 0


def test_deflation_applies_as_expected():
    t = deflation_operator(3)
    assert t.apply(minimizing_vector(3)).coords == (Fraction(5, 8), Fraction(1, 2), Fraction(1, 2))
    assert t.apply(basis_vector(1, 3)) == basis_vector(1, 3)
    assert t.apply(basis_vector(2, 3)).coords == (Fraction(-1, 2), 1, 0)


def test_deflation_matrix_at_dimension_two():
    assert deflation_operator(2).entries == (
        (1, Fraction(-1, 2)),
        (0, 1),
    )


def test_direct_builders_match_the_sum_of_identity_and_rank_one():
    # T = I - e_1 (x) f is written row by row; the sum it replaces is the reference
    for n in range(1, 13):
        f = geometric_functional(n)
        assert deflation_operator(n) == add(identity(n), RankOne(basis_vector(1, n), Covector(-c for c in f)))
    for n in range(2, 13):
        f = Covector((0,) + shifted_geometric_functional(n - 1).coeffs)
        assert direct_sum_operator(shifted_geometric_functional(n - 1)) == add(
            identity(n), RankOne(basis_vector(1, n), Covector(-c for c in f))
        )


def test_repair_applies_as_expected():
    k = deflation_repair(3)
    assert materialize(k).apply(basis_vector(1, 3)) == Vector([0] * 3)
    assert materialize(k).apply(basis_vector(3, 3)).coords == (Fraction(1, 4), 0, 0)


def test_repair_restores_the_identity():
    for n in range(2, 7):
        assert add(deflation_operator(n), deflation_repair(n)) == identity(n)


def test_minimizing_vector_shape():
    assert minimizing_vector(4).coords == (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert minimizing_vector(1).coords == (1,)
    assert sup_norm(minimizing_vector(9)) == 1


def test_closed_form_frozen_values():
    frozen = {
        2: Fraction(2, 3),
        3: Fraction(4, 7),
        4: Fraction(8, 15),
        6: Fraction(32, 63),
        10: Fraction(512, 1023),
        12: Fraction(2048, 4095),
    }
    for n, value in frozen.items():
        assert closed_form_min_modulus(n) == value
        assert closed_form_min_modulus(n) == Fraction(2 ** (n - 1), 2**n - 1)


def test_closed_form_matches_the_lp_route():
    for n in range(2, 8):
        assert min_modulus_sup(deflation_operator(n)).value == closed_form_min_modulus(n)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.integers(0, 7))
def test_flat_vector_value_is_independent_of_embedding(n, extra):
    # embedding x into a bigger section changes nothing: the functional
    # tail beyond n multiplies zeros.
    m = n + extra
    value = sup_norm(deflation_operator(m).apply(Vector(minimizing_vector(n).coords + (0,) * extra)))
    assert value == Fraction(1, 2) + Fraction(1, 2**n)


def test_flat_vector_value_example():
    assert sup_norm(deflation_operator(6).apply(Vector(minimizing_vector(4).coords + (0, 0)))) == Fraction(9, 16)


def test_direct_sum_agrees_with_the_flat_route():
    for n in range(2, 8):
        f_y = shifted_geometric_functional(n - 1)
        assert direct_sum_operator(f_y).entries == deflation_operator(n).entries
        # the repair of the split route, e_1 (x) (0, f_y), is the flat repair
        lifted = Covector((0,) + f_y.coeffs)
        assert materialize(RankOne(basis_vector(1, n), lifted)).entries == (
            materialize(deflation_repair(n)).entries
        )


def test_direct_sum_minimizer_value_identity():
    # sup_norm(T(1, y/2)) = max(|1 - f_y(y)/2|, 1/2) for any unit y
    f_y = shifted_geometric_functional(4)
    for y in (Vector([1, 1, 1, 1]), Vector([1, "-1/2", 0, 1]), basis_vector(3, 4)):
        assert sup_norm(y) == 1
        image = direct_sum_operator(f_y).apply(Vector((1,) + tuple(c / 2 for c in y.coords)))
        expected = max(abs(1 - f_y(y) / 2), Fraction(1, 2))
        assert sup_norm(image) == expected


def test_family_dimension_floor():
    with pytest.raises(ValueError):
        c0_family(1)


def test_family_is_the_deflation_and_its_repair():
    for n in range(2, 9):
        T, K = c0_family(n)
        assert T == deflation_operator(n)
        assert K == deflation_repair(n)
        assert add(T, K) == identity(n)


def test_each_section_leads_every_larger_section():
    # deflation_operator(n) is the leading n-section of deflation_operator(m), so one build holds them all
    sections = {m: deflation_operator(m).entries for m in range(1, 65)}
    for m, entries in sections.items():
        for n in range(1, m + 1):
            assert tuple(row[:n] for row in entries[:n]) == sections[n]


def _check_deflation_rows(f: Covector) -> None:
    # the integer rows deflation(f) writes are those Dense reads off its entries, and over their denominators
    # they are I - e_1 (x) f entry for entry, computed here from f alone
    t = deflation(f)
    rows, denominators = t.rows, t.denominators
    read = Dense(t.entries)
    assert (rows, denominators) == (read.rows, read.denominators)
    n = len(f)
    expected = [[Fraction(int(i == j)) - (f.coeffs[j] if i == 0 else 0) for j in range(n)] for i in range(n)]
    assert [[Fraction(a, D) for a in row] for row, D in zip(rows, denominators)] == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12), min_size=1, max_size=8))
def test_deflation_rows_are_the_deflation_in_integers(coeffs):
    # any f: a nonzero f_1, zero coefficients and coprime denominators, whose lcm is not their maximum
    _check_deflation_rows(Covector(coeffs))


def test_deflation_rows_of_the_geometric_functional():
    for n in range(1, 65):
        _check_deflation_rows(geometric_functional(n))
    t = deflation(geometric_functional(3))
    assert (t.rows, t.denominators) == (((4, -2, -1), (0, 1, 0), (0, 0, 1)), (4, 1, 1))


_T_VALUES = (Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12), min_size=1, max_size=8))
def test_any_functional_deflation_has_the_closed_form_along_its_repair(tail):
    # for any f with f(e_1) = 0, T + tK = I - e_1 (x) (1 - t)f has inverse I + e_1 (x) (1 - t)f,
    # whose largest row l1 sum is 1 + |1 - t|·||f||_1; no geometric coefficients are needed
    f = Covector((0,) + tuple(tail))
    norm = dual_norm_l1(f)
    for t in _T_VALUES:
        op = add(deflation(f), RankOne(basis_vector(1, len(f)), Covector(tuple(t * c for c in f.coeffs))))
        assert min_modulus_sup(op).value == 1 / (1 + abs(1 - t) * norm)


def test_dimension_validation():
    for builder in (geometric_functional, shifted_geometric_functional, minimizing_vector):
        with pytest.raises(ValueError):
            builder(0)
    with pytest.raises(ValueError):
        closed_form_min_modulus(0)
