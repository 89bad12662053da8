"""The deflation family: functional, operator, repair, and closed-form values."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmodlab.constructions import (
    CounterexampleFamily,
    FamilyKind,
    c0_family,
    closed_form_min_modulus,
    deflation_operator,
    deflation_repair,
    direct_sum_family,
    direct_sum_minimizer,
    direct_sum_operator,
    direct_sum_perturbation,
    geometric_functional,
    minimizing_vector,
    shifted_geometric_functional,
)
from minmodlab.exactnum import (
    Covector,
    basis_vector,
    dual_norm_l1,
    evaluate,
    sup_norm,
    vector,
    zero_vector,
)
from minmodlab.linops import RankOne, add, identity, materialize
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
        assert evaluate(geometric_functional(n), basis_vector(1, n)) == 0


def test_deflation_applies_as_expected():
    t = deflation_operator(3)
    assert t.apply(minimizing_vector(3)).coords == (Fraction(5, 8), Fraction(1, 2), Fraction(1, 2))
    assert t.apply(basis_vector(1, 3)) == basis_vector(1, 3)
    assert t.apply(basis_vector(2, 3)).coords == (Fraction(-1, 2), 1, 0)


def test_deflation_matrix_at_dimension_two():
    assert materialize(deflation_operator(2)).entries == (
        (1, Fraction(-1, 2)),
        (0, 1),
    )


def test_direct_builders_match_the_sum_of_identity_and_rank_one():
    # T = I - e_1 (x) f is written row by row; the sum it replaces is the reference
    for n in range(1, 13):
        f = geometric_functional(n)
        assert deflation_operator(n) == add(identity(n), RankOne(-basis_vector(1, n), f))
    for n in range(2, 13):
        f = Covector((0,) + shifted_geometric_functional(n - 1).coeffs)
        assert direct_sum_operator(shifted_geometric_functional(n - 1)) == add(
            identity(n), RankOne(-basis_vector(1, n), f)
        )


def test_repair_applies_as_expected():
    k = deflation_repair(3)
    assert materialize(k).apply(basis_vector(1, 3)) == zero_vector(3)
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
    value = sup_norm(deflation_operator(m).apply(minimizing_vector(n).embed(m)))
    assert value == Fraction(1, 2) + Fraction(1, 2**n)


def test_flat_vector_value_example():
    assert sup_norm(deflation_operator(6).apply(minimizing_vector(4).embed(6))) == Fraction(9, 16)


def test_direct_sum_agrees_with_the_flat_route():
    for n in range(2, 8):
        f_y = shifted_geometric_functional(n - 1)
        split = materialize(direct_sum_operator(f_y))
        flat = materialize(deflation_operator(n))
        assert split.entries == flat.entries
        assert materialize(direct_sum_perturbation(f_y)).entries == (
            materialize(deflation_repair(n)).entries
        )


def test_direct_sum_minimizer_shape():
    y = vector([1, 0, 0])
    assert direct_sum_minimizer(y).coords == (1, Fraction(1, 2), 0, 0)
    with pytest.raises(ValueError):
        direct_sum_minimizer(vector(["1/2", 0]))


def test_direct_sum_minimizer_value_identity():
    # sup_norm(T(1, y/2)) = max(|1 - f_y(y)/2|, 1/2) for any unit y
    f_y = shifted_geometric_functional(4)
    for y in (vector([1, 1, 1, 1]), vector([1, "-1/2", 0, 1]), basis_vector(3, 4)):
        image = direct_sum_operator(f_y).apply(direct_sum_minimizer(y))
        expected = max(abs(1 - evaluate(f_y, y) / 2), Fraction(1, 2))
        assert sup_norm(image) == expected


def test_families_validate_and_expose_their_parts():
    flat = c0_family(5)
    assert flat.kind is FamilyKind.C0
    assert flat.dim == 5
    assert flat.functional == geometric_functional(5)

    split = direct_sum_family(5)
    assert split.kind is FamilyKind.DIRECT_SUM
    assert materialize(split.operator).entries == materialize(flat.operator).entries

    for n in range(2, 9):
        for family in (c0_family(n), direct_sum_family(n)):
            assert family.dim == n
            assert add(family.operator, family.perturbation) == identity(n)


def test_family_rejects_a_corrupted_functional():
    bad = geometric_functional(4).replace_coeff(2, Fraction(1, 3))
    with pytest.raises(ValueError):
        CounterexampleFamily(FamilyKind.C0, bad)


def test_family_rejects_nonvanishing_first_slot():
    shifted = Covector((Fraction(1, 8),) + geometric_functional(4).coeffs[1:])
    with pytest.raises(ValueError):
        CounterexampleFamily(FamilyKind.C0, shifted)


def test_family_dimension_floor():
    with pytest.raises(ValueError):
        c0_family(1)
    with pytest.raises(ValueError):
        direct_sum_family(1)


def test_dimension_validation():
    for builder in (geometric_functional, shifted_geometric_functional, minimizing_vector):
        with pytest.raises(ValueError):
            builder(0)
    with pytest.raises(ValueError):
        closed_form_min_modulus(0)
