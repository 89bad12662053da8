"""Exact scalar/vector/covector layer."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmodlab.exactnum import (
    Covector,
    Vector,
    as_rational,
    basis_vector,
    dual_norm_l1,
    format_rational,
    parse_rational,
    sup_norm,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=32)


def test_as_rational_accepts_exact_inputs():
    assert as_rational(3) == Fraction(3)
    assert as_rational("2/3") == Fraction(2, 3)
    assert as_rational(Fraction(5, 7)) == Fraction(5, 7)


def test_as_rational_rejects_inexact_inputs():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    with pytest.raises(TypeError):
        as_rational(None)


def test_rational_wire_format():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3)) == "-3"
    assert parse_rational("-3/6") == Fraction(-1, 2)
    for bad in ("1.5", "3e2", "a/b", "1/2/3", "", "1/0", "-2/00"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(rationals)
def test_rational_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_sup_norm_examples():
    assert sup_norm(Vector([1, "-1/2", "1/4"])) == 1
    assert sup_norm(Vector([0] * 5)) == 0
    assert sup_norm(Vector(["1/3", "-2/3"])) == Fraction(2, 3)


def test_dual_norm_examples():
    assert dual_norm_l1(Covector([0, "1/2", "1/4"])) == Fraction(3, 4)
    assert dual_norm_l1(Covector([0, 0, 0])) == 0
    assert dual_norm_l1(Covector([1, -1])) == 2


def test_evaluate_examples():
    g = Covector([0, "1/2", "1/4"])
    assert g(Vector([1, 1, 1])) == Fraction(3, 4)
    assert g(Vector([0] * 3)) == 0
    assert Covector([0, "1/2"])(Vector([1, "2/3"])) == Fraction(1, 3)


def test_evaluate_rejects_length_mismatch():
    with pytest.raises(ValueError):
        Covector([1, 2])(Vector([1, 2, 3]))


def test_coordinates_are_one_based():
    x = Vector([5, 6, 7])
    assert x.coord(1) == 5 and x.coord(3) == 7
    with pytest.raises(IndexError):
        x.coord(0)
    with pytest.raises(IndexError):
        x.coord(4)
    g = Covector(["1/2", "1/3"])
    assert g.coeff(2) == Fraction(1, 3)
    with pytest.raises(IndexError):
        g.coeff(3)


def test_vector_arithmetic_and_replace():
    x = Vector([1, 2])
    y = Vector([3, -1])
    assert (x + y).coords == (Fraction(4), Fraction(1))
    assert (x - y).coords == (Fraction(-2), Fraction(3))
    assert (-x).coords == (Fraction(-1), Fraction(-2))
    assert (Fraction(1, 2) * x).coords == (Fraction(1, 2), Fraction(1))
    assert x.replace_coord(2, "1/7").coord(2) == Fraction(1, 7)
    assert x.coord(2) == 2  # immutable


def test_basis_and_embed():
    e2 = basis_vector(2, 4)
    assert e2.coords == (0, 1, 0, 0)
    with pytest.raises(ValueError):
        basis_vector(5, 4)
    padded = Vector([1, "1/2"]).embed(4)
    assert padded.coords == (1, Fraction(1, 2), 0, 0)
    with pytest.raises(ValueError):
        padded.embed(3)


def test_empty_rejected():
    with pytest.raises(ValueError):
        Vector(())
    with pytest.raises(ValueError):
        Covector(())


@settings(max_examples=60)
@given(st.lists(rationals, min_size=1, max_size=6), rationals)
def test_sup_norm_is_a_norm(coords, c):
    x = Vector(tuple(coords))
    assert sup_norm(x) >= 0
    assert (sup_norm(x) == 0) == all(v == 0 for v in coords)
    assert sup_norm(c * x) == abs(c) * sup_norm(x)
    y = Vector(tuple(reversed(coords)))
    assert sup_norm(x + y) <= sup_norm(x) + sup_norm(y)


@settings(max_examples=60)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(rationals, min_size=n, max_size=n),
        st.lists(rationals, min_size=n, max_size=n),
    )
))
def test_pairing_bounded_by_norm_product(pair):
    gs, xs = pair
    g = Covector(tuple(gs))
    x = Vector(tuple(xs))
    assert abs(g(x)) <= dual_norm_l1(g) * sup_norm(x)
