"""Dense builders, the rank-one factor record, materialization, and the sup operator norm."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmodlab.exactnum import Covector, Vector, basis_vector, sup_norm, vector, zero_vector
from minmodlab.linops import (
    Dense,
    RankOne,
    add,
    diagonal,
    identity,
    materialize,
    op_norm_sup,
    scale,
    zero_operator,
)
from support import random_sphere_point, random_structured_operator


def test_identity_applies_and_materializes():
    x = vector([1, "-1/2", "1/4"])
    assert identity(3).apply(x) == x
    assert materialize(identity(2)).entries == ((1, 0), (0, 1))


def test_rank_one_applies_in_terms_of_the_functional():
    k = RankOne(basis_vector(1, 3), Covector((0, Fraction(1, 2), Fraction(1, 4))))
    assert materialize(k).entries == ((0, Fraction(1, 2), Fraction(1, 4)), (0, 0, 0), (0, 0, 0))
    assert materialize(k).apply(vector([0, 1, 0])).coords == (Fraction(1, 2), 0, 0)
    assert materialize(k).apply(basis_vector(1, 3)) == zero_vector(3)


def test_dense_must_be_square():
    with pytest.raises(ValueError):
        Dense(((Fraction(1), Fraction(2)),))


def test_dimension_discipline():
    with pytest.raises(ValueError):
        identity(3).apply(vector([1, 2]))
    with pytest.raises(ValueError):
        add(identity(2), identity(3))
    with pytest.raises(ValueError):
        RankOne(vector([1, 0]), Covector((1, 0, 0)))
    with pytest.raises(ValueError):
        add(identity(2), RankOne(vector([1, 0, 0]), Covector((1, 0, 0))))
    with pytest.raises(ValueError):
        add()
    with pytest.raises(ValueError):
        identity(0)


def test_materialize_passes_dense_through():
    d = Dense(((1, 2), (3, 4)))
    assert materialize(d) is d


def test_scale_examples():
    a = Dense((("1/2", 1), (0, "-1/3")))
    x = vector([2, 3])
    assert scale(1, a).apply(x) == a.apply(x)
    assert scale(0, a).apply(x) == zero_vector(2)
    assert op_norm_sup(scale(-2, identity(4))) == 2


def _row_signs(row) -> Vector:
    return Vector(tuple(1 if e >= 0 else -1 for e in row))


def test_op_norm_examples():
    assert op_norm_sup(identity(7)) == 1
    assert op_norm_sup(zero_operator(3)) == 0
    # max row l1: rows (1, -1/2) and (0, 1) give 3/2, attained at the signs of row 1
    op = Dense(((1, "-1/2"), (0, 1)))
    assert op_norm_sup(op) == Fraction(3, 2)
    assert sup_norm(op.apply(_row_signs(op.entries[0]))) == Fraction(3, 2)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_op_norm_sup_is_exact(seed, n):
    rng = random.Random(seed)
    op = random_structured_operator(rng, n)
    value = op_norm_sup(op)
    dense = materialize(op)
    # the norm is attained at the sign vector of some row
    assert value == max(sup_norm(dense.apply(_row_signs(row))) for row in dense.entries)
    # no sampled sphere point may beat it
    for _ in range(5):
        x = random_sphere_point(rng, n, denominator=8)
        assert sup_norm(dense.apply(x)) <= value


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_norm_triangle_and_homogeneity(seed, n):
    rng = random.Random(seed)
    a = random_structured_operator(rng, n, depth=1)
    b = random_structured_operator(rng, n, depth=1)
    assert op_norm_sup(add(a, b)) <= op_norm_sup(a) + op_norm_sup(b)
    c = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4)))
    assert op_norm_sup(scale(c, a)) == abs(c) * op_norm_sup(a)


def test_rank_one_norm_is_product_of_norms():
    u = vector([1, "-1/2"])
    g = Covector((Fraction(1, 2), Fraction(1, 4)))
    assert op_norm_sup(RankOne(u, g)) == 1 * Fraction(3, 4)


def test_sum_and_scaled_materialize_entrywise():
    a = Dense(((1, 0), ("1/2", "1/3")))
    b = Dense(((0, 1), (1, "-1/3")))
    assert materialize(add(a, b)).entries == ((1, 1), (Fraction(3, 2), 0))
    assert materialize(scale(Fraction(-1, 2), a)).entries == (
        (Fraction(-1, 2), 0),
        (Fraction(-1, 4), Fraction(-1, 6)),
    )


def test_builders_return_dense():
    k = RankOne(vector([1, "-1/2"]), Covector((Fraction(1, 2), 0)))
    built = [identity(2), diagonal([2, "1/3"]), zero_operator(2), add(k), scale(3, k), add(identity(2), k)]
    assert all(isinstance(op, Dense) for op in built)
    assert diagonal([2, "1/3"]).entries == ((2, 0), (0, Fraction(1, 3)))
    assert add(identity(2), k).entries == ((Fraction(3, 2), 0), (Fraction(-1, 4), 1))
    assert add(k) == materialize(k)
