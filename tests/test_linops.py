"""Dense builders, the rank-one factor record, its expansion and sum, and the sup operator norm."""

from __future__ import annotations

import random
import tempfile
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmodlab.cli import read_dense_operator
from minmodlab.constructions import deflation, direct_sum_operator
from minmodlab.exactnum import Covector, Vector, basis_vector, format_rational, sup_norm
from minmodlab.linops import (
    Dense,
    RankOne,
    add,
    diagonal,
    identity,
    materialize,
    op_norm_sup,
)
from support import random_rank_one, random_sphere_point, random_structured_operator, scale


def test_identity_applies_and_materializes():
    x = Vector([1, "-1/2", "1/4"])
    assert identity(3).apply(x) == x
    assert identity(2).entries == ((1, 0), (0, 1))


def test_rank_one_applies_in_terms_of_the_functional():
    k = RankOne(basis_vector(1, 3), Covector((0, Fraction(1, 2), Fraction(1, 4))))
    assert materialize(k).entries == ((0, Fraction(1, 2), Fraction(1, 4)), (0, 0, 0), (0, 0, 0))
    assert materialize(k).apply(Vector([0, 1, 0])).coords == (Fraction(1, 2), 0, 0)
    assert materialize(k).apply(basis_vector(1, 3)) == Vector([0] * 3)


def test_dense_must_be_square():
    with pytest.raises(ValueError):
        Dense(((Fraction(1), Fraction(2)),))
    with pytest.raises(ValueError, match="^a dense operator needs at least one row$"):
        Dense(())


def test_dimension_discipline():
    with pytest.raises(ValueError):
        identity(3).apply(Vector([1, 2]))
    with pytest.raises(ValueError):
        RankOne(Vector([1, 0]), Covector((1, 0, 0)))
    with pytest.raises(ValueError):
        add(identity(2), RankOne(Vector([1, 0, 0]), Covector((1, 0, 0))))
    with pytest.raises(ValueError):
        identity(0)


def test_scale_examples():
    a = Dense((("1/2", 1), (0, "-1/3")))
    x = Vector([2, 3])
    assert scale(1, a).apply(x) == a.apply(x)
    assert scale(0, a).apply(x) == Vector([0] * 2)
    assert op_norm_sup(scale(-2, identity(4))) == 2
    assert scale(Fraction(-1, 2), a).entries == ((Fraction(-1, 4), Fraction(-1, 2)), (0, Fraction(1, 6)))


def _row_signs(row) -> Vector:
    return Vector(tuple(1 if e >= 0 else -1 for e in row))


def test_op_norm_examples():
    assert op_norm_sup(identity(7)) == 1
    assert op_norm_sup(diagonal([0] * 3)) == 0
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
    # the norm is attained at the sign vector of some row
    assert value == max(sup_norm(op.apply(_row_signs(row))) for row in op.entries)
    # no sampled sphere point may beat it
    for _ in range(5):
        x = random_sphere_point(rng, n, denominator=8)
        assert sup_norm(op.apply(x)) <= value


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_norm_triangle_and_homogeneity(seed, n):
    rng = random.Random(seed)
    a = random_structured_operator(rng, n, depth=1)
    k = random_rank_one(rng, n)
    assert op_norm_sup(add(a, k)) <= op_norm_sup(a) + op_norm_sup(materialize(k))
    c = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4)))
    assert op_norm_sup(scale(c, a)) == abs(c) * op_norm_sup(a)


def test_rank_one_norm_is_product_of_norms():
    u = Vector([1, "-1/2"])
    g = Covector((Fraction(1, 2), Fraction(1, 4)))
    assert op_norm_sup(materialize(RankOne(u, g))) == 1 * Fraction(3, 4)


_FACTOR_ENTRY = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(_FACTOR_ENTRY, min_size=n, max_size=n), st.lists(_FACTOR_ENTRY, min_size=n, max_size=n))))
def test_rank_one_norm_read_off_the_factors_matches_its_matrix(factors):
    # max |u_i| * l1(g), read without the outer product, is the largest row l1 sum of u (x) g:
    # the search reads its perturbation's norm this way, as l1(g) with max |u_i| = 1
    u, g = factors
    assert max(map(abs, u)) * sum(map(abs, g)) == op_norm_sup(materialize(RankOne(Vector(u), Covector(g))))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_FACTOR_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(_FACTOR_ENTRY, min_size=n, max_size=n), st.lists(_FACTOR_ENTRY, min_size=n, max_size=n))))
def test_sum_and_scaled_materialize_entrywise(operands):
    # add(T, K) is the entrywise sum of T and u (x) g, and scaling it scales every entry
    rows, u, g = operands
    t, k = Dense(rows), RankOne(Vector(u), Covector(g))
    total = add(t, k)
    assert isinstance(total, Dense)
    assert total.entries == tuple(
        tuple(a + b for a, b in zip(row, expanded)) for row, expanded in zip(t.entries, materialize(k).entries))
    assert scale(Fraction(-1, 2), total).entries == tuple(
        tuple(Fraction(-1, 2) * e for e in row) for row in total.entries)
    with pytest.raises(ValueError):
        add(t, RankOne(Vector(u + [1]), Covector(g + [1])))


def test_builders_return_dense():
    k = RankOne(Vector([1, "-1/2"]), Covector((Fraction(1, 2), 0)))
    built = [identity(2), diagonal([2, "1/3"]), diagonal([0] * 2), materialize(k), add(identity(2), k)]
    assert all(isinstance(op, Dense) for op in built)
    assert diagonal([2, "1/3"]).entries == ((2, 0), (0, Fraction(1, 3)))
    assert add(identity(2), k).entries == ((Fraction(3, 2), 0), (Fraction(-1, 4), 1))
    assert add(diagonal([0] * 2), k) == materialize(k)



def _read_matrix(rows: list) -> Dense:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "matrix.txt"
        path.write_text(f"{len(rows)}\n" + "".join(" ".join(map(format_rational, row)) + "\n" for row in rows))
        return read_dense_operator(path)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_every_builder_writes_canonical_integer_rows(n, data):
    # of_rows trusts its callers: each row A_i / D_i with gcd(A_i, D_i) = 1 and D_i > 0, the one form
    # Dense(entries) reads, so equality and hashes compare matrices whatever built them
    def vector():
        return data.draw(st.lists(_FACTOR_ENTRY, min_size=n, max_size=n))

    def rank_one():
        return RankOne(Vector(vector()), Covector(vector()))

    builders = {
        "identity": lambda: identity(n),
        "diagonal": lambda: diagonal(vector()),
        "materialize": lambda: materialize(rank_one()),
        "add": lambda: add(Dense([vector() for _ in range(n)]), rank_one()),
        "deflation": lambda: deflation(Covector(vector())),
        "direct_sum_operator": lambda: direct_sum_operator(Covector(vector())),
        "read_dense_operator": lambda: _read_matrix([vector() for _ in range(n)]),
        "random_structured_operator": lambda: random_structured_operator(
            random.Random(data.draw(st.integers(0, 2**32))), n),
    }
    t = builders[data.draw(st.sampled_from(sorted(builders)), label="builder")]()
    read = Dense(t.entries)
    assert read == t and hash(read) == hash(t)
    assert len(t.rows) == len(t.denominators) == t.dim
    assert all(D > 0 and gcd(*row, D) == 1 for row, D in zip(t.rows, t.denominators))
