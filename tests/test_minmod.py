"""Exact minimum modulus: inverse engine, facet LPs, and the certified sampling oracle."""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minmodlab.lpsolve
import minmodlab.minmod
from minmodlab.cli import main as cli_main
from minmodlab.constructions import (
    closed_form_min_modulus,
    deflation_factors,
    deflation_operator,
    deflation_repair,
    direct_sum_operator,
    geometric_functional,
    shifted_geometric_functional,
)
from minmodlab.exactnum import Covector, Vector, basis_vector, sup_norm
from minmodlab.linops import Dense, diagonal, identity, materialize, op_norm_sup, perturbed
from minmodlab.minmod import (
    BudgetExceededError,
    brute_force_min,
    facet_minima,
    min_modulus_sup,
)
from support import (
    certified_inverse,
    certifies,
    forbid_fraction_arithmetic,
    random_structured_operator,
    scale,
    small_fraction,
    solve_inverse,
)


def test_identity_has_minimum_modulus_one():
    result = min_modulus_sup(identity(4))
    assert result.value == 1
    assert sup_norm(result.witness) == 1
    assert facet_minima(identity(4)) == (1, 1, 1, 1)


def test_singular_operators_have_kernel_witnesses():
    result = min_modulus_sup(diagonal([0, 1, 0]))
    assert (result.value, result.witness, result.facet) == (0, Vector((1, 0, 0)), (1, 1))
    result = min_modulus_sup(diagonal([0] * 3))
    assert (result.value, result.witness, result.facet) == (0, basis_vector(1, 3), (1, 1))
    for n in range(2, 9):
        # the repair e1 (x) f has rank one
        repair = materialize(deflation_repair(n))
        result = min_modulus_sup(repair)
        assert result.value == 0
        assert not any(repair.apply(result.witness).coords)


def test_diagonal_takes_the_smallest_entry():
    result = min_modulus_sup(diagonal([2, 3]))
    assert result.value == 2
    assert result.facet == (1, 1)
    assert facet_minima(diagonal([2, 3])) == (2, 3)
    # the witness must live on the reported facet and attain the value
    assert abs(result.witness.coord(1)) == 1
    assert sup_norm(diagonal([2, 3]).apply(result.witness)) == 2


def test_facet_ties_resolve_to_the_lowest_coordinate():
    result = min_modulus_sup(diagonal([2, 2]))
    assert result.value == 2
    assert result.facet == (1, 1)


def test_mirror_check_passes_on_asymmetric_input():
    plain = facet_minima(diagonal([2, 3]))
    checked = facet_minima(diagonal([2, 3]), check_mirror=True)
    assert checked == plain


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_witness_invariants_on_random_operators(seed, n):
    rng = random.Random(seed)
    op = random_structured_operator(rng, n)
    result = min_modulus_sup(op)
    assert sup_norm(result.witness) == 1
    assert sup_norm(op.apply(result.witness)) == result.value
    assert 0 <= result.value <= op_norm_sup(op)
    k, sign = result.facet
    assert result.witness.coord(k) == sign
    # the facet LPs are a second engine: their least value is m(T), attained on the reported facet
    facet_values = facet_minima(op)
    assert result.value == min(facet_values)
    assert facet_values[k - 1] == result.value
    if result.value > 0:
        # an invertible T reports the lowest attaining facet
        assert all(v > result.value for v in facet_values[: k - 1])
    # every facet's mirror starts at a corner with x_k = -1
    assert facet_minima(op, check_mirror=True) == facet_values


def test_deflation_witness_is_flat_after_the_first_coordinate():
    # T^-1 = I + e1 (x) f has its largest row sum in row 1, so the witness sits on facet 1
    for n in range(2, 13):
        m = closed_form_min_modulus(n)
        result = min_modulus_sup(deflation_operator(n))
        assert result.value == m
        assert result.witness == Vector((1,) + (m,) * (n - 1))
        assert result.facet == (1, 1)
    assert facet_minima(deflation_operator(4), check_mirror=True) == facet_minima(
        deflation_operator(4)
    )


def test_values_carry_a_simplex_free_certificate():
    rng = random.Random(12345)
    for _ in range(400):
        op = random_structured_operator(rng, rng.randint(1, 6))
        assert certifies(op, min_modulus_sup(op))
    for n in range(2, 11):
        for op in (deflation_operator(n), direct_sum_operator(shifted_geometric_functional(n - 1))):
            assert certifies(op, min_modulus_sup(op))


def _sparse_fraction(rng: random.Random) -> Fraction:
    # about a third of the entries are zero, so pivots have to be searched for
    return small_fraction(rng, 4) if rng.random() < 0.7 else Fraction(0)


def _eliminate(op: Dense) -> tuple[list, int]:
    # the elimination's input: the operator's integer rows, each over its own least denominator
    return minmodlab.minmod._fraction_free_inverse(op.rows, op.denominators)


def test_fraction_free_inverse_matches_solve_square():
    rng = random.Random(2026)
    invertible = 0
    for _ in range(120):
        n = rng.randint(1, 12)
        t = Dense(tuple(tuple(_sparse_fraction(rng) for _ in range(n)) for _ in range(n)))
        reference = solve_inverse(t)
        inverse, d = _eliminate(t)
        if reference is None:
            assert d == 0
            continue
        invertible += 1
        assert d > 0
        assert Dense(tuple(tuple(Fraction(m, d) for m in row) for row in inverse)) == reference
    assert invertible >= 100


def test_fraction_free_inverse_returns_a_kernel_vector_when_singular():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 8)
        rank = rng.randint(0, n - 1)  # T = L R with L n x rank and R rank x n
        left = [[_sparse_fraction(rng) for _ in range(rank)] for _ in range(n)]
        right = [[_sparse_fraction(rng) for _ in range(n)] for _ in range(rank)]
        t = Dense(tuple(
            tuple(sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(n))
            for i in range(n)
        ))
        kernel, d = _eliminate(t)
        assert d == 0 and any(kernel)
        assert not any(t.apply(Vector(kernel)).coords)


def _det(rows: list) -> Fraction:
    """det A by exact Gaussian elimination on Fractions, independent of the engine."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot], det = a[pivot], a[c], -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def test_in_place_elimination_puts_swapped_columns_back():
    # the elimination stores the inverse's columns where A's were, so every row
    # swap must be undone as a column swap, in reverse order
    eliminate = minmodlab.minmod._fraction_free_inverse
    for n in range(1, 9):
        # the anti-diagonal needs a swap at each of its first n // 2 pivots and is its own inverse
        flip = [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
        assert eliminate(flip, [1] * n) == (flip, 1)
    rng = random.Random(21)
    for _ in range(40):  # a random permutation's swaps overlap, so their order matters
        n = rng.randint(2, 8)
        order = rng.sample(range(n), n)
        perm = [[int(j == order[i]) for j in range(n)] for i in range(n)]
        assert eliminate(perm, [1] * n) == ([list(column) for column in zip(*perm)], 1)

    invertible = 0
    for _ in range(150):  # about half the entries zero, so most pivots are searched for
        n = rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
        inverse, d = eliminate(rows, [1] * n)
        det = _det(rows)
        if not det:
            assert d == 0 and any(inverse)
            continue
        invertible += 1
        assert d == abs(det)
        assert Dense(tuple(tuple(Fraction(m, d) for m in row) for row in inverse)) == solve_inverse(Dense(rows))
    assert invertible >= 40

    # column 1 needs rows 1 and 2 swapped, and after that column 3 has no pivot
    singular = [[0, 1, 1], [1, 0, 0], [0, 2, 2]]
    kernel, d = eliminate(singular, [1, 1, 1])
    assert d == 0 and any(kernel)
    assert [sum(a * x for a, x in zip(row, kernel)) for row in singular] == [0, 0, 0]


_DENSE = Dense(((Fraction(1, 3), Fraction(-2, 5), 1),
                (Fraction(3, 7), 1, Fraction(-1, 9)),
                (Fraction(-5, 3), Fraction(1, 5), Fraction(7, 3))))
_SINGULAR = Dense(((Fraction(1, 2), 2, 0), (1, 4, 0), (0, Fraction(1, 3), 1)))


def test_certificate_rejects_a_corrupted_inverse(monkeypatch):
    inverse, d, base = certified_inverse(_DENSE)
    assert base[1] == (15, 63, 15)
    # the witness check alone also rejects M with any entry one off, and one entry of an updated M'
    read = minmodlab.minmod._read_inverse
    for i, j, step in itertools.product(range(3), range(3), (1, -1)):
        shifted = [list(row) for row in inverse]
        shifted[i][j] += step
        with pytest.raises(RuntimeError, match="witness failed re-verification"):
            read(shifted, d, base)
    rank_one = ([2, -1, 0], [1, 3, -2], 5)  # u (x) g = (2, -1, 0) (x) (1, 3, -2) / 5
    updated, d2 = minmodlab.minmod._rank_one_update(inverse, d, rank_one, {})
    read(updated, d2, base, rank_one)
    updated[2][0] += 1
    with pytest.raises(RuntimeError, match="witness failed re-verification"):
        read(updated, d2, base, rank_one)

    off_by_one = [list(row) for row in inverse]
    off_by_one[1][2] += 1
    kernel, _ = _eliminate(_SINGULAR)
    forgeries = [
        (_DENSE, (off_by_one, d)),
        (_DENSE, (inverse, 2 * d)),
        (_DENSE, ([1, 0, 0], 0)),  # an invertible T has no kernel vector
        (_SINGULAR, ([kernel[0] + 1] + kernel[1:], 0)),
        (_SINGULAR, ([0, 0, 0], 0)),  # the zero vector is in every kernel
    ]
    for op, forged in forgeries:
        monkeypatch.setattr(minmodlab.minmod, "_fraction_free_inverse", lambda rows, denominators: forged)
        with pytest.raises(RuntimeError, match="certificate"):
            certified_inverse(op)


def test_certificate_that_skips_the_zeros_of_a_stays_sound(monkeypatch):
    # row i of A M reads only the rows of M at the nonzeros of A_i; every entry
    # of M is still read, and a column of zeros in A is all a kernel check may ignore
    ladder = deflation_operator(5)  # row 1 is e_1 - f, the others are unit rows that read one row of M
    singular = Dense(((1, 2, 0), (0, 0, 0), (2, 4, 0)))  # a zero row, and a zero third column
    (inverse, d), (kernel, zero) = _eliminate(ladder), _eliminate(singular)
    assert (kernel, zero) == ([-2, 1, 0], 0)

    def certify(op, forged):
        monkeypatch.setattr(minmodlab.minmod, "_fraction_free_inverse", lambda rows, denominators: forged)
        return certified_inverse(op)

    forgeries = [(inverse, -d)]
    for i, j, step in itertools.product(range(5), range(5), (1, -1)):
        shifted = [list(row) for row in inverse]
        shifted[i][j] += step
        forgeries.append((shifted, d))
    for forged in forgeries:
        with pytest.raises(RuntimeError, match="certificate"):
            certify(ladder, forged)
    assert certify(ladder, (inverse, d))[:2] == (inverse, d)

    for k in (0, 1):
        with pytest.raises(RuntimeError, match="certificate"):
            certify(singular, ([c + (j == k) for j, c in enumerate(kernel)], 0))
    assert certify(singular, ([-2, 1, 1], 0))[:2] == ([-2, 1, 1], 0)  # still in the kernel


_sections = minmodlab.minmod._rank_one_sections


def test_elimination_and_certificate_do_no_fraction_arithmetic(monkeypatch):
    # the integer rows are read off numerators and denominators, and from
    # there on the elimination, its certificate and the rank-one reader work in integers alone
    negative = diagonal([-1, 2, 3])  # its pivot product is -6, so the scaling folds in sign = -1
    cases = [deflation_operator(9), _DENSE, _SINGULAR, diagonal([0] * 2), negative]
    expected = [certified_inverse(op) for op in cases]
    # the paper's deflation, and one with f_1 = 3, whose capacitance D (1 - f_1) is negative
    factors = [deflation_factors(f) for f in (geometric_functional(9), Covector([3, Fraction(-1, 2), Fraction(2, 3)]))]
    ladders = [list(_sections(rank_one, 1)) for rank_one in factors]
    assert [c for _, c, _, _ in ladders[1]] == [12, 12, 12]  # |c| for c = 6 (1 - 3)
    with monkeypatch.context() as patch:
        forbid_fraction_arithmetic(patch)
        assert [certified_inverse(op) for op in cases] == expected
        assert [list(_sections(rank_one, 1)) for rank_one in factors] == ladders
    inverse, d = _eliminate(negative)
    assert d > 0
    assert Dense(tuple(tuple(Fraction(m, d) for m in row) for row in inverse)) == solve_inverse(negative)


@st.composite
def _rank_one_factors(draw):
    # integers (U, G, e) for T = I + U (x) G / e with N = 1..8: U with zeros before its touched rows,
    # U touching every row, or any U; the capacitance e + G U takes both signs and is sometimes 0
    n = draw(st.integers(1, 8))
    nonzero = st.integers(-3, 3).filter(bool)
    shape = draw(st.sampled_from(("zeros first", "every row", "any")))
    if shape == "zeros first":
        k = draw(st.integers(1, n))
        U = [0] * (k - 1) + draw(st.lists(st.integers(-3, 3), min_size=n - k + 1, max_size=n - k + 1))
    elif shape == "every row":
        U = draw(st.lists(nonzero, min_size=n, max_size=n))
    else:
        U = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    G = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    return (tuple(U), tuple(G), draw(st.integers(1, 6))), draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(_rank_one_factors())
def test_leading_sections_match_the_elimination(case):
    # every section the reader yields is min_modulus_sup of the section built and eliminated in full:
    # value, witness and facet; a singular section is refused, and the dense engine gives it 0
    (U, G, e), n_min = case
    sections = _sections((U, G, e), n_min)
    for n in range(n_min, len(U) + 1):
        dense = min_modulus_sup(perturbed(identity(n), (U[:n], G[:n], e)))
        if not e + sum(u * g for u, g in zip(U[:n], G[:n])):
            assert dense.value == 0
            with pytest.raises(RuntimeError, match=f"internal: the leading {n}-section is singular"):
                next(sections)
            return
        k, c, norm, z = next(sections)
        assert k == n
        assert (Fraction(c, norm), Vector(Fraction(x, norm) for x in z), (z.index(norm) + 1, 1)) == (
            dense.value, dense.witness, dense.facet,
        )
    assert next(sections, None) is None


def test_rank_one_sections_break_ties_toward_the_first_row():
    # c = 5 and rows (5, 0) and (-4, 1) of M = c I - u (x) g both sum to 5; row 1, untouched, comes first,
    # so y = (1, 1) and z = (5, -3), as the dense engine reads it
    rank_one = ((0, -2), (-2, -2), 1)
    assert list(_sections(rank_one, 2)) == [(2, 5, 5, [5, -3])]
    dense = min_modulus_sup(perturbed(identity(2), rank_one))
    assert (dense.value, dense.witness, dense.facet) == (1, Vector((1, Fraction(-3, 5))), (1, 1))


def test_rank_one_sections_reverify_every_witness():
    # c is summed section by section, so a factor changed after its section is read forges the
    # capacitance of every later one: M = c I - u (x) g is then no multiple of T^-1, and T z = c y fails
    U, G = [1, 1, 0], [2, 1, 3]
    sections = _sections((U, G, 1), 1)
    assert next(sections) == (1, 3, 1, [1])  # T = 3 and M = c - u g = 1
    G[0] = 4
    with pytest.raises(RuntimeError, match="witness failed re-verification"):
        next(sections)


def test_leading_sections_refuse_a_zero_leading_minor():
    # T = I + (1, 1) (x) (0, -1): its 1-section is 1, and its 2-section has capacitance 1 + 0 - 1 = 0
    singular = ((1, 1), (0, -1), 1)
    sections = _sections(singular, 1)
    assert next(sections) == (1, 1, 1, [1])
    with pytest.raises(RuntimeError, match="internal: the leading 2-section is singular"):
        next(sections)
    assert min_modulus_sup(perturbed(identity(2), singular)).value == 0
    with pytest.raises(RuntimeError, match="internal: the leading 2-section is singular"):
        list(_sections(singular, 2))


def test_certify_rejects_forged_inverses():
    certify = minmodlab.minmod._certify
    assert [sum(map(bool, row)) == 1 for row in deflation_operator(8).rows] == [False] + [True] * 7
    # a dense section, and a deflation's: its unit rows c e_k are proved by c M_ki = d D_i and M_k's zeros alone
    for t in (_DENSE, deflation_operator(8)):
        n, (inverse, d, (rows, denominators)) = t.dim, certified_inverse(t)
        certify(inverse, d, rows, denominators)
        forgeries = [(inverse, 2 * d), ([[0] * n for _ in range(n)], d), ([0] * n, 0)]
        for i, j in itertools.product(range(n), range(n)):
            bumped = [list(row) for row in inverse]
            bumped[i][j] += 1
            forgeries.append((bumped, d))
        for forged, forged_d in forgeries:
            with pytest.raises(RuntimeError, match="certificate"):
                certify(forged, forged_d, rows, denominators)

    # every row of a scaled permutation has one nonzero c at k, so row i of A M is c M_k alone
    permutation = Dense(((0, 2, 0), (0, 0, Fraction(-3, 4)), (Fraction(1, 2), 0, 0)))
    inverse, d, (rows, denominators) = certified_inverse(permutation)
    forgeries = [(inverse, 2 * d)]
    for (i, row), j in itertools.product(enumerate(rows), range(3)):
        k = next(k for k, c in enumerate(row) if c)
        bumped = [list(r) for r in inverse]
        bumped[k][j] += 1  # an off-diagonal nonzero in M_k when j != i, a wrong diagonal when j = i
        forgeries.append((bumped, d))
    for forged, forged_d in forgeries:
        with pytest.raises(RuntimeError, match="certificate"):
            certify(forged, forged_d, rows, denominators)
    # a unit row (0, 0, 1) and a zero row: (1, 0, 0) spans the kernel, and (1, 0, 1) fails the unit row
    kernel_rows, kernel_denominators = [[0, 2, 0], [0, 0, 1], [0, 0, 0]], [1, 1, 1]
    certify([1, 0, 0], 0, kernel_rows, kernel_denominators)
    with pytest.raises(RuntimeError, match="certificate"):
        certify([1, 0, 1], 0, kernel_rows, kernel_denominators)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
)
def test_minimum_modulus_is_absolutely_homogeneous(seed, n, c):
    rng = random.Random(seed)
    op = random_structured_operator(rng, n)
    assert min_modulus_sup(scale(c, op)).value == abs(c) * min_modulus_sup(op).value


def test_oracle_on_identity_is_exact_at_any_resolution():
    for h in (Fraction(1, 2), Fraction(1, 100)):
        result = brute_force_min(identity(3), h)
        assert result.lower == result.upper == 1


def test_oracle_on_zero_operator():
    result = brute_force_min(diagonal([0] * 2), Fraction(1, 10))
    assert result.lower == result.upper == 0


def test_oracle_brackets_the_deflation_value():
    target = closed_form_min_modulus(2)
    result = brute_force_min(deflation_operator(2), Fraction(1, 100))
    assert result.lower <= target <= result.upper
    assert result.upper - result.lower <= result.lipschitz * result.covering_radius
    assert result.covering_radius == Fraction(1, 200)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_oracle_brackets_the_lp_value(seed):
    rng = random.Random(seed)
    op = random_structured_operator(rng, 3)
    exact = min_modulus_sup(op).value
    h = Fraction(1, 20)
    result = brute_force_min(op, h)
    assert result.lower <= exact <= result.upper
    assert result.upper - result.lower <= op_norm_sup(op) * h / 2


def test_oracle_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        brute_force_min(deflation_operator(4), Fraction(1, 200), point_budget=10)


def test_oracle_budget_is_checked_before_each_box():
    t, h = deflation_operator(5), Fraction(1, 200)
    assert brute_force_min(t, h, point_budget=2703).evaluations == 2703
    with pytest.raises(BudgetExceededError) as excinfo:
        brute_force_min(t, h, point_budget=2702)
    assert str(excinfo.value) == "oracle exceeded its budget of 2702 box evaluations"


def test_oracle_brackets_are_frozen():
    # 40 seeded operators with non-dyadic entries; the first sha256 pins the brackets
    # alone, which a change to how boxes are split may not move; the second pins the
    # box counts too, with draws 4 and 11, which have a zero column, at 46 and 15
    rng = random.Random(2026)
    brackets = []
    for _ in range(40):
        op = random_structured_operator(rng, rng.randint(2, 4))
        result = brute_force_min(op, Fraction(1, 32))
        brackets.append((result.lower, result.upper, result.evaluations))
    bounds = [(lower, upper) for lower, upper, _ in brackets]
    digest = hashlib.sha256(repr(bounds).encode("utf-8")).hexdigest()
    assert digest == "5bb0206ee9b3de27d97f9891bbedfcc2a6377991e5d2e66c460e1e3d35d39485"
    assert (brackets[4][2], brackets[11][2]) == (46, 15)
    assert sum(evaluations for _, _, evaluations in brackets) == 6281
    digest = hashlib.sha256(repr(brackets).encode("utf-8")).hexdigest()
    assert digest == "2d792d1327e65fa91d33a470514beaadac643f50c436f1e2f0909b68ac331c07"


def test_oracle_brackets_are_frozen_across_resolutions():
    # h = 5 settles every start box unsplit; 4/h is a power of two at h = 1/2 and 1/64
    # and is not at the other resolutions; the sha256 was taken when boxes changed
    # dyadic level as they were split, with the oracle on its own integer matrix,
    # and pins every bracket and box count
    rng = random.Random(1)
    operators = [deflation_operator(n) for n in (2, 3, 4)]
    operators += [random_structured_operator(rng, rng.randint(2, 4)) for _ in range(4)]
    brackets = []
    for h in ("5", "1/2", "3/7", "1/10", "2/33", "1/63", "1/64", "1/65"):
        for op in operators:
            result = brute_force_min(op, Fraction(h))
            brackets.append((result.lower, result.upper, result.evaluations))
    assert sum(evaluations for _, _, evaluations in brackets) == 20750
    digest = hashlib.sha256(repr(brackets).encode("utf-8")).hexdigest()
    assert digest == "af7bb0ed4322328d9522ff87255711779c433b2ba88b53f84c64864fbdaf71ad"


def test_oracle_brackets_the_benchmark_deflations_at_h_1_64():
    # the paper-t cases of the oracle benchmark; no other pin runs N = 5 at this resolution
    expected = {
        3: (Fraction(73, 128), Fraction(147, 256), 87),
        4: (Fraction(17, 32), Fraction(137, 256), 380),
        5: (Fraction(33, 64), Fraction(133, 256), 2119),
    }
    for n, bracket in expected.items():
        result = brute_force_min(deflation_operator(n), Fraction(1, 64))
        assert (result.lower, result.upper, result.evaluations) == bracket


def test_oracle_never_splits_a_zero_column(tmp_path, capsys):
    # a coordinate whose column of A is zero cannot move Tx, so it starts at radius 0
    # and is never split; a split of it would make two equal boxes, and the 5 x 5 file
    # below would then exceed the default budget of 500,000
    cases = [
        (((1, 0, 2), (3, 0, -1), (0, 0, 1)), Fraction(1, 16), 13),
        (((-3, -2, 0, 0), (-1, -3, 0, 0), (-2, 2, 0, 0), (-2, -3, 0, 0)), Fraction(1, 16), 14),
        (((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)), Fraction(1, 16), 24),
        (((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)), Fraction(1, 64), 32),
    ]
    for rows, h, evaluations in cases:
        result = brute_force_min(Dense(rows), h)
        assert (result.lower, result.upper, result.evaluations) == (0, 0, evaluations)
    path = tmp_path / "zero-columns.mat"
    path.write_text("5\n2 1 0 0 0\n1 2 0 0 0\n0 1 0 0 0\n1 0 0 0 0\n0 0 0 0 0\n", encoding="utf-8")
    assert cli_main(["oracle", str(path), "5", "1/64"]) == 0
    out = capsys.readouterr().out
    assert "# upper=0\n# lower=0\n" in out and "# evaluations=33\n" in out


def test_oracle_spends_one_box_on_an_appended_zero_column():
    # T' = [[T, 0], [T_1, 0]] repeats T's facets box for box, as the copy of row 1 only
    # ties it as steer row and the zero column never splits; its own facet x_{N+1} = 1
    # has centre T' e_{N+1} = 0, which sets upper = 0 and retires its start box
    rng = random.Random(37)
    for _ in range(60):
        op = random_structured_operator(rng, rng.randint(1, 4))
        h = rng.choice([Fraction(1, 8), Fraction(1, 16), Fraction(3, 7)])
        rows = [row + (0,) for row in op.entries]
        widened = Dense(rows + [rows[0]])
        result = brute_force_min(widened, h)
        assert (result.lower, result.upper, result.evaluations) == (0, 0, brute_force_min(op, h).evaluations + 1)


def test_oracle_split_plans_live_for_one_call():
    # equal dimension and h give both operators the same radii, so a plan that
    # outlived its call would split one operator with the other's columns
    a = deflation_operator(4)
    b = random_structured_operator(random.Random(2), 4)
    fresh = [(a, (Fraction(17, 32), Fraction(137, 256), 380)), (b, (Fraction(17, 64), Fraction(299, 1024), 694))]
    for op, bracket in fresh * 2:  # A, B, A, B
        result = brute_force_min(op, Fraction(1, 64))
        assert (result.lower, result.upper, result.evaluations) == bracket


def test_oracle_budget_binds_before_a_fine_resolution_costs_anything():
    # h = 10^-300 puts about 1,000 binary digits below the unit radius
    with pytest.raises(BudgetExceededError) as excinfo:
        brute_force_min(deflation_operator(64), Fraction(1, 10**300), point_budget=5)
    assert str(excinfo.value) == "oracle exceeded its budget of 5 box evaluations"


def test_oracle_calls_neither_the_inverse_nor_the_lp(monkeypatch):
    cases = [(deflation_operator(4), Fraction(1, 64)), (_DENSE, Fraction(1, 32))]
    expected = [brute_force_min(op, h) for op, h in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached another engine")

    monkeypatch.setattr(minmodlab.minmod, "_fraction_free_inverse", forbidden)
    monkeypatch.setattr(minmodlab.minmod, "min_modulus_sup", forbidden)
    monkeypatch.setattr(minmodlab.minmod, "op_norm_sup", forbidden)  # the facet LPs' bound
    for module in (minmodlab.minmod, minmodlab.lpsolve):  # minmod imports both names
        monkeypatch.setattr(module, "solve", forbidden)
        monkeypatch.setattr(module, "linear_program", forbidden)
    assert [brute_force_min(op, h) for op, h in cases] == expected


def test_oracle_rejects_bad_parameters():
    with pytest.raises(ValueError):
        brute_force_min(identity(2), 0)
    with pytest.raises(ValueError):
        brute_force_min(identity(2), Fraction(-1, 4))
    with pytest.raises(ValueError):
        brute_force_min(identity(2), Fraction(1, 4), point_budget=0)

