"""Studies, weak-null diagnostics, perturbation search, and report emission."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import minmodlab.constructions
import minmodlab.harness
from minmodlab import cli, minmod
from minmodlab.constructions import (
    closed_form_min_modulus,
    deflation_factors,
    deflation_operator,
    deflation_repair,
    geometric_functional,
    minimizing_vector,
)
from minmodlab.exactnum import Covector, Vector, basis_vector
from minmodlab.harness import (
    ConvergenceRow,
    InvariantViolation,
    Report,
    WeakNullStatus,
    WeakNullVerdict,
    convergence_study,
    emit_report,
    rank_one_search,
    weak_null_test,
)
from minmodlab.linops import Dense, RankOne, add, diagonal, identity, integer_row, materialize, op_norm_sup, perturbed
from minmodlab.minmod import MinModResult, min_modulus_sup
from support import certified_inverse, forbid_fraction_arithmetic, small_fraction, solve_inverse


# --- convergence -----------------------------------------------------------


_FROZEN_VALUES = {
    2: Fraction(2, 3),
    3: Fraction(4, 7),
    4: Fraction(8, 15),
    5: Fraction(16, 31),
    6: Fraction(32, 63),
}


def test_convergence_frozen_rows():
    report = convergence_study(2, 6)
    assert not report.partial
    assert [r.n for r in report.rows] == [2, 3, 4, 5, 6]
    values = {r.n: r.value for r in report.rows}
    assert values == _FROZEN_VALUES
    gaps = {r.n: r.gap for r in report.rows}
    assert gaps[5] == Fraction(1, 62)
    assert report.rows[1].witness_min_tail == Fraction(4, 7)
    for r in report.rows:
        assert r.value == r.closed_form
        assert r.gap == r.value - Fraction(1, 2)
        assert Fraction(1, 2) < r.witness_min_tail <= r.witness_max_tail < 1


def test_convergence_builds_no_family(monkeypatch):
    # the study reads m(T) off the deflation alone, so two runs agree and keep the frozen values
    expected = convergence_study(2, 6)
    report = convergence_study(2, 6)
    assert report == expected
    assert {r.n: r.value for r in report.rows} == _FROZEN_VALUES
    # T's integer rows come from f: no Fraction matrix is built and read back, and no Fraction arithmetic is done
    unpatched = convergence_study(2, 12)
    with monkeypatch.context() as patch:
        builds = [
            _counted(patch, minmodlab.constructions, "deflation_operator"),
            _counted(patch, Dense, "__init__"),  # Dense(entries), which reads a matrix of rationals
            reads := [],
        ]
        entries = Dense.entries
        patch.setattr(Dense, "entries", property(lambda t: reads.append(t) or entries.fget(t)))
        forbid_fraction_arithmetic(patch)
        report = convergence_study(2, 12)
    assert builds == [[], [], []]
    assert report == unpatched


def test_convergence_rejects_a_minimizer_of_the_wrong_shape(monkeypatch):
    # the reader's (|c|, R, z) at N=3 is (4, 7, [7, 4, 4]), as the dense reader's (|d|, R, z); scaled by 4,
    # each bent value is an integer over R = 28: the value is right but |x_1| != 1 or a tail modulus
    # leaves (1/2, 1), or |c| is wrong
    section = (3, 4, 7, [7, 4, 4])
    assert list(minmod._rank_one_sections(deflation_factors(geometric_functional(3)), 3)) == [section]
    assert minmod._read_inverse(*certified_inverse(deflation_operator(3))) == section[1:]
    c, norm, z = 16, 28, [28, 16, 16]
    bent = [
        ((c, norm, [21, *z[1:]]), r"\|x_1\| = 3/4"),
        ((c, norm, [z[0], 14, z[2]]), r"escapes \(1/2, 1\)"),
        ((c, norm, [*z[:2], -28]), r"escapes \(1/2, 1\)"),
        ((c + 4, norm, z), r"m at N=3 is 5/7, closed form 4/7"),
    ]
    for fake, message in bent:
        monkeypatch.setattr(minmod, "_rank_one_sections", lambda rank_one, n_min, fake=fake: iter([(n_min, *fake)]))
        with pytest.raises(InvariantViolation, match=message):
            convergence_study(3, 3)


def _counted(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that appends each call's arguments to the returned list."""
    calls = []
    inner = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_convergence_builds_one_operator_and_certifies_every_section(monkeypatch):
    builds = _counted(monkeypatch, minmodlab.harness, "deflation_factors")
    ladders = _counted(monkeypatch, minmod, "_rank_one_sections")
    certificates = _counted(monkeypatch, minmod, "_certify")
    eliminations = _counted(monkeypatch, minmod, "_fraction_free_inverse")
    sweeps = _counted(monkeypatch, minmod, "min_modulus_sup")
    harness_sweeps = _counted(monkeypatch, minmodlab.harness, "min_modulus_sup")
    report = convergence_study(2, 12)
    assert [r.n for r in report.rows] == list(range(2, 13))
    assert [len(f) for f, in builds] == [12]
    # one reader pass over T = I + U (x) G / e for the whole ladder: every section is read off its
    # capacitance, its witness re-verified on its own N, with no elimination, certificate or sweep
    assert [(len(U), len(G), n_min) for (U, G, _), n_min in ladders] == [(12, 12, 2)]
    assert eliminations == certificates == sweeps == harness_sweeps == []

    builds.clear()
    ladders.clear()
    report = convergence_study(5, 9, lp_dimension_budget=3)
    assert (report.rows, report.partial) == ((), True)
    assert builds == ladders == []


def test_convergence_report_is_frozen_past_the_default_cap(capsys):
    # the sections' integers are largest at the far end of the ladder, read off one elimination; these
    # rows were first pinned with a fresh elimination per section
    assert cli.main(["converge", "2", "96", "--lp-budget", "96"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
        "7f4bb39ef3b95073b963789f298998407efdef74affc5a403d4ef17910bc2ed1"
    )


@settings(max_examples=40, deadline=None)
@given(bounds=st.lists(st.integers(2, 24), min_size=2, max_size=2).map(sorted), budget=st.integers(1, 30))
@example(bounds=[5, 9], budget=3)
@example(bounds=[4, 9], budget=4)
@example(bounds=[2, 2], budget=1)
def test_convergence_matches_fresh_sections(bounds, budget):
    # every row as it reads off min_modulus_sup of a freshly built deflation_operator(n)
    n_min, n_max = bounds
    limit = min(n_max, budget)
    expected = []
    for n in range(n_min, limit + 1):
        result = min_modulus_sup(deflation_operator(n))
        tail = [abs(c) for c in result.witness.coords[1:]]
        gap = result.value - Fraction(1, 2)
        expected.append(ConvergenceRow(n, result.value, closed_form_min_modulus(n), min(tail), max(tail), gap))
    report = convergence_study(n_min, n_max, lp_dimension_budget=budget)
    assert report.rows == tuple(expected)
    assert report.partial == (limit < n_max)


def test_convergence_respects_the_dimension_budget():
    report = convergence_study(2, 9, lp_dimension_budget=4)
    assert report.partial
    assert [r.n for r in report.rows] == [2, 3, 4]


def test_convergence_range_validation():
    with pytest.raises(ValueError):
        convergence_study(1, 5)
    with pytest.raises(ValueError):
        convergence_study(4, 3)


# --- weak-null diagnostics ---------------------------------------------------


def test_flat_vectors_are_not_weakly_null():
    family = [minimizing_vector(n) for n in range(2, 9)]
    verdict = weak_null_test(family)
    assert verdict.status is WeakNullStatus.NOT_WEAKLY_NULL
    assert verdict.coordinate == 1
    assert verdict.bound == 1


def test_minimizers_of_the_deflation_are_not_weakly_null():
    family = [min_modulus_sup(deflation_operator(n)).witness for n in range(2, 8)]
    verdict = weak_null_test(family)
    assert verdict.status is WeakNullStatus.NOT_WEAKLY_NULL
    assert verdict.coordinate == 1
    assert verdict.bound == 1


def test_moving_basis_vectors_are_weakly_null():
    family = [basis_vector(n, 8) for n in range(1, 9)]
    verdict = weak_null_test(family)
    assert verdict.status is WeakNullStatus.WEAKLY_NULL
    assert verdict.coordinate is None


def test_returning_spike_is_inconclusive():
    family = [basis_vector(1, 3), basis_vector(2, 3), basis_vector(1, 3)]
    verdict = weak_null_test(family)
    assert verdict.status is WeakNullStatus.INCONCLUSIVE


def test_paper_check_families_give_whole_verdicts():
    # the three families paper-check tests at its default N = 2..10, pinned field by field
    certificate = WeakNullVerdict(WeakNullStatus.NOT_WEAKLY_NULL, 1, 1)
    assert weak_null_test([minimizing_vector(n) for n in range(2, 11)]) == certificate
    assert weak_null_test([min_modulus_sup(deflation_operator(n)).witness for n in range(2, 11)]) == certificate
    basis = [basis_vector(j, 10) for j in range(1, 11)]
    assert weak_null_test(basis) == WeakNullVerdict(WeakNullStatus.WEAKLY_NULL, None, None)


def test_weak_null_handles_mixed_lengths_and_validates():
    assert weak_null_test([Vector([1]), Vector([0, 1])]) == WeakNullVerdict(WeakNullStatus.WEAKLY_NULL, None, None)
    with pytest.raises(ValueError):
        weak_null_test([])


# --- rank-one search ---------------------------------------------------------


def test_search_is_deterministic():
    cases = [
        (3, Fraction(1, 2), 11, 30),
        # this short search visits no K that beats K = 0
        (5, Fraction(1), 646892613, 8),
    ]
    for n, budget, seed, iterations in cases:
        t = deflation_operator(n)
        first = rank_one_search(t, budget, seed=seed, iterations=iterations)
        second = rank_one_search(t, budget, seed=seed, iterations=iterations)
        assert first == second
        assert first.norm <= budget
        assert first.perturbed_value == first.base_value + first.gain
        assert first.gain >= 0


def test_search_zero_budget_returns_the_zero_perturbation():
    t = deflation_operator(3)
    outcome = rank_one_search(t, 0, seed=5)
    assert outcome.gain == 0
    assert outcome.evaluations == 0
    assert op_norm_sup(materialize(outcome.perturbation)) == outcome.norm == 0
    same = rank_one_search(t, 1, seed=5, iterations=0)
    assert same.evaluations == 0


def test_search_gives_way_to_the_zero_perturbation_on_a_tie():
    # the one step visits K = (4/5, 1) (x) (-1/3, 0), which only ties m(T) = 0, so K = 0 comes back with norm 0
    outcome = rank_one_search(diagonal([0, 0]), "1/3", seed=0, iterations=1)
    assert outcome.perturbation == RankOne(Vector([1, 0]), Covector([0, 0]))
    assert (outcome.norm, outcome.base_value, outcome.perturbed_value, outcome.gain) == (0, 0, 0, 0)
    assert outcome.evaluations == 3


def test_search_respects_the_norm_cap():
    t = deflation_operator(2)
    for seed in (0, 1, 2):
        outcome = rank_one_search(t, Fraction(3, 4), seed=seed, iterations=40)
        assert outcome.norm == op_norm_sup(materialize(outcome.perturbation)) <= Fraction(3, 4)
        # recomputing through the public route must agree
        assert outcome.perturbed_value == min_modulus_sup(add(t, outcome.perturbation)).value


def test_search_finds_a_strict_lift_on_the_deflation():
    t = deflation_operator(2)
    outcome = rank_one_search(t, 1, seed=7, iterations=60)
    assert outcome.gain > 0
    assert outcome.base_value == Fraction(2, 3)


def _outcomes_digest(outcomes) -> str:
    fields = [(o.perturbation, o.norm, o.base_value, o.perturbed_value, o.gain, o.iterations, o.evaluations)
              for o in outcomes]
    return hashlib.sha256(repr(fields).encode("utf-8")).hexdigest()


def _singular_dense(rng: random.Random, n: int) -> Dense:
    rows = [[small_fraction(rng, 4) for _ in range(n)] for _ in range(n - 1)]
    factor = small_fraction(rng, 3)
    rows.append([factor * e for e in rows[0]])  # a multiple of the first row
    return Dense(tuple(map(tuple, rows)))


def test_search_outcomes_are_frozen():
    # the perturb-search benchmark's inputs: 32 seeded searches on the N=5 deflation
    rng = random.Random(1)
    t = deflation_operator(5)
    outcomes = [rank_one_search(t, 1, seed=rng.randrange(2**32), iterations=40) for _ in range(32)]
    assert _outcomes_digest(outcomes) == (
        "d97c5f5cc92c36cefef1b9e9e73a62a3350682b12909438362f20fa8359402ce"
    )
    # singular operators have no inverse to update, so every proposal is scored afresh
    rng = random.Random(2)
    outcomes = [
        rank_one_search(
            _singular_dense(rng, n), Fraction(1, 2), seed=rng.randrange(2**32), iterations=30
        )
        for n in (2, 3, 4, 5, 2, 3, 4, 5)
    ]
    assert all(o.base_value == 0 for o in outcomes)
    assert _outcomes_digest(outcomes) == (
        "a1a2eb4042af16155cb46abbf39550f71c24981e15bf1856c1437c67091a3544"
    )


def test_search_outcomes_across_budgets_are_frozen():
    # budgets inside and beyond a fresh state's l1 cap, on random dense T and the deflation,
    # long enough that the step underflows and a random restart runs
    rng = random.Random(3)
    outcomes = [
        rank_one_search(_invertible_dense(rng, n), budget, seed=rng.randrange(2**32), iterations=60)
        for n in (2, 3, 4, 5)
        for budget in (Fraction(3, 4), Fraction(1, 3), Fraction(2))
    ]
    outcomes += [
        rank_one_search(deflation_operator(n), budget, seed=n, iterations=60)
        for n in (2, 3)
        for budget in (Fraction(3, 4), Fraction(1, 3), Fraction(2))
    ]
    assert _outcomes_digest(outcomes) == (
        "fffccd9352282fd3bd9321684d87ec9f6d192069a268cf95de7fdcbe12db8e19"
    )


def _invertible_dense(rng: random.Random, n: int) -> Dense:
    while True:
        t = Dense(tuple(tuple(small_fraction(rng, 4) for _ in range(n)) for _ in range(n)))
        if min_modulus_sup(t).value:
            return t


def _integer_rank_one(u: Vector, g: Covector) -> tuple:
    (U, du), (G, dg) = integer_row(u.coords), integer_row(g.coeffs)
    return U, G, du * dg


def _result(value: int, norm: int, z: list) -> MinModResult:
    """What ``min_modulus_sup`` builds from the reader's (|d|, R, z)."""
    return MinModResult(Fraction(value, norm), Vector(Fraction(c, norm) for c in z), (z.index(norm) + 1, 1))


def test_rank_one_update_matches_a_fresh_inverse():
    rng = random.Random(20)
    negative = 0  # draws with 1 + g(Su) < 0, where d' = d (d e + G a) is negative
    for n in range(1, 7):
        for _ in range(4):
            t = _invertible_dense(rng, n)
            inverse, d, base = certified_inverse(t)
            rows, denominators = base  # the certified rows A_i = D_i T_i, D_i the least denominator of row i
            assert list(denominators) == [lcm(*(e.denominator for e in row)) for row in t.entries]
            assert [[Fraction(a, D) for a in row] for row, D in zip(rows, denominators)] == list(map(list, t.entries))
            u = [small_fraction(rng, 4) for _ in range(n)]
            u[rng.randint(1, n) - 1] = 1
            u = Vector(u)
            g = Covector(small_fraction(rng, 4) for _ in range(n))
            perturbed = add(t, RankOne(u, g))
            rank_one = _integer_rank_one(u, g)
            updated, d2 = minmod._rank_one_update(inverse, d, rank_one, {})
            assert _result(*minmod._read_inverse(updated, d2, base, rank_one)) == min_modulus_sup(perturbed)
            sign = 1 + g(solve_inverse(t).apply(u))
            assert (d2 < 0) == (sign < 0) and (d2 == 0) == (sign == 0)
            negative += sign < 0
            if d2:
                fresh = solve_inverse(perturbed)
                assert Dense(tuple(tuple(Fraction(m, d2) for m in row) for row in updated)) == fresh
    assert negative

    # 1 + g(Su) = 0: T + u (x) g is singular and Su spans its kernel
    t = _invertible_dense(rng, 4)
    inverse, d, base = certified_inverse(t)
    u = Vector(["1", "-1/2", "3/4", "0"])
    su = solve_inverse(t).apply(u)
    k = next(j for j, c in enumerate(su.coords, 1) if c)
    g = Covector(["1/2", "1", "-2", "1/4"])
    g = Covector(c - (1 + g(su)) / su.coord(k) if j == k else c for j, c in enumerate(g.coeffs, 1))
    assert 1 + g(su) == 0
    perturbed = add(t, RankOne(u, g))
    rank_one = _integer_rank_one(u, g)
    kernel, d2 = minmod._rank_one_update(inverse, d, rank_one, {})
    assert d2 == 0
    _, du = integer_row(u.coords)
    assert Vector(kernel) == Vector(d * du * c for c in su)
    assert perturbed.apply(Vector(kernel)) == Vector([0] * 4)
    value, norm, z = minmod._read_inverse(kernel, d2, base, rank_one)
    assert value == 0
    assert _result(value, norm, z) == min_modulus_sup(perturbed)


def test_proposals_are_scored_without_fraction_arithmetic(monkeypatch):
    t = deflation_operator(5)
    inverse, d, base = certified_inverse(t)
    u = Vector(["1", "-1/2", "3/8", "0", "1/4"])
    g = Covector(["1/8", "0", "-3/4", "1/2", "1/3"])
    rank_one = _integer_rank_one(u, g)
    expected = min_modulus_sup(add(t, RankOne(u, g)))

    with monkeypatch.context() as patch:
        forbid_fraction_arithmetic(patch)
        core = minmod._read_inverse(*minmod._rank_one_update(inverse, d, rank_one, {}), base, rank_one)
        # the search's recomputation: T + K's rows from T's, eliminated, certified and read afresh
        tk = perturbed(t, rank_one)
        fresh = minmod._read_inverse(*minmod._certified_rows(tk.rows, tk.denominators))
        # T + K as perturb and paper-check score it: add writes its integer rows from T's and K's factors
        repaired = min_modulus_sup(add(deflation_operator(12), deflation_repair(12)))
    assert _result(*core) == expected
    assert _result(*fresh) == expected
    assert repaired == min_modulus_sup(identity(12)) and repaired.value == 1


_ENTRY = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 4, 8)))
_SPARSE = st.one_of(st.just(0), st.integers(-9, 9))  # about half the draws are zero


def _draw_proposal(data, mode: str) -> tuple:
    """(T, M, d, base, (U, G, e)): a dense T with T^-1 = M/d and a sparse integer U (x) G / e.

    ``mode`` picks den = d e + G M U: "free" leaves the draw as it is,
    "negative" scales G so that den < 0, and "singular" scales G and sets e
    so that den = 0, where T + U (x) G / e is singular.
    """
    n = data.draw(st.integers(1, 6), label="n")
    t = Dense(tuple(tuple(data.draw(st.lists(_ENTRY, min_size=n, max_size=n))) for _ in range(n)))
    assume(min_modulus_sup(t).value)
    inverse, d, base = certified_inverse(t)
    U = data.draw(st.lists(_SPARSE, min_size=n, max_size=n), label="U")
    G = data.draw(st.lists(_SPARSE, min_size=n, max_size=n), label="G")
    e = data.draw(st.integers(1, 12), label="e")
    if mode != "free":
        s = sum(g * sum(m * c for m, c in zip(row, U)) for g, row in zip(G, inverse))  # G M U
        assume(s)
        c = (d if mode == "singular" else d * e + 1) * (-1 if s > 0 else 1)
        G, e = [c * g for g in G], abs(s) if mode == "singular" else e
    return t, inverse, d, base, (U, G, e)


@pytest.mark.parametrize("mode", ["free", "negative", "singular"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_update_and_read_give_the_minimum_modulus_of_any_proposal(mode, data):
    t, inverse, d, base, rank_one = _draw_proposal(data, mode)
    U, G, e = rank_one
    updated, d2 = minmod._rank_one_update(inverse, d, rank_one, {})
    if mode == "negative":
        assert d2 < 0
    if mode == "singular":
        assert d2 == 0 and any(updated)  # the kernel vector a = M U
    k = RankOne(Vector(Fraction(c, e) for c in U), Covector(G))
    assert _result(*minmod._read_inverse(updated, d2, base, rank_one)) == min_modulus_sup(add(t, k))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_read_rejects_a_negated_row_or_a_flipped_determinant(data):
    _, inverse, d, base, rank_one = _draw_proposal(data, data.draw(st.sampled_from(["free", "negative"])))
    updated, d2 = minmod._rank_one_update(inverse, d, rank_one, {})
    assume(d2)
    read = minmod._read_inverse
    # the update M'/d' of T + K, and the certified M/d of T itself, read with no rank-one term
    for matrix, det, term in [(updated, d2, rank_one), (inverse, d, None)]:
        value, norm, z = read(matrix, det, base, term)
        # (T + K) z = d' y for a true M'/d'; with -d', the check asks for -d' y instead
        with pytest.raises(RuntimeError, match="witness failed re-verification"):
            read(matrix, -det, base, term)
        for i, zi in enumerate(z):
            negated = [[-m for m in row] if r == i else row for r, row in enumerate(matrix)]
            if zi:  # z moves off M' y, the one z with (T + K) z = d' y, and fails; z_i = R on the row that sets y
                with pytest.raises(RuntimeError, match="witness failed re-verification"):
                    read(negated, det, base, term)
            else:  # z_i = 0: R, y and z are unchanged, so the same true witness comes back
                assert read(negated, det, base, term) == (value, norm, z)


def test_search_proposals_read_the_perturbed_minimum_modulus(monkeypatch):
    # every proposal the search scores from the update: |d|/R is m(T + U (x) G / e)
    proposals = []
    read = minmod._read_inverse

    def recorded(inverse, d, base, rank_one=None):
        core = read(inverse, d, base, rank_one)
        if rank_one is not None:
            proposals.append((rank_one, core))
        return core

    monkeypatch.setattr(minmod, "_read_inverse", recorded)
    rng = random.Random(5)
    for t, budget in [(deflation_operator(3), Fraction(3, 4)), (_invertible_dense(rng, 4), Fraction(2))]:
        proposals.clear()
        outcome = rank_one_search(t, budget, seed=8, iterations=30)
        assert len(proposals) == outcome.evaluations
        for (U, G, e), (value, norm, _) in proposals:
            k = RankOne(Vector(Fraction(c, e) for c in U), Covector(G))
            assert Fraction(value, norm) == min_modulus_sup(add(t, k)).value


@st.composite
def _perturbed_draws(draw):
    # a rational T with some zero rows, and U (x) G / (e_u e_g) with some zero U_i
    n = draw(st.integers(1, 6))
    row = st.one_of(st.just([0] * n), st.lists(_ENTRY, min_size=n, max_size=n))
    entries = draw(st.lists(row, min_size=n, max_size=n))
    U = draw(st.lists(_SPARSE, min_size=n, max_size=n))
    G = draw(st.lists(_SPARSE, min_size=n, max_size=n))
    return entries, U, G, draw(st.integers(1, 12)), draw(st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(_perturbed_draws())
@example(([[Fraction(1, 2), Fraction(-3, 4)], [0, 0]], [3, 0], [0, 0], 4, 6))  # G = 0
def test_perturbed_rows_are_the_integer_rows_of_the_sum(draw):
    entries, U, G, e_u, e_g = draw
    k = RankOne(Vector(Fraction(c, e_u) for c in U), Covector(Fraction(c, e_g) for c in G))
    t = Dense(entries)
    expected = Dense(tuple(tuple(a + b for a, b in zip(row, kr)) for row, kr in zip(t.entries, materialize(k).entries)))
    assert perturbed(t, (U, G, e_u * e_g)) == add(t, k) == expected


def test_search_rejects_a_score_its_recomputation_disputes(monkeypatch):
    # proposals read |d|/R + 1, the recomputation, with no rank-one part, the true |d|/R
    read = minmod._read_inverse

    def inflated(inverse, d, base, rank_one=None):
        value, norm, z = read(inverse, d, base, rank_one)
        return (value + norm if rank_one is not None else value), norm, z

    monkeypatch.setattr(minmod, "_read_inverse", inflated)
    with pytest.raises(InvariantViolation, match="disagrees with its recomputation"):
        rank_one_search(deflation_operator(3), 1, seed=8, iterations=10)


def test_search_inverts_an_invertible_operator_once(monkeypatch):
    calls = []
    eliminate = minmod._fraction_free_inverse

    def counted(rows, denominators):
        calls.append(len(rows))
        return eliminate(rows, denominators)

    monkeypatch.setattr(minmod, "_fraction_free_inverse", counted)
    t = deflation_operator(4)
    for budget, iterations in ((1, 1), (1, 7), (1, 40), (1, 0), (0, 40)):
        calls.clear()
        rank_one_search(t, budget, seed=3, iterations=iterations)
        # the base, whose inverse every proposal updates, and the final recomputation, K = 0's too
        assert len(calls) == 2
    # a singular operator has no inverse to update: each proposal inverts T + K afresh
    calls.clear()
    outcome = rank_one_search(_singular_dense(random.Random(4), 3), 1, seed=3, iterations=10)
    assert len(calls) == outcome.evaluations + 2


def test_search_products_live_for_one_call():
    # equal seeds start both searches at the same (U, G), so a memo of M U and G M that
    # outlived its call would score one operator's proposals with the other's products
    a = deflation_operator(5)
    b = _invertible_dense(random.Random(9), 5)
    cases = [(a, Fraction(2470307, 2982611)), (b, Fraction(2286577163239, 1548405684260))]
    first = {}
    for k, (op, value) in enumerate(cases * 2):  # A, B, A, B
        outcome = rank_one_search(op, 1, seed=11, iterations=40)
        assert outcome == first.setdefault(k % 2, outcome)
        assert (outcome.perturbed_value, outcome.evaluations) == (value, 81)


def test_search_validation():
    t = deflation_operator(2)
    with pytest.raises(ValueError):
        rank_one_search(t, Fraction(-1, 2), seed=0)
    with pytest.raises(ValueError):
        rank_one_search(t, 1, seed=0, iterations=-1)


# --- report emission ---------------------------------------------------------


def _convergence_fixture() -> Report:
    """A report of the convergence kind, columns and rows, for the emission tests."""
    return Report(
        kind="convergence",
        header=(),
        columns=("N", "m_N", "closed_form", "witness_min_tail", "witness_max_tail", "gap"),
        rows=tuple(
            (r.n, r.value, r.closed_form, r.witness_min_tail, r.witness_max_tail, r.gap)
            for r in convergence_study(2, 4).rows
        ),
    )


def test_csv_emission_is_byte_identical():
    report = _convergence_fixture()
    first = emit_report(report)
    second = emit_report(report)
    assert first == second
    assert first.startswith("# schema_version=1\n# kind=convergence\n")
    assert "generated_at" not in first
    lines = first.strip().splitlines()
    assert "N,m_N,closed_form,witness_min_tail,witness_max_tail,gap" in lines
    assert lines[-1].startswith("4,8/15,8/15,")


def test_timestamp_is_opt_in():
    report = _convergence_fixture()
    stamped = emit_report(report, timestamp=True)
    assert "generated_at" in stamped


def test_approx_columns_are_labeled_and_extra():
    report = _convergence_fixture()
    plain = emit_report(report)
    approx = emit_report(report, approx=True)
    assert "_approx12" not in plain
    assert "m_N_approx12" in approx
    assert "0.666666666667" in approx


@settings(max_examples=200, deadline=None)
@given(st.fractions(), st.integers(-30, 60))
@example(Fraction(0), 0)
@example(Fraction(5, 10**13), 0)  # ties go to the even neighbour, 0 and 2 places up
@example(Fraction(15, 10**13), 0)
@example(Fraction(-1, 10**15), 0)  # rounds to zero and keeps its sign
@example(Fraction(-8414479277534129240525924589500005035957254754677, 106), 0)  # 47 integer digits
def test_approx12_is_fixed_point_rounded_half_to_even(value, exponent):
    value *= Fraction(10) ** exponent
    cell = minmodlab.harness._approx12(value)
    sign, digits = ("-", cell[1:]) if cell.startswith("-") else ("", cell)
    whole, places = digits.split(".")
    assert sign == ("-" if value < 0 else "")
    assert whole.isdigit() and places.isdigit() and len(places) == 12 and (whole == "0" or whole[0] != "0")
    error = abs(Fraction(int(whole + places), 10**12) - abs(value))
    assert error <= Fraction(1, 2 * 10**12)
    if error == Fraction(1, 2 * 10**12):
        assert int(places[-1]) % 2 == 0


def test_json_emission_schema():
    report = _convergence_fixture()
    payload = json.loads(emit_report(report, fmt="json"))
    assert payload["schema_version"] == 1
    assert payload["kind"] == "convergence"
    assert payload["columns"][0] == "N"
    assert payload["rows"][0][1] == "2/3"
    approx = json.loads(emit_report(report, fmt="json", approx=True))
    assert approx["approx12"]["m_N"][0] == "0.666666666667"


def test_emission_to_a_path(tmp_path):
    report = _convergence_fixture()
    out = tmp_path / "convergence.csv"
    text = emit_report(report, destination=out)
    assert out.read_text(encoding="utf-8") == text


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report(_convergence_fixture(), fmt="xml")


def test_plain_report_passes_through():
    r = Report(kind="demo", header=(("k", "v"),), columns=("a",), rows=((Fraction(1, 2),),))
    text = emit_report(r)
    assert "# k=v" in text
    assert text.strip().endswith("1/2")
