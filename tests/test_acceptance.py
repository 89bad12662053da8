"""Acceptance gate: nine exact criteria, one printed verdict line each.

Every comparison below is exact rational arithmetic — there are no float
tolerances anywhere.  Each criterion prints a single [PASS]/[FAIL] line
outside pytest's capture so the verdicts are visible in any run.
"""

from __future__ import annotations

import random
from fractions import Fraction

from minmodlab.constructions import (
    closed_form_min_modulus,
    deflation_operator,
    deflation_repair,
    direct_sum_operator,
    minimizing_vector,
    shifted_geometric_functional,
)
from minmodlab.exactnum import basis_vector, sup_norm
from minmodlab.harness import WeakNullStatus, rank_one_search, weak_null_test
from minmodlab.linops import add, identity, materialize, scale
from minmodlab.minmod import brute_force_min, min_modulus_sup
from support import random_sphere_point, random_structured_operator

HALF = Fraction(1, 2)


def _verdict(capfd, name: str, ok: bool) -> None:
    with capfd.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}", flush=True)


def test_criterion_1_exact_truncation_law(capfd):
    ok = False
    try:
        for n in range(2, 13):
            value = min_modulus_sup(deflation_operator(n)).value
            assert value == 1 / (2 - Fraction(1, 2 ** (n - 1)))
            assert value == closed_form_min_modulus(n)
        assert closed_form_min_modulus(2) == Fraction(2, 3)
        assert closed_form_min_modulus(5) == Fraction(16, 31)
        assert closed_form_min_modulus(10) == Fraction(512, 1023)
        # independent confirmation: the certified sampling bracket at
        # resolution 1/200 must contain the closed form for N = 2..6
        for n in range(2, 7):
            bracket = brute_force_min(deflation_operator(n), Fraction(1, 200))
            assert bracket.lower <= closed_form_min_modulus(n) <= bracket.upper
        ok = True
    finally:
        _verdict(
            capfd,
            "criterion 1: truncation law m_N = 1/(2 - 2^(1-N)), N=2..12, oracle-confirmed N=2..6",
            ok,
        )


def test_criterion_2_gap_to_the_limit(capfd):
    ok = False
    try:
        previous = None
        for n in range(2, 13):
            gap = min_modulus_sup(deflation_operator(n)).value - HALF
            assert gap > 0
            assert gap <= Fraction(1, 2**n)
            if previous is not None:
                assert gap < previous
            previous = gap
        ok = True
    finally:
        _verdict(capfd, "criterion 2: gaps m_N - 1/2 positive, strictly decreasing, <= 2^-N", ok)


def test_criterion_3_descent_vector_values(capfd):
    ok = False
    try:
        previous = None
        for n in range(2, 13):
            value = sup_norm(deflation_operator(n).apply(minimizing_vector(n)))
            assert value == HALF + Fraction(1, 2**n)
            if previous is not None:
                assert value < previous
            previous = value
        ok = True
    finally:
        _verdict(
            capfd,
            "criterion 3: descent values sup|T x^(N)| = 1/2 + 2^-N, decreasing, N=2..12",
            ok,
        )


def test_criterion_4_perturbation_restores_the_identity(capfd):
    ok = False
    try:
        for n in range(2, 13):
            repaired = add(deflation_operator(n), deflation_repair(n))
            assert repaired == identity(n)
            assert min_modulus_sup(repaired).value == 1
        ok = True
    finally:
        _verdict(capfd, "criterion 4: T + K materializes to I and m(T+K) = 1, N=2..12", ok)


def test_criterion_5_sampled_lower_bound(capfd):
    ok = False
    try:
        rng = random.Random(50_2026)
        for n in (3, 6, 10):
            operator = deflation_operator(n)
            violations = 0
            for _ in range(10_000):
                x = random_sphere_point(rng, n)
                if sup_norm(operator.apply(x)) < HALF:
                    violations += 1
            assert violations == 0
        ok = True
    finally:
        _verdict(
            capfd,
            "criterion 5: sup|Tx| >= 1/2 on 10^4 exact sphere samples per N in {3,6,10}",
            ok,
        )


def test_criterion_6_weak_null_verdicts(capfd):
    ok = False
    try:
        flats = [minimizing_vector(n).embed(10) for n in range(2, 11)]
        verdict = weak_null_test(flats)
        assert verdict.status is WeakNullStatus.NOT_WEAKLY_NULL
        assert verdict.coordinate == 1
        assert verdict.bound == 1

        witnesses = [
            min_modulus_sup(deflation_operator(n)).witness.embed(8) for n in range(2, 9)
        ]
        verdict = weak_null_test(witnesses)
        assert verdict.status is WeakNullStatus.NOT_WEAKLY_NULL
        assert verdict.coordinate == 1
        assert verdict.bound == 1

        basis = [basis_vector(n, 10) for n in range(1, 11)]
        assert weak_null_test(basis).status is WeakNullStatus.WEAKLY_NULL
        ok = True
    finally:
        _verdict(
            capfd,
            "criterion 6: descent/witness families not-weakly-null (coord 1, beta 1); moving basis weakly-null",
            ok,
        )


def test_criterion_7_direct_sum_equivalence(capfd):
    ok = False
    try:
        for n in range(3, 9):
            split = direct_sum_operator(shifted_geometric_functional(n - 1))
            assert materialize(split).entries == materialize(deflation_operator(n)).entries
        ok = True
    finally:
        _verdict(
            capfd,
            "criterion 7: scalar-slot direct sum matches the flat operator entrywise, N=3..8",
            ok,
        )


def test_criterion_8_engine_cross_validation(capfd):
    ok = False
    try:
        rng = random.Random(80_2026)
        for _ in range(100):
            operator = random_structured_operator(rng, 3)
            exact = min_modulus_sup(operator).value
            bracket = brute_force_min(operator, Fraction(1, 50))
            assert bracket.lower <= exact <= bracket.upper
        for _ in range(100):
            operator = random_structured_operator(rng, 3)
            c = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
            assert (
                min_modulus_sup(scale(c, operator)).value
                == abs(c) * min_modulus_sup(operator).value
            )
        ok = True
    finally:
        _verdict(
            capfd,
            "criterion 8: inverse engine inside 100 certified oracle brackets; homogeneity on 100 pairs",
            ok,
        )


def test_criterion_9_search_reachability(capfd):
    ok = False
    try:
        n = 6
        base = closed_form_min_modulus(n)
        outcome = rank_one_search(deflation_operator(n), 1, seed=7, iterations=200)
        assert outcome.base_value == base
        assert outcome.perturbed_value >= base + Fraction(1, 4)
        # the reported score is recomputed from the perturbation alone
        assert outcome.perturbed_value == min_modulus_sup(
            add(deflation_operator(n), outcome.perturbation)
        ).value
        ok = True
    finally:
        _verdict(
            capfd,
            "criterion 9: seeded rank-one search lifts m by >= 1/4 at N=6 under norm budget 1",
            ok,
        )
