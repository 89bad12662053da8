"""Self-tests of the benchmark: span accounting, rebinding, gates.

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

import pytest

import run
from tracing import Span, Tracer, covered_length, self_times
from workloads import DeflationLadder, OracleBracket

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def api():
    return run.import_api()


def bindings(api):
    return {(mod.__name__, name): value
            for mod in run.api_modules(api) for name, value in vars(mod).items()}


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_self_time_is_duration_minus_covered_child_time():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "b", 2.0, 5.0),
        Span(3, 2, "c", 2.5, 4.5),  # a grandchild is covered by its parent b
        Span(4, 0, "d", 7.0, 8.0),
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0}


def test_traced_spans_nest_and_account(api):
    with Tracer(run.api_modules(api), run.trace_targets(api)) as tracer:
        api.minmod.min_modulus_sup(api.constructions.deflation_operator(3))
    by_id = {s.span_id: s for s in tracer.spans}
    sweep = next(s for s in tracer.spans if s.name == "minmod.min_modulus_sup")
    children = [s for s in tracer.spans if s.parent == sweep.span_id]
    assert sorted({s.name for s in children}) == [
        "linops.materialize", "lpsolve.linear_program", "lpsolve.solve"]
    assert sum(s.name == "lpsolve.solve" for s in children) == 3
    assert sweep.attrs["dim"] == 3
    expected = sweep.duration - sum(s.duration for s in children)
    assert self_times(tracer.spans)[sweep.span_id] == pytest.approx(expected, abs=1e-9)
    assert all(by_id[s.parent].start <= s.start and s.end <= by_id[s.parent].end
               for s in tracer.spans if s.parent is not None)


def test_tracer_restores_every_rebound_name(api):
    before = bindings(api)
    with Tracer(run.api_modules(api), run.trace_targets(api)):
        assert api.harness.min_modulus_sup is not before[("minmodlab.harness", "min_modulus_sup")]
        assert api.minmod.solve.__wrapped__ is before[("minmodlab.minmod", "solve")]
    assert bindings(api) == before


def test_tracer_restores_after_an_exception(api):
    before = bindings(api)
    with pytest.raises(ValueError):
        with Tracer(run.api_modules(api), run.trace_targets(api)):
            api.minmod.brute_force_min(api.constructions.deflation_operator(2), 0)
    assert bindings(api) == before


def test_ladder_gate_passes_exact_reports_and_catches_a_wrong_row(api):
    ladder = DeflationLadder(api, seed=0)
    ladder.N_MAX = 5
    ladder.batches = [["converge", "2", "5"]]
    good = ladder.run_pass(ladder.batches[0])
    verdict = ladder.check([(0, good), (0, good)])
    assert (verdict.attempted, verdict.failed) == (8, 0)
    assert verdict.counts[0]["sections"] == 4
    code, text = good
    wrong = (code, text.replace("\n4,8/15,", "\n4,9/15,"))
    assert ladder.check([(0, good), (0, wrong)]).failed >= 1


def test_oracle_gate_catches_a_bracket_that_misses_the_exact_value(api):
    oracle = OracleBracket(api, seed=0)
    oracle.batches = [oracle.batches[0][:2]]
    good = oracle.run_pass(oracle.batches[0])
    assert oracle.check([(0, good)]).failed == 0
    shifted = [dataclasses.replace(good[0], lower=good[0].upper + Fraction(1, 8),
                                   upper=good[0].upper + Fraction(1, 4)), good[1]]
    assert oracle.check([(0, shifted)]).failed >= 1
