"""The names the benchmark under bench/ reads from minmodlab stay in place.

The benchmark is frozen between its own revisions, so a rename in src/
would break it only when it next runs; these checks fail at once instead.
"""

from __future__ import annotations

import dataclasses
import importlib
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_api(monkeypatch):
    """bench/run.py and an api namespace of the minmodlab modules pytest already imported.

    ``run.import_api()`` would drop and re-import every minmodlab module, so classes made by
    later tests would no longer be the ones the test modules imported.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    api = SimpleNamespace(**{m: importlib.import_module(f"minmodlab.{m}") for m in run.MODULES})
    return run, api


def test_every_traced_name_is_callable(bench_api):
    run, api = bench_api
    for module, name, _, _ in run.trace_targets(api):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_the_names_the_bench_tests_read_are_in_place(bench_api):
    _, api = bench_api
    # bench/test_bench.py checks the tracer rebinds these re-exports and puts them back
    assert api.harness.min_modulus_sup is api.minmod.min_modulus_sup
    assert api.minmod.solve is api.lpsolve.solve
    # and calls dataclasses.replace on an oracle result
    assert dataclasses.is_dataclass(api.minmod.OracleResult)


def test_the_result_fields_the_bench_reads_are_in_place(bench_api):
    _, api = bench_api
    T = api.constructions.deflation_operator(2)  # m(T) = 2/3
    # oracle-bracket gates on the bracket and its width, and records boxes and denominators
    r = api.minmod.brute_force_min(T, Fraction(1, 4))
    assert r.lower <= Fraction(2, 3) <= r.upper and r.upper - r.lower <= r.lipschitz * r.covering_radius
    assert r.evaluations >= 2
    # bench/test_bench.py shifts a bracket with dataclasses.replace
    shifted = dataclasses.replace(r, lower=r.upper + 1, upper=r.upper + 2)
    assert (shifted.lower, shifted.upper, shifted.evaluations) == (r.upper + 1, r.upper + 2, r.evaluations)
    # perturb-search gates on the gain and norm and digests the outcome with its perturbation
    o = api.harness.rank_one_search(T, 1, seed=0, iterations=2)
    assert o.gain >= 0 and o.norm <= 1 and o.perturbed_value == Fraction(2, 3) + o.gain and o.evaluations >= 0
    assert len(o.perturbation.direction.coords) == len(o.perturbation.functional.coeffs) == 2
    # the sweep tracer reads the value and the witness
    result = api.minmod.min_modulus_sup(T)
    assert result.value == Fraction(2, 3) and len(result.witness.coords) == 2
