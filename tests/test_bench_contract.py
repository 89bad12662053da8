"""The names the benchmark under bench/ reads from minmodlab stay in place.

The benchmark is frozen between its own revisions, so a rename in src/
would break it only when it next runs; these checks fail at once instead.
"""

from __future__ import annotations

import dataclasses
import importlib
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
