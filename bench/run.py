"""minmodlab benchmark: one closed-loop caller, one process, one thread.

    python3 bench/run.py --workload deflation-ladder --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed``, runs passes over them
until ``--seconds`` have elapsed, checks every output for exactness
outside the timed region, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes over the same input
batch and reports the per-layer metrics from spans recorded around calls
into each module; ``trace.overhead_ratio`` compares the two.

Times are scaled to a reference machine speed.  On a shared 2-core VM
the speed was seen to drift by up to 2x for minutes at a time, so right
before and right after every timed pass and every set-up sample the
benchmark times ``probe``, a fixed kernel of standard-library
``Fraction`` arithmetic that no minmodlab code touches, and multiplies
the measured time by PROBE_REF_S / (mean of the two probe times).  The
raw times are printed above the JSON line.

Deterministic counts (sections, search evaluations, oracle boxes,
denominator bits, and in traced runs LP counts) are stored per code
version, workload and seed under ``bench/.records``; a run whose counts
differ from an earlier run of the same seed is flagged and fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer, self_times
from workloads import WORKLOADS, den_bits

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RECORDS = BENCH / ".records"
MODULES = ("cli", "harness", "constructions", "minmod", "linops", "lpsolve", "exactnum")
# about the probe's time on a shared 2-core x86 VM at its fastest (Python 3.11);
# scaled times are seconds at that speed
PROBE_REF_S = 0.020
# min_modulus_sup(paper-t N) times from the ROADMAP Baseline section
ROADMAP_BASELINE_S = {8: 0.24, 16: 4.4}


def import_api() -> SimpleNamespace:
    """Import minmodlab afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "minmodlab" or m.startswith("minmodlab.")]:
        del sys.modules[name]
    package = importlib.import_module("minmodlab")
    if Path(package.__file__).resolve().parent != SRC / "minmodlab":
        raise ImportError(f"minmodlab resolved to {package.__file__}, not {SRC}")
    return SimpleNamespace(package=package,
                           **{m: importlib.import_module(f"minmodlab.{m}") for m in MODULES})


def api_modules(api) -> list:
    return list(vars(api).values())


def probe() -> float:
    """Seconds for a fixed stdlib Fraction kernel; gauges the host's current speed."""
    a = Fraction(1, 3)
    t0 = time.perf_counter()
    for _ in range(3000):
        a = (a * Fraction(7, 5) + Fraction(1, 7)) / Fraction(3, 2)
        if a.denominator > 10**30:
            a = Fraction(1, 3)
    return time.perf_counter() - t0


def timed(fn):
    """(result, raw seconds, scale), with the probe run right before and after fn."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    return result, seconds, 2 * PROBE_REF_S / (before + probe())


def setup(workload_cls, seed: int):
    """((api, workload), raw seconds, scale) for one fresh import plus input generation."""
    def build():
        api = import_api()
        return api, workload_cls(api, seed)
    return timed(build)


def _observe_solve(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    rows = len(lp.constraints)
    attrs = {"cells": rows * (lp.num_vars + rows)}
    if result.value is not None:
        attrs["den_bits"] = den_bits([result.value, *result.point])
    return attrs


def _observe_sweep(args, kwargs, result):
    operator = args[0] if args else kwargs["T"]
    return {"dim": operator.dim, "den_bits": den_bits([result.value, *result.witness.coords])}


def _observe_oracle(args, kwargs, result):
    return {"boxes": result.evaluations, "width": result.upper - result.lower,
            "den_bits": den_bits([result.upper, result.lower])}


def _observe_report(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def trace_targets(api):
    return [
        (api.lpsolve, "solve", "lpsolve.solve", _observe_solve),
        (api.lpsolve, "linear_program", "lpsolve.linear_program", None),
        (api.minmod, "min_modulus_sup", "minmod.min_modulus_sup", _observe_sweep),
        (api.minmod, "brute_force_min", "minmod.brute_force_min", _observe_oracle),
        (api.linops, "materialize", "linops.materialize", None),
        (api.linops, "op_norm_sup", "linops.op_norm_sup", None),
        (api.constructions, "c0_family", "constructions.c0_family", None),
        (api.harness, "convergence_study", "harness.convergence_study", None),
        (api.harness, "rank_one_search", "harness.rank_one_search", None),
        (api.harness, "emit_report", "harness.emit_report", _observe_report),
        (api.cli, "main", "cli.main", None),
    ]


def pass_counts(spans) -> dict:
    """Deterministic work counts of one traced pass."""
    names = defaultdict(int)
    for s in spans:
        names[s.name] += 1
    return {
        "lp_solves": names["lpsolve.solve"],
        "lp_sweeps": names["minmod.min_modulus_sup"],
        "materialize_calls": names["linops.materialize"],
        "tableau_cells": sum(s.attrs.get("cells", 0) for s in spans),
        "oracle_boxes": sum(s.attrs.get("boxes", 0) for s in spans),
    }


def nearest_rank(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans, passes: int, overhead: float, public_bits: int) -> dict:
    """Per-layer metrics, per traced pass, from the spans of all traced passes."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name]) / passes

    def self_s(name):
        return sum(selfs[s.span_id] for s in by_name[name]) / passes

    def total_s(name):
        return sum(s.duration for s in by_name[name]) / passes

    def pct(name, q):
        return nearest_rank([s.duration for s in by_name[name]], q)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name]) / passes

    solves = len(by_name["lpsolve.solve"])
    sweeps = len(by_name["minmod.min_modulus_sup"])
    oracle_s = total_s("minmod.brute_force_min")
    boxes = attr_sum("minmod.brute_force_min", "boxes")
    m = {}
    for layer in ("lpsolve.solve", "minmod.min_modulus_sup"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
        m[f"{layer}.p50_s"] = (pct(layer, 0.5), "s")
        m[f"{layer}.p90_s"] = (pct(layer, 0.9), "s")
    m["lpsolve.linear_program.s"] = (total_s("lpsolve.linear_program"), "s")
    m["lpsolve.tableau_cells"] = (attr_sum("lpsolve.solve", "cells"), "cells")
    m["minmod.lp_per_sweep"] = (solves / sweeps if sweeps else 0.0, "ratio")
    m["minmod.useful_lp_ratio"] = (sweeps / solves if solves else 0.0, "ratio")
    m["minmod.brute_force_min.s"] = (oracle_s, "s")
    m["minmod.oracle_boxes"] = (boxes, "count")
    m["minmod.oracle_boxes_per_s"] = (boxes / oracle_s if oracle_s else 0.0, "1/s")
    m["minmod.oracle_width_max"] = (
        float(max((s.attrs["width"] for s in by_name["minmod.brute_force_min"]), default=0)),
        "ratio",
    )
    m["linops.materialize.calls"] = (calls("linops.materialize"), "count")
    m["linops.materialize.s"] = (total_s("linops.materialize"), "s")
    m["linops.op_norm_sup.s"] = (total_s("linops.op_norm_sup"), "s")
    m["exactnum.den_bits_max"] = (
        max([public_bits] + [s.attrs.get("den_bits", 0) for s in spans]), "bits")
    m["harness.rank_one_search.self_s"] = (self_s("harness.rank_one_search"), "s")
    m["harness.convergence_study.self_s"] = (self_s("harness.convergence_study"), "s")
    m["harness.emit_report.s"] = (total_s("harness.emit_report"), "s")
    m["harness.report_bytes"] = (attr_sum("harness.emit_report", "bytes"), "bytes")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["constructions.c0_family.s"] = (total_s("constructions.c0_family"), "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")) + sorted(BENCH.glob("*.txt")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_record(workload: str, seed: int, trace: int, counts: dict) -> list:
    """Merge per-batch counts into the record of this code, workload and seed.

    Returns the batches whose counts differ from an earlier run's.
    """
    path = RECORDS / f"{workload}-seed{seed}-trace{trace}-{code_digest()}.json"
    current = json.loads(json.dumps(counts, sort_keys=True))
    earlier = json.loads(path.read_text()) if path.exists() else {}
    differing = [b for b in current if b in earlier and earlier[b] != current[b]]
    RECORDS.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**current, **earlier}, sort_keys=True))
    tmp.replace(path)
    return differing


def run(args) -> int:
    workload_cls = WORKLOADS[args.workload]
    (api, workload), first_setup, first_scale = setup(workload_cls, args.seed)
    # further set-up samples are taken between passes, so they see the same
    # spread of machine speed as the passes; their modules are discarded
    setup_t, setup_k = [first_setup], [first_scale]
    peak_rss = None

    # raw pass seconds, and the probe scale measured around each pass
    untraced_t, untraced_k, traced_t, traced_k = [], [], [], []
    passes, spans = [], []
    traced_counts = {}
    lp_flags = []
    start = time.perf_counter()
    for i in itertools.count():
        batch = i % len(workload.batches)
        inputs = workload.batches[batch]
        output, seconds, scale = timed(lambda: workload.run_pass(inputs))
        passes.append((batch, output))
        untraced_t.append(seconds)
        untraced_k.append(scale)
        if args.trace:
            # the traced pass repeats the batch, so the overhead ratio compares equal work
            with Tracer(api_modules(api), trace_targets(api)) as tracer:
                output, seconds, scale = timed(lambda: workload.run_pass(inputs))
            passes.append((batch, output))
            traced_t.append(seconds)
            traced_k.append(scale)
            spans.extend(tracer.spans)
            counts = pass_counts(tracer.spans)
            if traced_counts.setdefault(batch, counts) != counts:
                lp_flags.append(f"batch {batch} LP counts differ between traced passes")
        if peak_rss is None:
            # after the first pass, so the figure covers the same work in every run
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start >= args.seconds:
            break
        _, seconds, scale = setup(workload_cls, args.seed)
        setup_t.append(seconds)
        setup_k.append(scale)

    verdict = workload.check(passes)
    counts = {b: {**c, **traced_counts.get(b, {})} for b, c in verdict.counts.items()}
    flags = lp_flags + [f"batch {b} counts differ from an earlier run of seed {args.seed}"
                        for b in compare_with_record(args.workload, args.seed, args.trace, counts)]
    correct = verdict.failed == 0 and not flags

    untraced = passes[:: 1 + args.trace]
    scaled = [t * k for t, k in zip(untraced_t, untraced_k)]
    rates = [workload.items(workload.batches[b], out) / t for (b, out), t in zip(untraced, scaled)]
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 caller, "
          f"{len(untraced_t)} untraced and {len(traced_t)} traced passes "
          f"over {len(counts)} of {len(workload.batches)} input batches")
    print(f"untraced pass seconds, raw: {' '.join(f'{t:.4f}' for t in untraced_t)}")
    print(f"untraced pass seconds, scaled: {' '.join(f'{t:.4f}' for t in scaled)}")
    if traced_t:
        print(f"traced pass seconds, raw: {' '.join(f'{t:.4f}' for t in traced_t)}")
    print(f"probe seconds: median {PROBE_REF_S / statistics.median(untraced_k):.4f} "
          f"(reference {PROBE_REF_S})")
    print(f"setup seconds: raw median {statistics.median(setup_t):.4f} of {len(setup_t)}")
    for b, c in sorted(counts.items()):
        print(f"counts batch {b}: {json.dumps(c, sort_keys=True)}")
    print(f"failed_ratio: {verdict.failed}/{verdict.attempted}")
    for line in verdict.problems[:20] + flags:
        print(f"FAIL: {line}")

    if args.trace:
        overhead = (statistics.median(t * k for t, k in zip(traced_t, traced_k))
                    / statistics.median(scaled))
        public_bits = max(c["den_bits_max"] for c in counts.values())
        metrics = layer_metrics(spans, len(traced_t), overhead, public_bits)
        by_dim = defaultdict(list)
        for s in spans:
            if s.name == "minmod.min_modulus_sup" and args.workload == "deflation-ladder":
                by_dim[s.attrs["dim"]].append(s.duration)
        for n, baseline in ROADMAP_BASELINE_S.items():
            if by_dim[n]:
                print(f"min_modulus_sup(paper-t N={n}): {statistics.median(by_dim[n]):.4f} s "
                      f"median of {len(by_dim[n])} spans; ROADMAP Baseline {baseline} s")
    else:
        metrics = {
            "wall_s": (statistics.median(scaled), "s"),
            "items_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(t * k for t, k in zip(setup_t, setup_k)), "s"),
            "peak_rss_mib": (peak_rss, "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    try:
        return run(args)
    except ImportError as exc:
        print(f"error: cannot import minmodlab from {SRC}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
