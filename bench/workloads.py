"""The three benchmark workloads and their correctness gates.

Each workload builds a list of input batches from the benchmark seed.
The timed loop runs one *pass* per batch, cycling through the list, so a
run covers several draws of the seeded inputs and repeats a batch only
after the list is used up.  After timing, ``check`` tests every output
for exactness and collects per-batch deterministic counts.

Items are the unit of ``attempted`` and ``failed``: a ladder section, a
search score evaluation or a certified bracket.  The program sees only
the generated inputs, never the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BATCHES = 32


def closed_form(n: int) -> Fraction:
    """m_N = 2^(N-1) / (2^N - 1), the paper's truncation law."""
    return Fraction(2 ** (n - 1), 2**n - 1)


def den_bits(values) -> int:
    return max((Fraction(v).denominator.bit_length() for v in values), default=0)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Verdict:
    """Outcome of the gate over every pass of one run.

    ``counts`` maps a batch index to that batch's deterministic counts.
    """

    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, items: int, message: str) -> None:
        self.failed += items
        self.problems.append(message)

    def record(self, batch: int, counts: dict) -> None:
        """Keep the first counts of a batch; a repeat that differs fails."""
        earlier = self.counts.setdefault(batch, counts)
        if earlier != counts:
            self.problems.append(f"batch {batch} counts differ between passes")
            self.failed += 1


class DeflationLadder:
    """``minmodlab converge 2 N_MAX`` in-process, stdout captured.

    The paper fixes this input, so there is one batch and the seed has
    nothing to vary.
    """

    name = "deflation-ladder"
    N_MIN = 2
    N_MAX = 12

    def __init__(self, api, seed: int) -> None:
        self.api = api
        self.batches = [["converge", str(self.N_MIN), str(self.N_MAX)]]

    def run_pass(self, argv):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.api.cli.main(argv)
        except Exception as exc:  # an exception fails the pass's items, not the run
            return ("error", repr(exc))
        return (code, out.getvalue())

    def items(self, argv, output) -> int:
        return self.N_MAX - self.N_MIN + 1

    def check(self, passes) -> Verdict:
        verdict = Verdict()
        for batch, (code, text) in passes:
            sections = self.items(self.batches[batch], (code, text))
            verdict.attempted += sections
            if code != 0:
                verdict.fail(sections, f"converge exited with {code}: {text[:200]}")
                continue
            rows = {}
            cells = []
            body = [line for line in text.splitlines() if not line.startswith("#")]
            for line in body[1:]:
                fields = line.split(",")
                rows[int(fields[0])] = Fraction(fields[1])
                cells.extend(Fraction(c) for c in fields[1:])
            for n in range(self.N_MIN, self.N_MAX + 1):
                if rows.get(n) != closed_form(n):
                    verdict.fail(1, f"m_{n} reads {rows.get(n)}, closed form {closed_form(n)}")
            verdict.record(batch, {
                "sections": len(rows),
                "den_bits_max": den_bits(cells),
                "report_sha256": digest(text),
            })
        return verdict


class PerturbSearch:
    """``rank_one_search`` on the deflation operator, a few search seeds a batch."""

    name = "perturb-search"
    N = 5
    ITERATIONS = 40
    SEARCHES = 1

    def __init__(self, api, seed: int) -> None:
        self.api = api
        rng = random.Random(seed)
        self.batches = [[rng.randrange(2**32) for _ in range(self.SEARCHES)]
                        for _ in range(BATCHES)]
        self.operator = api.constructions.deflation_operator(self.N)

    def run_pass(self, search_seeds):
        outcomes = []
        for s in search_seeds:
            try:
                outcomes.append(self.api.harness.rank_one_search(
                    self.operator, 1, seed=s, iterations=self.ITERATIONS))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    def items(self, search_seeds, output) -> int:
        return sum(1 if isinstance(o, Exception) else o.evaluations for o in output)

    def check(self, passes) -> Verdict:
        verdict = Verdict()
        for batch, outcomes in passes:
            verdict.attempted += self.items(self.batches[batch], outcomes)
            values = []
            for s, o in zip(self.batches[batch], outcomes):
                if isinstance(o, Exception):
                    verdict.fail(1, f"search seed {s} raised {o!r}")
                    continue
                if o.gain < 0 or o.norm > 1:
                    verdict.fail(o.evaluations, f"search seed {s}: gain {o.gain}, norm {o.norm}")
                k = o.perturbation
                values += [o.perturbed_value, o.gain, o.norm,
                           *k.direction.coords, *k.functional.coeffs]
            verdict.record(batch, {
                "evaluations": [getattr(o, "evaluations", None) for o in outcomes],
                "den_bits_max": den_bits(values),
                "outcome_sha256": digest(repr(values)),
            })
        return verdict


class OracleBracket:
    """``brute_force_min`` at h = 1/64 on paper-t and random dense 4x4 operators.

    The random operators are drawn by the seed from oracle_pool.txt; see
    make_oracle_pool.py for how the pool was made.
    """

    name = "oracle-bracket"
    PAPER_T = (3, 4, 5)
    RANDOM = 3
    H = Fraction(1, 64)
    POOL = Path(__file__).resolve().parent / "oracle_pool.txt"

    def __init__(self, api, seed: int) -> None:
        self.api = api
        rng = random.Random(seed)
        pool = []
        for line in self.POOL.read_text().splitlines():
            entries = [Fraction(tok) for tok in line.split()]
            dim = math.isqrt(len(entries))
            pool.append(api.linops.Dense(tuple(tuple(entries[i * dim:(i + 1) * dim])
                                               for i in range(dim))))
        paper = [(f"paper-t N={n}", api.constructions.deflation_operator(n), closed_form(n))
                 for n in self.PAPER_T]
        self.batches = [
            paper + [(f"pool #{k}", pool[k], None) for k in rng.sample(range(len(pool)), self.RANDOM)]
            for _ in range(BATCHES)
        ]

    def run_pass(self, cases):
        results = []
        for _, op, _ in cases:
            try:
                results.append(self.api.minmod.brute_force_min(op, self.H))
            except Exception as exc:
                results.append(exc)
        return results

    def items(self, cases, output) -> int:
        return len(cases)

    def check(self, passes) -> Verdict:
        verdict = Verdict()
        exact = {}
        for batch, results in passes:
            cases = self.batches[batch]
            verdict.attempted += len(cases)
            for (label, op, m), r in zip(cases, results):
                if isinstance(r, Exception):
                    verdict.fail(1, f"{label} raised {r!r}")
                    continue
                if m is None:
                    # the LP engine is independent of the oracle, so it supplies the exact value
                    if label not in exact:
                        exact[label] = self.api.minmod.min_modulus_sup(op).value
                    m = exact[label]
                if not r.lower <= m <= r.upper:
                    verdict.fail(1, f"{label}: bracket [{r.lower}, {r.upper}] misses {m}")
                elif r.upper - r.lower > r.lipschitz * r.covering_radius:
                    verdict.fail(1, f"{label}: bracket wider than lipschitz * h/2")
            ok = [r for r in results if not isinstance(r, Exception)]
            verdict.record(batch, {
                "boxes": [getattr(r, "evaluations", None) for r in results],
                "den_bits_max": den_bits(v for r in ok for v in (r.upper, r.lower, r.lipschitz)),
                "brackets_sha256": digest(repr([(r.lower, r.upper) for r in ok])),
            })
        return verdict


WORKLOADS = {w.name: w for w in (DeflationLadder, PerturbSearch, OracleBracket)}
