"""Experiment harness: studies, diagnostics, search, and report emission.

Three experiments over the exact core:

* ``convergence_study`` — per-section minimum moduli against the closed
  form, with witness-tail statistics and the gap to the limit 1/2, and
  the shape every exact minimizer is forced into (first coordinate
  pinned at modulus 1, tail strictly inside (1/2, 1));
* ``weak_null_test`` — coordinatewise verdict on a finite vector family:
  an exact not-weakly-null certificate, a coordinate held at modulus
  >= beta > 0 throughout, when one exists, a conservative weakly-null
  heuristic otherwise;
* ``rank_one_search`` — seeded deterministic coordinate ascent for a
  norm-capped rank-one perturbation that lifts the minimum modulus.

Each result holds only what its experiment computed; the CLI lays it out
as a :class:`Report` next to the parsed arguments, and ``emit_report``
serializes that byte-identically for identical inputs: no timestamps
unless asked, rationals in exact ``p/q`` form, approximations only as
clearly labeled opt-in extra columns.
"""

from __future__ import annotations

import enum
import io
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from . import minmod
from .constructions import closed_form_min_modulus, deflation_factors, geometric_functional
from .exactnum import (
    Covector,
    Rational,
    RationalInput,
    Record,
    Vector,
    as_rational,
    format_rational,
)
from .linops import Dense, RankOne, perturbed
from .minmod import min_modulus_sup

SCHEMA_VERSION = 1

_ZERO = Fraction(0)
_SEARCH_INITIAL_SHIFT = 1  # the search step is 2^-shift: 1/2 at the start
_SEARCH_MAX_SHIFT = 6  # and a restart below 1/64

LP_DIMENSION_BUDGET = 64  # converge's default --lp-budget, and the largest section the other commands build
SEARCH_ITERATIONS = 200


class InvariantViolation(AssertionError):
    """An exact relation the harness promises was observed to fail."""


# ---------------------------------------------------------------------------
# convergence of the truncation law


class ConvergenceRow(Record):
    n: int
    value: Rational
    closed_form: Rational
    witness_min_tail: Rational
    witness_max_tail: Rational
    gap: Rational


class ConvergenceReport(Record):
    rows: tuple[ConvergenceRow, ...]
    partial: bool


def convergence_study(
    n_min: int, n_max: int, *, lp_dimension_budget: int = LP_DIMENSION_BUDGET
) -> ConvergenceReport:
    """Exact m(T) per section against the closed form 1/(2 - 2^(1-N)).

    T = I - e_1 (x) f for the geometric f, as in ``deflation_operator(N)``,
    is I + U (x) G / e, with the integers ``deflation_factors`` reads off f at
    the largest N studied, so no ``Fraction`` matrix is built and no
    ``Fraction`` arithmetic done.  ``minmod._rank_one_sections`` reads each
    leading section off its rank-one capacitance c as (|c|, R, z),
    m(T) = |c|/R with witness z/R, in O(N) integer steps with no elimination,
    and re-verifies the witness.  Every row checks that m(T) equals the
    closed form p/q exactly, as |c| q = R p, and the non-attainment shape of
    the witness, in integers: |x_1| = 1 (|z_1| = R) while every tail modulus
    stays strictly inside (1/2, 1) (R < 2 |z_j| and |z_j| < R), the tension
    that prevents a limiting minimizer from existing.
    The gap m(T) - 1/2 = 1/(2(2^N - 1)) then lies in (0, 2^-N] and strictly
    decreases in N, so it needs no check of its own.  Violations raise
    :class:`InvariantViolation` rather than producing a quiet bad row.
    Sections beyond ``lp_dimension_budget`` are not attempted: the report
    comes back flagged partial with every completed row intact.
    """
    if n_min < 2:
        raise ValueError("the study starts at dimension 2 (dimension 1 has no tail)")
    if n_max < n_min:
        raise ValueError("empty study range")
    if lp_dimension_budget < 1:
        raise ValueError("the dimension budget must be at least 1")
    limit = min(n_max, lp_dimension_budget)
    rows, sections = [], ()
    if limit >= n_min:  # every section studied leads the largest
        sections = minmod._rank_one_sections(deflation_factors(geometric_functional(limit)), n_min)
    for n, c, norm, z in sections:  # T's leading n-section, read off its capacitance
        expected = closed_form_min_modulus(n)
        if c * expected.denominator != norm * expected.numerator:
            raise InvariantViolation(f"m at N={n} is {Fraction(c, norm)}, closed form {expected}")
        if abs(z[0]) != norm:  # the witness is z/R with R = norm
            raise InvariantViolation(f"minimizer at N={n} has |x_1| = {Fraction(abs(z[0]), norm)} != 1")
        tail = [abs(x) for x in z[1:]]
        tail_min, tail_max = min(tail), max(tail)
        if not (norm < 2 * tail_min and tail_max < norm):
            raise InvariantViolation(f"minimizer tail at N={n} escapes (1/2, 1)")
        gap = Fraction(2 * c - norm, 2 * norm)  # m(T) - 1/2 in one step
        rows.append(ConvergenceRow(n, expected, expected, Fraction(tail_min, norm), Fraction(tail_max, norm), gap))
    return ConvergenceReport(rows=tuple(rows), partial=limit < n_max)


# ---------------------------------------------------------------------------
# weak-null diagnostics


class WeakNullStatus(enum.Enum):
    WEAKLY_NULL = "weakly-null"
    NOT_WEAKLY_NULL = "not-weakly-null"
    INCONCLUSIVE = "inconclusive"


class WeakNullVerdict(Record):
    status: WeakNullStatus
    coordinate: Optional[int]  # certificate coordinate for not-weakly-null
    bound: Optional[Rational]  # beta with |x_n(coordinate)| >= beta > 0


def weak_null_test(family: Sequence[Vector]) -> WeakNullVerdict:
    """Coordinatewise weak-null verdict for a finite family.

    Exact certificate first: if some coordinate j keeps modulus >= beta > 0
    across the whole family, the family is NOT_WEAKLY_NULL with (j, beta)
    exhibited (largest beta; ties to the lowest j).  Otherwise a
    conservative heuristic: the family counts as WEAKLY_NULL when every
    coordinate is transient — its nonzero appearances are empty, a single
    spike, or stop before the family does.  Anything else is INCONCLUSIVE.
    On a finite window a genuinely weakly-null (coordinatewise vanishing)
    tail looks exactly transient, while a persistent coordinate can never
    be explained away.
    """
    if not family:
        raise ValueError("the family must be nonempty")
    size = len(family)
    best: Optional[tuple[Rational, int]] = None
    all_transient = True
    for j in range(1, max(len(x) for x in family) + 1):
        moduli = [abs(x.coord(j)) if j <= len(x) else _ZERO for x in family]
        lo = min(moduli)
        if lo > 0:
            if best is None or lo > best[0]:
                best = (lo, j)
            all_transient = False
            continue
        loud = [i for i, m in enumerate(moduli) if m > 0]
        if len(loud) > 1 and loud[-1] == size - 1:
            all_transient = False

    if best is not None:
        return WeakNullVerdict(WeakNullStatus.NOT_WEAKLY_NULL, best[1], best[0])
    status = WeakNullStatus.WEAKLY_NULL if all_transient else WeakNullStatus.INCONCLUSIVE
    return WeakNullVerdict(status, None, None)


# ---------------------------------------------------------------------------
# rank-one perturbation search


class SearchOutcome(Record):
    """Best rank-one perturbation found, with its independently recomputed score."""

    perturbation: RankOne
    norm: Rational
    base_value: Rational
    perturbed_value: Rational
    gain: Rational
    iterations: int
    evaluations: int


def _lowest(V: list, e: int) -> tuple[list, int]:
    """V/e in lowest terms, with e > 0."""
    h = gcd(*V, e)
    return ([c // h for c in V], e // h) if h != 1 else (V, e)


def rank_one_search(
    T: Dense,
    norm_budget: RationalInput,
    *,
    seed: int,
    iterations: int = SEARCH_ITERATIONS,
) -> SearchOutcome:
    """Seeded coordinate ascent for a rank-one K with op_norm_sup(K) <= budget.

    The state is (u, g) for K = u (x) g, kept normalized to sup_norm(u) = 1
    with the l1 norm of g capped at the budget, so the norm constraint holds
    by construction at every step.  Proposals move one coordinate by the
    current step (round-robin over u then g, +step before -step), scored by
    the exact minimum modulus m(T + K); the step halves after a
    full stalled round and a fresh random restart replaces it when it
    underflows.  A zero budget runs no iterations.  Unless some visited K
    beats m(T), K = 0 is returned, so the gain is never negative and a K
    that only ties m(T) gives way to K = 0.  Every outcome, K = 0 included,
    leaves by one exit that recomputes its score from the perturbation
    alone.  Identical seeds give identical outcomes.

    T is inverted once, as a certified M/d.  The state is integers, u = U/e_u
    and g = G/e_g in lowest terms, and the step is 2^-shift.  A proposal is
    the O(N^2) Sherman-Morrison update of M/d by U (x) G / (e_u e_g), read
    as (|d|, R) with m = |d|/R, its witness re-verified; scores are compared
    by cross-multiplying.  A move of one factor leaves the other's product
    with M as it was, so a memo for this call computes MU once per distinct
    U and GM once per distinct G.  The final recomputation reads none of M
    or the memo: it hands T + K, built from T's rows and the state by
    ``perturbed``, to ``min_modulus_sup``, the public engine.  A singular T
    has no inverse, so then each T + K is scored that way.
    """
    budget = as_rational(norm_budget)
    if budget < 0:
        raise ValueError("the norm budget must be nonnegative")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    if budget == 0:  # only K = 0 fits
        iterations = 0
    n = T.dim
    zero = ([1] + [0] * (n - 1), 1, [0] * n, 1)  # the state (U, e_u, G, e_g) of K = 0
    inverse, d, base = minmod._certified_rows(T.rows, T.denominators)
    base_score = minmod._read_inverse(inverse, d, base)[:2]

    rng = random.Random(seed)
    evaluations = 0
    p, q = budget.numerator, budget.denominator
    memo: dict = {}  # the products M U by U and G M by G, for this call's M alone

    def normalized(U, e_u, G, e_g) -> tuple:
        peak = max(map(abs, U))  # nonzero: a step of at most 1/2 cannot cancel a peak of 1
        if peak != e_u:  # u / sup_norm(u) = U / peak and g sup_norm(u) = G peak / (e_u e_g)
            G, e_g, e_u = [c * peak for c in G], e_g * e_u, peak
        weight = sum(map(abs, G))
        if weight * q > p * e_g:  # l1(g) > p/q: g p / (q l1(g)) = G p / (q weight)
            G, e_g = [c * p for c in G], q * weight
        return (*_lowest(U, e_u), *_lowest(G, e_g))

    def fresh(state) -> Fraction:
        """m(T + K) by ``min_modulus_sup`` of T + K, whose integer rows ``perturbed`` builds from T's."""
        U, e_u, G, e_g = state
        return min_modulus_sup(perturbed(T, (U, G, e_u * e_g))).value

    def score(state) -> tuple[int, int]:
        nonlocal evaluations
        evaluations += 1
        if not d:  # T is singular: no inverse to update
            return fresh(state).as_integer_ratio()
        U, e_u, G, e_g = state
        update = (U, G, e_u * e_g)
        return minmod._read_inverse(*minmod._rank_one_update(inverse, d, update, memo), base, update)[:2]

    def beats(s, t) -> bool:
        return s[0] * t[1] > t[0] * s[1]

    def random_state() -> tuple:
        while True:
            U = [rng.randint(-8, 8) for _ in range(n)]
            G = [rng.randint(-8, 8) for _ in range(n)]
            if any(U) and any(G):
                return normalized(U, 8, G, 8)

    state = random_state() if iterations else zero  # only a run with iterations draws a start
    current = score(state) if iterations else base_score
    best_state, best_score = state, current
    shift = _SEARCH_INITIAL_SHIFT
    stall = 0
    round_length = 2 * n

    for it in range(iterations):
        slot = it % round_length  # u_1..u_n, then g_1..g_n
        U, e_u, G, e_g = state
        chosen, chosen_score = None, current
        for sgn in (1, -1):
            if slot < n:  # u + sgn 2^-shift e_slot = (U 2^shift + sgn e_u e_slot) / (e_u 2^shift)
                moved = [c << shift for c in U]
                moved[slot] += sgn * e_u
                proposal = normalized(moved, e_u << shift, G, e_g)
            else:
                moved = [c << shift for c in G]
                moved[slot - n] += sgn * e_g
                proposal = normalized(U, e_u, moved, e_g << shift)
            s = score(proposal)
            if beats(s, chosen_score):
                chosen, chosen_score = proposal, s
        if chosen is not None:
            state = chosen
            current = chosen_score
            stall = 0
        else:
            stall += 1
            if stall >= round_length:
                stall = 0
                shift += 1
                if shift > _SEARCH_MAX_SHIFT:
                    state = random_state()
                    current = score(state)
                    shift = _SEARCH_INITIAL_SHIFT
        if beats(current, best_score):
            best_state, best_score = state, current

    if not beats(best_score, base_score):  # no visited K beat K = 0's score
        best_state, best_score = zero, base_score
    recomputed = fresh(best_state)
    if recomputed != Fraction(*best_score):
        raise InvariantViolation("search score disagrees with its recomputation")
    U, e_u, G, e_g = best_state
    base_value = Fraction(*base_score)
    return SearchOutcome(
        perturbation=RankOne(Vector(Fraction(c, e_u) for c in U), Covector(Fraction(c, e_g) for c in G)),
        norm=Fraction(sum(map(abs, G)), e_g),  # sup|u| = 1, so ||u (x) g|| = l1(g)
        base_value=base_value,
        perturbed_value=recomputed,
        gain=recomputed - base_value,
        iterations=iterations,
        evaluations=evaluations,
    )


# ---------------------------------------------------------------------------
# report emission


Cell = Union[Rational, int, str]


class Report(Record):
    """Uniform emission surface: a kind, header pairs, columns, rows."""

    kind: str
    header: tuple[tuple[str, str], ...]
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]


def _approx12(value: Rational) -> str:
    """Fixed point with 12 places at any magnitude, rounded half to even on the exact value.

    Used only for labeled extras.  A negative value that rounds to zero keeps its sign.
    """
    digits = format_rational(abs(round(value * 10**12))).rjust(13, "0")  # no digit cap, as for exact cells
    return f"{'-' if value < 0 else ''}{digits[:-12]}.{digits[-12:]}"


def _render_cell(cell: Cell) -> Union[str, int]:
    if isinstance(cell, Fraction):
        return format_rational(cell)
    if isinstance(cell, int):
        return cell
    return str(cell)


def emit_report(
    report: Report,
    fmt: str = "csv",
    destination: Union[str, Path, io.TextIOBase, None] = None,
    *,
    extra_header: Iterable[tuple[str, str]] = (),
    approx: bool = False,
    timestamp: bool = False,
) -> str:
    """Serialize a report to csv or json.

    Output is byte-identical for identical inputs; a generation timestamp
    appears only when ``timestamp=True``, and decimal approximations only
    when ``approx=True`` (as additional ``*_approx12`` columns).  Returns
    the rendered text; ``destination`` may be a path or open text file.
    """
    header = list(extra_header) + list(report.header)
    header.insert(0, ("kind", report.kind))
    if timestamp:
        import datetime

        header.append(
            ("generated_at", datetime.datetime.now(datetime.timezone.utc).isoformat())
        )
    if approx:
        header.append(("approx_note", "columns suffixed _approx12 are rounded to 12 places"))

    approx_cols = []
    if approx:
        for idx, name in enumerate(report.columns):
            if any(isinstance(row[idx], Fraction) for row in report.rows):
                approx_cols.append(idx)

    if fmt == "csv":
        out = io.StringIO()
        out.write(f"# schema_version={SCHEMA_VERSION}\n")
        for key, value in header:
            out.write(f"# {key}={value}\n")
        columns = list(report.columns)
        for idx in approx_cols:
            columns.append(report.columns[idx] + "_approx12")
        out.write(",".join(columns) + "\n")
        for row in report.rows:
            cells = [str(_render_cell(c)) for c in row]
            for idx in approx_cols:
                cells.append(_approx12(row[idx]) if isinstance(row[idx], Fraction) else "")
            out.write(",".join(cells) + "\n")
        text = out.getvalue()
    elif fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": report.kind,
            "header": {key: value for key, value in header if key != "kind"},
            "columns": list(report.columns),
            "rows": [[_render_cell(c) for c in row] for row in report.rows],
        }
        if approx_cols:
            payload["approx12"] = {
                report.columns[idx]: [
                    _approx12(row[idx]) if isinstance(row[idx], Fraction) else None
                    for row in report.rows
                ]
                for idx in approx_cols
            }
        text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r} (use 'csv' or 'json')")

    if destination is None:
        return text
    if isinstance(destination, (str, Path)):
        Path(destination).write_text(text, encoding="utf-8")
    else:
        destination.write(text)
    return text
