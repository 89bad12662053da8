"""Exact minimum modulus over the sup-norm unit sphere of an N-section.

The sphere is the union of 2N box facets {x : x_k = sigma, |x_j| <= 1}
(k = 1..N, sigma = +/-1).  On one facet, minimizing sup_i |(Tx)_i| is the
linear program

    minimize t   subject to   -t <= (Tx)_i <= t,  |x_j| <= 1,  x_k = sigma,

so at most N programs (sigma = +1 only; T(-x) = -Tx makes mirror facets
equal) give the exact global minimum together with an attaining witness.
A facet is skipped without an LP once its exact row bound (``_box_bound``
on the whole facet box) already meets the best value found so far.

``brute_force_min`` is the independent check: a certified branch-and-bound
over the same facets that never touches the LP route.  It bounds each box
through exact interval arithmetic on the rows of T and refines until boxes
are thinner than the requested resolution h, returning a bracket
lower <= m(T) <= upper with upper an evaluated sphere point and
upper - lower <= op_norm_sup(T) * h/2.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exactnum import Rational, RationalInput, Vector, as_rational, basis_vector, sup_norm
from .linops import Operator, add, materialize, op_norm_sup
from .lpsolve import linear_program, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)

ORACLE_POINT_BUDGET = 500_000  # boxes the oracle may bound before giving up


class BudgetExceededError(RuntimeError):
    """A configured budget (oracle box evaluations, LP dimension) ran out or would be exceeded."""


@dataclass(frozen=True)
class MinModResult:
    """Exact minimum modulus with an attaining sphere point.

    ``facet`` is the (1-based coordinate, sign) pair of the facet the
    witness lives on; ``facet_values`` lists every facet's own minimum
    (sign +1 representative), so ties and near-ties stay visible.  For a
    facet listed in ``pruned`` (1-based coordinates) the entry is instead
    the exact row bound that ruled it out: a lower bound on that facet's
    minimum and at least ``value``, so ``value == min(facet_values)``.
    """

    value: Rational
    witness: Vector
    facet: tuple[int, int]
    facet_values: tuple[Rational, ...]
    pruned: tuple[int, ...]


def _facet_minimum(entries, k: int, sigma: int, norm: Rational) -> tuple[Rational, Vector]:
    """Exact facet optimum via one LP started at a feasible corner.

    The variables are (x_1..x_N, s) with s = -t in [-U, 0], where
    U = ``norm`` = op_norm_sup(T).  For each row i the program has
    (Tx)_i + s <= 0 and -(Tx)_i + s <= 0, that is |(Tx)_i| <= t, and it
    minimizes -s, so the optimum is t itself.  U bounds every facet value,
    so the box on s loses no optimum.  The corner x_j = -1 (j != k),
    x_k = sigma, s = -U satisfies every row, because
    |(Tx)_i| <= sum_j |T_ij| <= U; the simplex starts there, with no
    phase 1.  The witness is the optimal vertex the simplex reaches from
    that corner, one of several when the facet optimum is not unique.
    """
    n = len(entries)
    objective = [_ZERO] * n + [-_ONE]
    constraints = []
    for row in entries:
        constraints.append((list(row) + [_ONE], _ZERO))  # (Tx)_i <= t
        constraints.append(([-e for e in row] + [_ONE], _ZERO))  # -(Tx)_i <= t
    bounds = [(-_ONE, _ONE)] * n + [(-norm, _ZERO)]
    bounds[k - 1] = (Fraction(sigma), Fraction(sigma))
    result = solve(linear_program(objective, constraints, bounds))
    return result.value, Vector(result.point[:n])


def min_modulus_sup(
    T: Operator, *, check_mirror: bool = False, every_facet: bool = False
) -> MinModResult:
    """Exact m(T) = min over the unit sphere of sup_norm(T x).

    At most one LP per facet (sign +1), in coordinate order; ties between
    facets resolve to the lowest coordinate index, so results are
    deterministic.  ``check_mirror`` additionally solves the sign -1 facet
    of every solved facet and verifies it agrees, which is the oddness
    symmetry the reduction relies on.

    Facet k is pruned, with no LP, when its row bound
    L_k = max_i (|T_ik| - sum_{j != k} |T_ij|)^+ already meets the best
    value: for x on the facet, |(Tx)_i| >= |T_ik| - sum_{j != k} |T_ij|,
    so the facet cannot go below L_k.  A pruned facet comes after the best
    one and cannot beat it strictly, so value, witness and facet are those
    of the exhaustive sweep.  L_k ignores the sign of x_k, so a pruned
    facet's mirror is skipped too.  ``every_facet`` disables pruning, for
    callers that report each facet's exact minimum.
    """
    dense = materialize(T)
    n = dense.dim
    entries = dense.entries
    if all(not e for row in entries for e in row):
        # the zero operator: every sphere point attains 0
        return MinModResult(_ZERO, basis_vector(1, n), (1, 1), (_ZERO,) * n, ())

    norm = op_norm_sup(dense)
    facet_values = []
    pruned = []
    best_value = None
    best_k = 0
    best_witness = None
    for k in range(1, n + 1):
        if best_value is not None and not every_facet:
            lo = [-_ONE] * n
            hi = [_ONE] * n
            lo[k - 1] = _ONE  # the whole facet x_k = +1
            bound = _box_bound(entries, lo, hi)[0]
            if bound >= best_value:
                facet_values.append(bound)
                pruned.append(k)
                continue
        value, witness = _facet_minimum(entries, k, 1, norm)
        if check_mirror:
            mirror_value, _ = _facet_minimum(entries, k, -1, norm)
            if mirror_value != value:
                raise RuntimeError(
                    f"internal: facet {k} mirror asymmetry ({value} vs {mirror_value})"
                )
        facet_values.append(value)
        if best_value is None or value < best_value:
            best_value = value
            best_k = k
            best_witness = witness

    if sup_norm(best_witness) != _ONE or sup_norm(dense.apply(best_witness)) != best_value:
        raise RuntimeError("internal: facet witness failed re-verification")
    return MinModResult(
        best_value, best_witness, (best_k, 1), tuple(facet_values), tuple(pruned)
    )


@dataclass(frozen=True)
class OracleResult:
    """Certified bracket lower <= m(T) <= upper.

    ``upper`` is sup_norm(T x) at an explicitly evaluated sphere point;
    ``lower`` comes from exact interval bounds covering the whole sphere.
    The bracket width is at most lipschitz * covering_radius, with
    covering_radius = h/2 for the requested resolution h.
    ``evaluations`` counts bounded boxes (the work unit the budget caps).
    """

    upper: Rational
    lower: Rational
    resolution: Rational
    lipschitz: Rational
    covering_radius: Rational
    evaluations: int


def _box_bound(entries, lo, hi):
    """(lower bound of sup|Tx| on the box, value at the center, steer row).

    Row i takes values mid_i +/- w_i over the box (exact interval), so
    every point of the box satisfies sup|Tx| >= |mid_i| - w_i.  The steer
    row maximizes that clearance and guides the split choice.  Both
    engines use the bound: the oracle on its boxes, and the facet sweep
    on whole facets to prune them.
    """
    n = len(lo)
    center = [(lo[j] + hi[j]) / 2 for j in range(n)]
    radius = [(hi[j] - lo[j]) / 2 for j in range(n)]
    bound = _ZERO
    center_value = _ZERO
    steer_row = 0
    steer_clearance = None
    for i, row in enumerate(entries):
        mid = _ZERO
        width = _ZERO
        for j, e in enumerate(row):
            if e:
                mid += e * center[j]
                if radius[j]:
                    width += abs(e) * radius[j]
        mid_abs = abs(mid)
        clearance = mid_abs - width
        if clearance > bound:
            bound = clearance
        if mid_abs > center_value:
            center_value = mid_abs
        if steer_clearance is None or clearance > steer_clearance:
            steer_clearance = clearance
            steer_row = i
    return bound, center_value, steer_row


def _split_coordinate(entries, lo, hi, steer_row: int) -> int:
    """Pick the coordinate to halve.

    Only coordinates at least half as wide as the widest are eligible —
    that keeps the box roughly cubical and bounds the refinement depth, so
    a steering row that ignores some coordinate can never stall the search
    on it.  Within the eligible band, prefer the coordinate the steering
    row weights most, then global column influence, then plain width.
    """
    n = len(lo)
    widths = [hi[j] - lo[j] for j in range(n)]
    half = max(widths) / 2
    row = entries[steer_row]
    best_j = -1
    best_w = _ZERO
    for j in range(n):
        if widths[j] >= half and widths[j]:
            weight = abs(row[j]) * widths[j]
            if weight > best_w:
                best_w = weight
                best_j = j
    if best_j >= 0:
        return best_j
    for j in range(n):
        if widths[j] >= half and widths[j]:
            weight = max(abs(r[j]) for r in entries) * widths[j]
            if weight > best_w:
                best_w = weight
                best_j = j
    if best_j >= 0:
        return best_j
    return max(range(n), key=lambda j: widths[j])


def brute_force_min(
    T: Operator, h: RationalInput, *, point_budget: int = ORACLE_POINT_BUDGET
) -> OracleResult:
    """Certified sampling bracket for m(T), independent of the LP route.

    Explores each facet {x_k = 1} by box bisection: exact interval bounds
    retire regions that provably cannot beat the best evaluated point, and
    boxes thinner than h stop refining.  Mirror facets are covered by the
    oddness of T.  Raises :class:`BudgetExceededError` (a distinct failure,
    never a silent truncation) once more than ``point_budget`` boxes have
    been bounded.
    """
    step = as_rational(h)
    if step <= 0:
        raise ValueError("resolution h must be positive")
    if point_budget < 1:
        raise ValueError("point budget must be at least 1")
    dense = materialize(T)
    n = dense.dim
    entries = dense.entries
    lipschitz = op_norm_sup(dense)

    upper: Rational | None = None
    lower: Rational | None = None
    evaluations = 0
    counter = 0

    def settle(bnd: Rational) -> None:
        # a box is retired; its bound joins the global sphere-wide minimum
        nonlocal lower
        if lower is None or bnd < lower:
            lower = bnd

    for k in range(n):
        lo = [-_ONE] * n
        hi = [_ONE] * n
        lo[k] = _ONE  # the facet x_{k+1} = +1
        # heap entries: (float key for ordering only, tiebreak, exact bound,
        # steer row, box); all certification uses the exact bound
        heap: list[tuple[float, int, Rational, int, list, list]] = []
        pending = [(lo, hi)]

        while pending or heap:
            if pending:
                blo, bhi = pending.pop()
                evaluations += 1
                if evaluations > point_budget:
                    raise BudgetExceededError(
                        f"oracle exceeded its budget of {point_budget} box evaluations"
                    )
                bnd, center_value, steer = _box_bound(entries, blo, bhi)
                if upper is None or center_value < upper:
                    upper = center_value
                if bnd >= upper or max(bhi[j] - blo[j] for j in range(n)) <= step:
                    settle(bnd)
                else:
                    heapq.heappush(heap, (float(bnd), counter, bnd, steer, blo, bhi))
                    counter += 1
                continue

            _, _, bnd, steer, blo, bhi = heapq.heappop(heap)
            if bnd >= upper:  # the best point improved since this was queued
                settle(bnd)
                continue
            j = _split_coordinate(entries, blo, bhi, steer)
            midpoint = (blo[j] + bhi[j]) / 2
            left_hi = list(bhi)
            left_hi[j] = midpoint
            right_lo = list(blo)
            right_lo[j] = midpoint
            pending.append((blo, left_hi))
            pending.append((right_lo, bhi))

    if lower is None or lower > upper:
        lower = upper
    return OracleResult(
        upper=upper,
        lower=lower,
        resolution=step,
        lipschitz=lipschitz,
        covering_radius=step / 2,
        evaluations=evaluations,
    )


class PerturbationGain(NamedTuple):
    """Exact before/after minimum moduli of a perturbation study."""

    base: Rational
    perturbed: Rational
    gain: Rational


def perturbation_gain(T: Operator, K: Operator) -> PerturbationGain:
    """m(T), m(T+K), and their difference, all exact."""
    base = min_modulus_sup(T).value
    perturbed = min_modulus_sup(add(T, K)).value
    return PerturbationGain(base, perturbed, perturbed - base)
