"""Exact minimum modulus over the sup-norm unit sphere of an N-section.

``min_modulus_sup`` reads m(T) off the inverse: for invertible T with
S = T^-1, x = Sy gives ||Tx|| / ||x|| = ||y|| / ||Sy||, so m(T) = 1/||S||,
the reciprocal of S's largest row l1 sum; a singular T has m(T) = 0 with
a kernel vector as witness.  One Gauss-Jordan elimination decides both.

``facet_minima`` is the facet view, for per-facet reports.  The sphere
is the union of 2N box facets {x : x_k = sigma, |x_j| <= 1}; on one
facet, minimizing sup_i |(Tx)_i| is the linear program

    minimize t   subject to   -t <= (Tx)_i <= t,  |x_j| <= 1,  x_k = sigma,

and the N facets with sigma = +1 suffice, since T(-x) = -Tx.

``brute_force_min`` is the independent check: a certified branch-and-bound
over the same facets that touches neither the inverse nor the LP.  It
bounds each box through exact interval arithmetic on the rows of T and
refines until boxes are thinner than the requested resolution h,
returning a bracket lower <= m(T) <= upper with upper an evaluated sphere
point and upper - lower <= op_norm_sup(T) * h/2.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exactnum import Rational, RationalInput, Vector, as_rational, sup_norm
from .linops import Dense, Operator, add, materialize, op_norm_sup, op_norm_witness
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
    witness lives on: its first coordinate of modulus 1, which is +1.
    """

    value: Rational
    witness: Vector
    facet: tuple[int, int]


def _invert(entries) -> Dense | Vector:
    """T^-1, or a nonzero kernel vector of T when T is singular.

    Gauss-Jordan on [T | I], pivoting on the first nonzero entry of each
    column at or below the diagonal.  When column c has no pivot, columns
    before it are reduced to unit vectors, so x_c = 1, x_r = -a[r][c]
    (r < c) and zeros after c solve Tx = 0.
    """
    n = len(entries)
    a = [list(row) + [_ONE if i == j else _ZERO for j in range(n)] for i, row in enumerate(entries)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Vector(tuple(-a[r][c] for r in range(c)) + (_ONE,) + (_ZERO,) * (n - c - 1))
        a[c], a[pivot] = a[pivot], a[c]
        p = a[c][c]
        a[c] = [e / p for e in a[c]]
        for r in range(n):
            f = a[r][c]
            if r != c and f:
                a[r] = [e - f * q for e, q in zip(a[r], a[c])]
    return Dense(tuple(tuple(row[n:]) for row in a))


def min_modulus_sup(T: Operator) -> MinModResult:
    """Exact m(T) = min over the unit sphere of sup_norm(T x).

    For invertible T, (||S||, y) = op_norm_witness(S) with S = T^-1 gives
    the value 1/||S|| and the witness Sy/||S||, whose entry at the first
    maximal row i* of S is 1.  Facet k attains m(T) exactly when row k of
    S is maximal, so i* is the lowest attaining facet.  A singular T gets
    value 0 and the kernel vector of ``_invert``, scaled so that its first
    entry of largest modulus is +1.  The witness is re-verified against T.
    """
    dense = materialize(T)
    inverse = _invert(dense.entries)
    if isinstance(inverse, Vector):  # a kernel vector: T is singular
        value = _ZERO
        witness = (1 / max(inverse.coords, key=abs)) * inverse
    else:
        norm, y = op_norm_witness(inverse)
        value = 1 / norm
        witness = value * inverse.apply(y)
    if sup_norm(witness) != _ONE or sup_norm(dense.apply(witness)) != value:
        raise RuntimeError("internal: minimum-modulus witness failed re-verification")
    return MinModResult(value, witness, (witness.coords.index(_ONE) + 1, 1))


def _facet_minimum(entries, k: int, sigma: int, norm: Rational) -> Rational:
    """Exact minimum over the facet x_k = sigma, via one LP started at a feasible corner.

    The variables are (x_1..x_N, s) with s = -t in [-U, 0], where
    U = ``norm`` = op_norm_sup(T).  For each row i the program has
    (Tx)_i + s <= 0 and -(Tx)_i + s <= 0, that is |(Tx)_i| <= t, and it
    minimizes -s, so the optimum is t itself.  U bounds every facet value,
    so the box on s loses no optimum.  The corner x_j = -1 (j != k),
    x_k = sigma, s = -U satisfies every row, because
    |(Tx)_i| <= sum_j |T_ij| <= U; the simplex starts there, with no
    phase 1.
    """
    n = len(entries)
    objective = [_ZERO] * n + [-_ONE]
    constraints = []
    for row in entries:
        constraints.append((list(row) + [_ONE], _ZERO))  # (Tx)_i <= t
        constraints.append(([-e for e in row] + [_ONE], _ZERO))  # -(Tx)_i <= t
    bounds = [(-_ONE, _ONE)] * n + [(-norm, _ZERO)]
    bounds[k - 1] = (Fraction(sigma), Fraction(sigma))
    return solve(linear_program(objective, constraints, bounds)).value


def facet_minima(T: Operator, *, check_mirror: bool = False) -> tuple[Rational, ...]:
    """Each facet's exact minimum (sign +1 representative), by one LP per facet.

    The least entry is m(T).  ``check_mirror`` also solves every sign -1
    facet and verifies it agrees, which is the oddness symmetry the
    reduction to N programs relies on.
    """
    dense = materialize(T)
    entries = dense.entries
    norm = op_norm_sup(dense)
    values = []
    for k in range(1, dense.dim + 1):
        value = _facet_minimum(entries, k, 1, norm)
        if check_mirror:
            mirror_value = _facet_minimum(entries, k, -1, norm)
            if mirror_value != value:
                raise RuntimeError(
                    f"internal: facet {k} mirror asymmetry ({value} vs {mirror_value})"
                )
        values.append(value)
    return tuple(values)


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
    row maximizes that clearance and guides the split choice.  Only the
    oracle uses it.
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
