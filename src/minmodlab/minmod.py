"""Exact minimum modulus over the sup-norm unit sphere of an N-section.

``min_modulus_sup`` reads m(T) off the inverse: for invertible T with
S = T^-1, x = Sy gives ||Tx|| / ||x|| = ||y|| / ||Sy||, so m(T) = 1/||S||,
the reciprocal of S's largest row l1 sum; a singular T has m(T) = 0 with
a kernel vector as witness.  One fraction-free elimination, in place on N
columns, gives S = M/d in integers, and on the way each leading section's
inverse for ``_leading_inverses``; A M = d diag(D), summed in C over A's
nonzeros and, on a row with one nonzero, checked by one product and a count
of zeros, proves the lower bound and the re-verified witness the upper one.
Every engine reads T's integer rows A_i = D_i T_i, the two fields of
``Dense``, as they are.  ``_rank_one_update`` turns M/d into
(T + u (x) g)^-1 in O(N^2) integer steps, so the search inverts T once, and
reuses MU and GM across proposals that share a factor.

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
point and upper - lower <= lipschitz * h/2.  The arithmetic is on
integers: A = D T, T's rows as the inverse reads them, each rescaled to D,
the least common multiple of the row denominators (one D for all rows,
because the bound is a maximum across rows), and
lipschitz = max_i sum_j |A_ij| / D.  Boxes live on one dyadic grid, with
centres and radii over 2^L for the smallest L with h 2^L >= 4, so each
row's centre value and half-width are integers over the one denominator
D 2^L and bounds compare as plain integers.  The half-widths are a function
of the radii, and the split of the radii and the steer row, so one call plans
each split once and a box costs O(N); floats only order the queue.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import inf, lcm

from .exactnum import Rational, RationalInput, Record, Vector, as_rational
from .linops import Dense, op_norm_sup
from .lpsolve import linear_program, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)

ORACLE_POINT_BUDGET = 500_000  # boxes the oracle may bound before giving up


class BudgetExceededError(RuntimeError):
    """A configured budget (oracle box evaluations, dimension) ran out or would be exceeded."""


class MinModResult(Record):
    """Exact minimum modulus with an attaining sphere point.

    ``facet`` is the (1-based coordinate, sign) pair of the facet the
    witness lives on: its first coordinate of modulus 1, which is +1.
    """

    value: Rational
    witness: Vector
    facet: tuple[int, int]


def _eliminate(rows: list, swaps: list):
    """Yield (a, p) after each column c of Bareiss on [A | I], in place on N columns, recording row swaps.

    With p the pivot of column c (its first nonzero at or below the diagonal,
    swapped up) and prev the one before, every other row becomes
    (p a_r - a_rc a_c) / prev, an exact division.  The left block's settled
    columns are p I, which no later step reads, and the right block's columns
    past c are still prev I, so column c of the one array holds A's column
    until step c and the right block's column c after it: -a_rc, with prev in
    the pivot row.  With no swap, rows 0..c meet only pivot rows 0..c, so
    their first c + 1 entries are p A_{c+1}^-1 with p = det A_{c+1}.  With no
    pivot in column c, the columns before it are prev e_r, so the last yield
    is the kernel vector (-a_rc for r < c, prev, 0, ...) with p = 0.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    prev = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            yield [-a[r][c] for r in range(c)] + [prev] + [0] * (n - c - 1), 0
            return
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            swaps.append((c, pivot))
        p = a[c][c]
        for r in range(n):
            f = a[r][c]
            if r != c and (f or p != prev):  # a row with f = 0 is still scaled by p/prev
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], a[c])]
                a[r][c] = -f
        a[c][c] = prev
        prev = p
        yield a, p


def _fraction_free_inverse(rows: list, denominators: list) -> tuple[list, int]:
    """(M, d) with T^-1 = M/d and d > 0, or (a, 0) with a an integer kernel vector of T = A/D.

    ``_eliminate`` leaves A R = p I for the right block R, whose columns come back in
    order once the row swaps are undone as column swaps in reverse; T^-1 = R diag(D) / p.
    """
    swaps = []
    *_, (a, p) = _eliminate(rows, swaps)
    if not p:
        return a, 0
    for c, pivot in reversed(swaps):  # R = R' P for the right block R' of the swapped rows P A
        for row in a:
            row[c], row[pivot] = row[pivot], row[c]
    sign = 1 if p > 0 else -1
    scale = [sign * D for D in denominators]  # M = R diag(D) sign(p), one C loop per row
    return [list(map(operator.mul, row, scale)) for row in a], sign * p


def _certify(inverse: list, d: int, rows: list, denominators: list) -> None:
    """Prove A M = d diag(D) for T = A/D, or A a = 0 with a != 0 when d = 0, or raise.

    The check runs outside the engine that found M, so a wrong one cannot
    vouch for itself; row i of A M is sum_k A_ik M_k over A_i's nonzeros, and
    must be zero once d D_i comes off entry i.  A unit row c e_k with d != 0
    asks c M_k = d D_i e_i, which holds exactly when c M_ki = d D_i and M_k
    has n - 1 zeros: d D_i != 0, so M_ki is the one nonzero, and c != 0.
    """
    if not d and not any(inverse):  # the zero vector is no kernel witness
        raise RuntimeError("internal: the inverse failed its certificate A M = d diag(D)")
    matrix = inverse if d else [[x] for x in inverse]  # a kernel vector is M with one column
    zeros = [0] * len(matrix[0])  # the seed of every sum, so a zero row A_i gives zeros, not []
    columns, n1 = range(len(rows)), len(rows) - 1
    for i, (row, D) in enumerate(zip(rows, denominators)):
        if d and row.count(0) == n1:  # a unit row c e_k: one product and a count of zeros, both in C
            k = next(compress(columns, row))
            failed = row[k] * matrix[k][i] != d * D or matrix[k].count(0) != n1
        else:  # row i of A M: M's rows at A_i's nonzeros
            terms = [map(operator.mul, repeat(row[k]), matrix[k]) for k in compress(columns, row)]
            product = list(map(sum, zip(zeros, *terms)))
            if d:
                product[i] -= d * D
            failed = any(product)
        if failed:
            raise RuntimeError("internal: the inverse failed its certificate A M = d diag(D)")


def _certified_rows(rows: tuple, denominators: tuple) -> tuple[list, int, tuple]:
    """``_fraction_free_inverse`` of T = A/D from its integer rows, proved by ``_certify``; also returns (A, D)."""
    inverse, d = _fraction_free_inverse(rows, denominators)
    _certify(inverse, d, rows, denominators)
    return inverse, d, (rows, denominators)


def _leading_inverses(rows: tuple, denominators: tuple, n_min: int):
    """Yield (n, M, d, (A_n, D_n)), T_n^-1 = M/d with d > 0, for the leading n-sections of T = A/D from n_min up.

    One ``_eliminate`` of T's integer rows A serves every section: after column n, with no swap,
    its leading n x n block is p A_n^-1 with p = det A_n, so M is that block times diag(D_n) sign(p).
    That needs nonzero leading minors, as a unit upper triangular T has.
    """
    swaps = []
    for n, (a, p) in enumerate(_eliminate(rows, swaps), 1):
        if swaps or not p:
            raise RuntimeError(f"internal: the leading {n}-section is singular")
        if n >= n_min:  # certified before it is yielded
            base = [r[:n] for r in rows[:n]], denominators[:n]
            scale = [D if p > 0 else -D for D in base[1]]
            inverse = [list(map(operator.mul, row[:n], scale)) for row in a[:n]]
            _certify(inverse, abs(p), *base)
            yield n, inverse, abs(p), base


def _rank_one_update(inverse: list, d: int, rank_one: tuple, memo: dict) -> tuple[list, int]:
    """(M', d') with (T + U (x) G / e)^-1 = M'/d', from T^-1 = M/d.

    Sherman-Morrison, S - (Su)(gS)/(1 + g Su), in integers: with a = MU and
    den = d e + G a, M' = den M - a (x) (G M) and d' = d den, without a gcd.
    When den = 0, T + U (x) G / e is singular and (a, 0) comes back: a != 0
    is a kernel vector, because (T + u (x) g) Su = u (1 + g Su) = 0.  Each
    dot product in a, den and b = G M is one C loop, sum(map(operator.mul, u, v)).
    ``memo``, a dict the caller owns for one M and always passes, keeps a by
    U, b by G and M's columns, so proposals that move one factor at a time
    compute each product once; nothing in it is ever mutated.
    """
    U, G, e = rank_one
    a = memo.get(key := ("a", *U))
    if a is None:
        a = memo[key] = [sum(map(operator.mul, row, U)) for row in inverse]
    den = d * e + sum(map(operator.mul, G, a))
    if not den:
        return a, 0
    b = memo.get(key := ("b", *G))
    if b is None:
        if "columns" not in memo:
            memo["columns"] = list(zip(*inverse))
        b = memo[key] = [sum(map(operator.mul, G, column)) for column in memo["columns"]]
    return [[den * m - ai * bj for m, bj in zip(row, b)] for row, ai in zip(inverse, a)], d * den


def min_modulus_sup(T: Dense) -> MinModResult:
    """Exact m(T) = min over the unit sphere of sup_norm(T x).

    For invertible T, with S = T^-1 and y the sign vector (zeros +1) of the
    first maximal row i* of S, m(T) = 1/||S|| with witness Sy/||S||; facet k
    attains m(T) exactly when row k of S is maximal, so i* is the lowest
    attaining facet.  A singular T gets 0 and its kernel vector scaled to a
    first entry of largest modulus +1.  The certified inverse proves
    m(T) >= value, and the re-verified witness m(T) <= value.
    """
    value, norm, z = _read_inverse(*_certified_rows(T.rows, T.denominators))
    return MinModResult(Fraction(value, norm), Vector(Fraction(c, norm) for c in z), (z.index(norm) + 1, 1))


def _read_inverse(inverse: list, d: int, base: tuple, rank_one: tuple | None = None) -> tuple[int, int, list]:
    """(|d|, R, z): m = |d|/R with witness z/R, read off M/d, the inverse of A/D + U (x) G / e.

    ``base`` is (A, D), the rows A_i = D_i T_i with their denominators D_i,
    ``rank_one`` (U, G, e) or None for A/D itself; d = 0 marks M as a kernel
    vector.  R is M's largest row l1 sum, z = M y for y = sign(d) sign(that
    row of M/d).  m >= |d|/R holds when M/d is the inverse; each call proves
    m <= |d|/R by A_i z = d D_i y_i for every row i, which a rank-one term
    turns into e A_i z + D_i U_i (G z) = d e D_i y_i.
    ``min_modulus_sup`` builds the witness; the search reads (|d|, R) alone.
    """
    rows, denominators = base
    if d:
        sums = [sum(map(abs, row)) for row in inverse]
        norm = max(sums)
        sign = 1 if d > 0 else -1
        y = [sign if m * d >= 0 else -sign for m in inverse[sums.index(norm)]]
        z = [sum(map(operator.mul, row, y)) for row in inverse]
    else:  # z spans the kernel, so (A/D + U (x) G / e) z = 0 = d y for any y
        peak = max(inverse, key=abs)
        norm, z = abs(peak), [c if peak > 0 else -c for c in inverse]
        y = z
    products, scale = [sum(map(operator.mul, row, z)) for row in rows], d  # A_i z against d D_i y_i
    if rank_one is not None:
        U, G, e = rank_one
        gz = sum(map(operator.mul, G, z))
        products, scale = [e * p + D * ui * gz for p, D, ui in zip(products, denominators, U)], d * e
    if products != [scale * D * c for D, c in zip(denominators, y)]:
        raise RuntimeError("internal: minimum-modulus witness failed re-verification")
    return abs(d), norm, z


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


def facet_minima(T: Dense, *, check_mirror: bool = False) -> tuple[Rational, ...]:
    """Each facet's exact minimum (sign +1 representative), by one LP per facet.

    The least entry is m(T).  ``check_mirror`` also solves every sign -1
    facet and verifies it agrees, which is the oddness symmetry the
    reduction to N programs relies on.
    """
    entries = T.entries
    norm = op_norm_sup(T)
    values = []
    for k in range(1, T.dim + 1):
        value = _facet_minimum(entries, k, 1, norm)
        if check_mirror:
            mirror_value = _facet_minimum(entries, k, -1, norm)
            if mirror_value != value:
                raise RuntimeError(
                    f"internal: facet {k} mirror asymmetry ({value} vs {mirror_value})"
                )
        values.append(value)
    return tuple(values)


@dataclass(frozen=True)  # not a Record: bench/test_bench.py calls dataclasses.replace on it
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


def brute_force_min(
    T: Dense, h: RationalInput, *, point_budget: int = ORACLE_POINT_BUDGET
) -> OracleResult:
    """Certified sampling bracket for m(T), independent of the inverse and the facet LPs.

    Explores each facet {x_k = 1} by box bisection: exact interval bounds
    retire regions that provably cannot beat the best evaluated point, and
    boxes thinner than h stop refining.  Mirror facets are covered by the
    oddness of T.  Raises :class:`BudgetExceededError` (a distinct failure,
    never a silent truncation) once more than ``point_budget`` boxes have
    been bounded.

    Every box lies on the grid 2^-L, for the smallest L >= 0 with
    h 2^L >= 4.  A box has radii r_j / 2^L and carries, for each row i, the
    centre value mid_i and the interval half-width w_i of (Ax)_i, with
    A = D T; both are integers over the one denominator D 2^L.  Over the
    box row i of Tx takes values (mid_i +/- w_i) / (D 2^L), so
    sup|Tx| >= max_i |mid_i| - w_i.  The steer row maximizes that clearance.
    A box is thin, no wider than h, once its widest radius is at most
    thin = floor(h 2^L / 2) >= 2.  The split halves a coordinate at least
    half as wide as the widest, which keeps boxes roughly cubical and
    bounds the depth; among those it prefers the coordinate the steer row
    weights most, then the largest column of |A|, then the widest.  Radii
    start at 2^L and are halved, so they are powers of two.  A split box
    is not thin, so its widest radius exceeds thin >= 2 and is at least 4;
    the radius halved is at least half of that, so it is even and its half
    is an integer.  That is why L is chosen with h 2^L >= 4.

    Each step bounds a batch of boxes with one radius and width, a facet's
    start box or the two halves of a split; each box either settles at
    once or joins one heap of open boxes, ordered by bound.  The width is
    w_i = sum_j |A_ij| r_j, a function of the radius, and the split depends on
    (steer row, radius) alone, so one call plans it once per pair.  The
    Lipschitz constant is read off the same integers: max_i sum_j |A_ij| / D.
    """
    step = as_rational(h)
    if step <= 0:
        raise ValueError("resolution h must be positive")
    if point_budget < 1:
        raise ValueError("point budget must be at least 1")
    n = T.dim
    rows, denominators = T.rows, T.denominators
    denominator = lcm(*denominators)  # one D for all rows, since the bound is a maximum across rows
    rows = [[a * (denominator // D) for a in row] for row, D in zip(rows, denominators)]
    columns = list(zip(*rows))
    abs_columns = [[abs(a) for a in column] for column in columns]
    abs_rows = list(zip(*abs_columns))
    column_max = [max(column) for column in abs_columns]
    lipschitz = Fraction(max(map(sum, abs_rows)), denominator)  # max_i sum_j |T_ij|
    p, q = step.numerator, step.denominator
    level = ((4 * q - 1) // p).bit_length()  # the smallest L with p 2^L >= 4q
    thin = (p << level) // (2 * q)
    den = denominator << level

    upper = lower = inf  # integers over den once the first box is bounded
    evaluations = 0
    # heap entries: (float key for ordering only, tiebreak, exact bound, steer row, mid, radius);
    # int / int is correctly rounded, so bnd / den is float(Fraction(bnd, den)) whatever L is
    heap: list[tuple] = []
    plans: dict[tuple, tuple] = {}  # (steer, radius) -> (child radius, thin?, A[:, j] half, child width)
    widths: dict[tuple, list] = {}  # radius -> width, since w_i = sum_j |A_ij| r_j
    for k in range(n):
        radius = (1 << level,) * k + (0,) + (1 << level,) * (n - k - 1)  # the facet x_{k+1} = +1
        thin_batch = max(radius) <= thin
        width = widths[radius] = [(sum(row) - row[k]) << level for row in abs_rows]
        mids = ([a << level for a in columns[k]],)  # centred at e_{k+1}
        while True:
            # a batch's boxes share radius and width, which are never mutated
            for mid in mids:
                evaluations += 1
                if evaluations > point_budget:
                    raise BudgetExceededError(f"oracle exceeded its budget of {point_budget} box evaluations")
                magnitude = list(map(abs, mid))
                clearance = list(map(operator.sub, magnitude, width))
                steer_clearance = max(clearance)
                bnd = steer_clearance if steer_clearance > 0 else 0
                centre = max(magnitude)  # the centre is an evaluated sphere point
                if centre < upper:
                    upper = centre
                if thin_batch or bnd >= upper:
                    if bnd < lower:  # the box is retired
                        lower = bnd
                else:  # evaluations counts up, so it breaks ties in the order boxes were queued
                    entry = (bnd / den, evaluations, bnd, clearance.index(steer_clearance), mid, radius)
                    heapq.heappush(heap, entry)
            if not heap:
                break
            _, _, bnd, steer, mid, radius = heapq.heappop(heap)
            if bnd >= upper:  # the best point improved since this was queued
                if bnd < lower:
                    lower = bnd
                mids = ()
                continue
            plan = plans.get((steer, radius))
            if plan is None:  # the split depends on (steer, radius) alone, so each is planned once
                widest = max(radius)  # a power of two above thin >= 2, since the box did not settle
                cut = widest >> 1  # a coordinate at least half as wide as the widest may be split
                for weights in (abs_rows[steer], column_max):  # the first of largest weight * radius
                    scores = [w * r if r >= cut else -1 for w, r in zip(weights, radius)]
                    j = scores.index(max(scores))
                    if weights[j]:
                        break
                else:
                    j = radius.index(widest)
                half = radius[j] >> 1
                child = radius[:j] + (half,) + radius[j + 1:]
                width = widths[child] = [w - a * half for w, a in zip(widths[radius], abs_columns[j])]
                plan = plans[steer, radius] = (child, max(child) <= thin, [a * half for a in columns[j]], width)
            radius, thin_batch, shift, width = plan
            mids = (list(map(operator.add, mid, shift)), list(map(operator.sub, mid, shift)))

    # every sphere point lies in a settled box whose bound is at most its value, so lower <= m(T) <= upper
    return OracleResult(
        upper=Fraction(upper, den),
        lower=Fraction(lower, den),
        resolution=step,
        lipschitz=lipschitz,
        covering_radius=step / 2,
        evaluations=evaluations,
    )
