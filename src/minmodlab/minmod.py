"""Exact minimum modulus over the sup-norm unit sphere of an N-section.

``min_modulus_sup`` reads m(T) off the inverse: for invertible T with
S = T^-1, x = Sy gives ||Tx|| / ||x|| = ||y|| / ||Sy||, so m(T) = 1/||S||,
the reciprocal of S's largest row l1 sum; a singular T has m(T) = 0 with
a kernel vector as witness.  One fraction-free elimination, in place on N
columns, gives S = M/d in integers; A M = d diag(D), summed in C over A's
nonzeros and, on a row with one nonzero, checked by one product and a count
of zeros, proves the lower bound and the re-verified witness the upper one.
The inverse, the search and the oracle read T's integer rows
A_i = D_i T_i, the two fields of ``Dense``, as they are; the facet LPs read
``T.entries``.  ``_rank_one_update`` turns M/d into
(T + u (x) g)^-1 in O(N^2) integer steps, so the search inverts T once, and
reuses MU and GM across proposals that share a factor.
``_rank_one_sections`` reads every leading section of I + U (x) G / e off
its 1 x 1 capacitance c = e + G U, since (c I - U (x) G) / c is the
section's inverse: O(N) integer steps a section, and no elimination.

``facet_minima`` is the facet view, for per-facet reports.  The sphere
is the union of 2N box facets {x : x_k = sigma, |x_j| <= 1}; on one
facet, minimizing sup_i |(Tx)_i| is the linear program

    minimize t   subject to   -t <= (Tx)_i <= t,  |x_j| <= 1,  x_k = sigma,

and the N facets with sigma = +1 suffice, since T(-x) = -Tx.  The
programs differ only in x_k's bounds, so the rows are built once.

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
D 2^L and bounds compare as plain integers, the heap's order included.
Each box carries its half-widths; the split is a function of the radii and
the steer row, so one call plans each split once and a box costs O(N).
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import lcm

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


def _fraction_free_inverse(rows: list, denominators: list) -> tuple[list, int]:
    """(M, d) with T^-1 = M/d and d > 0, or (a, 0) with a an integer kernel vector of T = A/D.

    Bareiss on [A | I], in place on N columns: with p the pivot of column c
    (its first nonzero at or below the diagonal, swapped up) and prev the one
    before, every other row becomes (p a_r - a_rc a_c) / prev, an exact
    division.  The left block's settled columns are p I, which no later step
    reads, and the right block's columns past c are still prev I, so column c
    of the one array holds A's column until step c and the right block's
    column c after it: -a_rc, with prev in the pivot row.  With no pivot in
    column c, the columns before it are prev e_r, so (-a_rc for r < c, prev,
    0, ...) is a kernel vector.  Otherwise the loop leaves A R = p I for the
    right block R, whose columns come back in order once the row swaps are
    undone as column swaps in reverse; T^-1 = R diag(D) / p.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    swaps, prev = [], 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return [-a[r][c] for r in range(c)] + [prev] + [0] * (n - c - 1), 0
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
    for c, pivot in reversed(swaps):  # R = R' P for the right block R' of the swapped rows P A
        for row in a:
            row[c], row[pivot] = row[pivot], row[c]
    sign = 1 if prev > 0 else -1
    scale = [sign * D for D in denominators]  # M = R diag(D) sign(p), one C loop per row
    return [list(map(operator.mul, row, scale)) for row in a], sign * prev


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


def _rank_one_sections(rank_one: tuple, n_min: int):
    """Yield (n, |c|, R, z), m = |c|/R with witness z/R, for the leading n-sections of I + U (x) G / e from n_min up.

    On a section, u = U[:n] and g = G[:n] have the 1 x 1 capacitance
    c = e + g u, and Sherman-Morrison's M = c I - u (x) g has
    T M = c I + u (x) g (c - e - g u) / e = c I, so T^-1 = M/c and
    m >= |c|/R for R, M's largest row l1 sum, with no N x N array formed.
    Row i sums to |c - u_i g_i| + |u_i| (||g||_1 - |g_i|), and a row with
    u_i = 0 is c e_i, with sum |c|, so R costs one term per touched row.
    The witness follows ``_read_inverse``: y is the sign pattern of the first
    maximal row, zeros taking sign(c), and z = M y = c y - u (g y); each
    section proves m <= |c|/R by T z = c y, as e z + u (g z) = e c y.
    """
    U, G, e = rank_one
    c, g_norm, touched, untouched = e, 0, [], None  # untouched: the first row with u_i = 0
    for n, (ui, gi) in enumerate(zip(U, G), 1):
        c += ui * gi
        g_norm += abs(gi)
        if ui:
            touched.append(n - 1)
        elif untouched is None:
            untouched = n - 1
        if n < n_min:
            continue
        if not c:
            raise RuntimeError(f"internal: the leading {n}-section is singular")
        # (-row sum, row) of every touched row and the first untouched one: the least is the first maximal row
        sums = [(-abs(c - U[k] * G[k]) - abs(U[k]) * (g_norm - abs(G[k])), k) for k in touched]
        if untouched is not None:
            sums.append((-abs(c), untouched))
        least, star = min(sums)
        u, g = U[:n], G[:n]
        row = [-u[star] * x for x in g]
        row[star] += c
        sign = 1 if c > 0 else -1
        y = [sign if m * c >= 0 else -sign for m in row]
        gy = sum(map(operator.mul, g, y))
        z = [c * s - a * gy for s, a in zip(y, u)]
        gz = sum(map(operator.mul, g, z))
        if [e * x + a * gz for x, a in zip(z, u)] != [e * c * s for s in y]:
            raise RuntimeError("internal: minimum-modulus witness failed re-verification")
        yield n, abs(c), -least, z


def _rank_one_update(inverse: list, d: int, rank_one: tuple, memo: dict) -> tuple[list, int]:
    """(M', d') with (T + U (x) G / e)^-1 = M'/d', from T^-1 = M/d.

    Sherman-Morrison, S - (Su)(gS)/(1 + g Su), in integers: with a = MU and
    den = d e + G a, M' = den M - a (x) (G M) and d' = d den, without a gcd.
    When den = 0, T + U (x) G / e is singular and (a, 0) comes back: a != 0
    is a kernel vector, because (T + u (x) g) Su = u (1 + g Su) = 0.  Each
    dot product in a, den and b = G M is one C loop, sum(map(operator.mul, u, v)).
    ``memo``, a dict the caller owns for one M and always passes, holds only
    the products, a by U and b by G, so proposals that move one factor at a
    time compute each once; nothing in it is ever mutated.
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
        b = memo[key] = [sum(map(operator.mul, G, column)) for column in zip(*inverse)]
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


def facet_minima(T: Dense, *, check_mirror: bool = False) -> tuple[Rational, ...]:
    """Each facet's exact minimum (sign +1 representative), by one LP per facet.

    The variables are (x_1..x_N, s) with s = -t in [-U, 0], where
    U = op_norm_sup(T).  For each row i the program has
    (Tx)_i + s <= 0 and -(Tx)_i + s <= 0, that is |(Tx)_i| <= t, and it
    minimizes -s, so the optimum is t itself.  U bounds every facet value,
    so the box on s loses no optimum.  The objective, the rows and the box
    are built once; facet k only fixes x_k = sigma.  Its corner x_j = -1
    (j != k), x_k = sigma, s = -U satisfies every row, because
    |(Tx)_i| <= sum_j |T_ij| <= U; the simplex starts there, with no
    phase 1.

    The least entry is m(T).  ``check_mirror`` also solves every sign -1
    facet, right after its sign +1 facet, and verifies it agrees, which is
    the oddness symmetry the reduction to N programs relies on.
    """
    n = T.dim
    objective = [_ZERO] * n + [-_ONE]
    constraints = []
    for row in T.entries:
        constraints.append((row + (_ONE,), _ZERO))  # (Tx)_i <= t
        constraints.append((tuple(-e for e in row) + (_ONE,), _ZERO))  # -(Tx)_i <= t
    box = [(-_ONE, _ONE)] * n + [(-op_norm_sup(T), _ZERO)]
    values = []
    for k in range(n):
        value, *mirror = [
            solve(linear_program(objective, constraints, box[:k] + [(sigma, sigma)] + box[k + 1:])).value
            for sigma in ((_ONE, -_ONE) if check_mirror else (_ONE,))
        ]
        if mirror and mirror[0] != value:
            raise RuntimeError(f"internal: facet {k + 1} mirror asymmetry ({value} vs {mirror[0]})")
        values.append(value)
    return tuple(values)


@dataclass(frozen=True)  # not a Record: bench/test_bench.py calls dataclasses.replace on it
class OracleResult:
    """Certified bracket lower <= m(T) <= upper.

    ``upper`` is sup_norm(T x) at an evaluated sphere point; ``lower`` comes
    from exact interval bounds on boxes covering the sphere, with every
    coordinate whose column of T is zero at 0, since it cannot move Tx.  The
    width is at most lipschitz * covering_radius, covering_radius = h/2 for
    resolution h.  ``evaluations`` counts bounded boxes (the budget's unit).
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
    weights most, then the largest column of |A|.  A coordinate with a zero
    column cannot move Tx, so it starts at radius 0, as x_k does; the rest
    start at 2^L and are halved, so they are powers of two.  A split box
    is not thin, so its widest radius exceeds thin >= 2 and is at least 4;
    the radius halved is at least half of that, so it is even and its half
    is an integer.  That is why L is chosen with h 2^L >= 4.

    Each step bounds a batch of boxes with one radius and width, a facet's
    start box or the two halves of a split; each box either settles at
    once or joins one heap of open boxes, ordered by its exact integer
    bound, with its width.  The width is w_i = sum_j |A_ij| r_j, and the
    split depends on (steer row, radius) alone, so one call plans it, the
    child width included, once per pair.  The Lipschitz constant is read off
    the same integers, peak / D with peak = max_i sum_j |A_ij|; no box value
    exceeds peak 2^L, so upper and lower start one above it.
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
    peak = max(map(sum, abs_rows))  # max_i sum_j |A_ij|
    lipschitz = Fraction(peak, denominator)  # max_i sum_j |T_ij|
    p, q = step.numerator, step.denominator
    level = ((4 * q - 1) // p).bit_length()  # the smallest L with p 2^L >= 4q
    thin = (p << level) // (2 * q)
    den = denominator << level

    upper = lower = (peak << level) + 1  # above every box value, |A_i x| 2^L <= peak 2^L
    evaluations = 0
    heap: list[tuple] = []  # (exact bound, tiebreak, steer row, mid, radius, width)
    plans: dict[tuple, tuple] = {}  # (steer, radius) -> (child radius, thin?, A[:, j] half, child width)
    start = tuple(1 << level if c else 0 for c in column_max)  # a zero column starts thin, like x_k
    for k in range(n):
        radius = start[:k] + (0,) + start[k + 1:]  # the facet x_{k+1} = +1
        thin_batch = max(radius) <= thin
        width = [(sum(row) - row[k]) << level for row in abs_rows]
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
                    heapq.heappush(heap, (bnd, evaluations, clearance.index(steer_clearance), mid, radius, width))
            if not heap:
                break
            bnd, _, steer, mid, radius, width = heapq.heappop(heap)
            if bnd >= upper:  # the best point improved since this was queued, and the heap pops its least
                # bound first, so every box left has a bound of at least upper: the facet is done, and none needs
                # retiring, as each box holding the centre that set upper has a bound below upper or is retired
                heap.clear()
                break
            plan = plans.get((steer, radius))
            if plan is None:  # the split depends on (steer, radius) alone, so each is planned once
                widest = max(radius)  # a power of two above thin >= 2, since the box did not settle
                cut = widest >> 1  # a coordinate at least half as wide as the widest may be split
                for weights in (abs_rows[steer], column_max):  # the first of largest weight * radius
                    scores = [w * r if r >= cut else -1 for w, r in zip(weights, radius)]
                    j = scores.index(max(scores))
                    if weights[j]:  # column_max always finds one: only a nonzero column has a radius
                        break
                half = radius[j] >> 1
                child = radius[:j] + (half,) + radius[j + 1:]
                child_width = [w - a * half for w, a in zip(width, abs_columns[j])]
                plan = plans[steer, radius] = (child, max(child) <= thin, [a * half for a in columns[j]], child_width)
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
