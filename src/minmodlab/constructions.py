"""The concrete operators and vectors of the counterexample.

Everything here is an N-section snapshot of one infinite-dimensional
construction: a norm-one functional f with geometric coefficients and a
vanishing first slot, the rank-one deflation T = I - e_1 (x) f it induces,
the rank-one repair K = e_1 (x) f with T + K = I, and the flat vectors
x = e_1 + (1/2) sum_{j>=2} e_j along which sup_norm(Tx) descends to its
unattained infimum 1/2.  ``deflation(f)`` writes the deflation's integer
rows for any f straight from f's ratios, so no ``Fraction`` matrix is built.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import Covector, Rational, Vector, basis_vector
from .linops import Dense, RankOne, integer_row

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


def geometric_functional(n: int) -> Covector:
    """f on the n-section: coefficients (0, 1/2, 1/4, ..., 2^(1-n)).

    The first slot is 0 so that f(e_1) = 0; the tail halves so the l1 tail
    sum stays below 1 at every section while tending to 1.
    """
    if n < 1:
        raise ValueError("sections have dimension >= 1")
    return Covector((_ZERO,) + tuple(Fraction(1, 2 ** (j - 1)) for j in range(2, n + 1)))


def shifted_geometric_functional(m: int) -> Covector:
    """The Y-side functional (1/2, 1/4, ..., 2^-m) on an m-section.

    Lifting it into the scalar-slot direct sum reproduces
    :func:`geometric_functional` one dimension up.
    """
    if m < 1:
        raise ValueError("sections have dimension >= 1")
    return Covector(tuple(Fraction(1, 2**j) for j in range(1, m + 1)))


def deflation(f: Covector) -> Dense:
    """I - e_1 (x) f on the section of f, as integer rows read off f's ratios alone.

    Row 1 is D (e_1 - f) over D, the lcm of f's denominators, which are
    those of e_1 - f; rows 2..N are unit rows over 1.
    """
    G, D = integer_row(f.coeffs)
    n = len(G)
    zeros = (0,) * n
    units = tuple(zeros[:i] + (1,) + zeros[i + 1:] for i in range(1, n))
    return Dense.of_rows(((D - G[0],) + tuple([-g for g in G[1:]]),) + units, (D,) + (1,) * (n - 1))


def deflation_operator(n: int) -> Dense:
    """T: x -> x - f(x) e_1 with f the geometric functional, as a dense matrix.

    The rank-one factors of the deflated part are those of
    :func:`deflation_repair`.
    """
    return deflation(geometric_functional(n))


def deflation_repair(n: int) -> RankOne:
    """K: x -> f(x) e_1 — the rank-one perturbation with T + K = I."""
    return RankOne(basis_vector(1, n), geometric_functional(n))


def minimizing_vector(n: int) -> Vector:
    """x = e_1 + (1/2) sum_{j=2..n} e_j, the flat descent vector."""
    if n < 1:
        raise ValueError("sections have dimension >= 1")
    return Vector((_ONE,) + (_HALF,) * (n - 1))


def closed_form_min_modulus(n: int) -> Rational:
    """Exact m(T) on the n-section: 1 / (2 - 2^(1-n)) = 2^(n-1) / (2^n - 1), already in lowest terms.

    Derivation: on the facet x_1 = 1 the optimum balances the deflated
    first row against a constant tail t, so 1 - t * dual_norm(f) = t with
    dual_norm(f) = 1 - 2^(1-n); every other facet is pinned at value 1.
    """
    if n < 1:
        raise ValueError("sections have dimension >= 1")
    return Fraction(2 ** (n - 1), 2**n - 1)


def direct_sum_operator(f_y: Covector) -> Dense:
    """T(a, y) = (a - f_y(y), y) on the scalar-slot direct sum.

    The section has dimension 1 + len(f_y); the functional is lifted to
    ignore the scalar slot.  With the shifted geometric functional on Y it
    is deflation_operator(1 + len(f_y)) entry for entry.
    """
    return deflation(Covector((_ZERO,) + f_y.coeffs))


def c0_family(n: int) -> tuple[Dense, RankOne]:
    """The n-section pair (T, K) = (deflation_operator(n), deflation_repair(n)), so T + K = I."""
    if n < 2:
        raise ValueError("the family needs dimension >= 2 (the tail must be nonempty)")
    return deflation_operator(n), deflation_repair(n)
