"""The concrete operators and vectors of the counterexample.

Everything here is an N-section snapshot of one infinite-dimensional
construction: a norm-one functional f with geometric coefficients and a
vanishing first slot, the rank-one deflation T = I - e_1 (x) f it induces,
the rank-one repair K = e_1 (x) f with T + K = I, and the flat vectors
x = e_1 + (1/2) sum_{j>=2} e_j along which sup_norm(Tx) descends to its
unattained infimum 1/2.

The direct-sum builders realize the same picture on a section of
K (+)_inf Y: the first coordinate is the distinguished scalar slot, the
functional only reads the Y part.  With the shifted geometric functional
on Y the two routes must agree entrywise — that identity is what the
splitting is for, and the tests hold the builders to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import (
    Covector,
    Rational,
    Vector,
    basis_vector,
    dual_norm_l1,
    sup_norm,
)
from .linops import Dense, RankOne

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
    """I - e_1 (x) f as a dense matrix on the section of f: row 1 is e_1 - f, the rest are unit rows."""
    n = len(f)
    first = (_ONE - f.coeffs[0],) + tuple(-c for c in f.coeffs[1:])
    zeros = (_ZERO,) * n
    return Dense((first,) + tuple(zeros[:i] + (_ONE,) + zeros[i + 1:] for i in range(1, n)))


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
    """Exact m(T) on the n-section: 1 / (2 - 2^(1-n)).

    Derivation: on the facet x_1 = 1 the optimum balances the deflated
    first row against a constant tail t, so 1 - t * dual_norm(f) = t with
    dual_norm(f) = 1 - 2^(1-n); every other facet is pinned at value 1.
    """
    if n < 1:
        raise ValueError("sections have dimension >= 1")
    return _ONE / (2 - Fraction(1, 2 ** (n - 1)))


def _lift(f_y: Covector) -> Covector:
    """f_y read on the direct sum: the scalar slot is ignored."""
    return Covector((_ZERO,) + f_y.coeffs)


def direct_sum_operator(f_y: Covector) -> Dense:
    """T(a, y) = (a - f_y(y), y) on the scalar-slot direct sum.

    The section has dimension 1 + len(f_y); the functional is lifted to
    ignore the scalar slot.
    """
    return deflation(_lift(f_y))


def direct_sum_perturbation(f_y: Covector) -> RankOne:
    """K(a, y) = (f_y(y), 0): repairs the direct-sum deflation to I."""
    lifted = _lift(f_y)
    return RankOne(basis_vector(1, len(lifted)), lifted)


def direct_sum_minimizer(y: Vector) -> Vector:
    """(1, y/2) for a unit vector y — the direct-sum descent vector."""
    if sup_norm(y) != _ONE:
        raise ValueError("the Y part must be a unit vector")
    return Vector((_ONE,) + tuple(_HALF * c for c in y.coords))


class FamilyKind(enum.Enum):
    C0 = "c0"
    DIRECT_SUM = "direct-sum"


@dataclass(frozen=True)
class CounterexampleFamily:
    """One section of the counterexample, fixed by its functional f.

    Construction checks f: it vanishes on e_1 and has dual norm
    1 - 2^(1-dim) < 1, with dim = len(f).  The rest is built from it:
    ``operator`` T = I - e_1 (x) f and ``perturbation`` K = e_1 (x) f, so
    T + K = I by construction.
    """

    kind: FamilyKind
    functional: Covector
    dim: int = field(init=False)
    operator: Dense = field(init=False)
    perturbation: RankOne = field(init=False)

    def __post_init__(self) -> None:
        f = self.functional
        if f.coeff(1) != 0:
            raise ValueError("the functional must vanish on the first basis vector")
        expected = _ONE - Fraction(1, 2 ** (len(f) - 1))
        if dual_norm_l1(f) != expected:
            raise ValueError(f"functional dual norm {dual_norm_l1(f)} != {expected}")
        object.__setattr__(self, "dim", len(f))
        object.__setattr__(self, "operator", deflation(f))
        object.__setattr__(self, "perturbation", RankOne(basis_vector(1, len(f)), f))


def c0_family(n: int) -> CounterexampleFamily:
    """The flat n-section family of the geometric functional."""
    if n < 2:
        raise ValueError("the family needs dimension >= 2 (the tail must be nonempty)")
    return CounterexampleFamily(FamilyKind.C0, geometric_functional(n))


def direct_sum_family(n: int) -> CounterexampleFamily:
    """The scalar-slot direct-sum family in total dimension n."""
    if n < 2:
        raise ValueError("the direct sum needs dimension >= 2")
    return CounterexampleFamily(FamilyKind.DIRECT_SUM, _lift(shifted_geometric_functional(n - 1)))
