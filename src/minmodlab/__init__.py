"""minmodlab: an exact computation lab for the minimum modulus of
operators on finite sections of sup-norm sequence spaces.

Everything is rational arithmetic end to end: minimum moduli come from
the exact inverse with attaining witnesses, per-facet linear programs and
an independent certified oracle check them, and the harness studies how
the finite sections shadow the infinite-dimensional picture (descending
moduli, escaping minimizers, a rank-one repair that lifts the minimum).
"""

from .exactnum import (
    Covector,
    Rational,
    Vector,
    as_rational,
    basis_vector,
    covector,
    dual_norm_l1,
    evaluate,
    format_rational,
    parse_rational,
    rat,
    sup_norm,
    vector,
    zero_vector,
)
from .linops import (
    Dense,
    Operator,
    RankOne,
    add,
    diagonal,
    identity,
    materialize,
    op_norm_sup,
    scale,
    zero_operator,
)
from .minmod import (
    BudgetExceededError,
    MinModResult,
    OracleResult,
    PerturbationGain,
    brute_force_min,
    facet_minima,
    min_modulus_sup,
    perturbation_gain,
)
from .constructions import (
    CounterexampleFamily,
    FamilyKind,
    c0_family,
    closed_form_min_modulus,
    deflation_operator,
    deflation_repair,
    direct_sum_family,
    direct_sum_minimizer,
    direct_sum_operator,
    direct_sum_perturbation,
    geometric_functional,
    minimizing_vector,
    shifted_geometric_functional,
)
from .harness import (
    ConvergenceReport,
    InvariantViolation,
    Report,
    SearchOutcome,
    WeakNullStatus,
    WeakNullVerdict,
    convergence_study,
    emit_report,
    rank_one_search,
    weak_null_test,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
