"""Command-line entry point.

Subcommands expose the lab's experiments; reports go to stdout or --out.
Exit codes are a stable contract:

    0  success
    1  check failure (a verified exact relation did not hold, or an
       internal invariant or witness re-verification failed)
    2  usage error (unknown spec, malformed arguments)
    3  budget exceeded (oracle or study ran out of its configured budget)
    4  I/O error (unreadable matrix file, unwritable output)

An operator spec is ``paper-t``, ``paper-k``, ``identity``,
``diagonal:a,b,...``, ``direct-sum``, or a path to a dense matrix file
(first line N, then N rows of N exact rationals).  Every spec builds a
``Dense``, the one type the engines read, so ``paper-k``, the rank-one
repair K, comes expanded to its matrix.  Identical invocations produce
byte-identical reports; ``--timestamp`` and ``--approx`` opt in to a
header timestamp and labeled 12-place decimal columns.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .constructions import (
    c0_family,
    closed_form_min_modulus,
    deflation_operator,
    deflation_repair,
    direct_sum_operator,
    minimizing_vector,
    shifted_geometric_functional,
)
from .exactnum import (
    Rational,
    Vector,
    basis_vector,
    dual_norm_l1,
    format_rational,
    parse_rational,
    sup_norm,
)
from .harness import (
    LP_DIMENSION_BUDGET,
    SEARCH_ITERATIONS,
    InvariantViolation,
    Report,
    WeakNullStatus,
    convergence_study,
    emit_report,
    rank_one_search,
    weak_null_test,
)
from .linops import Dense, add, diagonal, identity, materialize
from .minmod import ORACLE_POINT_BUDGET, BudgetExceededError, brute_force_min, facet_minima, min_modulus_sup

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_IO = 4
_INTEGER_RE = re.compile("[+-]?[0-9]+")  # what _integer reads; int() alone also reads 1_2 and non-ASCII digits


class UsageError(ValueError):
    """Bad arguments discovered after argparse (unknown spec and friends)."""


class MatrixFormatError(ValueError):
    """A dense matrix file that does not follow the documented format."""


def _integer(text: str) -> int:
    """The integer an optional sign and ASCII digits spell, whitespace stripped: every integer the CLI reads."""
    if not _INTEGER_RE.fullmatch(text := text.strip()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)  # raises past the interpreter's digit limit, too


_integer.__name__ = "int"  # argparse names a refused argument's type by it: "invalid int value: '1_2'"


def read_dense_operator(path: str | Path) -> Dense:
    """Parse the documented plain-text format into a dense operator."""
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")  # a byte-order mark may lead
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MatrixFormatError(f"{path}: empty matrix file")
    try:
        n = _integer(lines[0])
    except ValueError:
        raise MatrixFormatError(f"{path}: first line must be the dimension, got {lines[0]!r}") from None
    if n < 1:
        raise MatrixFormatError(f"{path}: dimension must be >= 1, got {n}")
    if len(lines) != n + 1:
        raise MatrixFormatError(f"{path}: expected {n} rows after the dimension, got {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], start=1):
        tokens = ln.split()
        if len(tokens) != n:
            raise MatrixFormatError(f"{path}: row {i} has {len(tokens)} entries, expected {n}")
        try:
            rows.append(tuple(parse_rational(tok) for tok in tokens))
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: row {i}: {exc}") from None
    return Dense(tuple(rows))


def build_operator(spec: str, n: int) -> Dense:
    """Resolve an operator spec at dimension n; unknown specs are usage errors."""
    if n < 1:
        raise UsageError("dimension must be >= 1")
    if spec == "paper-t":
        return deflation_operator(n)
    if spec == "paper-k":
        return materialize(deflation_repair(n))
    if spec == "identity":
        return identity(n)
    if spec == "direct-sum":
        if n < 2:
            raise UsageError("direct-sum needs dimension >= 2")
        return direct_sum_operator(shifted_geometric_functional(n - 1))
    if spec.startswith("diagonal:"):
        body = spec[len("diagonal:") :]
        try:
            entries = [parse_rational(tok) for tok in body.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad diagonal entry: {exc}") from None
        if len(entries) != n:
            raise UsageError(f"diagonal spec has {len(entries)} entries, expected {n}")
        return diagonal(entries)
    path = Path(spec)
    if path.suffix or path.exists() or "/" in spec:
        dense = read_dense_operator(path)
        if dense.dim != n:
            raise UsageError(f"matrix file is {dense.dim}-dimensional, expected {n}")
        return dense
    raise UsageError(
        f"unknown operator spec {spec!r} (use paper-t, paper-k, identity, "
        "diagonal:a,b,..., direct-sum, or a matrix file path)"
    )


# ---------------------------------------------------------------------------
# the fixed regression suite


def run_paper_check(n_max: int) -> tuple[Report, bool]:
    """The exact regression of T = deflation_operator(n), K = deflation_repair(n), n = 2..n_max, and its verdict."""
    if n_max < 2:
        raise UsageError("the regression needs n_max >= 2")

    checks: list[tuple[str, bool, str, str]] = []

    def record(name: str, expected, actual) -> None:
        checks.append((name, expected == actual, str(expected), str(actual)))

    witnesses: list[Vector] = []
    for n in range(2, n_max + 1):
        operator, repair = deflation_operator(n), deflation_repair(n)
        functional = repair.functional

        record(
            f"functional-dual-norm[{n}]",
            format_rational(Fraction(1) - Fraction(1, 2 ** (n - 1))),
            format_rational(dual_norm_l1(functional)),
        )
        record(f"functional-first-coefficient[{n}]", "0", format_rational(functional.coeff(1)))

        result = min_modulus_sup(operator)
        witnesses.append(result.witness)
        record(
            f"min-modulus-closed-form[{n}]",
            format_rational(closed_form_min_modulus(n)),
            format_rational(result.value),
        )
        record(
            f"minimizing-vector-value[{n}]",
            format_rational(Fraction(1, 2) + Fraction(1, 2**n)),
            format_rational(sup_norm(operator.apply(minimizing_vector(n)))),
        )

        repaired = add(operator, repair)
        record(
            f"perturbation-identity[{n}]",
            "identity",
            "identity" if repaired == identity(n) else "not-identity",
        )
        record(f"perturbed-min-modulus[{n}]", "1", format_rational(min_modulus_sup(repaired).value))

    minimizers = [minimizing_vector(n) for n in range(2, n_max + 1)]
    verdict = weak_null_test(minimizers)
    record("weak-null-minimizing-family", "not-weakly-null[1]", f"{verdict.status.value}[{verdict.coordinate}]")
    verdict = weak_null_test(witnesses)
    record("weak-null-witness-family", "not-weakly-null[1]", f"{verdict.status.value}[{verdict.coordinate}]")
    basis_family = [basis_vector(j, n_max) for j in range(1, n_max + 1)]
    verdict = weak_null_test(basis_family)
    record("weak-null-basis-family", WeakNullStatus.WEAKLY_NULL.value, verdict.status.value)

    passed = sum(1 for _, ok, _, _ in checks if ok)
    all_ok = passed == len(checks)
    report = Report(
        kind="paper-check",
        header=(
            ("result", "pass" if all_ok else "fail"),
            ("checks_passed", str(passed)),
            ("checks_total", str(len(checks))),
        ),
        columns=("check", "status", "expected", "actual"),
        rows=tuple(
            (name, "pass" if ok else "fail", expected, actual)
            for name, ok, expected, actual in checks
        ),
    )
    return report, all_ok


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report, exit code, stderr note or None).
# A handler that parses a rational argument stores the parsed value back in args, so the
# header echoes its canonical form (h = 2/32 is echoed as 1/16).


def _cmd_paper_check(args):
    report, ok = run_paper_check(args.n_max)
    if ok:
        return report, EXIT_OK, None
    failed = [row[0] for row in report.rows if row[1] == "fail"]
    return report, EXIT_CHECK_FAILED, f"paper-check: {len(failed)} check(s) failed: {', '.join(failed[:5])}"


def _cmd_minmod(args):
    operator = build_operator(args.operator_spec, args.n)
    result = min_modulus_sup(operator)
    facet_values = facet_minima(operator, check_mirror=args.mirror_check)
    own = facet_values[result.facet[0] - 1]
    if min(facet_values) != result.value or own != result.value:  # the two engines must agree
        raise InvariantViolation(f"facet LPs give {min(facet_values)} and {own} on facet "
                                 f"{result.facet[0]}, the inverse gives {result.value}")
    header = (
        ("value", format_rational(result.value)),
        ("witness", " ".join(result.witness.serialize())),
        ("facet", str(result.facet[0])),
        ("facet_sign", str(result.facet[1])),
    )
    report = Report(
        kind="minmod",
        header=header,
        columns=("facet", "facet_value"),
        rows=tuple((k + 1, v) for k, v in enumerate(facet_values)),
    )
    return report, EXIT_OK, None


def _cmd_converge(args):
    budget = args.lp_dimension_budget
    study = convergence_study(args.n_min, args.n_max, lp_dimension_budget=budget)
    header = (
        ("n_min", str(args.n_min)),
        ("n_max", str(args.n_max)),
        ("partial", "true" if study.partial else "false"),
    )
    report = Report(
        kind="convergence",
        header=header,
        columns=("N", "m_N", "closed_form", "witness_min_tail", "witness_max_tail", "gap"),
        rows=tuple(
            (r.n, r.value, r.closed_form, r.witness_min_tail, r.witness_max_tail, r.gap) for r in study.rows
        ),
    )
    if not study.partial:
        return report, EXIT_OK, None
    note = f"converge: stopped at the dimension budget {budget} (requested up to {args.n_max})"
    return report, EXIT_BUDGET, note


def _cmd_oracle(args):
    args.resolution = _parse_rational_arg(args.resolution, "h")
    operator = build_operator(args.operator_spec, args.n)
    result = brute_force_min(operator, args.resolution, point_budget=args.point_budget)
    header = (
        ("upper", format_rational(result.upper)),
        ("lower", format_rational(result.lower)),
        ("lipschitz", format_rational(result.lipschitz)),
        ("covering_radius", format_rational(result.covering_radius)),
        ("evaluations", str(result.evaluations)),
    )
    report = Report(
        kind="oracle",
        header=header,
        columns=("bound", "value"),
        rows=(("upper", result.upper), ("lower", result.lower)),
    )
    return report, EXIT_OK, None


def _cmd_perturb(args):
    T, K = c0_family(args.n)
    base = min_modulus_sup(T).value
    perturbed = min_modulus_sup(add(T, K)).value
    gain = perturbed - base
    header = (
        ("m_T", format_rational(base)),
        ("m_TK", format_rational(perturbed)),
        ("gain", format_rational(gain)),
    )
    report = Report(
        kind="perturb",
        header=header,
        columns=("quantity", "value"),
        rows=(("m_T", base), ("m_TK", perturbed), ("gain", gain)),
    )
    return report, EXIT_OK, None


def _cmd_search(args):
    args.search_budget = _parse_rational_arg(args.search_budget, "budget")
    outcome = rank_one_search(
        deflation_operator(args.n), args.search_budget, seed=args.seed, iterations=args.iterations
    )
    k = outcome.perturbation
    header = (
        ("base_value", format_rational(outcome.base_value)),
        ("perturbed_value", format_rational(outcome.perturbed_value)),
        ("gain", format_rational(outcome.gain)),
        ("perturbation_norm", format_rational(outcome.norm)),
        ("iterations", str(outcome.iterations)),  # the effective count: 0 when the budget is 0
        ("seed", str(args.seed)),
        ("evaluations", str(outcome.evaluations)),
        ("direction", " ".join(k.direction.serialize())),
        ("functional", " ".join(k.functional.serialize())),
    )
    report = Report(
        kind="rank-one-search",
        header=header,
        columns=("coordinate", "direction", "functional"),
        rows=tuple((j + 1, u, g) for j, (u, g) in enumerate(zip(k.direction.coords, k.functional.coeffs))),
    )
    return report, EXIT_OK, None


def _parse_rational_arg(text: str, name: str) -> Rational:
    try:
        return parse_rational(text)
    except ValueError:
        raise UsageError(f"{name} must be an exact rational like 1/200, got {text!r}") from None


# Parsed arguments echoed into every report header as config.<key>, in this order.
_ECHOED = (
    "n",
    "n_min",
    "n_max",
    "operator_spec",
    "resolution",
    "point_budget",
    "lp_dimension_budget",
    "search_budget",
    "iterations",
    "seed",
)


def _run(args) -> int:
    """Check the dimension budget, run the handler, emit its report, then print its note."""
    # paper-check builds every section up to n_max; converge stops at its own --lp-budget instead
    dimension = args.n_max if args.command == "paper-check" else getattr(args, "n", None)
    if dimension is not None and dimension > LP_DIMENSION_BUDGET:
        raise BudgetExceededError(f"dimension {dimension} exceeds the dimension budget {LP_DIMENSION_BUDGET}")
    report, code, note = args.handler(args)
    header = [("command", args.command)]
    for key in _ECHOED:
        value = getattr(args, key, None)
        if value is not None:
            header.append((f"config.{key}", str(value)))
    header.append(("config.format", args.format))
    emit_report(
        report,
        args.format,
        sys.stdout if args.out is None else args.out,
        extra_header=header,
        approx=args.approx,
        timestamp=args.timestamp,
    )
    if note is not None:
        print(note, file=sys.stderr)
    return code


_SPEC_HELP = "paper-t | paper-k | identity | diagonal:a,b,... | direct-sum | matrix file"

# (name, help, handler, arguments); each argument is (name or flag, add_argument keywords)
_COMMANDS = (
    ("paper-check", "run the fixed exact regression suite", _cmd_paper_check, (
        ("--n-max", dict(type=_integer, default=10)),
    )),
    ("minmod", "exact minimum modulus of an operator", _cmd_minmod, (
        ("operator_spec", dict(metavar="spec", help=_SPEC_HELP)),
        ("n", dict(type=_integer)),
        ("--mirror-check", dict(action="store_true", help="also solve all sign -1 facets and verify symmetry")),
    )),
    ("converge", "per-section minimum moduli vs the closed form", _cmd_converge, (
        ("n_min", dict(type=_integer)),
        ("n_max", dict(type=_integer)),
        ("--lp-budget", dict(
            type=_integer,
            default=LP_DIMENSION_BUDGET,
            dest="lp_dimension_budget",
            metavar="LP_BUDGET",
        )),
    )),
    ("oracle", "certified sampling bracket, independent of the inverse and the facet LPs", _cmd_oracle, (
        ("operator_spec", dict(metavar="spec")),
        ("n", dict(type=_integer)),
        ("resolution", dict(metavar="h", help="resolution as an exact rational, e.g. 1/200")),
        ("--point-budget", dict(type=_integer, default=ORACLE_POINT_BUDGET)),
    )),
    ("perturb", "m(T), m(T+K), gain for the named construction", _cmd_perturb, (
        ("n", dict(type=_integer)),
    )),
    ("search", "seeded rank-one perturbation search on the named construction", _cmd_search, (
        ("n", dict(type=_integer)),
        ("--budget", dict(
            default="1",
            dest="search_budget",
            metavar="BUDGET",
            help="norm cap for the perturbation (exact rational)",
        )),
        ("--iterations", dict(type=_integer, default=SEARCH_ITERATIONS)),
        ("--seed", dict(type=_integer, required=True)),
    )),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmodlab",
        description="Exact minimum-modulus laboratory on sup-norm sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--approx", action="store_true", help="add labeled 12-place decimal columns")
        p.add_argument("--timestamp", action="store_true", help="include a generation timestamp header")
        p.set_defaults(handler=handler)
    return parser


# Exception type -> exit code, first match wins: BudgetExceededError is a RuntimeError,
# and MatrixFormatError and UsageError are ValueErrors.
_ERROR_EXITS = (
    (BudgetExceededError, EXIT_BUDGET),
    (InvariantViolation, EXIT_CHECK_FAILED),  # a broken internal invariant
    (RuntimeError, EXIT_CHECK_FAILED),  # a failed inverse certificate or witness re-verification
    (MatrixFormatError, EXIT_IO),
    (ValueError, EXIT_USAGE),  # also the library's parameter validation (bad ranges, resolutions)
    (OSError, EXIT_IO),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return _run(args)
    except tuple(kind for kind, _ in _ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS if isinstance(exc, kind))


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
