"""Command-line entry point.

Subcommands expose the lab's experiments; reports go to stdout or --out.
Exit codes are a stable contract:

    0  success
    1  check failure (a verified exact relation did not hold)
    2  usage error (unknown spec, malformed arguments)
    3  budget exceeded (oracle or study ran out of its configured budget)
    4  I/O error (unreadable matrix file, unwritable output)

Operator specs: ``paper-t``, ``paper-k``, ``identity``,
``diagonal:a,b,...``, ``direct-sum``, or a path to a dense matrix file
(first line N, then N rows of N exact rationals).  Identical invocations
produce byte-identical reports; ``--timestamp`` and ``--approx`` opt in to
a header timestamp and labeled 12-place decimal columns.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .constructions import (
    c0_family,
    closed_form_min_modulus,
    deflation_operator,
    deflation_repair,
    direct_sum_operator,
    geometric_functional,
    minimizing_vector,
    shifted_geometric_functional,
)
from .exactnum import (
    Covector,
    Rational,
    Vector,
    basis_vector,
    dual_norm_l1,
    format_rational,
    parse_rational,
    sup_norm,
)
from .harness import (
    DEFAULT_CONFIG,
    HarnessConfig,
    Report,
    WeakNullStatus,
    convergence_study,
    emit_report,
    rank_one_search,
    weak_null_test,
)
from .linops import Dense, Operator, RankOne, add, diagonal, identity, materialize
from .minmod import BudgetExceededError, brute_force_min, min_modulus_sup, perturbation_gain

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_IO = 4


class UsageError(ValueError):
    """Bad arguments discovered after argparse (unknown spec and friends)."""


class MatrixFormatError(ValueError):
    """A dense matrix file that does not follow the documented format."""


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run; echoed into every report header."""

    command: str
    n: Optional[int] = None
    n_min: Optional[int] = None
    n_max: Optional[int] = None
    operator_spec: Optional[str] = None
    resolution: Optional[Rational] = None
    point_budget: Optional[int] = None
    lp_dimension_budget: Optional[int] = None
    search_budget: Optional[Rational] = None
    iterations: Optional[int] = None
    seed: Optional[int] = None
    fmt: str = "csv"
    out: Optional[str] = None
    approx: bool = False
    timestamp: bool = False
    inject_fault: Optional[str] = None

    def header_pairs(self) -> tuple[tuple[str, str], ...]:
        pairs = [("command", self.command)]
        for key in (
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
            "inject_fault",
        ):
            value = getattr(self, key)
            if value is None:
                continue
            if isinstance(value, Fraction):
                pairs.append((f"config.{key}", format_rational(value)))
            else:
                pairs.append((f"config.{key}", str(value)))
        pairs.append(("config.format", self.fmt))
        return tuple(pairs)


def read_dense_operator(path: str | Path) -> Dense:
    """Parse the documented plain-text format into a dense operator."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MatrixFormatError(f"{path}: empty matrix file")
    try:
        n = int(lines[0])
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


def write_dense_operator(operator: Operator, path: str | Path) -> None:
    """Inverse of :func:`read_dense_operator`."""
    dense = materialize(operator)
    lines = [str(dense.dim)]
    for row in dense.entries:
        lines.append(" ".join(format_rational(e) for e in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_operator(spec: str, n: int) -> Operator:
    """Resolve an operator spec at dimension n; unknown specs are usage errors."""
    if n < 1:
        raise UsageError("dimension must be >= 1")
    if spec == "paper-t":
        return deflation_operator(n)
    if spec == "paper-k":
        return deflation_repair(n)
    if spec == "identity":
        return identity(n)
    if spec == "direct-sum":
        if n < 2:
            raise UsageError("direct-sum needs dimension >= 2")
        return direct_sum_operator(shifted_geometric_functional(n - 1))
    if spec.startswith("diagonal:"):
        body = spec[len("diagonal:") :]
        try:
            entries = [parse_rational(tok) for tok in body.split(",") if tok != ""]
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


def _corrupted_functional(n: int) -> Covector:
    # fault injection for testing the checker itself: break one coefficient
    return geometric_functional(n).replace_coeff(2, Fraction(1, 3))


def run_paper_check(n_max: int = 10, inject_fault: Optional[str] = None) -> tuple[Report, bool]:
    """The full exact regression over sections 2..n_max.

    Returns the per-check report and the overall verdict.  ``inject_fault``
    deliberately corrupts an ingredient so the checker's failure path stays
    tested: 'corrupt-f' bends one functional coefficient.
    """
    if n_max < 2:
        raise UsageError("the regression needs n_max >= 2")
    if inject_fault not in (None, "corrupt-f"):
        raise UsageError(f"unknown fault {inject_fault!r} (available: corrupt-f)")

    checks: list[tuple[str, bool, str, str]] = []

    def record(name: str, expected, actual) -> None:
        checks.append((name, expected == actual, str(expected), str(actual)))

    witnesses: list[Vector] = []
    for n in range(2, n_max + 1):
        if inject_fault == "corrupt-f":
            functional = _corrupted_functional(n)
        else:
            functional = geometric_functional(n)
        e1 = basis_vector(1, n)
        operator = add(identity(n), RankOne(-e1, functional))
        repair = RankOne(e1, functional)

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
# subcommand handlers


def _emit(source, cfg: RunConfig) -> None:
    text = emit_report(
        source,
        cfg.fmt,
        None,
        extra_header=cfg.header_pairs(),
        approx=cfg.approx,
        timestamp=cfg.timestamp,
    )
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        Path(cfg.out).write_text(text, encoding="utf-8")


def _cmd_paper_check(args) -> int:
    cfg = _config_from(args, command="paper-check", n_max=args.n_max, inject_fault=args.inject_fault)
    report, ok = run_paper_check(args.n_max, args.inject_fault)
    _emit(report, cfg)
    if not ok:
        failed = [row[0] for row in report.rows if row[1] == "fail"]
        print(f"paper-check: {len(failed)} check(s) failed: {', '.join(failed[:5])}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_minmod(args) -> int:
    _check_dimension_budget(args.n)
    cfg = _config_from(args, command="minmod", n=args.n, operator_spec=args.spec)
    operator = build_operator(args.spec, args.n)
    result = min_modulus_sup(operator, check_mirror=args.mirror_check)
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
        rows=tuple((k + 1, v) for k, v in enumerate(result.facet_values)),
    )
    _emit(report, cfg)
    return EXIT_OK


def _cmd_converge(args) -> int:
    cfg = _config_from(
        args,
        command="converge",
        n_min=args.n_min,
        n_max=args.n_max,
        lp_dimension_budget=args.lp_budget,
    )
    config = HarnessConfig(lp_dimension_budget=args.lp_budget)
    study = convergence_study(args.n_min, args.n_max, config=config)
    _emit(study, cfg)
    if study.partial:
        print(
            f"converge: stopped at the LP dimension budget {args.lp_budget} "
            f"(requested up to {args.n_max})",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_oracle(args) -> int:
    _check_dimension_budget(args.n)
    resolution = _parse_rational_arg(args.h, "h")
    cfg = _config_from(
        args,
        command="oracle",
        n=args.n,
        operator_spec=args.spec,
        resolution=resolution,
        point_budget=args.point_budget,
    )
    operator = build_operator(args.spec, args.n)
    result = brute_force_min(operator, resolution, point_budget=args.point_budget)
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
    _emit(report, cfg)
    return EXIT_OK


def _cmd_perturb(args) -> int:
    _check_dimension_budget(args.n)
    cfg = _config_from(args, command="perturb", n=args.n)
    family = c0_family(args.n)
    gain = perturbation_gain(family.operator, family.perturbation)
    header = (
        ("m_T", format_rational(gain.base)),
        ("m_TK", format_rational(gain.perturbed)),
        ("gain", format_rational(gain.gain)),
    )
    report = Report(
        kind="perturb",
        header=header,
        columns=("quantity", "value"),
        rows=(("m_T", gain.base), ("m_TK", gain.perturbed), ("gain", gain.gain)),
    )
    _emit(report, cfg)
    return EXIT_OK


def _cmd_search(args) -> int:
    _check_dimension_budget(args.n)
    budget = _parse_rational_arg(args.budget, "budget")
    cfg = _config_from(
        args,
        command="search",
        n=args.n,
        search_budget=budget,
        iterations=args.iterations,
        seed=args.seed,
    )
    outcome = rank_one_search(
        deflation_operator(args.n), budget, seed=args.seed, iterations=args.iterations
    )
    _emit(outcome, cfg)
    return EXIT_OK


def _check_dimension_budget(n: int) -> None:
    """Refuse a section above the LP dimension budget before anything is built."""
    if n > DEFAULT_CONFIG.lp_dimension_budget:
        raise BudgetExceededError(
            f"dimension {n} exceeds the LP dimension budget {DEFAULT_CONFIG.lp_dimension_budget}"
        )


def _parse_rational_arg(text: str, name: str) -> Rational:
    try:
        return parse_rational(text)
    except ValueError:
        raise UsageError(f"{name} must be an exact rational like 1/200, got {text!r}") from None


def _config_from(args, **fields) -> RunConfig:
    return RunConfig(
        fmt=args.format,
        out=args.out,
        approx=args.approx,
        timestamp=args.timestamp,
        **fields,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--approx", action="store_true", help="add labeled 12-place decimal columns")
    parser.add_argument("--timestamp", action="store_true", help="include a generation timestamp header")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmodlab",
        description="Exact minimum-modulus laboratory on sup-norm sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paper-check", help="run the fixed exact regression suite")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--inject-fault", default=None, help="test mode: corrupt an ingredient (corrupt-f)")
    _add_common(p)
    p.set_defaults(func=_cmd_paper_check)

    p = sub.add_parser("minmod", help="exact minimum modulus of an operator")
    p.add_argument("spec", help="paper-t | paper-k | identity | diagonal:a,b,... | direct-sum | matrix file")
    p.add_argument("n", type=int)
    p.add_argument("--mirror-check", action="store_true", help="also solve all sign -1 facets and verify symmetry")
    _add_common(p)
    p.set_defaults(func=_cmd_minmod)

    p = sub.add_parser("converge", help="per-section minimum moduli vs the closed form")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    p.add_argument("--lp-budget", type=int, default=DEFAULT_CONFIG.lp_dimension_budget)
    _add_common(p)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("oracle", help="certified sampling bracket, independent of the LP engine")
    p.add_argument("spec")
    p.add_argument("n", type=int)
    p.add_argument("h", help="resolution as an exact rational, e.g. 1/200")
    p.add_argument("--point-budget", type=int, default=DEFAULT_CONFIG.oracle_point_budget)
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("perturb", help="m(T), m(T+K), gain for the named construction")
    p.add_argument("n", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("search", help="seeded rank-one perturbation search on the named construction")
    p.add_argument("n", type=int)
    p.add_argument("--budget", default="1", help="norm cap for the perturbation (exact rational)")
    p.add_argument("--iterations", type=int, default=DEFAULT_CONFIG.search_iterations)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MatrixFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # parameter validation raised by the library (bad ranges, resolutions)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
