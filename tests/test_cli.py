"""The command-line surface: subcommands, exit codes, file formats, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import random
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import minmodlab
import minmodlab.constructions
import minmodlab.harness
import minmodlab.lpsolve
import minmodlab.minmod
from minmodlab.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    build_operator,
    build_parser,
    main,
    read_dense_operator,
)
from minmodlab.constructions import deflation_operator, deflation_repair
from minmodlab.exactnum import Covector
from minmodlab.linops import materialize
from minmodlab.lpsolve import LPResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- paper-check -------------------------------------------------------------


def test_paper_check_passes_and_reports_every_section(capsys):
    code, out, err = run_cli(capsys, "paper-check")
    assert code == EXIT_OK
    assert "# result=pass" in out
    assert "min-modulus-closed-form[10],pass,512/1023,512/1023" in out
    assert "weak-null-basis-family,pass" in out
    assert err == ""


def test_paper_check_fault_injection_fails_loudly(capsys, monkeypatch):
    # bend one coefficient of f, so T and K are built from the bent f; the whole failing report is pinned
    geometric = minmodlab.constructions.geometric_functional
    monkeypatch.setattr(
        minmodlab.constructions, "geometric_functional",
        lambda n: Covector((0, Fraction(1, 3)) + geometric(n).coeffs[2:]),
    )
    code, out, err = run_cli(capsys, "paper-check")
    assert code == EXIT_CHECK_FAILED
    assert "# result=fail" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b1a1571651324a1c6bd508032e333b92c0d59c613eedd75db9564f82f890d7fb"
    )
    assert err == (
        "paper-check: 27 check(s) failed: functional-dual-norm[2], min-modulus-closed-form[2], "
        "minimizing-vector-value[2], functional-dual-norm[3], min-modulus-closed-form[3]\n"
    )


def test_paper_check_rejects_unknown_faults(capsys):
    # fault injection lives in the tests; the command has no such option
    code, out, err = run_cli(capsys, "paper-check", "--inject-fault", "corrupt-f")
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --inject-fault corrupt-f" in err and "Traceback" not in err


def test_paper_check_needs_a_real_range(capsys):
    code, _, _ = run_cli(capsys, "paper-check", "--n-max", "1")
    assert code == EXIT_USAGE


# --- minmod ------------------------------------------------------------------


def test_minmod_on_the_deflation(capsys):
    code, out, _ = run_cli(capsys, "minmod", "paper-t", "2")
    assert code == EXIT_OK
    assert "# value=2/3" in out
    assert "# witness=1 2/3" in out
    assert "# facet=1" in out
    lines = out.strip().splitlines()
    assert lines[-2:] == ["1,2/3", "2,1"]


def test_minmod_on_the_identity(capsys):
    code, out, _ = run_cli(capsys, "minmod", "identity", "7")
    assert code == EXIT_OK
    assert "# value=1" in out


def test_minmod_mirror_check_agrees(capsys):
    code_plain, out_plain, _ = run_cli(capsys, "minmod", "paper-t", "3")
    code_checked, out_checked, _ = run_cli(capsys, "minmod", "paper-t", "3", "--mirror-check")
    assert code_plain == code_checked == EXIT_OK
    # the extra verification changes nothing about the report
    assert out_plain == out_checked


def test_minmod_diagonal_spec(capsys):
    code, out, _ = run_cli(capsys, "minmod", "diagonal:2,3", "2")
    assert code == EXIT_OK
    assert "# value=2" in out
    assert out.strip().splitlines()[-2:] == ["1,2", "2,3"]


def test_minmod_is_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "minmod", "paper-t", "4")
    _, second, _ = run_cli(capsys, "minmod", "paper-t", "4")
    assert first == second


def test_unknown_spec_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "minmod", "paper-q", "3")
    assert code == EXIT_USAGE
    assert "unknown operator spec" in err
    code, out, err = run_cli(capsys, "minmod", "direct-sum", "1")
    assert (code, out, err) == (EXIT_USAGE, "", "error: direct-sum needs dimension >= 2\n")


def test_diagonal_spec_validation(capsys):
    code, _, err = run_cli(capsys, "minmod", "diagonal:1,2,3", "2")
    assert code == EXIT_USAGE
    assert "expected 2" in err
    code, _, err = run_cli(capsys, "minmod", "diagonal:1,oops", "2")
    assert code == EXIT_USAGE
    code, out, err = run_cli(capsys, "minmod", "diagonal:\u0662,1", "2")  # an Arabic-Indic two
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: bad diagonal entry: not an exact rational literal")
    for spec in ("diagonal:1,,2", "diagonal:1,2,", "diagonal:,1,2"):  # an empty entry is no entry to skip
        code, out, err = run_cli(capsys, "minmod", spec, "2")
        assert (code, out, err) == (EXIT_USAGE, "", "error: bad diagonal entry: not an exact rational literal: ''\n")


def test_zero_denominators_are_rejected_cleanly(tmp_path, capsys):
    code, _, err = run_cli(capsys, "minmod", "diagonal:1,1/0", "2")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    code, _, err = run_cli(capsys, "oracle", "paper-t", "3", "1/0")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    path = tmp_path / "div0.mat"
    path.write_text("2\n1 1/0\n0 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "minmod", str(path), "2")
    assert code == EXIT_IO
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'1/0'" in err


def test_dimension_budget_is_checked_before_building(capsys):
    for argv in (
        ("minmod", "paper-t", "65"),
        ("search", "65", "--seed", "1"),
        ("perturb", "65"),
        ("oracle", "paper-t", "65", "1/2"),
        ("paper-check", "--n-max", "65"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_BUDGET
        assert out == ""
        assert err == "error: dimension 65 exceeds the dimension budget 64\n"


def test_internal_errors_exit_1_with_one_line(monkeypatch, capsys):
    with monkeypatch.context() as patch:
        patch.setattr(minmodlab.harness, "closed_form_min_modulus", lambda n: Fraction(0))
        code, out, err = run_cli(capsys, "converge", "2", "4")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err.startswith("error: m at N=2") and err.count("\n") == 1
    assert "Traceback" not in err

    solve = minmodlab.minmod.solve

    def raised(selected):
        """``solve`` with the value 1/7 higher on the programs ``selected`` picks."""
        def wrapper(lp):
            result = solve(lp)
            return LPResult(result.value + Fraction(1, 7), result.point) if selected(lp) else result

        return wrapper

    # the facet LPs disagree with the inverse engine
    with monkeypatch.context() as patch:
        patch.setattr(minmodlab.minmod, "solve", raised(lambda lp: True))
        code, out, err = run_cli(capsys, "minmod", "paper-t", "3")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == "error: facet LPs give 5/7 and 5/7 on facet 1, the inverse gives 4/7\n"

    # a mirror facet, x_k fixed at -1, disagrees with its facet
    with monkeypatch.context() as patch:
        patch.setattr(minmodlab.minmod, "solve", raised(lambda lp: (-1, -1) in zip(lp.lower, lp.upper)))
        code, out, err = run_cli(capsys, "minmod", "paper-t", "3", "--mirror-check")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == "error: internal: facet 1 mirror asymmetry (4/7 vs 5/7)\n"

    def doubled(function):
        def wrapper(*args):
            inverse, d = function(*args)
            return [[2 * m for m in row] for row in inverse], d

        return wrapper

    # a wrong elimination fails the integer certificate before any value is read
    eliminate = minmodlab.minmod._fraction_free_inverse
    with monkeypatch.context() as patch:
        patch.setattr(minmodlab.minmod, "_fraction_free_inverse", doubled(eliminate))
        code, out, err = run_cli(capsys, "minmod", "paper-t", "3")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == "error: internal: the inverse failed its certificate A M = d diag(D)\n"

    # a wrong rank-one update yields a proposal witness that fails re-verification
    update = minmodlab.minmod._rank_one_update
    with monkeypatch.context() as patch:
        patch.setattr(minmodlab.minmod, "_rank_one_update", doubled(update))
        code, out, err = run_cli(capsys, "search", "4", "--seed", "1")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == "error: internal: minimum-modulus witness failed re-verification\n"
    assert "Traceback" not in err


def test_a_simplex_point_that_violates_a_row_exits_1(monkeypatch, capsys):
    # the upper corner is inside every bound but outside facet 1's first row
    monkeypatch.setattr(minmodlab.lpsolve, "_corner_simplex", lambda lp: tuple(lp.upper))
    assert run_cli(capsys, "minmod", "paper-t", "3") == (
        EXIT_CHECK_FAILED, "", "error: internal: solution violates constraint 1\n"
    )


# sha256 of stdout: the value-only reports as the facet-LP sweep produced them, which
# the inverse engine must reproduce byte for byte, and two oracle brackets as the
# Fraction box bounds produced them, which the integer box bounds must reproduce
# together with every evaluation count
_FROZEN_STDOUT = {
    ("converge", "2", "12"): "716dfd3502c74a0c3ce588f7a61850ee520d5fd87439fa7f971796462880c0da",
    ("converge", "2", "30"): "2514d8aba51ae1c37dcb3026b648f0b4332773cf9968d6758e77d3bf7c9c22cc",
    ("converge", "2", "64"): "e88664f12d23001d8da66b9b60c96975f8d39a67fc2a677f8b1d14f1a565b60e",  # the default cap
    ("oracle", "direct-sum", "4", "1/64"): (
        "5bb49add2ad185282dacde5966b39480be4d178b52cbf55039d6912f7a8529c7"
    ),
    ("oracle", "paper-t", "5", "1/200"): (  # evaluations=2703
        "a0732bdfeda7a75041b9daaa7e534a5a90aff66e0de89470907a8aa636678f07"
    ),
    # paper-k, the one spec that names a rank-one K, expanded to its matrix
    ("minmod", "paper-k", "4"): "f9fc999a2793a8c847ffc6d6665d5f002f9e5d627d287fb4a2997804507c338a",
    ("oracle", "paper-k", "4", "1/64"): (
        "cde88fa3a3568dff8b89acb7b0efdb359e1b5531fb1201bf8aa8304a549f1786"
    ),
    ("paper-check",): "34857da19598b9a48ba6d4bb1d0c98f641f7a2db86c5a4f8584ee9d9222e93ca",
    ("perturb", "6"): "b022312f29e28227ae73afa88786da277adda120740053145f5a2d3f29643f91",
    # a search that goes through a step-underflow restart
    ("search", "2", "--seed", "9", "--iterations", "200", "--budget", "1/2"): (
        "bf93679af3d48557668608fa9a2a17e951bd6906b874f19451acb50916ffd4d3"
    ),
    # a zero budget runs no iterations: the report says iterations=0 under config.iterations=200
    ("search", "3", "--seed", "1", "--budget", "0"): (
        "b7a1db16d5cdcdf0ff80fab7ca575de55cc84caeb14ee3487ef4bea2a85ef303"
    ),
}


@pytest.mark.parametrize("argv", sorted(_FROZEN_STDOUT))
def test_value_only_reports_are_frozen(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _FROZEN_STDOUT[argv]


def test_the_paper_scale_ladder_is_frozen(capsys):
    # 255 sections up to N = 256, read off their rank-one capacitances; this digest was taken when
    # every section came off a full elimination of the deflation's integer rows
    code, out, err = run_cli(capsys, "converge", "2", "256", "--lp-budget", "256")
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "a3f081178778548c176e1036e3c13597efe5a649ff365e18e66eea73956a92b5"
    )


# --- matrix files --------------------------------------------------------------


_T3_MATRIX_FILE = "3\n1 -1/2 -1/4\n0 1 0\n0 0 1\n"  # deflation_operator(3)


def test_matrix_file_round_trip(tmp_path, capsys):
    path = tmp_path / "t3.mat"
    path.write_text(_T3_MATRIX_FILE, encoding="utf-8")
    assert read_dense_operator(path).entries == deflation_operator(3).entries

    code, out, _ = run_cli(capsys, "minmod", str(path), "3")
    assert code == EXIT_OK
    assert "# value=4/7" in out


def test_matrix_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "t3.mat"
    path.write_text(_T3_MATRIX_FILE, encoding="utf-8")
    plain = run_cli(capsys, "minmod", str(path), "3")
    path.write_text(_T3_MATRIX_FILE, encoding="utf-8-sig")  # "UTF-8 with BOM"
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run_cli(capsys, "minmod", str(path), "3") == plain
    assert plain[0] == EXIT_OK

    # a bad byte after the mark is still reported at its offset in the file
    path.write_bytes(b"\xef\xbb\xbf3\n\xff")
    code, out, err = run_cli(capsys, "minmod", str(path), "3")
    assert (code, out, err) == (EXIT_IO, "", f"error: {path}: not UTF-8 text (invalid start byte at byte 5)\n")


def test_matrix_file_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "t3.mat"
    path.write_text(_T3_MATRIX_FILE, encoding="utf-8")
    code, _, err = run_cli(capsys, "minmod", str(path), "4")
    assert code == EXIT_USAGE
    assert "3-dimensional" in err


def test_malformed_matrix_file(tmp_path, capsys):
    path = tmp_path / "bad.mat"
    path.write_text("2\n1 0\n0.5 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "minmod", str(path), "2")
    assert code == EXIT_IO
    assert "row 2" in err

    path.write_text("2\n1 0\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "minmod", str(path), "2")
    assert code == EXIT_IO

    path.write_bytes(b"\xff\xfe\x00")
    code, _, err = run_cli(capsys, "minmod", str(path), "2")
    assert code == EXIT_IO
    assert err.startswith("error:") and err.count("\n") == 1

    # each malformed file is one error line that names the file, and the row of a bad row
    cases = [("", "empty matrix file"), ("\n  \n\t\n", "empty matrix file"),
             ("two\n1 0\n0 1\n", "first line must be the dimension"),
             ("0\n", "dimension must be >= 1, got 0"), ("-2\n1 0\n0 1\n", "dimension must be >= 1, got -2"),
             ("2\n1 0\n0 1 0\n", "row 2 has 3 entries, expected 2")]
    # int() alone reads each of these dimension lines as 2: an underscore, Arabic-Indic and fullwidth digits
    cases += [(f"{dim}\n1 0\n0 1\n", "first line must be the dimension") for dim in ("0_2", "\u0662", "\uff12")]
    if hasattr(sys, "get_int_max_str_digits"):  # a dimension line past the interpreter's digit limit
        cases.append((f"{'2' * (sys.get_int_max_str_digits() + 1)}\n", "first line must be the dimension"))
    for text, message in cases:
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "minmod", str(path), "2")
        assert (code, out) == (EXIT_IO, "")
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1


def test_missing_matrix_file(capsys):
    code, _, err = run_cli(capsys, "minmod", "no/such/file.mat", "2")
    assert code == EXIT_IO
    assert "error" in err


def test_build_operator_direct(tmp_path):
    assert build_operator("direct-sum", 4).entries == build_operator("paper-t", 4).entries
    assert build_operator("paper-k", 3) == materialize(deflation_repair(3))
    assert build_operator("identity", 2).dim == 2


# --- converge ------------------------------------------------------------------


def test_converge_reports_the_frozen_values(capsys):
    code, out, err = run_cli(capsys, "converge", "2", "5")
    assert code == EXIT_OK
    assert err == ""
    assert "5,16/31,16/31," in out
    assert "# partial=false" in out


def test_converge_budget_exit(capsys):
    code, out, err = run_cli(capsys, "converge", "2", "9", "--lp-budget", "4")
    assert code == EXIT_BUDGET
    assert "# partial=true" in out
    assert "4,8/15" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b66876b4c935170d3e51708eca141a254d5ec922967964bd08f2757dd9e07fee"
    )
    assert err == "converge: stopped at the dimension budget 4 (requested up to 9)\n"
    for budget in ("0", "-1"):
        code, out, err = run_cli(capsys, "converge", "2", "3", "--lp-budget", budget)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: the dimension budget must be at least 1\n"


def test_converge_bad_range(capsys):
    code, _, _ = run_cli(capsys, "converge", "1", "5")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "converge", "5", "2")
    assert code == EXIT_USAGE


# --- oracle --------------------------------------------------------------------


def test_oracle_on_the_identity(capsys):
    code, out, _ = run_cli(capsys, "oracle", "identity", "3", "1/4")
    assert code == EXIT_OK
    assert "# upper=1" in out
    assert "# lower=1" in out
    assert out.strip().splitlines()[-2:] == ["upper,1", "lower,1"]


def test_oracle_budget_exit(capsys):
    code, _, err = run_cli(capsys, "oracle", "paper-t", "4", "1/200", "--point-budget", "10")
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_oracle_rejects_non_rational_resolution(capsys):
    code, _, err = run_cli(capsys, "oracle", "identity", "2", "0.005")
    assert code == EXIT_USAGE
    assert "exact rational" in err
    code, _, _ = run_cli(capsys, "oracle", "identity", "2", "0")
    assert code == EXIT_USAGE


def _huge_entry(rng: random.Random) -> str:
    # 1,500 digits over 1,500 digits: each part parses under the interpreter's 4,300-digit limit
    return f"{rng.randrange(10**1499, 10**1500)}/{rng.randrange(10**1499, 10**1500)}"


def test_huge_exact_results_are_reported_not_refused(tmp_path, capsys):
    # the bracket's numerators pass the int-to-str digit limit; output lifts it, parsing keeps it
    rng = random.Random(1)
    path = tmp_path / "huge.mat"
    path.write_text("3\n" + "".join(" ".join(_huge_entry(rng) for _ in range(3)) + "\n" for _ in range(3)))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run_cli(capsys, "oracle", str(path), "3", "1/2", "--point-budget", "50")
    assert (code, err) == (EXIT_OK, "")
    upper = next(ln for ln in out.splitlines() if ln.startswith("# upper="))
    assert len(upper) > 4300 and "/" in upper
    assert out.splitlines()[-2].startswith("upper," + upper[len("# upper="):])
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
        path.write_text(f"1\n{10**4000}{10**999}\n")  # one 5,001-digit entry
        code, out, err = run_cli(capsys, "minmod", str(path), "1")
        assert (code, out) == (EXIT_IO, "")
        assert "row 1" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_an_entry_past_the_digit_limit_is_named(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "m.txt"
    path.write_text(f"1\n{'7' * (limit + 701)}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "minmod", str(path), "1")
    assert (code, out) == (EXIT_IO, "")
    assert err == (
        f"error: {path}: row 1: an entry of {limit + 701} digits is too long for the lab's parser, "
        f"whose limit is {limit} digits\n"
    )
    assert "set_int_max_str_digits" not in err


# --- perturb -------------------------------------------------------------------


def test_perturb_reports_the_gain(capsys):
    code, out, _ = run_cli(capsys, "perturb", "6")
    assert code == EXIT_OK
    assert "# m_T=32/63" in out
    assert "# m_TK=1" in out
    assert "# gain=31/63" in out


def test_perturb_needs_a_tail(capsys):
    code, _, _ = run_cli(capsys, "perturb", "1")
    assert code == EXIT_USAGE


# --- search --------------------------------------------------------------------


def test_search_is_deterministic_end_to_end(capsys):
    args = ("search", "2", "--seed", "3", "--iterations", "8")
    code, first, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    assert "# config.seed=3" in first
    assert "# base_value=2/3" in first
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_search_requires_a_seed(capsys):
    code, _, _ = run_cli(capsys, "search", "2")
    assert code == EXIT_USAGE


# --- shared emission options -----------------------------------------------------


def test_report_header_echoes_the_parsed_arguments(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("$ minmodlab minmod paper-t 3\n", 1)[1].split("```", 1)[0]
    code, out, _ = run_cli(capsys, "minmod", "paper-t", "3")
    assert code == EXIT_OK
    assert out == example

    cases = {
        ("oracle", "paper-t", "3", "1/16", "--point-budget", "1000"): [
            "n=3", "operator_spec=paper-t", "resolution=1/16", "point_budget=1000", "format=csv",
        ],
        ("search", "3", "--seed", "2", "--iterations", "4", "--budget", "1/2"): [
            "n=3", "search_budget=1/2", "iterations=4", "seed=2", "format=csv",
        ],
        ("converge", "2", "4", "--lp-budget", "3"): [
            "n_min=2", "n_max=4", "lp_dimension_budget=3", "format=csv",
        ],
    }
    for argv, expected in cases.items():
        _, out, _ = run_cli(capsys, *argv)
        assert f"# command={argv[0]}\n" in out
        echoed = [ln[len("# config."):] for ln in out.splitlines() if ln.startswith("# config.")]
        assert echoed == expected


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    assert "c0_family" in example
    exec(compile(example, "README.md", "exec"), {})


def test_out_writes_the_report_to_a_file(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "minmod", "paper-t", "2", "--out", str(out_path))
    assert code == EXIT_OK
    assert out == ""
    text = out_path.read_text(encoding="utf-8")
    assert "# value=2/3" in text


def test_out_to_an_unwritable_path_is_an_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "minmod", "paper-t", "2", "--out", str(tmp_path))
    assert code == EXIT_IO
    assert "error" in err


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "minmod", "paper-t", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["kind"] == "minmod"
    assert payload["header"]["value"] == "2/3"
    assert payload["rows"][0] == [1, "2/3"]


def test_approx_columns(capsys):
    code, out, _ = run_cli(capsys, "minmod", "paper-t", "2", "--approx")
    assert code == EXIT_OK
    assert "facet_value_approx12" in out
    assert "0.666666666667" in out


_HUGE = "1" + "0" * 50


@pytest.mark.parametrize("argv, column, last_cells", [
    # gap = 1/(2 (2^N - 1)) falls below 10^-6 from N = 19 on
    (("converge", "2", "22"), "gap", ["0.000000953676", "0.000000476838", "0.000000238419", "0.000000119209"]),
    (("minmod", "paper-k", "3"), "facet_value", ["0.000000000000", "0.250000000000", "0.000000000000"]),
    (("minmod", f"diagonal:{_HUGE}", "1"), "facet_value", [_HUGE + ".000000000000"]),
    (("oracle", f"diagonal:{_HUGE}", "1", "1/4"), "value", [_HUGE + ".000000000000"] * 2),
])
def test_approx_cells_are_fixed_point_at_any_magnitude(capsys, argv, column, last_cells):
    code, out, err = run_cli(capsys, *argv, "--approx")
    assert (code, err) == (EXIT_OK, "")
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    index = lines[0].split(",").index(column + "_approx12")
    assert [line.split(",")[index] for line in lines[1:]][-len(last_cells):] == last_cells


def test_timestamp_is_opt_in(capsys):
    _, plain, _ = run_cli(capsys, "minmod", "paper-t", "2")
    assert "generated_at" not in plain
    _, stamped, _ = run_cli(capsys, "minmod", "paper-t", "2", "--timestamp")
    assert "generated_at" in stamped


def test_argparse_usage_errors(capsys):
    assert run_cli(capsys, )[0] == EXIT_USAGE
    assert run_cli(capsys, "no-such-command")[0] == EXIT_USAGE
    assert run_cli(capsys, "minmod", "paper-t", "two")[0] == EXIT_USAGE


def test_integer_arguments_are_ascii_digits(capsys):
    # int() alone reads each of these as 2, 12, 3 and 1000: an Arabic-Indic two, an underscore, a fullwidth three
    for argv, name, text in [
        (("minmod", "paper-t", "\u0662"), "n", "\u0662"),
        (("converge", "2", "1_2"), "n_max", "1_2"),
        (("search", "3", "--seed", "\uff13"), "--seed", "\uff13"),
        (("oracle", "paper-t", "3", "1/8", "--point-budget", "1_000"), "--point-budget", "1_000"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.endswith(f"error: argument {name}: invalid int value: {text!r}\n"), argv
    for n in ("+3", "03", " 3 "):  # a sign, a leading zero and surrounding whitespace stay allowed
        code, out, err = run_cli(capsys, "minmod", "paper-t", n)
        assert (code, err) == (EXIT_OK, "") and "# config.n=3\n" in out


def test_help_exits_cleanly(capsys):
    assert run_cli(capsys, "--help")[0] == EXIT_OK


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


# --- the whole argument grammar ----------------------------------------------------
# Small sizes keep each invocation cheap: dimensions up to 5 (plus 65, which the
# dimension budget rejects before any work), h >= 1/8, few oracle boxes and
# search iterations, converge sections up to 6.

_DIMENSIONS = st.sampled_from([-2, -1, 0, 1, 2, 3, 4, 5, 65])
_TOKENS = st.one_of(
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9)),  # includes p/0
    st.integers(-9, 9).map(str),
    st.sampled_from(["", "-", "1.5", "x", "1/-2", "0x1", str(10**49)]),  # 50 digits, for --approx
    st.sampled_from(["\u0662", "1_2", "\uff13"]),  # int() reads these: an Arabic-Indic two, 12, a fullwidth three
)
_RESOLUTIONS = st.one_of(
    st.builds("{}/{}".format, st.integers(1, 9), st.integers(1, 8)),  # parses to h >= 1/8
    st.sampled_from(["0", "-1/4", "1/0", "h", ""]),
)
_SPECS = st.one_of(
    st.sampled_from(["paper-t", "paper-k", "identity", "direct-sum", "nope", "absent.mat"]),
    st.just("matrix-file"),  # its own branch, so a third of the specs are file bodies
    st.lists(_TOKENS, max_size=6).map(lambda tokens: "diagonal:" + ",".join(tokens)),
)
_MATRIX_BODIES = st.one_of(
    st.builds(
        lambda dim, rows: "\n".join([dim] + [" ".join(row) for row in rows]).encode(),
        st.sampled_from(["1", "2", "3", "0", "-1", "x", ""]),
        st.lists(st.lists(_TOKENS, max_size=4), max_size=4),
    ),
    st.just(b"\xff\xfe\x00"),
)


def _draw_argv(draw, tmp_path):
    def spec():
        name = draw(_SPECS)
        if name == "matrix-file":
            path = tmp_path / "operator.mat"
            path.write_bytes(draw(_MATRIX_BODIES))
            return str(path)
        return str(tmp_path / name) if name.endswith(".mat") else name

    def n():
        return str(draw(_DIMENSIONS))

    def optional(*argv):
        return list(argv) if draw(st.booleans()) else []

    command = draw(st.sampled_from(["paper-check", "minmod", "converge", "oracle", "perturb", "search"]))
    if command == "paper-check":
        argv = ["--n-max", n()]
    elif command == "minmod":
        argv = [spec(), n()] + optional("--mirror-check")
    elif command == "converge":
        argv = [str(draw(st.integers(-2, 6))), str(draw(st.integers(-2, 6)))]
        argv += optional("--lp-budget", str(draw(st.integers(-1, 6))))
    elif command == "oracle":
        argv = [spec(), n(), draw(_RESOLUTIONS), "--point-budget", str(draw(st.integers(-1, 2000)))]
    elif command == "perturb":
        argv = [n()]
    else:
        argv = [n(), "--seed", str(draw(st.integers(0, 9))), "--iterations", str(draw(st.integers(-1, 6)))]
        argv += optional("--budget", draw(_TOKENS))
    argv += optional("--format", "json") + optional("--approx")
    argv += optional("--out", str(tmp_path / draw(st.sampled_from(["report.csv", "missing/report.csv"]))))
    return [command] + argv


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_invocation_exits_in_the_contract(tmp_path, capsys, data):
    argv = _draw_argv(data.draw, tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_BUDGET, EXIT_IO), argv
    assert "Traceback" not in err, argv


def test_module_entry_point_runs(monkeypatch, capsys):
    # the subprocess imports the package under test, not whatever minmodlab the environment provides
    src = Path(minmodlab.__file__).resolve().parent.parent

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "minmodlab", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )

    proc = run("perturb", "3")
    assert (proc.returncode, proc.stdout) == run_cli(capsys, "perturb", "3")[:2]
    assert proc.returncode == EXIT_OK
    assert run("perturb", "x").returncode == EXIT_USAGE

    # the same __main__ in-process: console_main hands main's code to sys.exit
    monkeypatch.setattr(sys, "argv", ["minmodlab", "perturb", "x"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("minmodlab", run_name="__main__")
    assert exc.value.code == EXIT_USAGE
    assert "invalid int value: 'x'" in capsys.readouterr().err
