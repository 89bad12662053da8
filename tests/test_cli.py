"""The command-line surface: subcommands, exit codes, file formats, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import minmodlab
import minmodlab.harness
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
from minmodlab.constructions import deflation_operator
from minmodlab.linops import materialize


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


def test_paper_check_fault_injection_fails_loudly(capsys):
    # the whole failing report is pinned, so the fault path checks T = deflation(f) for a bent f
    code, out, err = run_cli(capsys, "paper-check", "--inject-fault", "corrupt-f")
    assert code == EXIT_CHECK_FAILED
    assert "# result=fail" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "5c88ba3e99be1c57a3d26d1457b11f074258e0141dda95710b67d8b56168eda6"
    )
    assert err == (
        "paper-check: 27 check(s) failed: functional-dual-norm[2], min-modulus-closed-form[2], "
        "minimizing-vector-value[2], functional-dual-norm[3], min-modulus-closed-form[3]\n"
    )


def test_paper_check_rejects_unknown_faults(capsys):
    code, _, err = run_cli(capsys, "paper-check", "--inject-fault", "corrupt-everything")
    assert code == EXIT_USAGE
    assert "unknown fault" in err


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


def test_diagonal_spec_validation(capsys):
    code, _, err = run_cli(capsys, "minmod", "diagonal:1,2,3", "2")
    assert code == EXIT_USAGE
    assert "expected 2" in err
    code, _, err = run_cli(capsys, "minmod", "diagonal:1,oops", "2")
    assert code == EXIT_USAGE


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

    # the facet LPs disagree with the inverse engine
    facet_minimum = minmodlab.minmod._facet_minimum
    with monkeypatch.context() as patch:
        patch.setattr(minmodlab.minmod, "_facet_minimum", lambda *args: facet_minimum(*args) + Fraction(1, 7))
        code, out, err = run_cli(capsys, "minmod", "paper-t", "3")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == "error: facet LPs give 5/7 and 5/7 on facet 1, the inverse gives 4/7\n"

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


# sha256 of stdout: the value-only reports as the facet-LP sweep produced them, which
# the inverse engine must reproduce byte for byte, and two oracle brackets as the
# Fraction box bounds produced them, which the integer box bounds must reproduce
# together with every evaluation count
_FROZEN_STDOUT = {
    ("converge", "2", "12"): "716dfd3502c74a0c3ce588f7a61850ee520d5fd87439fa7f971796462880c0da",
    ("converge", "2", "30"): "2514d8aba51ae1c37dcb3026b648f0b4332773cf9968d6758e77d3bf7c9c22cc",
    ("oracle", "direct-sum", "4", "1/64"): (
        "5bb49add2ad185282dacde5966b39480be4d178b52cbf55039d6912f7a8529c7"
    ),
    ("oracle", "paper-t", "5", "1/200"): (  # evaluations=2703
        "a0732bdfeda7a75041b9daaa7e534a5a90aff66e0de89470907a8aa636678f07"
    ),
    ("paper-check",): "34857da19598b9a48ba6d4bb1d0c98f641f7a2db86c5a4f8584ee9d9222e93ca",
    ("perturb", "6"): "b022312f29e28227ae73afa88786da277adda120740053145f5a2d3f29643f91",
    # a search that goes through a step-underflow restart
    ("search", "2", "--seed", "9", "--iterations", "200", "--budget", "1/2"): (
        "bf93679af3d48557668608fa9a2a17e951bd6906b874f19451acb50916ffd4d3"
    ),
}


@pytest.mark.parametrize("argv", sorted(_FROZEN_STDOUT))
def test_value_only_reports_are_frozen(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _FROZEN_STDOUT[argv]


# --- matrix files --------------------------------------------------------------


_T3_MATRIX_FILE = "3\n1 -1/2 -1/4\n0 1 0\n0 0 1\n"  # deflation_operator(3)


def test_matrix_file_round_trip(tmp_path, capsys):
    path = tmp_path / "t3.mat"
    path.write_text(_T3_MATRIX_FILE, encoding="utf-8")
    assert read_dense_operator(path).entries == materialize(deflation_operator(3)).entries

    code, out, _ = run_cli(capsys, "minmod", str(path), "3")
    assert code == EXIT_OK
    assert "# value=4/7" in out


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


def test_missing_matrix_file(capsys):
    code, _, err = run_cli(capsys, "minmod", "no/such/file.mat", "2")
    assert code == EXIT_IO
    assert "error" in err


def test_build_operator_direct(tmp_path):
    assert materialize(build_operator("direct-sum", 4)).entries == (
        materialize(build_operator("paper-t", 4)).entries
    )
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
    assert "budget" in err
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


def test_timestamp_is_opt_in(capsys):
    _, plain, _ = run_cli(capsys, "minmod", "paper-t", "2")
    assert "generated_at" not in plain
    _, stamped, _ = run_cli(capsys, "minmod", "paper-t", "2", "--timestamp")
    assert "generated_at" in stamped


def test_argparse_usage_errors(capsys):
    assert run_cli(capsys, )[0] == EXIT_USAGE
    assert run_cli(capsys, "no-such-command")[0] == EXIT_USAGE
    assert run_cli(capsys, "minmod", "paper-t", "two")[0] == EXIT_USAGE


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
    st.sampled_from(["", "-", "1.5", "x", "1/-2", "0x1"]),
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
        argv = ["--n-max", n()] + optional("--inject-fault", draw(st.sampled_from(["corrupt-f", "bogus"])))
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


def test_module_entry_point_runs():
    # the subprocess imports the package under test, not whatever minmodlab the environment provides
    src = Path(minmodlab.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "minmodlab", "minmod", "paper-t", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == EXIT_OK
    assert "# value=2/3" in proc.stdout
