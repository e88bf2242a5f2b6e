"""End-to-end tests of the command line front end: exit codes, JSON
shape, determinism, config-file handling."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from drinfeld import cli
from drinfeld.errors import ConfigError
from drinfeld.laurent import SeriesParams
from drinfeld.ff import FieldParams
from drinfeld.verify import preset_session


def run_cli(*args, config_text=None, tmp_path=None):
    argv = [sys.executable, "-m", "drinfeld.cli", *args]
    if config_text is not None:
        path = tmp_path / "session.conf"
        path.write_text(config_text)
        argv += ["--config", str(path)]
    return subprocess.run(argv, capture_output=True, text=True)


def json_lines(proc):
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_partitions_2_2():
    proc = run_cli("partitions", "2", "2")
    assert proc.returncode == 0
    lines = json_lines(proc)
    assert len(lines) == 3  # two partitions plus the summary
    assert lines[-1]["count"] == 2
    assert lines[-1]["recurrence"] == 2
    assert lines[-1]["match"] is True
    for row in lines[:-1]:
        assert row["r"] == 2 and row["n"] == 2


def test_partitions_support_filter():
    proc = run_cli("partitions", "3", "4", "--support", "1")
    assert proc.returncode == 0
    rows = json_lines(proc)
    for row in rows[:-1]:
        assert row["sets"][1] == [] and row["sets"][2] == []


def test_verify_preset_scorecard_exit_0():
    proc = run_cli("verify", "--preset", "carlitz-q2")
    assert proc.returncode == 0
    rows = json_lines(proc)
    assert rows[-1] == {"pass": True, "preset": "carlitz-q2"}
    names = {r["check"] for r in rows[:-1]}
    assert "main-theorem" in names and "omega-twist" in names


def test_verify_unknown_preset_exit_2():
    proc = run_cli("verify", "--preset", "nope")
    assert proc.returncode == 2
    assert "preset" in proc.stderr


def test_legendre_gate_failure_exit_3_names_gate():
    # deg j = (q+1) deg A - deg B = 6 with A = theta^2, violating < q^2
    proc = run_cli("legendre", "--preset", "rank2-q2", "--A", "0,0,1;1")
    assert proc.returncode == 3
    assert "j-invariant" in proc.stderr
    assert "q^2" in proc.stderr


def test_period_ramification_exit_3_names_m():
    proc = run_cli("period", "--preset", "rank3-q2")
    assert proc.returncode == 3
    assert "enlarge m to 7" in proc.stderr


def test_mainthm_shift_precondition_exit_3():
    proc = run_cli("verify-mainthm", "--preset", "carlitz-q2",
                   "--xi", "theta")
    assert proc.returncode == 3
    assert "smaller absolute value" in proc.stderr


def test_missing_xi_exit_2():
    proc = run_cli("deform", "--preset", "carlitz-q2")
    assert proc.returncode == 2


def test_rank_guard_exit_2():
    proc = run_cli("legendre", "--preset", "carlitz-q2")
    assert proc.returncode == 2


def test_bad_flag_exit_2():
    proc = run_cli("coeffs", "3", "--route", "bogus")
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [("coeffs", "-1"), ("bseq", "-2")])
def test_negative_index_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "n must be a non-negative integer" in proc.stderr


@pytest.mark.parametrize("args,needle", [
    (("partitions", "2", "3", "--support", "a"), "'a'"),
    (("partitions", "2", "3", "--support", "1,,2"), "'1,,2'"),
    (("partitions", "2", "3", "--support", "5"), "'5'"),
    (("partitions", "2", "3", "--support", "0"), "'0'"),
    (("verify", "--full", "--preset", "nope"), "'nope'"),
])
def test_bad_value_exit_2_names_it(args, needle):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: ")
    assert needle in proc.stderr
    if "--support" in args:
        assert "rows in 1..2" in proc.stderr


@pytest.mark.parametrize("args", [
    ("coeffs", "2", "--ucap", "0"),
    ("deform", "--xi", "1", "--ucap", "0"),
    ("verify", "--preset", "carlitz-q2", "--ucap", "0"),
])
def test_zero_ucap_exit_2_names_ucap(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "ucap must be a positive integer" in proc.stderr
    assert "prec must" not in proc.stderr


# (argv, exit code, stderr needle): an identity check on an empty
# t-window checks nothing, so it is refused; the commands that only
# compute a series still accept --tprec 0.  A negative n names no list
# of partitions or coefficients, so every command that takes n refuses it.
# --rank without --A is checked against the default A, one polynomial.
EXIT_CODES = [
    (("verify-mainthm", "--xi", "1", "--tprec", "0"), 2,
     "t_prec must be >= 1"),
    (("verify-mainthm", "--xi", "1", "--tprec", "-3"), 2,
     "t_prec must be >= 1"),
    (("legendre", "--preset", "rank2-q2", "--tprec", "0"), 2,
     "t_prec must be >= 1"),
    (("verify", "--preset", "rank2-q2", "--tprec", "0"), 2,
     "t_prec must be >= 1"),
    (("verify", "--preset", "carlitz-q2", "--tprec", "0"), 2,
     "t_prec must be >= 1"),
    (("deform", "--xi", "1", "--tprec", "0"), 0, ""),
    (("agf", "--xi", "1", "--tprec", "0"), 0, ""),
    (("bseq", "3", "--tprec", "0"), 0, ""),
    (("partitions", "2", "-1"), 2, "n must be a non-negative integer, got -1"),
    (("partitions", "1", "-7", "--support", "1"), 2,
     "n must be a non-negative integer, got -7"),
    (("coeffs", "-1"), 2, "n must be a non-negative integer, got -1"),
    (("bseq", "-2"), 2, "n must be a non-negative integer, got -2"),
    (("partitions", "2", "0"), 0, ""),
    (("coeffs", "2", "--rank", "3"), 2,
     "rank 3 does not match 1 coefficient polynomials"),
    (("agf", "--rank", "0", "--xi", "1"), 2,
     "rank 0 does not match 1 coefficient polynomials"),
]


@pytest.mark.parametrize("args,code,needle", EXIT_CODES)
def test_exit_code_table(args, code, needle):
    proc = run_cli(*args)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert needle in proc.stderr
    if code:
        assert proc.stdout == ""
        assert proc.stderr.startswith("config error: ")


@pytest.mark.parametrize("terms", ["-1", "-5"])
def test_negative_terms_exit_2_names_terms(terms):
    proc = run_cli("quasiperiod", "--preset", "rank2-q2", "--terms", terms)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "terms must be >= 0" in proc.stderr


def test_coeffs_check_q5_depth_8():
    """The composition check at depth 8 over F_5 runs to the end."""
    proc = run_cli("coeffs", "8", "--q", "5", "--check")
    assert proc.returncode == 0
    assert json_lines(proc)[-1] == {"compose_check": True}


def test_coeffs_check_q5_recurrence_depth_7():
    """The functional-equation check on the recurrence route at depth 7
    over F_5 runs to the end; its lifts include numerators above the
    factor-by-factor threshold."""
    proc = run_cli("coeffs", "7", "--q", "5", "--check", "--route",
                   "recurrence")
    assert proc.returncode == 0
    assert json_lines(proc)[-1] == {"compose_check": True}


def test_zero_m_names_m():
    proc = run_cli("coeffs", "2", "--m", "0")
    assert proc.returncode == 2
    assert "m must be a positive integer" in proc.stderr


@pytest.mark.parametrize("s", ["0", "-1"])
def test_nonpositive_s_exit_2_names_s(s):
    proc = run_cli("coeffs", "2", "--s", s)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "s must be >= 1" in proc.stderr


def test_preset_session_rejects_nonpositive_s():
    with pytest.raises(ConfigError, match="s must be >= 1"):
        preset_session("carlitz-q2", s=0)


def test_s_1_is_the_default_field():
    plain = run_cli("coeffs", "2")
    explicit = run_cli("coeffs", "2", "--s", "1")
    assert plain.returncode == explicit.returncode == 0
    assert explicit.stdout == plain.stdout


def test_rank_mismatch_exit_2():
    proc = run_cli("convergence", "--A", "1;1", "--rank", "3")
    assert proc.returncode == 2
    assert "rank" in proc.stderr


def test_determinism_byte_identical(tmp_path):
    conf = "preset = rank2-q2\ntprec = 8\nxi = 1+theta^-1\n"
    a = run_cli("deform", config_text=conf, tmp_path=tmp_path)
    b = run_cli("deform", config_text=conf, tmp_path=tmp_path)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_flags_override_config_file(tmp_path):
    conf = "preset = carlitz-q2\nxi = 1\n"
    base = run_cli("deform", config_text=conf, tmp_path=tmp_path)
    over = run_cli("deform", "--xi", "theta^-1",
                   config_text=conf, tmp_path=tmp_path)
    assert base.returncode == over.returncode == 0
    assert json.loads(base.stdout)["xi"] != json.loads(over.stdout)["xi"]


def test_config_file_comments_and_unknown_key(tmp_path):
    ok = run_cli("convergence",
                 config_text="# comment\npreset = rank2-q2\n\ntprec = 8\n",
                 tmp_path=tmp_path)
    assert ok.returncode == 0
    bad = run_cli("convergence", config_text="bogus = 1\n",
                  tmp_path=tmp_path)
    assert bad.returncode == 2
    assert "bogus" in bad.stderr


def test_coeffs_check_and_json_shape():
    proc = run_cli("coeffs", "3", "--preset", "carlitz-q3", "--check")
    assert proc.returncode == 0
    rows = json_lines(proc)
    assert rows[-1] == {"compose_check": True}
    assert [r["n"] for r in rows[:-1]] == [0, 1, 2, 3]
    assert rows[1]["beta"]["den"] == {"1": 1}


def test_bseq_routes_exit_0():
    for route in ("definition", "twist", "untwisted"):
        proc = run_cli("bseq", "3", "--preset", "carlitz-q2",
                       "--route", route)
        assert proc.returncode == 0
        rows = json_lines(proc)
        assert rows[-1]["pass"] is True
        assert all(r["at_theta_is_beta"] for r in rows[:-1])


@pytest.mark.parametrize("route,poles", [
    ("definition", []), ("twist", [[2, 1]]), ("untwisted", [[3, 1]])])
def test_bseq_zero_keeps_its_poles(route, poles):
    """With A_1 = 0, b_3 is exactly zero; a t-rational keeps the poles
    its route gave it, and they are printed."""
    proc = run_cli("bseq", "3", "--A", "0;1", "--route", route)
    assert proc.returncode == 0
    b3 = json_lines(proc)[3]
    assert b3["n"] == 3 and b3["at_theta_is_beta"] is True
    assert b3["b"] == {"numer": {"coeffs": [], "t_prec": None},
                       "poles": poles}


def test_coeffs_zero_drops_its_denominator():
    """With A_1 = 0, alpha_1 = 0/[1] on the recurrence route and beta_1
    follows from it; a bracket fraction drops the denominator of an
    exact zero."""
    proc = run_cli("coeffs", "3", "--A", "0;1", "--route", "recurrence")
    assert proc.returncode == 0
    row = json_lines(proc)[1]
    assert row["n"] == 1
    for key in ("alpha", "beta"):
        assert row[key]["den"] == {} and row[key]["num"]["coeffs"] == []


def test_agf_recovers_u():
    proc = run_cli("agf", "--preset", "carlitz-q2", "--xi", "theta^-1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["minus_residue_is_u"] is True


def test_period_report_shape():
    proc = run_cli("period", "--preset", "rank2-q2")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert set(rep) == {"value", "residual_valuations", "branch_choices"}
    assert len(rep["value"]) == 2
    assert rep["branch_choices"]["ell"] == 1
    assert rep["residual_valuations"]["exp_of_period"] == [None, None]


def test_quasiperiod_report_shape():
    proc = run_cli("quasiperiod", "--preset", "rank2-q2", "--terms", "6")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert set(rep) == {"value", "residual_valuations", "branch_choices"}
    rows = rep["residual_valuations"]["orbit_agreement"]
    assert all(cell["holds"] for row in rows for cell in row)


def test_legendre_report_shape():
    proc = run_cli("legendre", "--preset", "rank2-q2", "--tprec", "8")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert set(rep) == {"value", "residual_valuations", "branch_choices"}
    assert rep["branch_choices"]["c"] == [1, 0]


def test_verify_mainthm_all_presets_fast_caps():
    for preset in ("carlitz-q2", "rank3-q2"):
        proc = run_cli("verify-mainthm", "--preset", preset,
                       "--ucap", "48", "--tprec", "8")
        assert proc.returncode == 0
        rows = json_lines(proc)
        assert rows[-1]["pass"] is True
        assert len(rows) == 4  # three evaluation points plus summary


@pytest.mark.parametrize("preset", [(), ("--preset", "rank2-q2")])
def test_verify_mainthm_zero_xi_exit_0(preset):
    proc = run_cli("verify-mainthm", *preset, "--xi", "0",
                   "--ucap", "48", "--tprec", "8")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    rows = json_lines(proc)
    assert rows[-1] == {"check": "main-theorem", "pass": True}
    assert rows[0]["identities"]["a"] == {"holds": True,
                                          "term_bound_logq": []}


def test_one_process_matches_fresh_processes(monkeypatch):
    # main reuses one parser per process; a parser that carried state
    # from one call to the next (a route default, a parsed subcommand)
    # would make a later call differ from a fresh process
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, COLUMNS="80")
    seq = [("coeffs", "3", "--route", "recurrence"),
           ("bseq", "2"),
           ("coeffs", "3"),
           ("coeffs", "3", "--route", "bogus"),
           (),
           ("partitions", "2", "3", "--support", "5"),
           ("partitions", "2", "3")]
    for argv in seq:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        fresh = subprocess.run([sys.executable, "-m", "drinfeld.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out.getvalue(), err.getvalue()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_identity_failure_maps_to_exit_1(monkeypatch):
    # the identities cannot honestly fail, so exercise the exit path
    # through the suite runner contract
    monkeypatch.setattr(cli.verify_mod, "run_all",
                        lambda seed=0: {"suite": "acceptance", "seed": seed,
                                        "pass": False, "checks": []})
    assert cli.main(["verify"]) == 1


def test_scorecard_skips_infeasible_torsion():
    proc = run_cli("verify", "--preset", "rank3-q2")
    assert proc.returncode == 0
    rows = json_lines(proc)
    skipped = [r for r in rows if r.get("check") == "torsion"]
    assert skipped and "enlarge m to 7" in skipped[0]["skipped"]


def test_parse_elem_units():
    ctx = SeriesParams(FieldParams.make(2, 2), 3, 32)
    e = cli.parse_elem(ctx, "1 + 2*theta^-1 + theta^2")
    assert e.coeffs == {0: 1, 3: 2, -6: 1}
    assert cli.parse_elem(ctx, "0").is_exact_zero()
    with pytest.raises(ConfigError):
        cli.parse_elem(ctx, "5")  # outside F_4 packing
    with pytest.raises(ConfigError):
        cli.parse_elem(ctx, "theta**2")
    with pytest.raises(ConfigError):
        cli.parse_elem(ctx, "x+1")


def test_parse_coeff_polys_units():
    assert cli.parse_coeff_polys("1;0,1;1,1") == ((1,), (0, 1), (1, 1))
    with pytest.raises(ConfigError):
        cli.parse_coeff_polys("1;;1")
    with pytest.raises(ConfigError):
        cli.parse_coeff_polys("1;a")
