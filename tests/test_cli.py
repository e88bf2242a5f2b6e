"""End-to-end tests of the command line front end: exit codes, JSON
shape, determinism, config-file handling."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import weakref
from math import inf

import pytest

from drinfeld import cli
from drinfeld.agf import DeformedLog
from drinfeld.errors import ConfigError
from drinfeld.laurent import LaurentElem, SeriesParams
from drinfeld.modules import BracketFrac, DrinfeldModule
from drinfeld.ff import FieldParams
from drinfeld.tate import TateRational, TateSeries


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


def test_preset_scorecards_read_no_budget(monkeypatch):
    """Every check of a preset scorecard caps its own work, so the
    context's relative budget prints nothing: the four scorecards print
    the same bytes on the default budget and on budgets forced to 1 and
    to 10^6."""
    from drinfeld import verify

    def scorecards():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for name in verify.PRESET_ORDER:
                assert cli.main(["verify", "--preset", name]) == 0
        return out.getvalue()

    want, made = scorecards(), []
    for budget in (1, 10 ** 6):
        def forced(field, m, prec=None, b=budget):
            made.append(b)
            return SeriesParams(field, m, b)
        monkeypatch.setattr(verify, "SeriesParams", forced)
        assert scorecards() == want
    monkeypatch.undo()
    assert made == [1] * 4 + [10 ** 6] * 4


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


def test_period_torsion_count_exit_3_names_ucap():
    # the kernel's nonzero elements have valuation 1, so at ucap 1 every
    # one of them truncates to zero
    args = ("period", "--q", "2", "--A", "0,0,1")
    proc = run_cli(*args, "--ucap", "1")
    assert proc.returncode == 3 and proc.stdout == ""
    ask = re.search(r"found 1 torsion elements, expected 2; raise ucap to "
                    r"(\d+)$", proc.stderr.strip())
    assert ask is not None, proc.stderr
    rerun = run_cli(*args, "--ucap", ask.group(1))
    assert rerun.returncode == 0, rerun.stderr
    assert json_lines(rerun)[0]["value"]


@pytest.mark.parametrize("cmd, prefix", [
    ("deform", "logarithm tail did not certify"),
    ("agf", "exponential tail did not certify; the requested cap is too "
            "deep")])
def test_tail_exit_3_names_ucap(cmd, prefix, capsys):
    """A cap too deep for the tail bound exits 3 and says which knob to
    lower."""
    assert cli.main([cmd, "--preset", "carlitz-q2", "--xi", "theta^-1",
                     "--tprec", "2", "--ucap", str(10 ** 130)]) == 3
    err = capsys.readouterr().err.strip()
    assert err == "precondition error: %s; lower ucap" % prefix


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
# There is no --rank flag (the rank is the number of --A polynomials), so
# argparse rejects it with its usage line, even at the value A gives.
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
    (("coeffs", "2", "--rank", "3"), 2, "unrecognized arguments: --rank 3"),
    (("agf", "--rank", "0", "--xi", "1"), 2,
     "unrecognized arguments: --rank 0"),
    (("deform", "--xi", "theta^x"), 2, "bad power in term 'theta^x'"),
    (("deform", "--xi", "1*t"), 2, "unrecognized term 't'"),
    (("coeffs", "2", "--rank", "1"), 2, "unrecognized arguments: --rank 1"),
    (("partitions", "1", "1000"), 0, ""),
    (("partitions", "2", "2000", "--support", "2"), 0, ""),
]


@pytest.mark.parametrize("args,code,needle", EXIT_CODES)
def test_exit_code_table(args, code, needle):
    proc = run_cli(*args)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert needle in proc.stderr
    if code:
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            "usage: " if needle.startswith("unrecognized arguments")
            else "config error: ")


@pytest.mark.parametrize("preset, terms", [
    pytest.param("rank2-q2", "-1", id="-1"),
    pytest.param("rank2-q2", "-5", id="-5"),
    pytest.param("carlitz-q2", "-1", id="carlitz-q2--1")])
def test_negative_terms_exit_2_names_terms(preset, terms):
    """A negative --terms is refused before any work, in every rank; a
    rank-1 module never reaches the orbit that checks it too."""
    proc = run_cli("quasiperiod", "--preset", preset, "--terms", terms)
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
    over F_5 runs to the end; it compares printed betas of thousands of
    numerator terms with the fresh equation values."""
    proc = run_cli("coeffs", "7", "--q", "5", "--check", "--route",
                   "recurrence")
    assert proc.returncode == 0
    assert json_lines(proc)[-1] == {"compose_check": True}


def test_coeffs_check_frees_its_context(monkeypatch, capsys):
    """The expanded bracket denominators are cached on the session's
    context, so they die with the call: once an in-process
    `coeffs 6 --check` returns, no reference keeps its context alive.
    The cache holds coefficient dicts, not elements that point back at
    the context, so reference counting frees it without a collection."""
    from drinfeld import modules
    seen = []
    real = modules._den_elem

    def watch(ctx, items):
        if not seen:
            seen.append(weakref.ref(ctx))
        return real(ctx, items)

    monkeypatch.setattr(modules, "_den_elem", watch)
    assert cli.main(["coeffs", "6", "--check", "--q", "3",
                     "--A", "1,1;1"]) == 0
    assert capsys.readouterr().out.endswith('{"compose_check": true}\n')
    assert seen
    assert seen[0]() is None


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


def test_s_1_is_the_default_field():
    plain = run_cli("coeffs", "2")
    explicit = run_cli("coeffs", "2", "--s", "1")
    assert plain.returncode == explicit.returncode == 0
    assert explicit.stdout == plain.stdout


def test_rank_mismatch_exit_2():
    proc = run_cli("convergence", "--A", "1;1", "--rank", "3")
    assert proc.returncode == 2
    assert "unrecognized arguments: --rank 3" in proc.stderr


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


# (config file text, stderr needle); None stands for a missing file, and
# bytes are written as they are
CONFIG_EXIT_CODES = [
    (None, "cannot read config file"),
    (b"q = 3  # \xc3\xa9\n", "cannot read config file"),
    ("q = 3\nucap\n", ":2: expected key = value"),
    ("preset = nope\n", "unknown preset 'nope'"),
    ("ucap = ten\n", "key 'ucap' wants an integer, got 'ten'"),
]


@pytest.mark.parametrize("text,needle", CONFIG_EXIT_CODES)
def test_config_file_errors_exit_2(text, needle, tmp_path):
    if text is None:
        proc = run_cli("convergence", "--config",
                       str(tmp_path / "missing.conf"))
    elif isinstance(text, bytes):
        path = tmp_path / "session.conf"
        path.write_bytes(text)
        proc = run_cli("deform", "--config", str(path))
    else:
        proc = run_cli("convergence", config_text=text, tmp_path=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: ")
    assert needle in proc.stderr


def test_config_file_coefficients_match_flag(tmp_path):
    via_file = run_cli("convergence", config_text="A = 1;0,1\n",
                       tmp_path=tmp_path)
    via_flag = run_cli("convergence", "--A", "1;0,1")
    assert via_file.returncode == via_flag.returncode == 0
    assert via_file.stdout == via_flag.stdout


def test_verify_config_matches_flags(tmp_path):
    conf = "preset = carlitz-q2\nucap = 32\ntprec = 8\nseed = 3\n"
    via_file = run_cli("verify", config_text=conf, tmp_path=tmp_path)
    via_flags = run_cli("verify", "--preset", "carlitz-q2", "--ucap", "32",
                        "--tprec", "8", "--seed", "3")
    assert via_file.returncode == via_flags.returncode == 0
    assert via_file.stdout == via_flags.stdout
    assert json_lines(via_file)[-1] == {"pass": True, "preset": "carlitz-q2"}


@pytest.mark.parametrize("flags,seed", [((), 3), (("--seed", "5"), 5)])
def test_verify_full_takes_the_merged_seed(flags, seed, tmp_path,
                                           monkeypatch):
    seen = []

    def run_all(seed):
        seen.append(seed)
        return {"checks": [], "suite": "acceptance", "seed": seed,
                "pass": True}

    monkeypatch.setattr(cli.verify_mod, "run_all", run_all)
    path = tmp_path / "session.conf"
    path.write_text("seed = 3\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--config", str(path), *flags]) == 0
    assert seen == [seed]
    assert json.loads(out.getvalue()) == {
        "pass": True, "seed": seed, "suite": "acceptance"}


@pytest.mark.parametrize("command", [("deform", "--xi", "1"), ("verify",)])
def test_preset_flag_beats_file_preset(command, tmp_path):
    flag_only = run_cli(*command, "--preset", "carlitz-q2", "--ucap", "32")
    both = run_cli(*command, "--preset", "carlitz-q2", "--ucap", "32",
                   config_text="preset = rank2-q2\n", tmp_path=tmp_path)
    assert flag_only.returncode == both.returncode == 0
    assert both.stdout == flag_only.stdout


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


@pytest.mark.parametrize("route", ["definition", "twist", "untwisted"])
def test_bseq_flags_a_moved_numerator(route, monkeypatch, capsys):
    """One b_k numerator moved by a monomial: bseq prints
    at_theta_is_beta false at that k only, and exits 1."""
    k = 3
    real = cli.b_seq

    def moved(phi, n, route):
        seq = real(phi, n, route)
        ctx = phi.ctx
        bump = TateSeries.from_scalar(ctx, ctx.monomial(1, -2))
        seq[k] = TateRational(ctx, seq[k].num + bump, seq[k].den)
        return seq

    monkeypatch.setattr(cli, "b_seq", moved)
    assert cli.main(["bseq", "5", "--preset", "rank2-q2",
                     "--route", route]) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["at_theta_is_beta"] for r in rows[:-1]] == [
        n != k for n in range(6)]
    assert rows[-1] == {"pass": False, "route": route}


def test_coeffs_route_keeps_two_choices(capsys):
    """The equation route serves evaluation only; coeffs prints the
    partition and recurrence fractions and refuses it."""
    with pytest.raises(SystemExit) as ei:
        cli.main(["coeffs", "3", "--route", "equation"])
    assert ei.value.code == 2
    assert "invalid choice: 'equation'" in capsys.readouterr().err


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


def _main_rows(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


def _sparse_session_args(seed):
    """A random module of rank 2-4 whose support misses at least one
    index below the rank, over F_q with q cycling through {2, 3, 4, 5,
    9}, s <= 2 and m <= 2, at xi = c theta^-k with c in F_(q^s)."""
    rng = random.Random(seed)
    q = (2, 3, 4, 5, 9)[seed % 5]
    s = rng.choice((1, 2)) if q < 9 else 1
    m = rng.choice((1, 2))
    r = rng.randint(2, 4)
    support = {r} | {i for i in range(1, r) if rng.random() < 0.4}
    if len(support) == r:
        support.discard(rng.randrange(1, r))
    polys = []
    for i in range(1, r + 1):
        digits = [0]
        if i in support:
            digits = [rng.randrange(q) for _ in range(rng.randint(1, 2))]
            digits[-1] = digits[-1] or 1
        polys.append(",".join(map(str, digits)))
    xi = "%d*theta^-%d" % (rng.randrange(1, q ** s), rng.randint(2, 3))
    return (q, s, m), ["--q", str(q), "--s", str(s), "--m", str(m),
                       "--A", ";".join(polys), "--xi", xi]


@pytest.mark.parametrize("seed", range(40))
def test_sparse_sessions_cap_c_against_2c(seed):
    """deform at ucap 2c and t-window 2T, cut back to c and T, prints
    the series and the value at theta of deform at c and T; and
    verify-mainthm holds every identity at both caps."""
    (q, s, m), args = _sparse_session_args(seed)
    ctx = SeriesParams(FieldParams.make(q, s), m)
    c, T = random.Random(seed).choice((24, 48, 64)), 4

    def cut(obj):
        return LaurentElem.from_json(ctx, obj).truncate(c).to_json()

    code_lo, (lo,) = _main_rows(["deform", *args, "--ucap", str(c),
                                 "--tprec", str(T)])
    code_hi, (hi,) = _main_rows(["deform", *args, "--ucap", str(2 * c),
                                 "--tprec", str(2 * T)])
    assert code_lo == code_hi == 0
    assert lo["series"]["coeffs"] == [cut(x)
                                      for x in hi["series"]["coeffs"][:T]]
    assert lo["at_theta"] == cut(hi["at_theta"])
    for cap, tprec in ((c, T), (2 * c, 2 * T)):
        code, rows = _main_rows(["verify-mainthm", *args, "--ucap", str(cap),
                                 "--tprec", str(tprec)])
        assert code == 0 and rows[-1]["pass"] is True
        for key in "bcde":
            assert rows[0]["identities"][key]["holds"] is True
            assert rows[0]["identities"][key]["u_val"] >= cap
        assert rows[0]["identities"]["a"]["holds"] is True


@pytest.mark.parametrize("seed", range(40))
def test_sparse_sessions_agf_cap_c_against_2c(seed):
    """agf at ucap 2c and t-window 2T, cut back to c and T, prints the
    regular part of agf at c and T; the residue at theta is the same at
    both caps, and minus it recovers u at both."""
    (q, s, m), args = _sparse_session_args(seed)
    ctx = SeriesParams(FieldParams.make(q, s), m)
    c, T = random.Random(seed).choice((24, 48, 64)), 4

    def cut(obj):
        return LaurentElem.from_json(ctx, obj).truncate(c).to_json()

    code_lo, (lo,) = _main_rows(["agf", *args, "--ucap", str(c),
                                 "--tprec", str(T)])
    code_hi, (hi,) = _main_rows(["agf", *args, "--ucap", str(2 * c),
                                 "--tprec", str(2 * T)])
    assert code_lo == code_hi == 0
    assert lo["minus_residue_is_u"] is hi["minus_residue_is_u"] is True
    assert lo["residue_at_theta"] == hi["residue_at_theta"]
    assert lo["regular_part"]["coeffs"] == [
        cut(x) for x in hi["regular_part"]["coeffs"][:T]]


def _random_elem(ctx, rng):
    """An element of one of the shapes the CLI prints: exact zero, zero
    to a cap, a single term, or a sparse or dense run of terms (exact
    or capped), at negative or positive valuation."""
    kind = rng.randrange(6)
    if kind == 0:
        return ctx.zero()
    if kind == 1:
        return ctx.zero(rng.randint(-6, 12))
    v = rng.randint(-24, 24)
    order = ctx.field.order
    if kind == 2:
        coeffs = {v: rng.randrange(1, order)}
    else:
        density = rng.choice((0.1, 0.5, 1.0))
        coeffs = {e: rng.randrange(1, order)
                  for e in range(v, v + rng.randint(1, 40))
                  if e == v or rng.random() < density}
    cap = inf if kind < 4 else v + rng.randint(1, 50)
    return LaurentElem(ctx, coeffs, cap)


def _old_frac_json(f):
    """The dict coeffs printed for a bracket fraction before the text
    renderer: json-encoded with sorted keys, it gives the printed bytes."""
    return {"num": f.num.to_json(),
            "den": {str(e): m for e, m in sorted(f.den.items())}}


_RENDER_FIELDS = [(q, s, m) for q in (2, 3, 4, 5, 9) for s in (1, 2)
                  for m in (1, 2, 3)] + [(2, 13, 1)]


@pytest.mark.parametrize("q,s,m", _RENDER_FIELDS)
def test_text_renderer_prints_the_json_bytes(q, s, m):
    """Every element the CLI prints through the text renderer gets the
    bytes that _encode writes for its to_json() dict: Laurent elements,
    Tate series with t_prec None and finite, Tate rationals with and
    without poles, bracket fractions (an empty den among them), and a
    whole _emit line that mixes texts with plain values."""
    rng = random.Random(7000 + 100 * q + 10 * s + m)
    ctx = SeriesParams(FieldParams.make(q, s), m)
    enc = cli._encode
    for _ in range(12):
        x = _random_elem(ctx, rng)
        assert x.to_text() == enc(x.to_json())
        series = TateSeries(ctx, [_random_elem(ctx, rng)
                                  for _ in range(rng.randint(0, 4))],
                            rng.choice((inf, rng.randint(0, 6))))
        assert series.to_text() == enc(series.to_json())
        poles = {rng.randint(1, 12): rng.randint(1, q + 1)
                 for _ in range(rng.randint(0, 3))}
        rat = TateRational(ctx, TateSeries(ctx, series.coeffs), poles)
        assert rat.to_text() == enc(rat.to_json())
        frac = BracketFrac(ctx, x, poles)
        assert cli._frac_text(frac) == enc(_old_frac_json(frac))
        basis = [x, _random_elem(ctx, rng)]
        line = {"n": 3, "alpha": cli._Text(cli._frac_text(frac)),
                "b": cli._Text(rat.to_text()), "pass": True, "none": {},
                "branch_choices": {"ell": 1, "basis": cli._Text(
                    cli._array([z.to_text() for z in basis]))}}
        want = {"n": 3, "alpha": _old_frac_json(frac), "b": rat.to_json(),
                "pass": True, "none": {}, "branch_choices": {
                    "ell": 1, "basis": [z.to_json() for z in basis]}}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(line)
        assert out.getvalue() == enc(want) + "\n"


def _torsion_session_args(seed, rank=None,
                          allow=lambda q, m, s: m <= 4 and s <= 4):
    """A random single-layer module for the torsion commands: over F_q,
    q cycling through {2, 3, 4, 5}, of rank 1-3 (or rank) with constant
    coefficients (A_r != 0), from a draw of m <= 4 and s <= 3 that is
    raised while an exit 3 names m or s and allow(q, m, s) holds for the
    raised pair.  Constant coefficients keep the Newton polygon
    of phi_t to one edge: torsion_roots handles a single valuation layer
    only, and most random modules of higher degree stop there (ROADMAP
    item 1) before any cap is checked."""
    rng = random.Random(seed)
    q = (2, 3, 4, 5)[seed % 4]
    r = rng.randint(1, 3) if rank is None else rank
    A = [rng.randrange(q) for _ in range(r - 1)] + [rng.randrange(1, q)]
    knobs = {"m": rng.randint(1, 4), "s": rng.randint(1, 3)}
    while True:
        args = ["--q", str(q), "--s", str(knobs["s"]), "--m",
                str(knobs["m"]), "--A", ";".join(map(str, A))]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["period", *args, "--ucap", "16"])
        ask = re.search(r"enlarge (m|s) to (\d+)", err.getvalue())
        if code != 3 or ask is None:
            return args
        raised = dict(knobs, **{ask.group(1): int(ask.group(2))})
        if not allow(q, raised["m"], raised["s"]):
            return args
        knobs = raised


def _torsion_cap_c_against_2c(cmd, args, c):
    """Runs the period or quasiperiod command at ucap c and 2c: both end
    in the same exit code, 0 or 3, and at exit 0 each printed value
    (periods, quasi-periods, torsion basis) cut back to c is the same.
    Returns whether the runs exited 0."""
    q, s, m = (int(args[k]) for k in (1, 3, 5))
    ctx = SeriesParams(FieldParams.make(q, s), m)

    def cut(obj):
        return LaurentElem.from_json(ctx, obj).truncate(c).to_json()

    code_lo, lo = _main_rows([cmd, *args, "--ucap", str(c)])
    code_hi, hi = _main_rows([cmd, *args, "--ucap", str(2 * c)])
    assert code_lo == code_hi, (args, cmd)
    assert code_lo in (0, 3), (args, cmd)
    if code_lo:
        return False
    (lo,), (hi,) = lo, hi
    lo_vals, hi_vals = lo["branch_choices"]["basis"], \
        hi["branch_choices"]["basis"]
    if cmd == "period":
        lo_vals, hi_vals = lo_vals + lo["value"], hi_vals + hi["value"]
    else:
        for a, b in zip(lo["value"], hi["value"]):
            lo_vals, hi_vals = lo_vals + a, hi_vals + b
    assert len(lo_vals) == len(hi_vals), (args, cmd)
    for a, b in zip(lo_vals, hi_vals):
        assert cut(a) == cut(b), (args, cmd, a["cap"], b["cap"])
    return True


def test_torsion_sessions_cap_c_against_2c():
    """period and quasiperiod at ucap 2c, each printed value (periods,
    quasi-periods, torsion basis) cut back to c, print the values of
    the same command at c, and both caps end in the same exit code, on
    seeded single-layer sessions (_torsion_session_args); most of them
    must reach a torsion basis."""
    ran = 0
    for seed in range(48):
        args = _torsion_session_args(seed)
        c = random.Random(seed).choice((24, 32, 48))
        for cmd in ("period", "quasiperiod"):
            ran += _torsion_cap_c_against_2c(cmd, args, c)
    assert ran >= 24


def test_rank3_quasiperiod_cap_c_against_2c():
    """quasiperiod at ucap c in {24, 48} and 2c, as above, on seeded
    rank-3 single-layer sessions with m <= 26 and q^s <= 4096, so that
    the quasi-periods eta_1 and eta_2 of every basis element are cut
    back and compared."""
    ran = set()
    for seed in range(24):
        args = _torsion_session_args(
            seed, 3, lambda q, m, s: m <= 26 and q ** s <= 4096)
        if _torsion_cap_c_against_2c("quasiperiod", args, (24, 48)[seed % 2]):
            ran.add((seed, int(args[1])))
    assert len(ran) >= 7 and {q for _, q in ran} == {2, 3}


def test_legendre_cap_c_against_2c():
    """legendre at ucap 2c, its value cut back to c, prints the value of
    the same command at c, and both residual valuations are at least c.
    On the preset rank2-q2 at c in {48, 96}, where both runs exit 0, and
    on seeded rank-2 single-layer sessions (constant A_1 and A_2, so
    deg j = 0 < q^2 passes the gate; m and s raised as asked up to
    m <= 24 and q^s <= 4096, the fields with tables) at c in {24, 48},
    where both caps end in the same exit code and an exit 3 names a
    knob."""
    runs = [(["--preset", "rank2-q2"], (2, 2, 3), c) for c in (48, 96)]
    for seed in range(32):
        args = _torsion_session_args(
            seed, 2, lambda q, m, s: m <= 24 and q ** s <= 4096)
        q, s, m = (int(args[k]) for k in (1, 3, 5))
        runs.append((args, (q, s, m), (24, 48)[seed % 2]))
    ran = 0
    for args, (q, s, m), c in runs:
        ctx = SeriesParams(FieldParams.make(q, s), m)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code_lo, lo = _main_rows(["legendre", *args, "--tprec", "8",
                                      "--ucap", str(c)])
            code_hi, hi = _main_rows(["legendre", *args, "--tprec", "8",
                                      "--ucap", str(2 * c)])
        assert code_lo == code_hi, (args, c)
        assert code_lo in (0, 3), (args, c, err.getvalue())
        if code_lo:
            assert args[0] != "--preset" and "enlarge" in err.getvalue(), \
                (args, c)
            continue
        ran += 1
        (lo,), (hi,) = lo, hi
        cut = LaurentElem.from_json(ctx, hi["value"]).truncate(c)
        assert cut == LaurentElem.from_json(ctx, lo["value"]), (args, c)
        for row in (lo, hi):
            assert min(row["residual_valuations"].values()) >= c, (args, c)
    assert ran >= 20


def test_one_deformed_log_and_exp_orbit_per_basis_element(monkeypatch):
    """quasiperiod and legendre build one deformed logarithm per torsion
    basis element, and quasiperiod evaluates the exp orbit once per
    element: rank 3 at terms 8 makes 3 DeformedLog and 3 (2 + 8)
    exp_eval calls, two for each period and eight for its orbit;
    legendre on rank2-q2 makes 2 DeformedLog; rank 1 has no
    quasi-periods and makes no DeformedLog and only the period's two
    exp_eval calls."""
    counts = {"dl": 0, "exp": 0}
    init, exp_eval = DeformedLog.__init__, DrinfeldModule.exp_eval

    def counted_init(self, *args, **kw):
        counts["dl"] += 1
        init(self, *args, **kw)

    def counted_exp(self, *args, **kw):
        counts["exp"] += 1
        return exp_eval(self, *args, **kw)

    monkeypatch.setattr(DeformedLog, "__init__", counted_init)
    monkeypatch.setattr(DrinfeldModule, "exp_eval", counted_exp)
    for argv, want in [
            (["quasiperiod", "--q", "2", "--s", "3", "--m", "7",
              "--A", "1;1;1"], {"dl": 3, "exp": 30}),
            (["legendre", "--preset", "rank2-q2"], {"dl": 2}),
            (["quasiperiod", "--preset", "carlitz-q2"], {"dl": 0, "exp": 2})]:
        counts.update(dl=0, exp=0)
        code, _ = _main_rows(argv)
        assert code == 0, argv
        assert {k: counts[k] for k in want} == want, argv


_FUZZ_COMMANDS = ("partitions", "coeffs", "convergence", "bseq", "deform",
                  "agf", "verify-mainthm", "period", "quasiperiod",
                  "legendre")


def _fuzz_argv(rng):
    """One argv for a random command on a preset or a small random
    session: q in {2, 3, 4, 5, 9}, rank 1-2, n, ucap, tprec and terms
    that may be zero or negative, and xi inside or outside the
    convergence radius."""
    cmd = rng.choice(_FUZZ_COMMANDS)
    q = rng.choice((2, 3, 4, 5, 9))
    n = str(rng.randint(-2, 3))
    argv = [cmd]
    if cmd == "partitions":
        argv += [str(rng.randint(-1, 3)), n]
    elif cmd in ("coeffs", "bseq"):
        argv.append(n)
    if rng.random() < 0.3:
        argv += ["--preset", rng.choice(("carlitz-q2", "carlitz-q3",
                                         "rank2-q2", "rank3-q2"))]
    else:
        polys = []
        for _ in range(rng.randint(1, 2)):
            digits = [rng.randrange(q) for _ in range(rng.randint(1, 3))]
            digits[-1] = digits[-1] or rng.randrange(2)
            polys.append(",".join(map(str, digits)))
        argv += ["--q", str(q), "--s", str(rng.choice((1, 2))),
                 "--m", str(rng.choice((1, 2))), "--A", ";".join(polys)]
    argv += ["--ucap", str(rng.choice((-3, 0, 4, 8, 12, 16, 16, 24))),
             "--tprec", str(rng.choice((-1, 0, 1, 2, 4, 4)))]
    if cmd == "quasiperiod":
        argv += ["--terms", str(rng.choice((-1, 0, 1, 2)))]
    if cmd in ("deform", "agf", "verify-mainthm"):
        argv += ["--xi", rng.choice(("0", "1", "theta^2", "theta^5",
                                     "theta^-1", "1+theta^-2",
                                     "%d*theta^-3" % rng.randrange(1, q)))]
    return argv


def test_fuzzed_argv_exit_cleanly():
    """300 seeded argv over ten commands end in a documented exit code
    (0, 1, 2 or 3, argparse's own exit 2 included), with no exception
    escaping main."""
    rng = random.Random(31)
    seen = set()
    for _ in range(300):
        argv = _fuzz_argv(rng)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), argv
        seen.add(code)
    assert {0, 2, 3} <= seen
