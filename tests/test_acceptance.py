"""Acceptance gate: one test per shipped criterion, caps pinned.

Each test prints a single PASS/FAIL line (visible under pytest -v -s or
in the captured output of a failure) and asserts the criterion held.
Each check runs once per session: the scorecard test assembles
run_all's report from the same results.
"""

import inspect

from drinfeld import verify

# criterion -> (check, pinned arguments)
PINNED = {
    "1": (verify.check_partition_counts, {"seed": 0}),
    # exact route agreement n <= 8, ranks <= 3, q in {2, 3}; Carlitz
    # denominators D_n, L_n for n <= 6
    "2": (verify.check_coefficient_closed_forms, {}),
    "3": (verify.check_worked_examples, {}),
    "4": (verify.check_b_routes, {}),
    "5": (verify.check_norms, {}),
    "6": (verify.check_omega_carlitz, {"ucap": 128, "t_prec": 32}),
    "7": (verify.check_main_theorem_suite, {"ucap": 96, "t_prec": 16}),
    "8": (verify.check_carlitz_compat, {}),
    "9": (verify.check_torsion_periods, {"ucap": 128}),
    "10": (verify.check_legendre, {"ucap": 96}),
    "11": (verify.check_precision_soundness, {"ucap": 96, "t_prec": 16}),
}
_RESULTS = {}


def _result(label):
    if label not in _RESULTS:
        fn, kwargs = PINNED[label]
        _RESULTS[label] = fn(**kwargs)
    return _RESULTS[label]


def _report(label):
    res = _result(label)
    print("criterion %s (%s): %s" % (label, res.name,
                                     "PASS" if res.passed else "FAIL"))
    assert res.passed, (label, res.name, res.details)


def test_criterion_01_partition_counts():
    _report("1")


def test_criterion_02_coefficient_closed_forms():
    _report("2")


def test_criterion_03_worked_examples():
    _report("3")


def test_criterion_04_b_routes():
    _report("4")


def test_criterion_05_norms():
    _report("5")


def test_criterion_06_omega_twist_equation():
    _report("6")


def test_criterion_07_main_theorem_suite():
    _report("7")


def test_criterion_08_carlitz_compatibility():
    _report("8")


def test_criterion_09_torsion_and_periods():
    _report("9")


def test_criterion_10_legendre_relation():
    _report("10")


def test_criterion_11_precision_soundness():
    _report("11")


def test_scorecard_runs_clean(monkeypatch):
    # run_all(seed=0) calls every check with its defaults (and seed 0);
    # those are the pinned calls, so it can reuse their results
    for label, fn in verify.ALL_CHECKS:
        pinned, kwargs = PINNED[label]
        assert fn is pinned
        params = inspect.signature(fn).parameters
        assert all(params[k].default == v for k, v in kwargs.items())
    monkeypatch.setattr(verify, "ALL_CHECKS", tuple(
        (label, lambda label=label: _result(label))
        for label, _ in verify.ALL_CHECKS))
    rep = verify.run_all(seed=0)
    assert rep["pass"] is True
    assert [row["criterion"] for row in rep["checks"]] == [
        str(k) for k in range(1, 12)]
    assert all(row["pass"] for row in rep["checks"])
