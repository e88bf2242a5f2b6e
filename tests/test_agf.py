"""t-deformation layer: partition summands, the b-sequence routes, the
deformed logarithm, the generating function, omega and the period."""

import importlib
import random
from math import inf as INF

import pytest

from drinfeld.errors import (CompatPreconditionFailed, InvalidInput,
                             NoRootInField, OutsideRadius,
                             RamificationError)
from drinfeld.ff import FieldParams
from drinfeld.laurent import LaurentElem, SeriesParams
from drinfeld.modules import DrinfeldModule, carlitz
from drinfeld.partitions import enumerate_partitions
from drinfeld.agf import (B_ROUTES, AGFValue, DeformedLog, OmegaCarlitz, agf,
                          b_seq, carlitz_bseq_product, carlitz_pi,
                          check_main_theorem, delta, eval_theta_frac,
                          shift_precondition_violations, x_phi)
from drinfeld.tate import TateRational, TateSeries
from drinfeld.verify import preset_session
from test_modules import partition_norm_logq
from test_tate import apply_delta, t_poly

CTX2 = SeriesParams(FieldParams.make(2), 1, 48)
CTX3P = SeriesParams(FieldParams.make(3, 2), 2, 60)


def rank2_q2():
    return DrinfeldModule(CTX2, [CTX2.one(), CTX2.one()])


def rank3_q2():
    return DrinfeldModule(CTX2, [CTX2.one(), CTX2.one(), CTX2.one()])


def agf_orbit_series(phi, u, t_prec, ucap):
    """Independent route to the generating function: coefficient k is
    exp_phi(u / theta^(k+1)).  Matches the partial-fraction expansion
    coefficientwise, which exercises the exponential instead of the
    b-sequence."""
    ctx = phi.ctx
    coeffs = [phi.exp_eval(u * ctx.theta(-(k + 1)), ucap=ucap)
              for k in range(t_prec)]
    return TateSeries(ctx, coeffs, t_prec)


def shifted_deformed_log(phi, series_xi_pair):
    """One application of the shift identity: from (L(xi) series, xi)
    produce (L(phi_t(xi)) series, phi_t(xi)) without re-summing."""
    s, xi = series_xi_pair
    ctx = phi.ctx
    lin = t_poly(ctx, [-ctx.theta(), ctx.one()])
    shifted = s.shift_t(1).truncate_t(s.t_prec) - (
        lin * TateSeries.from_scalar(ctx, xi)).truncate_t(s.t_prec)
    return shifted, phi.phi_action(xi)


def delta_phi(phi: DrinfeldModule):
    """Coefficients of the operator A_r tau^r + ... + A_1 tau - (t - theta)
    in the form consumed by apply_delta: the oracle for agf.delta."""
    ctx = phi.ctx
    g0 = t_poly(ctx, [ctx.theta(), -ctx.one()])
    return [g0] + list(phi.A)


# -- partition summands --

def test_x_phi_poles_are_simple():
    for phi, n in [(rank2_q2(), 6), (rank3_q2(), 7)]:
        for sp in enumerate_partitions(phi.r, n, support=phi.support):
            f = x_phi(phi, sp)
            assert all(m == 1 for m in f.den.values())
            assert all(1 <= e <= n for e in f.den)


def test_x_phi_norm_matches_closed_form():
    phi = DrinfeldModule(CTX2, [CTX2.theta(), CTX2.one()])
    for n in range(1, 6):
        for sp in enumerate_partitions(2, n):
            f = x_phi(phi, sp)
            s = f.to_series(6)
            want = partition_norm_logq(phi, sp)
            assert s.gauss_norm_logq() == want
            # the constant t-coefficient already attains the norm
            assert s.coeffs[0].deg_bound() == want


# -- the b-sequence --

def sparse_module(q, support):
    """A module over F_q with A_i = theta + 1 (i odd) or 1 (i even) on
    the support and A_i = 0 off it."""
    ctx = SeriesParams(FieldParams.make(q), 1, 48)
    return DrinfeldModule(ctx, [
        (ctx.theta() + ctx.one() if i % 2 else ctx.one())
        if i in support else ctx.zero()
        for i in range(1, max(support) + 1)])


@pytest.mark.parametrize("make", [
    lambda: carlitz(CTX2),
    rank2_q2,
    rank3_q2,
    lambda: DrinfeldModule(CTX3P, [CTX3P.theta(), CTX3P.one()]),
] + [lambda q=q, sup=sup: sparse_module(q, sup)
     for q in (2, 3, 5, 9) for sup in ((2,), (3,), (2, 3), (1, 4))])
def test_b_routes_agree(make):
    """The routes agree as values.  On sparse supports the twist route's
    fractions may keep removable poles, so pole dicts are not compared."""
    phi = make()
    seqs = {route: b_seq(phi, 6, route) for route in B_ROUTES}
    for n in range(7):
        a = seqs["definition"][n]
        for route in ("twist", "untwisted"):
            assert a.equals(seqs[route][n]), "route %s at n=%d" % (route, n)


def test_carlitz_product_form():
    phi = carlitz(CTX2)
    ours = b_seq(phi, 5, "definition")
    prod = carlitz_bseq_product(CTX2, 5)
    for n in range(6):
        assert ours[n].equals(prod[n])


def test_b_at_theta_is_log_coefficient():
    for phi in (carlitz(CTX2), rank2_q2(), rank3_q2()):
        seq = b_seq(phi, 6, "definition")
        beta = phi.log_coeffs(6, "recurrence")
        for n in range(7):
            assert eval_theta_frac(phi, seq[n]).equals(beta[n])


def test_b_norm_radius_bound():
    for phi in (rank2_q2(), rank3_q2()):
        conv = phi.convergence_data()
        rho = -conv.logq_R
        for n, f in enumerate(b_seq(phi, 6, "definition")):
            s = f.to_series(8)
            norm = s.gauss_norm_logq()
            if norm != -INF:
                assert norm <= (phi.ctx.q ** n - 1) * rho


# -- the deformed logarithm --

def test_deformed_log_at_theta_matches_log():
    for phi, xi in [(rank2_q2(), CTX2.one()),
                    (rank2_q2(), CTX2.theta(-1)),
                    (carlitz(CTX3P), CTX3P.theta(-1))]:
        dl = DeformedLog(phi, xi, 40)
        got = dl.eval_theta()
        want = phi.log_eval(xi, ucap=40)
        assert (got - want).is_zero_to_prec()
        assert got.cap == 40
        tw0 = dl.twist_eval_theta(0)
        assert (tw0 - got).is_zero_to_prec()


def test_deformed_log_outside_radius_raises():
    phi = rank2_q2()
    with pytest.raises(OutsideRadius) as ei:
        DeformedLog(phi, CTX2.theta(2), 30)
    assert "logq_R" in str(ei.value)


def _deformed_log_bytes(phi, xi, ucap, t_prec):
    dl = DeformedLog(phi, xi, ucap)
    return dl, (dl.series(t_prec).to_json(), dl.eval_theta().to_json(),
                dl.twist_eval_theta(1).to_json())


def _partition_sum_oracle(monkeypatch, phi, xi, ucap, t_prec):
    """The same deformed logarithm with its b_n from the partition sum
    (b_seq's definition route) instead of the twist recurrence."""
    with monkeypatch.context() as mp:
        mp.setattr(importlib.import_module("drinfeld.agf"), "b_seq",
                   lambda p, n, route=None: b_seq(p, n, "definition"))
        return _deformed_log_bytes(phi, xi, ucap, t_prec)


def _random_deform_session(seed):
    """q cycles through {2, 3, 4, 5, 9}; s <= 2, m <= 2, rank 1-3, a
    random support containing the rank, coefficients c theta^k + 1
    with c in F_q and k in {0, 1}, and xi = c theta^-k (+ theta^-4)
    with c in F_(q^s), sometimes cut to a finite cap as torsion points
    are."""
    rng = random.Random(seed)
    q = (2, 3, 4, 5, 9)[seed % 5]
    s = rng.choice((1, 1, 2)) if q < 9 else 1
    m = rng.choice((1, 2))
    r = rng.randint(1, 3)
    support = {r} | {i for i in range(1, r) if rng.random() < 0.5}
    ctx = SeriesParams(FieldParams.make(q, s), m, 48)
    A = []
    for i in range(1, r + 1):
        a = ctx.zero()
        if i in support:
            a = ctx.make({-m * rng.randint(0, 1): rng.randrange(1, q)})
            a = a + ctx.one()
            if a.is_exact_zero():
                a = ctx.one()
        A.append(a)
    xi = ctx.make({m * rng.randint(1, 3): rng.randrange(1, q ** s)})
    if rng.random() < 0.3:
        xi = xi + ctx.theta(-4)
    if rng.random() < 0.3:
        xi = xi.truncate(rng.choice((20, 40, 70)))
    return DrinfeldModule(ctx, A), xi


def test_deformed_log_twist_route_matches_partition_sum(monkeypatch):
    """The deformed logarithm builds its b_n by the twist recurrence.  On
    seeded sessions its series, value at theta and twisted value print
    the same bytes as with the partition sum, also where the two routes'
    fractions carry different poles."""
    cuts, dense, sparse, pole_diffs = set(), 0, 0, 0
    for seed in range(60):
        phi, xi = _random_deform_session(seed)
        if len(phi.support) == phi.r:
            dense += 1
        else:
            sparse += 1
        for ucap in (16, 48, 128):
            try:
                dl, got = _deformed_log_bytes(phi, xi, ucap, 6)
            except OutsideRadius:
                break
            oracle, want = _partition_sum_oracle(monkeypatch, phi, xi,
                                                 ucap, 6)
            assert got == want, "seed %d, ucap %d" % (seed, ucap)
            cuts.add(dl.cut)
            pole_diffs += any(a.den != b.den
                              for a, b in zip(dl.terms, oracle.terms))
    assert {2, 3, 4, 5, 6} <= cuts
    assert dense and sparse and pole_diffs


def _fresh(phi):
    return DrinfeldModule(phi.ctx, phi.A)


def test_twist_b_seq_reuse_matches_a_fresh_module():
    """b_seq's twist route extends one list per module.  Two calls in a
    row (shorter then longer, longer then shorter, equal) each give the
    list that a fresh module gives, by equals and by the printed bytes;
    changing a returned list changes no later call; and deformed
    logarithms on the reused module print the bytes of ones on a fresh
    module."""
    sparse = set()
    for seed in range(30):
        phi0, xi = _random_deform_session(seed)
        if len(phi0.support) < phi0.r:
            sparse.add(phi0.ctx.q)
        for a, b in ((2, 6), (6, 2), (4, 4)):
            phi = _fresh(phi0)
            for n in (a, b):
                got = b_seq(phi, n, "twist")
                want = b_seq(_fresh(phi0), n, "twist")
                assert len(got) == len(want) == n + 1
                assert all(x.equals(y) for x, y in zip(got, want)), seed
                assert [x.to_text() for x in got] == \
                    [y.to_text() for y in want], seed
                got[1] = got[0]
                got.append(got[0])
            for ucap in (16, 48, 128):
                try:
                    _, want = _deformed_log_bytes(_fresh(phi0), xi, ucap, 6)
                except OutsideRadius:
                    break
                assert _deformed_log_bytes(phi, xi, ucap, 6)[1] == want, \
                    (seed, a, b, ucap)
    assert sparse == {2, 3, 4, 5, 9}


def test_main_theorem_runs_each_twist_step_once(monkeypatch):
    """check_main_theorem on rank2-q2 at (192, 24) builds deformed
    logarithms with cuts 6 (at xi) and 8 (at phi_t(xi)).  The module's
    one sequence runs b_1 .. b_7 once each: seven twist steps, not
    5 + 7."""
    agf_mod = importlib.import_module("drinfeld.agf")
    ctx, phi = preset_session("rank2-q2")
    steps, step = [], agf_mod._twist_step
    monkeypatch.setattr(agf_mod, "_twist_step", lambda p, seq, m:
                        steps.append(m) or step(p, seq, m))
    report = check_main_theorem(phi, ctx.one() + ctx.theta(-1), 192, 24)
    assert report["holds"] and report["cut"] == 6
    assert steps == list(range(1, 8))


def test_deformed_log_removable_poles_print_nothing(monkeypatch):
    """deform --q 2 --A "0;0;1" --xi theta^-1 --ucap 128 has cut 6, and
    its b_4, b_5 carry more poles on the twist route than in the
    partition sum; the printed bytes do not move."""
    ctx = SeriesParams(FieldParams.make(2), 1, 48)
    phi = DrinfeldModule(ctx, [ctx.zero(), ctx.zero(), ctx.one()])
    xi = ctx.theta(-1)
    dl, got = _deformed_log_bytes(phi, xi, 128, 16)
    oracle, want = _partition_sum_oracle(monkeypatch, phi, xi, 128, 16)
    assert dl.cut == 6
    assert [n for n in range(6)
            if dl.terms[n].den != oracle.terms[n].den] == [4, 5]
    assert got == want


def test_shift_identity_reuse():
    phi = rank2_q2()
    xi = CTX2.theta(-1)
    dl = DeformedLog(phi, xi, 44)
    s = dl.series(6)
    shifted, phixi = shifted_deformed_log(phi, (s, xi))
    direct = DeformedLog(phi, phixi, 44).series(6)
    diff = direct - shifted.truncate_t(direct.t_prec)
    assert diff.is_zero_to_prec()


def test_precondition_scan():
    phi = rank2_q2()  # logq_R = 4/3
    assert shift_precondition_violations(phi, CTX2.one()) == []
    bad = shift_precondition_violations(phi, CTX2.theta())
    assert bad and bad[0][0] == 0  # theta xi already too big


# -- main theorem checks --

@pytest.mark.parametrize("make,xi_of", [
    (rank2_q2, lambda ctx: ctx.one()),
    (rank2_q2, lambda ctx: ctx.theta(-1) + ctx.one()),
    (rank3_q2, lambda ctx: ctx.theta(-1)),
    (lambda: carlitz(CTX3P), lambda ctx: ctx.theta(-1)),
])
def test_main_theorem_holds(make, xi_of):
    phi = make()
    xi = xi_of(phi.ctx)
    ucap = 30
    rep = check_main_theorem(phi, xi, ucap, t_prec=6)
    assert rep["holds"]
    for key in "bcde":
        assert rep[key]["holds"]
        assert rep[key]["u_val"] >= ucap


@pytest.mark.parametrize("deep", [False, True])
def test_main_theorem_catches_a_corrupted_term(deep, monkeypatch):
    """One term of the deformed logarithm at xi, moved by a monomial,
    fails identity (b).  A monomial at u^ucap is invisible to the capped
    value and series, so only the exact termwise comparison with beta
    from phi's log equation catches it; (c) and (d) still hold."""
    phi = rank2_q2()
    ctx = phi.ctx
    xi = ctx.theta(-1) + ctx.one()
    ucap = 30

    class Corrupted(DeformedLog):
        def __init__(self, phi, x, cap):
            super().__init__(phi, x, cap)
            if x == xi:
                assert self.cut > 2
                f = self.terms[2]
                bump = ctx.monomial(1, cap if deep else 0)
                self.terms[2] = TateRational(
                    ctx, f.num + TateSeries.from_scalar(ctx, bump), f.den)

    # the package exports the function agf under the module's name
    monkeypatch.setattr(importlib.import_module("drinfeld.agf"),
                        "DeformedLog", Corrupted)
    rep = check_main_theorem(phi, xi, ucap, t_prec=6)
    assert rep["b"]["holds"] is False and rep["holds"] is False
    if deep:
        assert rep["c"]["holds"] and rep["d"]["holds"]


def test_main_theorem_precondition_failure():
    phi = rank2_q2()
    # deg xi = 1 is inside the radius 4/3 but theta*xi breaks the shift
    # precondition at i = 0
    with pytest.raises(CompatPreconditionFailed) as ei:
        check_main_theorem(phi, CTX2.theta(), 24, t_prec=5)
    assert "i=0" in str(ei.value)


# -- the generating function --

def test_agf_partial_fractions_match_orbit_route():
    for phi, u in [(rank2_q2(), CTX2.theta(-1)),
                   (carlitz(CTX2), CTX2.theta(-1) + CTX2.theta(-2))]:
        ucap, t_prec = 36, 6
        f = agf(phi, u, ucap)
        lhs = f.theta_pole_form(t_prec).to_series(t_prec)
        rhs = agf_orbit_series(phi, u, t_prec, ucap)
        diff = lhs - rhs
        assert diff.is_zero_to_prec()
        _, uval, _ = diff.residual_report()
        assert uval >= ucap


def test_agf_residue_is_minus_u():
    phi = rank2_q2()
    u = CTX2.theta(-1)
    f = agf(phi, u, 30)
    assert f.residue == -u


def test_delta_phi_shape():
    phi = rank2_q2()
    d = delta_phi(phi)
    assert len(d) == 3
    assert d[0].coeffs[0] == CTX2.theta()
    assert d[0].coeffs[1] == -CTX2.one()


def test_delta_matches_apply_delta_oracle():
    """delta(phi, G), as check (c) applies it, against the
    coefficient-list operator; sparse supports skip the zero A_i."""
    fp3 = FieldParams.make(3)
    cases = [(rank2_q2(), CTX2.one()), (rank3_q2(), CTX2.theta(-1)),
             (carlitz(CTX3P), CTX3P.theta(-1))]
    for A in ([0, 1], [0, 0, 1], [1, 0, 1]):
        for ctx in (CTX2, SeriesParams(fp3, 1, 48)):
            phi = DrinfeldModule(ctx, [ctx.int_scalar(a) for a in A])
            cases.append((phi, ctx.theta(-1) + ctx.one()))
    for phi, xi in cases:
        G = -DeformedLog(phi, xi, 30).series(6).div_pole(0)
        assert delta(phi, G) == apply_delta(delta_phi(phi), G)


def test_deformed_log_series_division_count(monkeypatch):
    """The terms of L(xi) at rank3-q2 have the nested pole sets {},
    {1}, ..., {1..6}: summed numerators cost one division per pole (6),
    where expanding term by term cost 1 + 2 + ... + 6 = 21."""
    ctx, phi = preset_session("rank3-q2")
    dl = DeformedLog(phi, ctx.one(), 96)
    assert sum(m for term in dl.terms for m in term.den.values()) == 21
    calls = []
    div_pole = TateSeries.div_pole
    monkeypatch.setattr(TateSeries, "div_pole",
                        lambda self, e, ucap: calls.append(e) or
                        div_pole(self, e, ucap))
    dl.series(8)
    assert calls == [6, 5, 4, 3, 2, 1]


def test_pole_divisions_stop_at_the_callers_cap(monkeypatch):
    """No coefficient that div_pole builds under DeformedLog.series or
    AGFValue.theta_pole_form has a cap above the caller's ucap: each
    division stops where the caller cuts.  Checked on the rank3-q2
    main-theorem session at ucap 48: its generating function divides
    by the simple poles 1..8, its deformed logarithms by the nested
    poles 1..5 (at xi) and 1..8 (at phi(xi))."""
    ctx, phi = preset_session("rank3-q2")
    xi = ctx.one() + ctx.theta(-1) + ctx.theta(-2)
    caller, seen = [], []
    div_pole = TateSeries.div_pole

    def spy(self, e, *cap):
        out = div_pole(self, e, *cap)
        if caller:
            seen.append((e, caller[-1], max(c.cap for c in out.coeffs)))
        return out

    def under(method):
        def run(self, *args):
            caller.append(self.ucap)
            try:
                return method(self, *args)
            finally:
                caller.pop()
        return run

    monkeypatch.setattr(TateSeries, "div_pole", spy)
    monkeypatch.setattr(DeformedLog, "series", under(DeformedLog.series))
    monkeypatch.setattr(AGFValue, "theta_pole_form",
                        under(AGFValue.theta_pole_form))
    assert check_main_theorem(phi, xi, 48, 12)["holds"]
    assert all(cap <= ucap for _, ucap, cap in seen), seen
    assert {e for e, _, _ in seen} == set(range(1, 9))


@pytest.mark.parametrize("name, ucap, t_prec, series_max, form_max", [
    ("rank2-q2", 384, 48, 23, 7), ("carlitz-q2", 128, 48, 15, 6),
    ("rank3-q2", 64, 24, 20, 8)])
def test_window_cuts_build_few_elements(name, ucap, t_prec, series_max,
                                        form_max, monkeypatch):
    """DeformedLog.series and AGFValue.theta_pole_form construct no more
    LaurentElems than these counts at xi = 1 + 1/theta.  expand_sum
    cuts each numerator in u before padding it to t_prec, so the padding
    stays the one shared exact zero; cutting the padding instead builds
    one element per slot (over 150 on each session)."""
    ctx, phi = preset_session(name)
    xi = ctx.one() + ctx.theta(-1)
    dl, form = DeformedLog(phi, xi, ucap), agf(phi, xi, ucap)
    built = []
    init = LaurentElem.__init__
    monkeypatch.setattr(LaurentElem, "__init__", lambda self, *a, **k:
                        built.append(1) or init(self, *a, **k))
    dl.series(t_prec)
    assert len(built) <= series_max
    built.clear()
    form.theta_pole_form(t_prec)
    assert len(built) <= form_max


# -- omega and the period --

def test_pi_paths_agree_q2():
    om = OmegaCarlitz(CTX2, 40, 24)
    a = om.pi_tilde("factored")
    b = om.pi_tilde("single")
    c = om.pi_tilde("series")
    assert (a - b).is_zero_to_prec()
    assert (a - c).is_zero_to_prec()
    assert min((a - c).cap, 40) >= min(c.cap, 40)


def test_pi_q2_leading_digits():
    # theta^2 (1-theta^-1)^-1 (1-theta^-3)^-1 (1-theta^-7)^-1 ... :
    # counting representations k = a + 3b + 7c + ... mod 2 gives
    # 1,1,1,0,0,0,1,0 for k = 0..7
    pi = carlitz_pi(CTX2, 32)
    assert pi.val == -2
    for e, present in [(-2, True), (-1, True), (0, True), (1, False),
                       (2, False), (3, False), (4, True), (5, False)]:
        assert (e in pi.coeffs) == present


def test_pi_is_a_zero_of_exp():
    for ctx in (CTX2, CTX3P):
        phi = carlitz(ctx)
        pi = carlitz_pi(ctx, 42)
        expval = phi.exp_eval(pi, ucap=36)
        assert expval.is_zero_to_prec()
        assert expval.cap == 36
        # val(pi) = -m q/(q-1)
        assert pi.val == -ctx.m * ctx.q // (ctx.q - 1)


def test_torsion_generator_from_pi():
    ctx = CTX2
    phi = carlitz(ctx)
    lam = phi.exp_eval(carlitz_pi(ctx, 40) * ctx.theta(-1), ucap=34)
    # the exponential preserves valuation strictly inside the radius
    assert lam.val == -1
    out = phi.phi_action(lam)
    assert out.is_zero_to_prec()


def test_omega_functional_equation():
    for ctx in (CTX2, CTX3P):
        om = OmegaCarlitz(ctx, 36, 10)
        resid = om.diff_eq_residual()
        ok, uval, tp = resid.residual_report()
        assert ok
        assert uval >= 30
        assert tp == 10


def test_omega_is_orbit_agf_of_pi():
    ctx = CTX2
    phi = carlitz(ctx)
    om = OmegaCarlitz(ctx, 36, 8)
    pi = carlitz_pi(ctx, 48)
    lhs = om.series()
    rhs = agf_orbit_series(phi, pi, 8, 30)
    diff = lhs - rhs
    assert diff.is_zero_to_prec()


def test_omega_pole_form_residue():
    om = OmegaCarlitz(CTX2, 36, 8)
    form = om.theta_pole_form()
    assert (form.residue + om.pi_tilde("factored")).is_zero_to_prec()
    back = form.to_series()
    assert (back - om.series()).is_zero_to_prec()


def test_omega_builds_w_once(monkeypatch):
    """W depends only on what OmegaCarlitz fixes at construction, so one
    instance builds it once: series, diff_eq_residual and the series
    path of W(theta) together run the depth divisions by the poles e >= 1
    one time, and print the bytes of fresh instances."""
    for ctx, ucap, t_prec in ((CTX2, 40, 12), (CTX3P, 36, 8)):
        fresh = [OmegaCarlitz(ctx, ucap, t_prec) for _ in range(3)]
        want = [fresh[0].series().to_text(),
                fresh[1].diff_eq_residual().to_text(),
                fresh[2]._w_at_theta("series").to_text()]
        divs, real = [], TateSeries.div_pole

        def watch(self, e, ucap=INF):
            if e >= 1:
                divs.append(e)
            return real(self, e, ucap)

        monkeypatch.setattr(TateSeries, "div_pole", watch)
        om = OmegaCarlitz(ctx, ucap, t_prec)
        got = [om.series().to_text(), om.diff_eq_residual().to_text(),
               om._w_at_theta("series").to_text()]
        monkeypatch.undo()
        assert got == want
        assert divs == list(range(1, om.depth + 1))


def test_omega_ramification_guard():
    ctx_bad = SeriesParams(FieldParams.make(3, 2), 1, 40)
    with pytest.raises(RamificationError) as ei:
        OmegaCarlitz(ctx_bad, 30, 6)
    assert ei.value.required_m == 2


def test_omega_needs_square_root_of_minus_one():
    ctx_bad = SeriesParams(FieldParams.make(3), 2, 40)
    with pytest.raises(NoRootInField) as ei:
        OmegaCarlitz(ctx_bad, 30, 6)
    assert ei.value.required_s == 2


def test_b_seq_negative_index_rejected():
    phi = carlitz(CTX2)
    for route in B_ROUTES:
        with pytest.raises(InvalidInput):
            b_seq(phi, -2, route)
        assert len(b_seq(phi, 0, route)) == 1
