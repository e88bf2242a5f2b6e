"""t-deformation layer: partition summands, the b-sequence routes, the
deformed logarithm, the generating function, omega and the period."""

from math import inf as INF

import pytest

from drinfeld.errors import (CompatPreconditionFailed, InvalidInput,
                             NoRootInField, OutsideRadius,
                             RamificationError)
from drinfeld.ff import FieldParams
from drinfeld.laurent import SeriesParams
from drinfeld.modules import DrinfeldModule, carlitz
from drinfeld.partitions import enumerate_partitions
from drinfeld.agf import (B_ROUTES, DeformedLog, OmegaCarlitz, agf, b_seq,
                          carlitz_bseq_product, carlitz_pi,
                          check_main_theorem, delta, eval_theta_frac,
                          shift_precondition_violations, x_phi)
from drinfeld.tate import TateSeries
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
            assert s.coeffs[0].deg() == want


# -- the b-sequence --

@pytest.mark.parametrize("make", [
    lambda: carlitz(CTX2),
    rank2_q2,
    rank3_q2,
    lambda: DrinfeldModule(CTX3P, [CTX3P.theta(), CTX3P.one()]),
])
def test_b_routes_agree(make):
    phi = make()
    seqs = {route: b_seq(phi, 5, route) for route in B_ROUTES}
    for n in range(6):
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
                        lambda self, e: calls.append(e) or div_pole(self, e))
    dl.series(8)
    assert calls == [6, 5, 4, 3, 2, 1]


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
