import contextlib
import io
import json
import random
from fractions import Fraction
from math import lcm

import pytest

from drinfeld import cli, periods
from drinfeld.agf import DeformedLog
from drinfeld.errors import (GateFailed, InvalidInput, PrecisionExhausted,
                             RamificationError, ResidueSplittingError)
from drinfeld.ff import (FieldParams, _pol_gcd, _pol_mod, _pol_powmod,
                         _pol_sub, _pol_trim, field_for)
from drinfeld.laurent import LaurentElem, SeriesParams
from drinfeld.modules import DrinfeldModule, carlitz
from drinfeld.periods import (_residual, _residual_kernel, _splitting_degree,
                              carlitz_period_routes,
                              legendre_check, newton_slopes,
                              period_from_torsion, quasi_function_eval,
                              quasi_period_orbit, quasi_period_prop,
                              quasi_periods, torsion_roots)
from drinfeld.verify import preset_session
from oracles import (legendre_det_twist_one_cap, quasi_orbit_one_j,
                     quasi_period_one_j, residual_roots_scan,
                     torsion_span_oracle)
from test_cli import _torsion_session_args

CTX2 = SeriesParams(FieldParams.make(2), 1, 48)
R2 = SeriesParams(FieldParams.make(2, 2), 3, 96)
C3 = SeriesParams(FieldParams.make(3, 2), 2, 64)


def _rank2(ctx=R2):
    return DrinfeldModule(ctx, [ctx.one(), ctx.one()])


def test_newton_slopes_single_edge():
    assert newton_slopes([(1, -3), (2, 0), (4, 0)]) == \
        [(Fraction(1), 1, 4)]


def test_newton_slopes_two_edges():
    assert newton_slopes([(1, -2), (2, -2), (4, 0)]) == \
        [(Fraction(0), 1, 2), (Fraction(1), 2, 4)]


def test_newton_slopes_merges_collinear():
    assert newton_slopes([(1, -2), (2, -1), (4, 1)]) == \
        [(Fraction(1), 1, 4)]


def test_newton_slopes_input_order_irrelevant():
    pts = [(4, 0), (1, -3), (2, 0)]
    assert newton_slopes(pts) == newton_slopes(sorted(pts))


def test_carlitz_q2_torsion_is_theta():
    td = torsion_roots(carlitz(CTX2), 40)
    assert len(td.roots) == 2
    assert len(td.basis) == 1
    # theta itself annihilates t in characteristic 2, with no refinement
    assert dict(td.basis[0].coeffs) == {-1: 1}
    assert td.traces == [[]]
    assert td.slopes == [(Fraction(1), 1, 2)]


def test_carlitz_q2_period_routes_agree_exactly():
    routes = carlitz_period_routes(CTX2, 40)
    assert routes["unit"] == 1 and routes["unit_ok"]
    d = routes["product"] - routes["torsion"]
    assert not d.coeffs and d.cap >= 40


def test_carlitz_q3_torsion_squares_to_minus_theta():
    td = torsion_roots(carlitz(C3), 40)
    assert len(td.roots) == 3 and len(td.basis) == 1
    b = td.basis[0]
    assert b.val == -1
    d = b * b + C3.theta()
    assert not d.coeffs


def test_carlitz_q3_period_routes():
    routes = carlitz_period_routes(C3, 36)
    assert routes["unit_ok"]


def test_rank2_torsion_structure():
    td = torsion_roots(_rank2(), 60)
    assert len(td.roots) == 4
    assert td.slopes == [(Fraction(1), 1, 4)]
    assert [z.val for z in td.basis] == [-1, -1]
    diff = td.basis[0] - td.basis[1]
    assert diff.coeffs  # genuinely independent


def test_rank2_refinement_trace_frozen():
    # residual errors of x <- x - phi_t(x)/theta, uniformizer units
    td = torsion_roots(_rank2(), 60)
    assert td.traces == [[-2, 2, 10, 26, 58]] * 3


def test_rank2_kernel_closed_under_addition():
    td = torsion_roots(_rank2(), 60)
    s = td.basis[0] + td.basis[1]
    keys = {tuple(sorted(z.truncate(50).coeffs.items())) for z in td.roots}
    assert tuple(sorted(s.truncate(50).coeffs.items())) in keys


def test_random_kernel_combinations_annihilated():
    # scalars must come from F_q: the kernel is only F_q-linear
    phi = _rank2()
    td = torsion_roots(phi, 60)
    for c1 in range(2):
        for c2 in range(2):
            z = td.basis[0].scale(c1) + td.basis[1].scale(c2)
            assert not phi.phi_action(z).coeffs
    ctx = SeriesParams(FieldParams.make(3, 2), 8, 192)
    phi3 = DrinfeldModule(ctx, [ctx.one(), ctx.int_scalar(2)])
    td3 = torsion_roots(phi3, 60)
    rng = random.Random(9107)
    for _ in range(12):
        z = td3.basis[0].scale(rng.randrange(3)) + \
            td3.basis[1].scale(rng.randrange(3))
        assert not phi3.phi_action(z).coeffs


def _single_layer_torsion(seed):
    """A random module over F_q, q cycling through {2, 3, 4, 5, 7, 9},
    of rank 1-3 with constant coefficients (A_r != 0), so phi_t has one
    Newton edge; m and s start from a draw of m <= 4 and s <= 2 and are
    raised as the torsion errors ask while m <= 80 and q^s <= 4096.
    Returns (phi, ucap, torsion data), or None when the bounds stop the
    session first."""
    rng = random.Random(seed)
    q = (2, 3, 4, 5, 7, 9)[seed % 6]
    r = rng.randint(1, 3)
    A = [rng.randrange(q) for _ in range(r - 1)] + [rng.randrange(1, q)]
    m, s = rng.randint(1, 4), rng.randint(1, 2)
    ucap = rng.choice((16, 24, 48))
    while m <= 80 and q ** s <= 4096:
        ctx = SeriesParams(FieldParams.make(q, s), m)
        phi = DrinfeldModule(ctx, [ctx.from_poly([a]) for a in A])
        try:
            return phi, ucap, torsion_roots(phi, ucap)
        except RamificationError as exc:
            m = exc.required_m
        except ResidueSplittingError as exc:
            s = exc.required_s
    return None


def test_torsion_kernel_matches_span_oracle():
    """The kernel (zero, then the lifts by the coordinates of their
    leading coefficients) and the greedy basis equal, coefficients and
    caps, what closing the F_q-span of the same lifts gives, on seeded
    single-layer sessions of up to 81 roots."""
    reached = set()
    for seed in range(120):
        session = _single_layer_torsion(seed)
        if session is None:
            continue
        phi, ucap, td = session
        # the lifts in the residual's scan order: by packed leading term
        lifts = sorted(td.roots[1:], key=lambda x: x.coeffs[x.val])
        roots, basis = torsion_span_oracle(phi, ucap, lifts)
        assert td.roots == roots, seed
        assert td.basis == basis, seed
        reached.add((phi.ctx.q, phi.r))
    assert {q for q, _ in reached} == {2, 3, 4, 5, 7, 9}
    assert {r for _, r in reached} == {1, 2, 3}
    assert len(reached) >= 12


def test_torsion_kernel_needs_no_span_closure(monkeypatch):
    """The 49-point kernel of q = 7, A = (1, 1) costs at most 1,000
    Laurent additions; closing its F_q-span took 12,656."""
    ctx = SeriesParams(FieldParams.make(7, 4), 48)
    phi = DrinfeldModule(ctx, [ctx.one(), ctx.one()])
    calls = [0]
    add = LaurentElem.__add__

    def counted(x, y):
        calls[0] += 1
        return add(x, y)

    monkeypatch.setattr(LaurentElem, "__add__", counted)
    td = torsion_roots(phi, 48)
    assert len(td.roots) == 49 and len(td.basis) == 2
    assert calls[0] <= 1000


def test_rank2_period_is_lattice_point():
    phi = _rank2()
    td = torsion_roots(phi, 60)
    om = period_from_torsion(phi, td.basis[0], 48)
    assert om.val == -4  # log_q |omega| = 4/3, on the convergence circle
    assert not phi.exp_eval(om, ucap=40).coeffs
    back = phi.exp_eval(om * R2.theta(-1), ucap=48) - td.basis[0]
    assert not back.coeffs
    # the lattice is stable under the t-action
    assert not phi.exp_eval(om * R2.theta(), ucap=40).coeffs


def test_period_reverification_rejects_non_torsion():
    phi = _rank2()
    with pytest.raises(PrecisionExhausted):
        period_from_torsion(phi, R2.theta(), 40)


def test_quasi_functional_equation_seeded():
    # F_j(theta z) - theta F_j(z) = exp(z)^(q^j)
    phi = _rank2()
    rng = random.Random(2203)
    for trial in range(6):
        j = 1 if trial < 4 else 2
        coeffs = {}
        for _ in range(rng.randrange(1, 4)):
            coeffs[rng.randrange(-1, 9)] = rng.randrange(1, 4)
        z = R2.make(coeffs)
        lhs = quasi_function_eval(phi, j, z * R2.theta(), 36) - \
            quasi_function_eval(phi, j, z, 36) * R2.theta()
        rhs = phi.exp_eval(z, ucap=40).pow_q(j)
        d = lhs - rhs
        assert not d.coeffs and d.cap >= 30


def test_quasi_routes_agree_on_torsion():
    phi = _rank2()
    td = torsion_roots(phi, 60)
    for zeta in td.basis:
        om = period_from_torsion(phi, zeta, 52)
        closed = quasi_periods(phi, zeta, 40)[0]
        direct = quasi_function_eval(phi, 1, om, 40)
        d = closed - direct
        assert not d.coeffs and d.cap >= 40


def test_quasi_orbit_partial_sums_within_tail():
    phi = _rank2()
    td = torsion_roots(phi, 60)
    zeta = td.basis[0]
    om = period_from_torsion(phi, zeta, 52)
    closed = quasi_periods(phi, zeta, 48)[0]
    partial, tail = quasi_period_orbit(phi, om, 48, terms=20)[0]
    d = closed - partial
    # disagreement may only live at or below the certified tail size
    assert d.vbound >= min(R2.val_from_logq(tail), d.cap)

    # with few terms the tail enters the window; the bound stays valid
    om70 = period_from_torsion(phi, zeta, 76)
    closed70 = quasi_periods(phi, zeta, 70)[0]
    part70, tail70 = quasi_period_orbit(phi, om70, 70, terms=12)[0]
    d70 = closed70 - part70
    assert d70.coeffs  # the truncation error is genuinely visible
    assert d70.val >= R2.val_from_logq(tail70)


def test_quasi_orbit_more_terms_tightens():
    phi = _rank2()
    td = torsion_roots(phi, 60)
    om = period_from_torsion(phi, td.basis[0], 52)
    _, t20 = quasi_period_orbit(phi, om, 48, terms=20)[0]
    _, t30 = quasi_period_orbit(phi, om, 48, terms=30)[0]
    assert t30 < t20


def test_quasi_periods_list():
    assert quasi_periods(carlitz(CTX2), CTX2.theta(), 30) == []
    phi = _rank2()
    td = torsion_roots(phi, 60)
    etas = quasi_periods(phi, td.basis[0], 40)
    assert len(etas) == 1
    d = etas[0] - quasi_period_one_j(phi, 1, td.basis[0], 40)
    assert not d.coeffs


def _quasi_sessions():
    """(phi, torsion data at ucap 48) for the seeded rank-2 and rank-3
    single-layer sessions 0-23 of _torsion_session_args with m <= 26 and
    q^s <= 4096 (q = 3, s = 6, m = 26 among them) that reach a basis."""
    for rank in (2, 3):
        for seed in range(24):
            args = _torsion_session_args(
                seed, rank, lambda q, m, s: m <= 26 and q ** s <= 4096)
            q, s, m = (int(args[k]) for k in (1, 3, 5))
            phi = cli.SessionConfig(q=q, s=s, m=m, ucap=48,
                                    A=cli.parse_coeff_polys(args[7])).phi
            try:
                yield phi, torsion_roots(phi, 48)
            except (RamificationError, ResidueSplittingError):
                continue


def test_shared_quasi_periods_match_per_j_oracles():
    """The quasi-periods read off one deformed logarithm per torsion
    point, and the orbit sums read off one exp orbit, equal by ==
    (coefficients, caps and tail bounds) what building both for each j
    alone gives; so does a deformed logarithm built above ucap + 2m."""
    seen, ranks = 0, set()
    for phi, td in _quasi_sessions():
        m = phi.ctx.m
        for i, zeta in enumerate(td.basis):
            c = (24, 48)[i % 2]
            js = range(1, phi.r)
            etas = quasi_periods(phi, zeta, c)
            assert etas == [quasi_period_one_j(phi, j, zeta, c) for j in js]
            above = DeformedLog(phi, zeta, c + 5 * m)
            assert [quasi_period_prop(above, j, c) for j in js] == etas
            om = period_from_torsion(phi, zeta, c)
            assert quasi_period_orbit(phi, om, c, terms=8) == \
                [quasi_orbit_one_j(phi, j, om, c, terms=8) for j in js]
            seen += 1
            ranks.add(phi.r)
    assert ranks == {2, 3}
    assert seen >= 50


def test_deformed_log_cut_back_matches_lower_cap():
    """L(zeta; t) built at c + 2m, its series cut back to c, equals by
    == the series built at c, for c in {24, 48} and t_prec in {4, 8, 12};
    legendre_check reads its Tate rows this way."""
    seen = 0
    for phi, td in _quasi_sessions():
        for zeta in td.basis:
            for c in (24, 48):
                hi = DeformedLog(phi, zeta, c + 2 * phi.ctx.m)
                lo = DeformedLog(phi, zeta, c)
                for t_prec in (4, 8, 12):
                    assert hi.series(t_prec).truncate_u(c) == \
                        lo.series(t_prec)
                    seen += 1
    assert seen >= 300


def test_quasi_period_scales_linearly():
    # eta(c zeta) = c eta(zeta) for c in F_q: every series involved is
    # F_q-linear
    ctx = SeriesParams(FieldParams.make(3, 2), 8, 192)
    phi = DrinfeldModule(ctx, [ctx.one(), ctx.int_scalar(2)])
    td = torsion_roots(phi, 60)
    zeta = td.basis[0]
    a = quasi_periods(phi, zeta.scale(2), 40)[0]
    b = quasi_periods(phi, zeta, 40)[0].scale(2)
    d = a - b
    assert not d.coeffs


def test_period_of_zero_is_zero():
    om = period_from_torsion(_rank2(), R2.zero(), 40)
    assert not om.coeffs


def test_quasi_index_validated():
    with pytest.raises(InvalidInput):
        quasi_function_eval(_rank2(), 0, R2.one(), 20)
    with pytest.raises(InvalidInput, match="terms"):
        quasi_period_orbit(_rank2(), R2.one(), 20, terms=-1)


def test_legendre_rank2_q2():
    rep = legendre_check(_rank2(), 40, 8)
    assert rep["holds"]
    assert rep["legendre"]["holds"] and rep["legendre"]["c"] == (1, 0)
    assert rep["det_twist"]["holds"]
    assert rep["det_twist"]["t_prec"] == 8
    assert rep["legendre"]["u_val"] >= 40
    json.dumps(rep)  # report is serializable as produced


def test_legendre_q3():
    ctx = SeriesParams(FieldParams.make(3, 2), 8, 192)
    phi = DrinfeldModule(ctx, [ctx.one(), ctx.int_scalar(2)])
    rep = legendre_check(phi, 48, 6)
    assert rep["holds"]
    c = rep["legendre"]["c"]
    assert c == (2, 0)  # a unit of F_3, not forced to be 1


def test_legendre_rows_match_rows_built_at_inner():
    """legendre_check reads its Tate rows off the deformed logarithm it
    builds for eta_1 at inner + 2m, cut back to inner; its det_twist
    entry (holds, u_val, t_prec) is the one of rows built at inner."""
    ctx = SeriesParams(FieldParams.make(3, 2), 8, 192)
    phi3 = DrinfeldModule(ctx, [ctx.one(), ctx.int_scalar(2)])
    for phi, ucap, t_prec in [(_rank2(), 192, 16), (_rank2(), 40, 8),
                              (phi3, 48, 6)]:
        assert legendre_check(phi, ucap, t_prec)["det_twist"] == \
            legendre_det_twist_one_cap(phi, ucap, t_prec)

def test_legendre_gate_rejects_large_j_invariant():
    phi = DrinfeldModule(CTX2, [CTX2.theta(2), CTX2.one()])
    with pytest.raises(GateFailed):
        legendre_check(phi, 20, 4)


def test_legendre_needs_rank_two():
    with pytest.raises(InvalidInput):
        legendre_check(carlitz(CTX2), 20, 4)


def test_ramified_torsion_reports_required_m():
    ctx = SeriesParams(FieldParams.make(2, 2), 1, 48)
    with pytest.raises(RamificationError) as ei:
        torsion_roots(DrinfeldModule(ctx, [ctx.one(), ctx.one()]), 30)
    assert ei.value.required_m == 3


def test_residue_splitting_reports_required_s():
    ctx = SeriesParams(FieldParams.make(2), 3, 48)
    with pytest.raises(ResidueSplittingError) as ei:
        torsion_roots(DrinfeldModule(ctx, [ctx.one(), ctx.one()]), 30)
    assert ei.value.required_s == 2


def test_carlitz_q3_errors():
    with pytest.raises(RamificationError) as ei:
        torsion_roots(carlitz(SeriesParams(FieldParams.make(3, 2), 1, 48)),
                      30)
    assert ei.value.required_m == 2
    with pytest.raises(ResidueSplittingError) as ei:
        torsion_roots(carlitz(SeriesParams(FieldParams.make(3), 2, 48)), 30)
    assert ei.value.required_s == 2


def test_rank3_torsion_needs_m_seven():
    ctx = SeriesParams(FieldParams.make(2), 1, 64)
    phi = DrinfeldModule(ctx, [ctx.one()] * 3)
    with pytest.raises(RamificationError) as ei:
        torsion_roots(phi, 30)
    assert ei.value.required_m == 7


def test_residue_splitting_degree_six():
    ctx = SeriesParams(FieldParams.make(3, 2), 2, 64)
    phi = DrinfeldModule(ctx, [ctx.theta(), ctx.theta() + ctx.one()])
    with pytest.raises(ResidueSplittingError) as ei:
        torsion_roots(phi, 30)
    assert ei.value.required_s == 6


def _pol_divide(L, f, g):
    """Exact quotient f / g by long division."""
    f = list(f)
    quot = [0] * (len(f) - len(g) + 1)
    ginv = L.inv(g[-1])
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = L.mul(f[k + len(g) - 1], ginv)
        for j, y in enumerate(g):
            f[k + j] = L.sub(f[k + j], L.mul(c, y))
    assert not any(f)
    return _pol_trim(quot)


def _splitting_degree_by_factors(field, g):
    """Oracle: the lcm of the degrees k of the distinct-degree factors
    gcd(g, y^(Q^k) - y) of a squarefree g, each divided out in turn."""
    need, k = 1, 1
    h = _pol_powmod(field, [0, 1], field.order, g)
    while len(g) > 1:
        gk = _pol_gcd(field, g, _pol_sub(field, h, [0, 1]))
        if len(gk) > 1:
            need = lcm(need, k)
            g = _pol_divide(field, g, gk)
            h = _pol_mod(field, h, g)
        h = _pol_powmod(field, h, field.order, g)
        k += 1
    return need


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("s", [1, 2])
def test_splitting_degree_matches_factor_degrees(q, s):
    """The Frobenius order of y mod g equals the lcm of g's factor
    degrees on seeded additive residuals c_1 y + sum c_i y^(q^i), c_1
    and the top coefficient nonzero, of degree up to 27."""
    F = field_for(FieldParams.make(q, s))
    rng = random.Random(100 * q + s)
    top = max(i for i in range(1, 7) if q ** i <= 81)
    seen = set()
    for _ in range(30):
        r = rng.randrange(1, top + 1)
        g = [0] * (q ** r + 1)
        g[1] = rng.randrange(1, F.order)
        for i in range(1, r):
            g[q ** i] = rng.randrange(F.order)
        g[q ** r] = rng.randrange(1, F.order)
        want = _splitting_degree_by_factors(F, g)
        assert _splitting_degree(F, g) == want, g
        seen.add(want)
    assert len(seen) > 1


def _pol_eval(L, f, y):
    """Dense Horner evaluation of the coefficient list f at y."""
    acc = 0
    for c in reversed(f):
        acc = L.add(L.mul(acc, y), c)
    return acc


@pytest.mark.parametrize("q,s", [(2, 1), (2, 3), (3, 2), (5, 4), (3, 8)])
def test_sparse_residual_matches_horner(q, s):
    """The residual of torsion_roots, summed over its nonzero terms,
    equals dense Horner evaluation on random linearised polynomials
    c_0 y + sum c_i y^(q^i), on every y of small fields and on a sample
    of F_625 and of the table-less F_{3^8}."""
    F = field_for(FieldParams.make(q, s))
    rng = random.Random(10 * q + s)
    ys = range(F.order) if F.order <= 64 else \
        [0, 1] + [rng.randrange(2, F.order) for _ in range(60)]
    for _ in range(4):
        r = rng.randrange(1, 3 if q ** 3 > 30 else 4)
        terms = {1: rng.randrange(1, F.order)}
        for i in range(1, r + 1):
            c = rng.randrange(F.order)
            if c:
                terms[q ** i] = c
        g = [0] * (max(terms) + 1)
        for d, c in terms.items():
            g[d] = c
        for y in ys:
            assert _residual(F, terms, y) == _pol_eval(F, g, y), (terms, y)


def _lin_compose(F, q, outer, inner):
    """Coefficients of the linearised composition outer(inner(y)), each
    polynomial given as [c_0, c_1, ...] for sum c_i y^(q^i)."""
    out = [0] * (len(outer) + len(inner) - 1)
    for j, m in enumerate(outer):
        for i, c in enumerate(inner):
            out[i + j] = F.add(out[i + j], F.mul(m, F.pow_int(c, q ** j)))
    return out


def _subspace_poly(F, q, gens):
    """prod (y - v) over the F_q-span V of gens, linearised:
    P_(V + <w>) = P_V^q - P_V(w)^(q-1) P_V."""
    P = [1]
    for w in gens:
        lam = F.pow_int(_residual(F, {q ** i: c for i, c in enumerate(P)},
                                  w), q - 1)
        P = _lin_compose(F, q, [F.neg(lam), 1], P)
    return P


@pytest.mark.parametrize("q,s", [(q, s) for q in (2, 3, 4, 5, 7, 8, 9)
                                 for s in range(1, 13) if q ** s <= 4096])
def test_residual_kernel_matches_scan(q, s):
    """The kernel of the residual's F_p-matrix lists the same roots, in
    the same order, as evaluating the residual on every field element.
    Residuals of rank r = 1..3 are M(P_V(y)): P_V the subspace polynomial
    of a seeded F_q-space V of each dimension k <= min(r, s), and M a
    seeded linearised polynomial of q-degree r - k with a y-term, redrawn
    until the kernel is exactly V (over F_2 every a y + b y^2 has a root,
    so rank 1 has no empty kernel); and a y-term alone."""
    F = field_for(FieldParams.make(q, s))
    rng = random.Random(100 * q + s)
    cases = [{1: rng.randrange(1, F.order)}]
    for r in range(1, 4):
        for k in range(min(r, s) + 1):
            if (q, r, k) == (2, 1, 0):
                continue  # a y + b y^2 has the root a/b
            gens = []
            while len(gens) < k:
                w = rng.randrange(1, F.order)
                if _residual(F, {q ** i: c for i, c in enumerate(
                        _subspace_poly(F, q, gens))}, w):
                    gens.append(w)
            P = _subspace_poly(F, q, gens)
            for _ in range(50):
                M = [rng.randrange(1, F.order)] + \
                    [rng.randrange(F.order) for _ in range(r - k - 1)] + \
                    [rng.randrange(1, F.order)] * (r > k)
                terms = {q ** i: c for i, c in
                         enumerate(_lin_compose(F, q, M, P)) if c}
                if len(residual_roots_scan(F, terms)) == q ** k - 1:
                    cases.append(terms)
                    break
            else:
                raise AssertionError("no residual with kernel dim %d" % k)
    for terms in cases:
        assert _residual_kernel(F, terms) == \
            residual_roots_scan(F, terms), terms


def test_torsion_evaluates_residual_on_basis_only(monkeypatch):
    """torsion_roots evaluates the residual on the dim basis elements of
    the residue field, not on each of its elements: 4 times over F_625
    (a scan makes 624 evaluations), and twice over rank2-q2's F_4."""
    calls = []

    def counted(field, terms, y):
        calls.append(y)
        return _residual(field, terms, y)
    monkeypatch.setattr(periods, "_residual", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["period", "--q", "5", "--s", "4", "--m", "8",
                         "--A", "3"]) == 0
    assert calls == [1, 5, 25, 125]
    calls.clear()
    ctx, phi = preset_session("rank2-q2", prec=48)
    torsion_roots(phi, 48)
    assert len(calls) == ctx.field.dim == 2


@pytest.mark.parametrize("s,required", [(16, None), (17, 34), (18, None),
                                        (19, 38), (20, None)])
def test_torsion_on_fields_without_tables(s, required):
    """period --q 2 --m 3 --A "1;1" on F_(2^s), s = 16..20: the four
    roots when the residual splits there, else exit 3 naming the residue
    degree s' = 2s, noting that F_(2^s') is beyond the supported cap."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["period", "--q", "2", "--s", str(s), "--m", "3",
                         "--A", "1;1"])
    if required is None:
        assert code == 0
        assert len(json.loads(out.getvalue())["residual_valuations"]
                   ["refinement"]) + 1 == 4
    else:
        assert code == 3 and not out.getvalue()
        assert ("enlarge s to %d (q^s = 2^%d exceeds the supported cap "
                "2^20)" % (required, required)) in err.getvalue()


def test_residue_splitting_within_cap_has_no_cap_note():
    ctx = SeriesParams(FieldParams.make(2), 3, 48)
    with pytest.raises(ResidueSplittingError) as ei:
        torsion_roots(DrinfeldModule(ctx, [ctx.one(), ctx.one()]), 30)
    assert str(ei.value).endswith("enlarge s to 2")


def test_multilayer_kernel_rejected():
    ctx = SeriesParams(FieldParams.make(2), 2, 48)
    phi = DrinfeldModule(ctx, [ctx.theta(), ctx.one()])
    with pytest.raises(PrecisionExhausted):
        torsion_roots(phi, 30)


def test_torsion_deterministic_and_cap_stable():
    a = torsion_roots(_rank2(), 60)
    b = torsion_roots(_rank2(), 40)
    assert len(a.basis) == len(b.basis)
    for x, y in zip(a.basis, b.basis):
        assert x.truncate(35).coeffs == y.truncate(35).coeffs

