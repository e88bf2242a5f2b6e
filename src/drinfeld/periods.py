"""Torsion, periods, quasi-periods, and the rank-2 determinant relation.

The t-torsion of phi is the kernel of the additive polynomial
phi_t(x) = theta x + sum A_i x^(q^i).  Root valuations come from the
Newton polygon, leading coefficients from a residual polynomial over the
residue field, and the rest from the refinement x <- x - phi_t(x)/theta,
whose error contracts since the linear coefficient dominates near a
simple residual root.  The full kernel is the F_q-span of the lifted
roots, which also absorbs residual multiplicities (two roots sharing a
leading term differ by a smaller-valuation root).
"""

from fractions import Fraction
from math import gcd, inf as INF

from .errors import (GateFailed, InvalidInput, PrecisionExhausted,
                     RamificationError, ResidueSplittingError)
from .ff import (_pol_deriv, _pol_divide, _pol_gcd, _pol_mod, _pol_powmod,
                 _pol_trim)
from .modules import DrinfeldModule, bracket
from .agf import DeformedLog, OmegaCarlitz, _check_t_prec, carlitz_pi
from .tate import TateSeries


def newton_slopes(points):
    """Lower convex hull of (degree, valuation) points; returns edges
    as (slope, x_start, x_end) with slopes strictly increasing."""
    pts = sorted(points)
    if len(pts) < 2:
        return []
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it sits on or above the chord
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return [(Fraction(b[1] - a[1], b[0] - a[0]), a[0], b[0])
            for a, b in zip(hull, hull[1:])]


def _squarefree_part(field, g):
    """Squarefree part over F_(q^s), peeling p-th powers as needed."""
    p = field.p
    g = _pol_trim(list(g))
    while True:
        d = _pol_deriv(field, g)
        if d:
            common = _pol_gcd(field, g, d)
            if len(common) <= 1:
                return g
            # divide out the repeated part and keep going
            g = _pol_divide(field, g, common)
        else:
            # g = h(y^p): take the p-th root coefficientwise
            root = []
            for k in range(0, len(g), p):
                c = g[k]
                root.append(field.pow_int(c, field.order // p) if c else 0)
            g = _pol_trim(root)
            if len(g) <= 1:
                return g


def _splitting_degree(field, g):
    """lcm of the irreducible factor degrees of g over F_(q^s)."""
    g = _squarefree_part(field, g)
    if len(g) <= 1:
        return 1
    need = 1
    h = _pol_powmod(field, [0, 1], field.order, g)
    k = 1
    x = [0, 1]
    while len(g) > 1 and k <= len(g):
        gk = _pol_gcd(field, g, _pol_trim(
            [field.sub(a, b) for a, b in
             zip(h + [0] * len(x), x + [0] * len(h))]))
        if len(gk) > 1:
            need = need * k // gcd(need, k)
            g = _pol_divide(field, g, gk)
            if len(g) <= 1:
                break
            h = _pol_mod(field, h, g)
        h = _pol_powmod(field, h, field.order, g)
        k += 1
    return need


class TorsionData:
    __slots__ = ("phi", "roots", "basis", "slopes", "traces", "in_radius")

    def __init__(self, phi, roots, basis, slopes, traces, in_radius):
        self.phi = phi
        self.roots = roots
        self.basis = basis
        self.slopes = slopes
        self.traces = traces
        self.in_radius = in_radius

    def to_json(self):
        return {
            "count": len(self.roots),
            "slopes": [[s.numerator, s.denominator, int(a), int(b)]
                       for s, a, b in self.slopes],
            "basis": [z.to_json() for z in self.basis],
            "in_radius": list(self.in_radius),
            "refinement_vals": self.traces,
        }


def _elem_key(x, cap):
    t = x.truncate(cap)
    return tuple(sorted(t.coeffs.items()))


def _span_with(span, x, scalars, ucap):
    """The span {key at ucap: element} grown by c*x for c in scalars;
    the first representative found for a key is kept.  Since every cap
    is >= ucap, the key of s + c*x depends only on the key of s."""
    out = dict(span)
    for s in span.values():
        for c in scalars:
            cand = s + x.scale(c)
            out.setdefault(_elem_key(cand, ucap), cand)
    return out


def _sort_key(field, x):
    head = -x.val if x.coeffs else -INF  # zero sorts first
    return (head, tuple((e, field.lex_key(c))
                        for e, c in sorted(x.coeffs.items())))


def torsion_roots(phi: DrinfeldModule, ucap):
    """All q^r roots of phi_t, a canonical F_q-basis of the kernel, and
    the refinement traces."""
    ctx = phi.ctx
    field = ctx.field
    q = ctx.q
    inner = ucap + ctx.m * (phi.r + 2)

    points = [(1, -ctx.m)]
    for i in phi.support:
        points.append((q ** i, phi.A[i - 1].val))
    slopes = newton_slopes(points)
    if len(slopes) != 1:
        # a second edge never contains the x-term, so its residual is a
        # pure Frobenius polynomial with only multiple roots
        raise PrecisionExhausted(
            "the kernel has %d valuation layers; only the single-layer "
            "case is supported" % len(slopes))

    slope, xa, xb = slopes[0]
    v = -slope  # valuation of every nonzero kernel element
    if v.denominator != 1:
        raise RamificationError(
            "torsion roots have valuation %s; enlarge m to %d"
            % (v, ctx.m * v.denominator),
            required_m=ctx.m * v.denominator)
    v = int(v)
    # residual polynomial from the points on the edge: a point lies on
    # it iff val + d*v attains the minimum.  The x-term is the left
    # endpoint, so g has a simple-root derivative and is separable.
    vmin = min(val + d * v for d, val in points)
    terms = {}
    for d, val in points:
        if val + d * v == vmin:
            lead = (ctx.theta() if d == 1 else phi.A[_log_q(q, d) - 1])
            terms[d] = lead.coeffs[lead.val]
    if field.order > (1 << 16):
        raise PrecisionExhausted("residue field too large to scan")
    ys = [y for y in range(1, field.order) if not _residual(field, terms, y)]
    if len(ys) < xb - xa:
        g = [0] * (max(terms) + 1)
        for d, c in terms.items():
            g[d] = c
        dd = _splitting_degree(field, g)
        raise ResidueSplittingError(
            "the residual polynomial splits over residue degree %d; "
            "enlarge s to %d" % (field.s * dd, field.s * dd),
            required_s=field.s * dd)

    lifted = []
    traces = []
    for y in ys:
        x = ctx.monomial(y, v)
        trace = []
        for _ in range(80):
            fx = phi.phi_action(x)
            if not fx.coeffs or fx.val >= inner:
                break
            trace.append(fx.val)
            if len(trace) > 1 and trace[-1] <= trace[-2]:
                raise PrecisionExhausted(
                    "torsion refinement stalled at valuation %d"
                    % trace[-1])
            x = x - fx * ctx.theta(-1)
        else:
            raise PrecisionExhausted("torsion refinement did not finish")
        lifted.append(x.truncate(inner))
        traces.append(trace)

    # close under the F_q-module structure
    base_scalars = range(1, q)  # F_q^x, as packed ints
    span = {(): ctx.zero(inner)}
    for x in lifted:
        span = _span_with(span, x, base_scalars, ucap)
    roots = sorted(span.values(), key=lambda x: _sort_key(field, x))
    if len(roots) != q ** phi.r:
        raise PrecisionExhausted(
            "found %d torsion elements, expected %d" % (len(roots),
                                                        q ** phi.r))
    for x in roots:
        if phi.phi_action(x).coeffs:
            raise PrecisionExhausted("a lifted root fails to annihilate")

    nonzero = [x for x in roots if x.coeffs]
    nonzero.sort(key=lambda x: _sort_key(field, x))
    basis = []
    span_map = {_elem_key(ctx.zero(inner), ucap): ctx.zero(inner)}
    for cand in nonzero:
        if _elem_key(cand, ucap) in span_map:
            continue
        basis.append(cand)
        if len(basis) == phi.r:
            break
        span_map = _span_with(span_map, cand, base_scalars, ucap)
    if len(basis) != phi.r:
        raise PrecisionExhausted("could not extract a full torsion basis")

    conv = phi.convergence_data()
    in_radius = [bool(z.deg() < conv.logq_R) for z in basis]
    return TorsionData(phi, roots, basis, slopes, traces, in_radius)


def _residual(field, terms, y):
    """g(y) for the residual polynomial g = sum c y^d over its nonzero
    terms {d: c}; g is linearised (d = 1 or q^i), so it has at most
    r + 1 terms against a degree of up to q^r."""
    acc = 0
    for d, c in terms.items():
        acc = field.add(acc, field.mul(c, field.pow_int(y, d)))
    return acc


def _log_q(q, d):
    i = 0
    while q ** i < d:
        i += 1
    return i


def period_from_torsion(phi: DrinfeldModule, zeta, ucap):
    """omega = theta L(zeta; theta) for a torsion point zeta inside the
    radius; re-verifies exp(omega / theta) = zeta and that omega is a
    genuine lattice point."""
    ctx = phi.ctx
    inner = ucap + 2 * ctx.m
    u = phi.log_eval(zeta, ucap=inner)
    omega = u * ctx.theta()
    back = phi.exp_eval(omega * ctx.theta(-1), ucap=inner)
    if (back - zeta).coeffs:
        raise PrecisionExhausted("period re-verification failed")
    if phi.exp_eval(omega, ucap=ucap).coeffs:
        raise PrecisionExhausted("theta log(zeta) is not a period")
    return omega.truncate(ucap)


def quasi_function_eval(phi: DrinfeldModule, j, z, ucap):
    """F_j(z) = sum_{k>=j} alpha_(k-j)^(q^j) z^(q^k) / [k], the biderived
    companion of the exponential; certified tail via the same window
    argument as the exponential (the k-th bound is q^j times the
    exponential bound at k - j with deg z - 1 in place of deg z)."""
    if j < 1:
        raise InvalidInput("quasi index must be >= 1")
    ctx = phi.ctx
    if z.is_exact_zero():
        return z
    if not z.coeffs:
        return ctx.zero(min(ucap, z.cap))
    d = z.deg()
    cut = phi.exp_tail_cut(d - 1, -(-ucap // ctx.q ** j))
    alpha = phi.exp_coeffs(cut - 1, "recurrence")
    total = ctx.zero(INF)
    zq = z.pow_q(j)
    for k in range(j, j + cut):
        term = alpha[k - j].pow_q(j).div_bracket(k)
        total = total + (term * zq).to_laurent(ucap)
        zq = zq.pow_q(1)
    return total.truncate(ucap)


def _exp_deg_sup(phi, d, val_target):
    """Certified upper bound for sup_n log_q|alpha_n x^(q^n)| over
    deg x <= d."""
    cut = phi.exp_tail_cut(d, val_target)
    best = Fraction(-val_target, phi.ctx.m)
    q = phi.ctx.q
    for n in range(cut):
        da = phi.exp_deg_bound(n)
        if da == -INF:
            continue
        v = da + q ** n * Fraction(d)
        if v > best:
            best = v
    return best


def quasi_period_orbit(phi: DrinfeldModule, j, omega, ucap, terms=20):
    """Partial sum of sum_m exp(omega/theta^(m+1))^(q^j) theta^m together
    with a certified log_q bound for the omitted tail.  For each fixed
    exponential term the (n, m) degree q^j(da(n) + q^n(d-m-1)) + m is
    strictly decreasing in m, so the tail is bounded by its value at
    m = terms."""
    if j < 1:
        raise InvalidInput("quasi index must be >= 1")
    if terms < 0:
        raise InvalidInput("terms must be >= 0, got %d" % terms)
    ctx = phi.ctx
    if not omega.coeffs:
        return omega.truncate(ucap), -INF
    inner = ucap + ctx.m * (terms + 1)
    acc = ctx.zero(INF)
    for mm in range(terms):
        e = phi.exp_eval(omega * ctx.theta(-(mm + 1)), ucap=inner)
        acc = acc + e.pow_q(j) * ctx.theta(mm)
    d = omega.deg_bound()
    tail = ctx.q ** j * _exp_deg_sup(phi, d - terms - 1,
                                     ucap * ctx.q ** j) + terms
    return acc.truncate(ucap), tail


def quasi_periods(phi: DrinfeldModule, zeta, ucap):
    """Quasi-periods F_j(omega), j = 1..r-1, of the period attached to
    the torsion point zeta; a rank-1 module has none."""
    return [quasi_period_prop(phi, j, zeta, ucap)
            for j in range(1, phi.r)]


def quasi_period_prop(phi: DrinfeldModule, j, zeta, ucap):
    """F_j(omega) for omega = theta L(zeta; theta), computed without
    summing F_j: theta/(theta^(q^j) - theta) times the j-twisted value
    of the deformed logarithm at theta, plus zeta^(q^j).

    (With ell division steps the correction is
    sum_{m < ell} exp(omega/theta^(m+1))^(q^j) theta^m; the exponent on
    theta is the summation index m.  Only ell = 1 is used here.)"""
    ctx = phi.ctx
    inner = ucap + 2 * ctx.m
    dl = DeformedLog(phi, zeta, inner)
    tw = dl.twist_eval_theta(j)
    br = bracket(ctx, j)
    val = tw * ctx.theta() * br.truncate(br.val + inner + ctx.m * ctx.q ** j
                                         ).invert()
    return (val + zeta.pow_q(j)).truncate(ucap)


def legendre_check(phi: DrinfeldModule, ucap, t_prec):
    """Rank-2 determinant relation.  Gate: deg of the j-invariant
    A_1^(q+1)/A_2 must be < q^2 (the two-torsion-slopes regime is out of
    scope).  Checks, below the stated caps:
      * eta from the closed form equals the direct series sum,
      * B det P^(1) + (t - theta) det P vanishes,
      * omega_1 eta_2 - omega_2 eta_1 = c pi / (-B)^(1/(q-1)), c in F_q*.
    """
    _check_t_prec(t_prec)
    ctx = phi.ctx
    q = ctx.q
    if phi.r != 2:
        raise InvalidInput("the determinant relation needs rank 2")
    B = phi.A[1]
    d1 = phi.A[0].deg()
    degj = -INF if d1 is None else (q + 1) * d1 - B.deg()
    if not degj < q * q:
        raise GateFailed(
            "j-invariant degree %s is not < q^2 = %d; this regime is "
            "outside the verified range" % (degj, q * q))

    inner = ucap + 4 * ctx.m
    tors = torsion_roots(phi, inner)
    zetas = tors.basis
    report = {"deg_j": None if degj == -INF else
              [Fraction(degj).numerator, Fraction(degj).denominator],
              "torsion": tors.to_json()}

    omegas, etas = [], []
    for zeta in zetas:
        om = period_from_torsion(phi, zeta, inner)
        eta_closed = quasi_period_prop(phi, 1, zeta, inner)
        eta_direct = quasi_function_eval(phi, 1, om, inner)
        if (eta_closed - eta_direct).coeffs:
            raise PrecisionExhausted("quasi-period routes disagree")
        omegas.append(om)
        etas.append(eta_closed)
    report["eta_routes_agree"] = True

    combo = omegas[0] * etas[1] - omegas[1] * etas[0]
    root = (-B).root_q_minus_1()
    pi = carlitz_pi(ctx, inner)
    expected_unit = pi * root.invert()
    ratio = combo * expected_unit.invert()
    ok_ratio = bool(ratio.coeffs) and ratio.val == 0
    c = ratio.coeffs.get(0, 0) if ok_ratio else 0
    ok_ratio = ok_ratio and c and ctx.field.in_base(c)
    resid_ratio = ratio - ctx.scalar(c)
    ok_ratio = ok_ratio and not resid_ratio.coeffs
    report["legendre"] = {"holds": ok_ratio, "c": ctx.field.coords(c),
                          "u_val": int(min(resid_ratio.cap, ucap)),
                          "value": combo.truncate(ucap).to_json()}
    report["branch"] = {"root_of_minus_B": ctx.field.coords(
        root.coeffs[root.val]), "root_val": root.val}

    # determinant twist identity
    dls = [DeformedLog(phi, z, inner) for z in zetas]
    rows = []
    for i, dl in enumerate(dls):
        s = dl.series(t_prec)
        row = []
        for col in range(2):
            # zeta_i^(q^col) - t s^(col) / (t - theta^(q^col))
            pole = s.twist(col).div_pole(col).shift_t(1).truncate_t(t_prec)
            entry = -pole + TateSeries.from_scalar(
                ctx, zetas[i].pow_q(col), t_prec)
            row.append(entry)
        rows.append(row)
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    resid = det.twist(1).scale(B) + det.mul_pole(0)
    ok_det, uval, win = resid.residual_report()
    report["det_twist"] = {"holds": ok_det,
                           "u_val": None if uval == INF else int(uval),
                           "t_prec": win}
    report["holds"] = bool(ok_ratio and ok_det
                           and report["eta_routes_agree"])
    return report


def carlitz_period_routes(ctx, ucap):
    """pi by the product formula, as minus the residue of omega, and
    through the torsion route theta log(lambda); the latter matches up
    to a unit in F_q*."""
    from .modules import carlitz as _carlitz
    om = OmegaCarlitz(ctx, ucap + 2 * ctx.m, 6)
    via_product = om.pi_tilde("factored").truncate(ucap)
    via_residue = (-om.theta_pole_form().residue).truncate(ucap)
    phi = _carlitz(ctx)
    tors = torsion_roots(phi, ucap + 2 * ctx.m)
    lam = tors.basis[0]
    via_torsion = period_from_torsion(phi, lam, ucap)
    ratio = via_torsion * via_product.invert()
    c = ratio.coeffs.get(0, 0)
    unit_ok = bool(c) and ctx.field.in_base(c) and not (
        ratio - ctx.scalar(c)).coeffs
    return {"product": via_product, "residue": via_residue,
            "torsion": via_torsion, "unit": c, "unit_ok": unit_ok}
