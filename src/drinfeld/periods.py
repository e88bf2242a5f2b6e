"""Torsion, periods, quasi-periods, and the rank-2 determinant relation.

The t-torsion of phi is the kernel of the additive polynomial
phi_t(x) = theta x + sum A_i x^(q^i).  Root valuations come from the
Newton polygon, leading coefficients from a residual polynomial over the
residue field, and the rest from the refinement x <- x - phi_t(x)/theta,
whose error contracts since the linear coefficient dominates near a
simple residual root.  The residual is F_q-linear and has a y-term, so
it is separable: each of its nonzero roots y lifts to the one kernel
element with leading term y u^v, and these lifts plus 0 are the kernel.
Its roots are the kernel of its matrix over F_p, read off its values on
the dim basis elements of the residue field and listed in ascending
packed int, the order of the refinement traces.

Per torsion point zeta, one deformed logarithm L(zeta; t) gives every
quasi-period eta_j and the Legendre rows; one exp orbit checks every eta_j.
"""

from fractions import Fraction
from math import inf as INF

from .errors import (GateFailed, InvalidInput, PrecisionExhausted,
                     RamificationError, ResidueSplittingError)
from .ff import _pol_mod, _pol_powmod, over_cap
from .modules import BracketFrac, DrinfeldModule
from .agf import (DeformedLog, OmegaCarlitz, _check_t_prec, _report,
                  carlitz_pi)
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


def _splitting_degree(field, g):
    """Degree over F_(q^s) of the splitting field of the residual g: the
    least k with y^(Q^k) = y mod g, Q = q^s.  The y-term makes g' a
    nonzero constant, so g is squarefree and k is the lcm of its factor
    degrees; Frobenius acts F_q-linearly on the at most r-dimensional
    space of roots, so k <= q^r - 1."""
    y = _pol_mod(field, [0, 1], g)
    h = _pol_powmod(field, y, field.order, g)
    k = 1
    while h != y:
        h = _pol_powmod(field, h, field.order, g)
        k += 1
    return k


class TorsionData:
    __slots__ = ("roots", "basis", "slopes", "traces")

    def __init__(self, roots, basis, slopes, traces):
        self.roots = roots
        self.basis = basis
        self.slopes = slopes
        self.traces = traces


def torsion_roots(phi: DrinfeldModule, ucap):
    """All q^r roots of phi_t, a canonical F_q-basis of the kernel, and
    the refinement traces (in the order of the residual's roots
    ascending by packed int).

    The roots are printed zero first, then by the F_p coordinates of
    the leading coefficient: on one valuation layer that is the order
    of (-val, (exponent, coordinates) of each term).  The basis is
    picked greedily in that order, skipping a root whose leading
    coefficient lies in the F_q-span of those already picked; the
    leading coefficient is injective and F_q-linear on the kernel, so
    this is the first F_q-basis in root order."""
    ctx = phi.ctx
    field = ctx.field
    q = ctx.q
    inner = ucap + ctx.m * (phi.r + 2)

    coeffs = [(1, ctx.theta())] + [(q ** i, phi.A[i - 1])
                                   for i in phi.support]
    points = [(d, c.val) for d, c in coeffs]
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
    terms = {d: c.coeffs[c.val] for d, c in coeffs if c.val + d * v == vmin}
    ys = _residual_kernel(field, terms)
    if len(ys) < xb - xa:
        g = [0] * (max(terms) + 1)
        for d, c in terms.items():
            g[d] = c
        s = field.s * _splitting_degree(field, g)
        raise ResidueSplittingError(
            "the residual polynomial splits over residue degree %d; "
            "enlarge s to %d%s" % (s, s, over_cap(q, s)), required_s=s)

    lifted = {}
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
        lifted[y] = x.truncate(inner)
        traces.append(trace)

    ys.sort(key=field.coords)
    roots = [ctx.zero(inner)] + [lifted[y] for y in ys]
    # every nonzero root has valuation v, so the roots stay distinct
    # below ucap exactly when ucap > v
    count = len({frozenset(x.truncate(ucap).coeffs.items()) for x in roots})
    if count != q ** phi.r:
        raise PrecisionExhausted(
            "found %d torsion elements, expected %d; raise ucap to %d"
            % (count, q ** phi.r, v + 1))
    for x in roots:
        if phi.phi_action(x).coeffs:
            raise PrecisionExhausted("a lifted root fails to annihilate")

    basis = []
    span = {0}  # F_q-span of the basis' leading coefficients
    for y in ys:
        if y in span:
            continue
        basis.append(lifted[y])
        if len(basis) == phi.r:
            break
        span = {field.add(a, field.mul(c, y)) for a in span for c in range(q)}
    if len(basis) != phi.r:
        raise PrecisionExhausted("could not extract a full torsion basis")
    return TorsionData(roots, basis, slopes, traces)


def _residual_kernel(field, terms):
    """The nonzero roots of the residual g = sum c y^d over the residue
    field, ascending by packed int.  g is F_p-linear, so they are the
    kernel of its matrix: g is evaluated on the dim basis elements p^k
    only.  Rows (g(p^k) | p^k) of coordinates are eliminated mod p on
    the left half; the rows whose left half vanishes are a basis of the
    kernel, whose F_p-span is listed."""
    p, dim = field.p, field.dim
    rows = [list(field.coords(v)) + [int(j == k) for j in range(dim)]
            for k, v in enumerate(field.basis_images(
                lambda y: _residual(field, terms, y)))]
    rank = 0
    for col in range(dim):
        piv = next((i for i in range(rank, dim) if rows[i][col]), None)
        if piv is None:
            continue
        row = rows[piv]
        inv = pow(row[col], p - 2, p)
        row = [x * inv % p for x in row]
        rows[piv] = rows[rank]
        rows[rank] = row
        for i in range(rank + 1, dim):
            c = rows[i][col]
            if c:
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], row)]
        rank += 1
    span = [[0] * dim]
    for row in rows[rank:]:
        span = [[(x + c * y) % p for x, y in zip(v, row[dim:])]
                for v in span for c in range(p)]
    return sorted(map(field.element, span))[1:]


def _residual(field, terms, y):
    """g(y) for the residual polynomial g = sum c y^d over its nonzero
    terms {d: c}; g is linearised (d = 1 or q^i), so it has at most
    r + 1 terms against a degree of up to q^r."""
    acc = 0
    for d, c in terms.items():
        acc = field.add(acc, field.mul(c, field.pow_int(y, d)))
    return acc


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
    cut = phi.exp_tail_cut(z.deg_bound() - 1, -(-ucap // ctx.q ** j))
    alpha = phi.exp_coeffs(cut - 1, "equation")
    fracs = [a.pow_q(j).div_factor(n + j) for n, a in enumerate(alpha)]
    return phi._eval_series(fracs, cut, z.pow_q(j), ucap)


def _exp_deg_sup(phi, d, val_target):
    """Certified upper bound for sup_n log_q|alpha_n x^(q^n)| over
    deg x <= d: the largest height of exp_tail_cut's window, or the
    goal -val_target/m if that is larger, read at the window's integer
    scale and returned as one Fraction."""
    _, heights, goal, scale = phi._exp_window(d, val_target)
    return Fraction(max(goal, *heights), scale)


def quasi_period_orbit(phi: DrinfeldModule, omega, ucap, terms=20):
    """[(partial sum of sum_m exp(omega/theta^(m+1))^(q^j) theta^m, a
    certified log_q bound for the omitted tail) for j = 1..r-1]; the orbit
    exp(omega/theta^(m+1)), m < terms, is evaluated once for every j, and
    not at all in rank 1.  For each fixed exponential term the (n, m)
    degree q^j(da(n) + q^n(d-m-1)) + m is strictly decreasing in m, so
    the tail is bounded by its value at m = terms."""
    if phi.r == 1:
        return []
    if terms < 0:
        raise InvalidInput("terms must be >= 0, got %d" % terms)
    ctx = phi.ctx
    if omega.is_exact_zero():
        return [(omega.truncate(ucap), -INF)] * (phi.r - 1)
    inner = ucap + ctx.m * (terms + 1)
    orbit = [phi.exp_eval(omega * ctx.theta(-(mm + 1)), ucap=inner)
             for mm in range(terms)]
    d = omega.deg_bound()
    out = []
    for j in range(1, phi.r):
        acc = ctx.zero(INF)
        for mm, e in enumerate(orbit):
            acc = acc + e.pow_q(j) * ctx.theta(mm)
        tail = ctx.q ** j * _exp_deg_sup(phi, d - terms - 1,
                                         ucap * ctx.q ** j) + terms
        out.append((acc.truncate(ucap), tail))
    return out


def quasi_periods(phi: DrinfeldModule, zeta, ucap):
    """Quasi-periods F_j(omega), j = 1..r-1, of the period attached to
    the torsion point zeta, all read off one DeformedLog at ucap + 2m; a
    rank-1 module has none and builds nothing."""
    if phi.r == 1:
        return []
    dl = DeformedLog(phi, zeta, ucap + 2 * phi.ctx.m)
    return [quasi_period_prop(dl, j, ucap) for j in range(1, phi.r)]


def quasi_period_prop(dl: DeformedLog, j, ucap):
    """F_j(omega) for omega = theta L(zeta; theta), zeta = dl.xi, read off
    the deformed logarithm dl without summing F_j: theta/[j] times the
    j-twisted value of dl at theta, plus zeta^(q^j).  [j] is divided out
    exactly (BracketFrac.times_to_laurent), so no working margin above
    ucap is needed: the value is certified below ucap when dl is built
    at ucap or above.  j < 1 names no bracket (InvalidInput).

    (With ell division steps the correction is
    sum_{m < ell} exp(omega/theta^(m+1))^(q^j) theta^m; the exponent on
    theta is the summation index m.  Only ell = 1 is used here.)"""
    ctx = dl.phi.ctx
    val = BracketFrac(ctx, ctx.theta(), {j: 1}).times_to_laurent(
        dl.twist_eval_theta(j), ucap)
    return (val + dl.xi.pow_q(j)).truncate(ucap)


def legendre_check(phi: DrinfeldModule, ucap, t_prec):
    """Rank-2 determinant relation.  Gate: deg of the j-invariant
    A_1^(q+1)/A_2 must be < q^2 (the two-torsion-slopes regime is out of
    scope).  Checks, below the stated caps:
      * eta from the closed form equals the direct series sum (else
        PrecisionExhausted is raised),
      * B det P^(1) + (t - theta) det P vanishes,
      * omega_1 eta_2 - omega_2 eta_1 = c pi / (-B)^(1/(q-1)), c in F_q*.
    """
    _check_t_prec(t_prec)
    ctx = phi.ctx
    q = ctx.q
    if phi.r != 2:
        raise InvalidInput("the determinant relation needs rank 2")
    B = phi.A[1]
    degj = (q + 1) * phi.A[0].deg_bound() - B.deg_bound()
    if not degj < q * q:
        raise GateFailed(
            "j-invariant degree %s is not < q^2 = %d; this regime is "
            "outside the verified range" % (degj, q * q))

    inner = ucap + 4 * ctx.m
    zetas = torsion_roots(phi, inner).basis
    report = {"deg_j": None if degj == -INF else
              [Fraction(degj).numerator, Fraction(degj).denominator]}

    omegas, etas, rows = [], [], []
    for zeta in zetas:
        om = period_from_torsion(phi, zeta, inner)
        dl = DeformedLog(phi, zeta, inner + 2 * ctx.m)
        eta_closed = quasi_period_prop(dl, 1, inner)
        eta_direct = quasi_function_eval(phi, 1, om, inner)
        if (eta_closed - eta_direct).coeffs:
            raise PrecisionExhausted("quasi-period routes disagree")
        omegas.append(om)
        etas.append(eta_closed)
        # determinant row: zeta^(q^col) - t s^(col) / (t - theta^(q^col))
        s = dl.series(t_prec).truncate_u(inner)
        rows.append([-s.twist(col).div_pole(col).shift_t(1)
                     + TateSeries.from_scalar(ctx, zeta.pow_q(col), t_prec)
                     for col in range(2)])

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

    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    resid = det.twist(1).scale(B) + det.mul_pole(0)
    ok_det, uval, win = resid.residual_report()
    report["det_twist"] = _report(ok_det, uval, win)
    report["holds"] = bool(ok_ratio and ok_det)
    return report


def carlitz_period_routes(ctx, ucap):
    """pi by the product formula and through the torsion route
    theta log(lambda); the latter matches up to a unit in F_q*."""
    from .modules import carlitz as _carlitz
    om = OmegaCarlitz(ctx, ucap + 2 * ctx.m, 6)
    via_product = om.pi_tilde("factored").truncate(ucap)
    phi = _carlitz(ctx)
    tors = torsion_roots(phi, ucap + 2 * ctx.m)
    lam = tors.basis[0]
    via_torsion = period_from_torsion(phi, lam, ucap)
    ratio = via_torsion * via_product.invert()
    c = ratio.coeffs.get(0, 0)
    unit_ok = bool(c) and ctx.field.in_base(c) and not (
        ratio - ctx.scalar(c)).coeffs
    return {"product": via_product, "torsion": via_torsion, "unit": c,
            "unit_ok": unit_ok}
