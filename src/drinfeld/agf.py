"""The t-deformation layer: partition summands as rationals in t, the
b-sequence by three routes, the deformed logarithm, the Anderson
generating function with its pole at theta split off exactly, and the
main identity checks tying them together.

All objects keep exact pole data; series truncations carry certified
u-caps and an explicit t-window, so every reported identity comes with
the precision below which its residual provably vanishes.
"""

from math import inf as INF

from .errors import (CompatPreconditionFailed, InvalidInput,
                     PrecisionExhausted, RamificationError)
from .laurent import LaurentElem
from .modules import BracketFrac, DrinfeldModule, check_index
from .partitions import enumerate_partitions
from .tate import TateRational, TateSeries, ThetaPoleForm, expand_sum


def x_phi(phi: DrinfeldModule, sp):
    """The summand attached to one shadowed partition:
    prod_i prod_{j in S_i} A_i^(q^j) / (t - theta^(q^(i+j))).

    In a valid partition the pole exponents i+j never repeat (two pairs
    with the same sum would overlap at cell i+j-1), so the poles are
    simple."""
    ctx = phi.ctx
    return TateRational.wrap(ctx, TateSeries.from_scalar(
        ctx, phi._a_power(sp)), sp.pair_sums())


def eval_theta_frac(phi, f: TateRational):
    """Exact value of a t-rational at t = theta as a bracket fraction
    (theta - theta^(q^e) = -[e])."""
    ctx = phi.ctx
    num = f.num.eval(ctx.theta())
    if sum(f.den.values()) % 2:
        num = -num
    return BracketFrac.wrap(ctx, num, f.den)


B_ROUTES = ("definition", "twist", "untwisted")


def b_seq(phi: DrinfeldModule, n, route="definition"):
    """b_0 .. b_n as exact rationals in t, in a new list.

    definition: sum of partition summands.
    twist:      b_m = sum_k A_k/(t - theta^(q^k)) * b_(m-k)^((k)).
    untwisted:  b_m = sum_k A_k^(q^(m-k))/(t - theta^(q^m)) * b_(m-k).

    The twist route builds each module's sequence once: one list held
    by phi is extended from its current length (_twist_step), as
    phi._extend_alpha extends alpha, and a call returns a copy of its
    first n + 1 entries, so a caller may change the list it gets."""
    ctx = phi.ctx
    one = TateRational(ctx, TateSeries.from_scalar(ctx, ctx.one()))
    if route not in B_ROUTES:
        raise InvalidInput("unknown route %r" % route)
    check_index(n)
    if route == "twist":
        seq = getattr(phi, "_b_twist", None)
        if seq is None:
            seq = phi._b_twist = [one]
        for m in range(len(seq), n + 1):
            seq.append(_twist_step(phi, seq, m))
        return seq[:n + 1]
    out = [one]
    for m in range(1, n + 1):
        acc = TateRational(ctx, TateSeries.zero(ctx))
        if route == "definition":
            for sp in enumerate_partitions(phi.r, m, support=phi.support):
                acc = acc + x_phi(phi, sp)
        else:
            for k in phi.support:
                if k > m:
                    continue
                acc = acc + (out[m - k] * phi.A[k - 1].pow_q(m - k)
                             ).div_factor(m)
        out.append(acc)
    return out


def _twist_step(phi, seq, m):
    """b_m by the twist recurrence, given b_0 .. b_(m-1) in seq."""
    acc = TateRational(phi.ctx, TateSeries.zero(phi.ctx))
    for k in phi.support:
        if k > m:
            continue
        acc = acc + (seq[m - k].twist(k) * phi.A[k - 1]).div_factor(k)
    return acc


def carlitz_bseq_product(ctx, n):
    """Rank-1, A_1 = 1: b_n = prod_{e=1..n} 1/(t - theta^(q^e)).  A
    closed product independent of the partition machinery."""
    return [TateRational(ctx, TateSeries.from_scalar(ctx, ctx.one()),
                         {e: 1 for e in range(1, m + 1)})
            for m in range(n + 1)]


class DeformedLog:
    """sum_n b_n(t) xi^(q^n), cut so that the dropped tail has u-valuation
    >= ucap in every t-coefficient (Gauss-norm bound
    log_q||b_n xi^(q^n)|| <= (q^n - 1) rho + q^n deg xi).

    The b_n come from b_seq's twist route, at most r terms a step, not
    from the partition sum.  That route keeps one sequence per module,
    so a second deformed logarithm on phi (at phi_t(xi), at a doubled
    cap, at another torsion point) runs only the steps past the longest
    cut so far.  On sparse supports its fractions may keep
    removable poles, and exact-zero numerators with poles, that the
    partition sum lacks; the values are the same.  The series and the
    values at theta read only values: a numerator cut at ucap divided by
    a pole it contains is exact below ucap, and a zero adds nothing, so
    the printed bytes do not depend on the route.  An xi with no terms
    is bounded by its cap (deg_bound) and takes the same terms, so the
    caps come from the b_n, as for any other xi."""

    def __init__(self, phi: DrinfeldModule, xi: LaurentElem, ucap):
        self.phi = phi
        self.xi = xi
        self.ucap = ucap
        if xi.is_exact_zero():
            self.cut = 0
            self.terms = []
            return
        self.cut = phi.log_tail_cut(xi.deg_bound(), ucap)
        seq = b_seq(phi, self.cut - 1, route="twist")
        self.terms = []
        xq = xi
        for n in range(self.cut):
            if n:
                xq = xq.pow_q(1)
            self.terms.append(seq[n] * xq)

    def series(self, t_prec):
        """The sum to O(t^t_prec), certified below ucap and cut there by
        expand_sum, which builds nothing above ucap.  The terms
        themselves stay exact: identity (b) compares them with beta
        exactly."""
        return expand_sum(self.phi.ctx, self.terms, t_prec, self.ucap)

    def eval_theta(self):
        """Value at t = theta via exact per-term rationals; agrees with
        log_phi(xi) termwise."""
        return self.twist_eval_theta(0)

    def twist_eval_theta(self, j):
        """Value of the j-fold twisted sum at t = theta; the certified
        cap scales by q^j along with the tail bound."""
        if j < 0:
            raise InvalidInput("twist index must be >= 0")
        ctx = self.phi.ctx
        cap = self.ucap * ctx.q ** j
        total = ctx.zero(INF)
        for term in self.terms:
            tw = term.twist(j)
            total = total + eval_theta_frac(self.phi, tw).to_laurent(cap)
        return total.truncate(cap)


class AGFValue:
    """Partial-fraction form of the generating function at u:
    u/(theta - t) + sum_{n>=1} alpha_n u^(q^n)/(theta^(q^n) - t),
    kept as (simple pole at theta with residue -u) + rationals whose
    poles all lie outside the unit disk.  Only the values of the alpha_n
    enter, so they come from phi's exp equation (route "equation")."""

    def __init__(self, phi: DrinfeldModule, u: LaurentElem, ucap):
        ctx = phi.ctx
        self.phi = phi
        self.u = u
        self.ucap = ucap
        if u.is_exact_zero():
            self.cut = 0
            self.terms = []
            self.residue = u
            return
        self.cut = phi.exp_tail_cut(u.deg_bound() - 1, ucap)
        alpha = phi.exp_coeffs(self.cut - 1, "equation")
        self.terms = []
        uq = u
        for n in range(1, self.cut):
            uq = uq.pow_q(1)
            c = alpha[n].times_to_laurent(-uq, ucap)
            self.terms.append(
                TateRational(ctx, TateSeries.from_scalar(ctx, c), {n: 1}))
        self.residue = -u

    def theta_pole_form(self, t_prec):
        return ThetaPoleForm(
            expand_sum(self.phi.ctx, self.terms, t_prec, self.ucap),
            self.residue)


def agf(phi, u, ucap):
    return AGFValue(phi, u, ucap)


def delta(phi: DrinfeldModule, G: TateSeries):
    """The operator A_r tau^r + ... + A_1 tau - (t - theta) applied to
    G, tau being the coefficientwise Frobenius twist."""
    out = -G.mul_pole(0)
    for i in phi.support:
        out = out + G.twist(i).scale(phi.A[i - 1])
    return out


def shift_precondition_violations(phi: DrinfeldModule, xi):
    """The shift identity needs |A_i xi^(q^i)| < R for 0 <= i <= r, with
    A_0 = theta.  Returns (i, offending log_q value, logq_R) triples."""
    conv = phi.convergence_data()
    d = xi.deg_bound()
    out = []
    if 1 + d >= conv.logq_R:
        out.append((0, 1 + d, conv.logq_R))
    for i in range(1, phi.r + 1):
        if phi.A[i - 1].is_exact_zero():
            continue
        v = phi.A[i - 1].deg_bound() + phi.ctx.q ** i * d
        if v >= conv.logq_R:
            out.append((i, v, conv.logq_R))
    return out


def _report(ok, u_val, t_prec=None):
    rep = {"holds": bool(ok),
           "u_val": None if u_val == INF else int(u_val)}
    if t_prec is not None:
        rep["t_prec"] = None if t_prec == INF else int(t_prec)
    return rep


def _check_t_prec(t_prec):
    """An identity checked on an empty t-window checks nothing."""
    if t_prec < 1:
        raise InvalidInput("t_prec must be >= 1 to check an identity (got %s)"
                           % t_prec)


def check_main_theorem(phi: DrinfeldModule, xi: LaurentElem, ucap, t_prec):
    """Verify, below explicit caps, the convergence statement and the
    four identities satisfied by the deformed logarithm at xi.  Raises
    the appropriate precondition error instead of failing an identity
    when xi is out of range.  Identity (b) compares each b_n(theta) with
    the beta_n of phi's log equation, and the deformed logarithm with
    log_eval; no partition sum over beta runs here."""
    _check_t_prec(t_prec)
    ctx = phi.ctx
    conv = phi.convergence_data()
    margin = ctx.m * (phi.r + 2)
    inner = ucap + margin

    dl = DeformedLog(phi, xi, inner)
    report = {"logq_R": [conv.logq_R.numerator, conv.logq_R.denominator],
              "s": conv.s, "cut": dl.cut}

    # (a) convergence: the certified Gauss-norm bounds of the summands
    # strictly decrease once n is past the support, staying <= the
    # radius bound.  An exact-zero xi has no summands.
    rho = -conv.logq_R
    d = xi.deg_bound()
    bounds = [(ctx.q ** n - 1) * rho + ctx.q ** n * d
              for n in range(dl.cut)]
    dec = all(bounds[n + 1] < bounds[n] for n in range(len(bounds) - 1))
    report["a"] = {"holds": bool(dec),
                   "term_bound_logq": [[b.numerator, b.denominator]
                                       for b in bounds]}

    # (b) value at theta equals the logarithm, termwise exact (against
    # beta from phi's log equation) plus a capped numeric comparison.
    beta = phi.log_coeffs(max(dl.cut - 1, 0), "equation")
    termwise = True
    xq = xi
    for n, term in enumerate(dl.terms):
        if n:
            xq = xq.pow_q(1)
        got = eval_theta_frac(phi, term)
        diff = got - beta[n] * xq
        if diff.num.coeffs:
            termwise = False
            break
    lhs_theta = dl.eval_theta()
    u = phi.log_eval(xi, ucap=inner)
    diff_b = lhs_theta - u
    report["b"] = _report(termwise and not diff_b.coeffs,
                          min(diff_b.cap, ucap))

    # (c) the delta operator recovers xi from -L/(t - theta).
    s = dl.series(t_prec)
    applied = delta(phi, -s.div_pole(0))
    resid_c = applied - TateSeries.from_scalar(ctx, xi)
    ok_c, val_c, win_c = resid_c.residual_report()
    report["c"] = _report(ok_c, min(val_c, ucap), win_c)

    # (d) L(xi; t) = -(t - theta) f(u; t) at u = log_phi(xi).
    form = agf(phi, u, inner).theta_pole_form(t_prec)
    rhs_d = -(form.regular.mul_pole(0) +
              TateSeries.from_scalar(ctx, form.residue))
    resid_d = s - rhs_d
    ok_d, val_d, win_d = resid_d.residual_report()
    report["d"] = _report(ok_d, min(val_d, ucap), win_d)

    # (e) the shift identity, guarded by its preconditions.
    viol = shift_precondition_violations(phi, xi)
    if viol:
        i, v, rr = viol[0]
        raise CompatPreconditionFailed(
            "shift identity precondition fails at i=%d: log_q|A_i xi^(q^i)|"
            " = %s but logq_R = %s; choose xi with smaller absolute value"
            % (i, v, rr))
    phixi = phi.phi_action(xi)
    dl2 = DeformedLog(phi, phixi, inner)
    lhs_e = dl2.series(t_prec)
    rhs_e = s.shift_t(1) - TateSeries.from_scalar(ctx, xi).mul_pole(0)
    resid_e = lhs_e - rhs_e
    ok_e, val_e, win_e = resid_e.residual_report()
    report["e"] = _report(ok_e, min(val_e, ucap), win_e)

    report["holds"] = all(report[k]["holds"] for k in "abcde")
    return report


# -- the Carlitz tower: omega and the period --

class OmegaCarlitz:
    """omega(t) = (-theta)^(1/(q-1)) prod_{i>=0} (1 - t/theta^(q^i))^(-1),
    held as the root, the pole factor at theta, and the regular product
    W = prod_{i>=1}, so the residue at theta stays certified.

    Internal work happens a few digits above the requested cap so that
    the scale by theta * root (negative valuation) still leaves every
    published coefficient certified below ucap."""

    def __init__(self, ctx, ucap, t_prec):
        self.ctx = ctx
        self.ucap = ucap
        self.t_prec = t_prec
        q = ctx.q
        if ctx.m % (q - 1):
            raise RamificationError(
                "(-theta)^(1/(q-1)) needs (q-1) | m; enlarge m to %d"
                % (ctx.m * (q - 1)), required_m=ctx.m * (q - 1))
        self.root = (-ctx.theta()).root_q_minus_1()
        self._inner = ucap + 3 * ctx.m
        # a factor with m(q^i - 1) beyond the working cap is 1 there
        self.depth = 1
        while ctx.m * (q ** (self.depth + 1) - 1) <= self._inner:
            self.depth += 1
            if self.depth > 64:
                raise PrecisionExhausted("omega factor depth exploded")
        self._w = None

    def regular_series(self):
        """W = prod_{i>=1} (1 - t/theta^(q^i))^(-1) as a series at the
        internal cap.  Every factor has u-exponents >= 0, so cutting at
        that cap first drops nothing below it.  W depends only on ctx,
        t_prec, the internal cap and depth, all fixed in __init__, so it
        is built on the first call and handed out again after that
        (series are never changed after construction)."""
        if self._w is None:
            ctx = self.ctx
            out = TateSeries.from_scalar(ctx, ctx.one(), self.t_prec
                                         ).truncate_u(self._inner)
            for i in range(1, self.depth + 1):
                out = out.div_pole(i).scale(-ctx.theta().pow_q(i))
            self._w = out
        return self._w

    def series(self):
        ctx = self.ctx
        W = self.regular_series()
        return W.scale(self.root * (-ctx.theta())).div_pole(0, self.ucap)

    def theta_pole_form(self):
        """Split omega = regular + res/(t - theta), the residue being
        -theta * root * W(theta)."""
        ctx = self.ctx
        res = -(self.pi_tilde("factored"))
        pole = TateSeries.from_scalar(ctx, res, self.t_prec).div_pole(
            0, self.ucap)
        reg = self.series() - pole
        return ThetaPoleForm(reg, res)

    def _w_factors_theta(self):
        """Exact binomials 1 - theta^(1 - q^i) for the i that matter."""
        ctx = self.ctx
        return [ctx.one() - ctx.theta().pow_q(i).invert() * ctx.theta()
                for i in range(1, self.depth + 1)]

    def _w_at_theta(self, path):
        """W(theta) three ways; 'series' certifies its own t-tail from
        |c_k theta^k| <= q^((1-q)k)."""
        ctx = self.ctx
        rel = self._inner
        factors = self._w_factors_theta()
        if path == "factored":
            out = ctx.one().truncate(rel)
            for f in factors:
                out = out * f.truncate(rel).invert()
            return out
        if path == "single":
            prod = ctx.one()
            for f in factors:
                prod = prod * f
            return prod.truncate(prod.val + rel).invert()
        if path == "series":
            return self.regular_series().eval(
                ctx.theta(), tail_logq=-(ctx.q - 1) * self.t_prec
            ).truncate(rel)
        raise InvalidInput("unknown path %r" % path)

    def pi_tilde(self, path="factored"):
        """The period: theta (-theta)^(1/(q-1)) prod_{i>=1}
        (1 - theta^(1-q^i))^(-1) = -Res_theta(omega)."""
        val = self.root * self.ctx.theta() * self._w_at_theta(path)
        return val.truncate(self.ucap)

    def diff_eq_residual(self):
        """omega^(1) - (t - theta) omega, as a truncated series; the
        functional equation says it vanishes.  Built from the
        internal-cap series so the theta factor does not eat into the
        published cap."""
        ctx = self.ctx
        W = self.regular_series()
        s = W.scale(self.root * (-ctx.theta())).div_pole(
            0, self._inner - ctx.m)
        resid = s.twist(1) - s.mul_pole(0)
        return resid.truncate_u(self.ucap)


def omega_carlitz(ctx, ucap, t_prec):
    return OmegaCarlitz(ctx, ucap, t_prec)


def carlitz_pi(ctx, ucap):
    """Standalone period computation through the factored product."""
    return OmegaCarlitz(ctx, ucap, 4).pi_tilde("factored")
