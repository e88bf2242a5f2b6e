"""Plain oracles that only the tests compare against: exact powers of a
Laurent element, the base-q digit factors of a bracket power, the
Newton-inverse expansion of a bracket fraction, exact evaluation of a
t-rational away from its poles, the degree of a bracket fraction, the
composed t-series sums, differences and pole products that the
one-pass forms replace, a sum of t-fractions that pads every numerator
to the window before adding, the F_q-span closure of torsion lifts, the
tuple key of the partition order, the quasi-period and its orbit sum
computed for one index j at a time, the Legendre determinant
report from Tate rows built at their own cap, a module's degree
bookkeeping in fractions.Fraction, a packed integer built from a
list of slots, the divisions by brackets and poles as they ran before
the fraction layer took them (1/[j] and the factors of W(theta) by
Newton inversion, W(t) by one pole division and scaling per factor, and
the two pole products as their own loops), and the zero test of a
Laurent element or a t-series below its caps.  The package itself needs
none of them."""

from array import array
from fractions import Fraction
from math import comb, inf as INF
from operator import xor

from drinfeld.agf import DeformedLog, _report
from drinfeld.errors import (OutsideRadius, PrecisionExhausted,
                             PreconditionError)
from drinfeld.ff import _LANE_FORMAT
from drinfeld.laurent import LaurentElem
from drinfeld.modules import _den_elem, bracket
from drinfeld.periods import _exp_deg_sup, _residual, torsion_roots
from drinfeld.tate import TateSeries


class EvalAtPole(PreconditionError):
    """Evaluation point coincides with a pole."""


def laurent_pow(x, n):
    """x^n by square and multiply; n < 0 inverts first."""
    if n < 0:
        return laurent_pow(x.invert(), -n)
    result = x.ctx.one()
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def bracket_digit_factor(ctx, e, k, d):
    """([e]^(q^k))^d for 0 < d < q, the factor that the base-q digit d
    of a multiplicity at place k contributes to [e]^mult.  As [e]^(q^k)
    = theta^(q^(e+k)) - theta^(q^k), its i-th term is C(d, i) (-1)^(d-i)
    theta^(i q^(e+k) + (d-i) q^k), with C(d, i) taken mod p (some
    vanish when q is not prime)."""
    hi, lo = -ctx.m * ctx.q ** (e + k), -ctx.m * ctx.q ** k
    return ctx.make({i * hi + (d - i) * lo:
                     ctx.field.int_scalar((-1) ** (d - i) * comb(d, i))
                     for i in range(d + 1)})


def frac_to_laurent_newton(frac, ucap):
    """Laurent expansion of the bracket fraction frac certified below
    ucap, by expanding prod [e]^mult over the sorted items and
    Newton-inverting it to the relative precision the cap needs."""
    ctx, num = frac.ctx, frac.num
    if not frac.den:
        return num.truncate(ucap)
    den = _den_elem(ctx, tuple(sorted(frac.den.items())))
    if not num.coeffs:  # zero to the numerator's precision
        return ctx.zero(min(ucap, num.cap - den.val))
    rel = ucap - num.vbound + den.val
    if rel <= 0:
        return ctx.zero(ucap)
    dinv = den.truncate(den.val + rel).invert()
    return (num * dinv).truncate(ucap)


def rational_eval(f, z):
    """Exact value of the t-rational f at t = z, away from its poles."""
    ctx = f.ctx
    num = f.num.eval(z)
    den = ctx.one()
    for e, mlt in sorted(f.den.items()):
        d = z - ctx.theta().pow_q(e)
        if d.is_exact_zero():
            raise EvalAtPole("evaluation point hits the pole at e=%d" % e)
        den = den * laurent_pow(d, mlt)
    return num * den.invert()


def frac_deg(f):
    """log_q of the absolute value of a bracket fraction as a Fraction;
    -inf for exact zero."""
    return f.num.deg_bound() - f.den_deg()


def laurent_sum(x, y):
    """x + y through the constructor: the terms merged with Field.add,
    the cap the lesser one, every operand copied."""
    add = x.ctx.field.add
    out = dict(x.coeffs)
    for e, c in y.coeffs.items():
        out[e] = add(out.get(e, 0), c)
    return LaurentElem(x.ctx, out, min(x.cap, y.cap))


def tate_sum(a, b):
    """a + b slot by slot, with a new ctx.zero() for every slot past
    the shorter operand."""
    tp = min(a.t_prec, b.t_prec)
    n = max(len(a.coeffs), len(b.coeffs)) if tp == INF else tp
    ctx = a.ctx
    return TateSeries(ctx, [
        laurent_sum(a.coeffs[k] if k < len(a.coeffs) else ctx.zero(),
                    b.coeffs[k] if k < len(b.coeffs) else ctx.zero())
        for k in range(n)], tp)


def tate_diff(a, b):
    """a - b as a + (-b)."""
    return tate_sum(a, -b)


def mul_pole_composed(x, e):
    """x * (t - theta^(q^e)) as shift_t(1) - scale(theta^(q^e))."""
    return tate_diff(x.shift_t(1), x.scale(x.ctx.theta().pow_q(e)))


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
    return (head, tuple((e, field.coords(c))
                        for e, c in sorted(x.coeffs.items())))


def torsion_span_oracle(phi, ucap, lifts):
    """(roots, basis) of the t-torsion by closing the F_q-span of the
    refined lifts (in the order of the residual's roots, ascending by
    packed int) with Laurent additions
    keyed by their truncations at ucap, sorting by (-val, (exponent,
    coordinates) of each term), and picking the basis greedily in that
    order, skipping any root already in the closed span of the basis."""
    ctx = phi.ctx
    field = ctx.field
    inner = ucap + ctx.m * (phi.r + 2)
    scalars = range(1, ctx.q)  # F_q^x, as packed ints
    span = {(): ctx.zero(inner)}
    for x in lifts:
        span = _span_with(span, x, scalars, ucap)
    roots = sorted(span.values(), key=lambda x: _sort_key(field, x))
    basis = []
    span = {_elem_key(ctx.zero(inner), ucap): ctx.zero(inner)}
    for cand in roots:
        if _elem_key(cand, ucap) in span:
            continue
        basis.append(cand)
        if len(basis) == phi.r:
            break
        span = _span_with(span, cand, scalars, ucap)
    return roots, basis


def residual_roots_scan(field, terms):
    """The nonzero roots of the residual sum c y^d over its terms {d: c},
    by evaluating it on every nonzero element of the field, ascending by
    packed int."""
    return [y for y in range(1, field.order) if not _residual(field, terms, y)]


def partition_lex_key(r, n):
    """The lexicographic key of a mask tuple: its flattened membership
    vector, bit j of S_1 first."""
    def key(masks):
        return tuple((m >> j) & 1 for m in masks for j in range(n))
    return key


def quasi_period_newton(dl, j, ucap):
    """F_j(omega) read off the deformed logarithm dl, as
    periods.quasi_period_prop gives it, with 1/[j] by Newton inversion
    of the bracket cut to the relative precision the cap needs:
    theta/(theta^(q^j) - theta) times the j-twisted value at theta,
    plus zeta^(q^j)."""
    ctx = dl.phi.ctx
    inner = ucap + 2 * ctx.m
    tw = dl.twist_eval_theta(j)
    br = bracket(ctx, j)
    val = tw * ctx.theta() * br.truncate(br.val + inner + ctx.m * ctx.q ** j
                                         ).invert()
    return (val + dl.xi.pow_q(j)).truncate(ucap)


def quasi_period_one_j(phi, j, zeta, ucap):
    """F_j(omega) for omega = theta L(zeta; theta) from a deformed
    logarithm built for this j alone at ucap + 2m, by quasi_period_newton."""
    return quasi_period_newton(DeformedLog(phi, zeta, ucap + 2 * phi.ctx.m),
                               j, ucap)


def omega_w_by_factors(om):
    """OmegaCarlitz's W(t) at its internal cap, one factor at a time: 1
    cut there, then divided by each pole t - theta^(q^i), i = 1..depth,
    and scaled by -theta^(q^i)."""
    ctx = om.ctx
    out = TateSeries.from_scalar(ctx, ctx.one(), om.t_prec
                                 ).truncate_u(om._inner)
    for i in range(1, om.depth + 1):
        out = out.div_pole(i).scale(-ctx.theta().pow_q(i))
    return out


def omega_w_theta_newton(om):
    """OmegaCarlitz's W(theta) at its internal cap as the product of the
    Newton inverses of the factors 1 - theta^(1 - q^i), each cut there."""
    ctx, rel = om.ctx, om._inner
    out = ctx.one().truncate(rel)
    for i in range(1, om.depth + 1):
        f = ctx.one() - ctx.theta().pow_q(i).invert() * ctx.theta()
        out = out * f.truncate(rel).invert()
    return out


def _sub_dict(field, y, c, shift, lim):
    """y minus c's terms moved by shift, those below lim only, in place."""
    sub = xor if field.p == 2 else field.sub
    for k, v in c.items():
        k += shift
        if k < lim:
            v = sub(y.get(k, 0), v)
            if v:
                y[k] = v
            else:
                y.pop(k, None)
    return y


def mul_pole_loop(x, e):
    """x * (t - theta^(q^e)) coefficient by coefficient: c_(k-1) cut at
    min(cap(c_(k-1)), cap(c_k) - m q^e), minus c_k moved down by m q^e
    below that limit."""
    ctx = x.ctx
    step = ctx.m * ctx.q ** e
    prev = ctx.zero()
    out = []
    for c in x.coeffs + [prev] if x.t_prec == INF else x.coeffs:
        lim = min(prev.cap, c.cap - step)
        y = {j: v for j, v in prev.coeffs.items() if j < lim}
        out.append(LaurentElem.wrap(
            ctx, _sub_dict(ctx.field, y, c.coeffs, -step, lim), lim))
        prev = c
    return TateSeries(ctx, out, x.t_prec)


def div_pole_loop(x, e, ucap=INF):
    """x / (t - theta^(q^e)) by y_k = u^(m q^e) (y_(k-1) - c_k): each
    step cuts both operands below lim = min(cap(y_(k-1)), cap(c_k),
    ucap - m q^e) and then moves them up by m q^e."""
    ctx = x.ctx
    step = ctx.m * ctx.q ** e
    y, cap, out = {}, INF, []
    for c in x.coeffs:
        lim = min(cap, c.cap, ucap - step)
        y = {k + step: v for k, v in y.items() if k < lim}
        y = _sub_dict(ctx.field, y, c.coeffs, step, lim + step)
        cap = lim + step
        out.append(LaurentElem.wrap(ctx, y, cap))
    return TateSeries(ctx, out, x.t_prec)


def zero_to_prec(x):
    """Whether a LaurentElem, or every coefficient of a TateSeries, has
    no terms below its cap."""
    if isinstance(x, TateSeries):
        return all(not c.coeffs for c in x.coeffs)
    return not x.coeffs


def quasi_orbit_one_j(phi, j, omega, ucap, terms=20):
    """(partial sum of sum_m exp(omega/theta^(m+1))^(q^j) theta^m over
    m < terms, certified log_q bound for the tail), evaluating the whole
    exp orbit for this j alone."""
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


def legendre_det_twist_one_cap(phi, ucap, t_prec):
    """The det_twist entry of the rank-2 Legendre report, from the Tate
    rows zeta^(q^col) - t L^(col) / (t - theta^(q^col)) of deformed
    logarithms built at inner = ucap + 4m itself."""
    ctx = phi.ctx
    inner = ucap + 4 * ctx.m
    rows = []
    for z in torsion_roots(phi, inner).basis:
        s = DeformedLog(phi, z, inner).series(t_prec)
        rows.append([-s.twist(col).div_pole(col).shift_t(1).truncate_t(t_prec)
                     + TateSeries.from_scalar(ctx, z.pow_q(col), t_prec)
                     for col in range(2)])
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    resid = det.twist(1).scale(phi.A[1]) + det.mul_pole(0)
    ok, uval, win = resid.residual_report()
    return _report(ok, uval, win)


def tate_mul_pairwise(x, y):
    """x * y one coefficient pair at a time: out[k] += a * b by
    LaurentElem.__mul__ and __add__, over the pairs that are not exactly
    zero, starting from one shared exact zero per slot."""
    tp = min(x.t_prec + y.tval, y.t_prec + x.tval)
    if tp == INF:
        n = len(x.coeffs) + len(y.coeffs) - 1 if x.coeffs and y.coeffs \
            else 0
    else:
        tp = int(tp)
        n = tp
    out = [x.ctx.zero()] * n
    for i, a in enumerate(x.coeffs):
        if a.is_exact_zero():
            continue
        for j, b in enumerate(y.coeffs):
            k = i + j
            if k >= n:
                break
            if not b.is_exact_zero():
                out[k] = out[k] + a * b
    return TateSeries(x.ctx, out, tp)


def expand_sum_pad_first(ctx, fracs, t_prec, ucap=INF):
    """sum(fracs) to O(t^t_prec), cut at ucap, with every numerator cut
    at ucap and padded to t_prec before any sum: the groups of equal
    pole multisets are added as series of the window, and each is
    divided by its top pole in turn, as tate.expand_sum does."""
    groups = {}

    def put(poles, x):
        groups[poles] = groups[poles] + x if poles in groups else x

    for f in fracs:
        put(tuple(sorted(f.den.items())),
            f.num.truncate_u(ucap).truncate_t(t_prec))
    while any(groups):
        poles = max(groups, key=lambda p: p[-1][0] if p else 0)
        e, mlt = poles[-1]
        put(poles[:-1] + (((e, mlt - 1),) if mlt > 1 else ()),
            groups.pop(poles).div_pole(e, ucap))
    return groups.get((), TateSeries.zero(ctx, t_prec)).truncate_u(ucap)


class FractionConvergence:
    """rho_i = (deg A_i - q^i)/(q^i - 1) over the support as Fractions,
    s the smallest index attaining max rho, logq_R = -rho_s."""

    def __init__(self, phi):
        q = phi.ctx.q
        self.support = phi.support
        self.rho = {i: Fraction(phi.A[i - 1].deg_bound() - q ** i,
                                q ** i - 1) for i in phi.support}
        best = max(self.rho.values())
        winners = [i for i in phi.support if self.rho[i] == best]
        self.s, self.strict = winners[0], len(winners) == 1
        self.logq_R = -self.rho[self.s]

    def to_json(self):
        return {
            "support": list(self.support),
            "rho": {str(i): [r.numerator, r.denominator]
                    for i, r in self.rho.items()},
            "s": self.s,
            "strict": self.strict,
            "logq_R": [self.logq_R.numerator, self.logq_R.denominator],
        }


class FractionDegrees:
    """A module's degree bookkeeping computed in fractions.Fraction: the
    recursive bound on log_q|alpha_n|, the exponential's sliding-window
    tail cut, the logarithm's closed-form tail cut, the radius, the
    orbit's sup bound, the shift-identity preconditions and the term
    bounds of the main theorem's (a)."""

    def __init__(self, phi):
        self.phi = phi
        self.da = [Fraction(0)]

    def exp_deg_bound(self, n):
        phi, q = self.phi, self.phi.ctx.q
        while len(self.da) <= n:
            k = len(self.da)
            best = None
            for i in phi.support:
                if i > k:
                    continue
                v = phi.A[i - 1].deg_bound() + q ** i * self.da[k - i]
                best = v if best is None else max(best, v)
            self.da.append(best - q ** k if best is not None else -INF)
        return self.da[n]

    def exp_tail_cut(self, d, val_target):
        phi, q = self.phi, self.phi.ctx.q
        d = Fraction(d)
        goal = Fraction(-val_target, phi.ctx.m)
        h = []
        for n in range(400):
            h.append(self.exp_deg_bound(n) + q ** n * d)
            if n >= phi.r:
                W = max(h[n - phi.r + 1:n + 1])
                if W <= goal and all(
                        phi.A[i - 1].deg_bound() + q ** i * W <=
                        W + q ** (n + 1) for i in phi.support):
                    return n + 1
        raise PrecisionExhausted("exponential tail did not certify; the "
                                 "requested cap is too deep; lower ucap")

    def convergence_data(self):
        return FractionConvergence(self.phi)

    def log_tail_cut(self, d, val_target):
        conv = self.convergence_data()
        rho = -conv.logq_R
        d = Fraction(d)
        if d >= conv.logq_R:
            raise OutsideRadius(
                "xi has log_q|xi| = %s but the convergence radius gives "
                "logq_R = %s; need log_q|xi| < logq_R" % (d, conv.logq_R))
        goal = Fraction(-val_target, self.phi.ctx.m)
        for n in range(1, 400):
            if self.phi.ctx.q ** n * (rho + d) - rho <= goal:
                return n
        raise PrecisionExhausted("logarithm tail did not certify; lower "
                                 "ucap")

    def exp_deg_sup(self, d, val_target):
        cut = self.exp_tail_cut(d, val_target)
        best = Fraction(-val_target, self.phi.ctx.m)
        for n in range(cut):
            da = self.exp_deg_bound(n)
            if da != -INF:
                best = max(best, da + self.phi.ctx.q ** n * Fraction(d))
        return best

    def shift_precondition_violations(self, xi):
        phi = self.phi
        logq_R = self.convergence_data().logq_R
        d = xi.deg_bound()
        out = [(0, 1 + d, logq_R)] if 1 + d >= logq_R else []
        for i in phi.support:
            v = phi.A[i - 1].deg_bound() + phi.ctx.q ** i * d
            if v >= logq_R:
                out.append((i, v, logq_R))
        return out

    def term_bounds(self, d, cut):
        """[numerator, denominator] of (q^n - 1) rho + q^n d, n < cut."""
        rho, q = -self.convergence_data().logq_R, self.phi.ctx.q
        out = [(q ** n - 1) * rho + q ** n * d for n in range(cut)]
        return [[b.numerator, b.denominator] for b in out]


def pack2_list(coeffs, v, n, slot):
    """The packed integer of slots v .. v + n - 1 (slot bytes wide),
    built from a Python list of n zeros."""
    z = [0] * n
    for e, c in coeffs.items():
        if e - v < n:
            z[e - v] = c
    return int.from_bytes(array(_LANE_FORMAT[slot], z), "little")
