"""Plain oracles that only the tests compare against: exact powers of a
Laurent element, the base-q digit factors of a bracket power, the
Newton-inverse expansion of a bracket fraction, exact evaluation of a
t-rational away from its poles, the degree of a bracket fraction, the
composed t-series sums, differences and pole products that the
one-pass forms replace, a sum of t-fractions that pads every numerator
to the window before adding, the F_q-span closure of torsion lifts, the
tuple key of the partition order, the quasi-period and its orbit sum
computed for one index j at a time, and the Legendre determinant
report from Tate rows built at their own cap.  The package itself needs none
of them."""

from math import comb, inf as INF

from drinfeld.agf import DeformedLog, _report
from drinfeld.errors import PreconditionError
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


def quasi_period_one_j(phi, j, zeta, ucap):
    """F_j(omega) for omega = theta L(zeta; theta) from a deformed
    logarithm built for this j alone at ucap + 2m: theta/(theta^(q^j) -
    theta) times its j-twisted value at theta, plus zeta^(q^j)."""
    ctx = phi.ctx
    inner = ucap + 2 * ctx.m
    dl = DeformedLog(phi, zeta, inner)
    tw = dl.twist_eval_theta(j)
    br = bracket(ctx, j)
    val = tw * ctx.theta() * br.truncate(br.val + inner + ctx.m * ctx.q ** j
                                         ).invert()
    return (val + zeta.pow_q(j)).truncate(ucap)


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
