"""Plain oracles that only the tests compare against: exact powers of a
Laurent element, the base-q digit factors of a bracket power, the
Newton-inverse expansion of a bracket fraction, exact evaluation of a
t-rational away from its poles, and the degree of a bracket fraction.
The package itself needs none of them."""

from math import comb

from drinfeld.errors import PreconditionError
from drinfeld.modules import _den_elem


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
        return ctx.zero(num.cap - den.val)
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
    None for zero."""
    d = f.num.deg()
    if d is None:
        return None
    return d - f.den_deg()
