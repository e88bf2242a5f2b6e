"""Plain oracles that only the tests compare against: exact powers of a
Laurent element, exact evaluation of a t-rational away from its poles,
and the degree of a bracket fraction.  The package itself needs none of
them."""

from drinfeld.errors import PreconditionError


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
