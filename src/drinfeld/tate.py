"""Series and rational functions in the deformation variable t.

TateSeries is a t-power series with LaurentElem coefficients, known for
t-degrees below t_prec (t_prec = +inf means a polynomial, exact beyond
its listed coefficients).  The Gauss norm of sum c_k t^k is max|c_k|,
and a series lies in the Tate algebra when |c_k| -> 0.

TateRational is numerator * product (t - theta^(q^e))^(-mult) with every
pole exponent e >= 1; it takes its arithmetic from FactoredFrac, the
base it shares with modules.BracketFrac, and an exactly zero one keeps
its poles.  All such poles lie strictly outside the closed unit t-disk,
so these expand into the Tate algebra, evaluate exactly at points
inside the disk and at theta, and twist by shifting pole exponents.  Expansion divides by one linear factor at a time
(TateSeries.div_pole): the quotient's coefficients obey the recurrence
y_k = theta^(-q^e) (y_(k-1) - c_k), so each pole costs O(t_prec)
coefficient steps, not an O(t_prec^2) product with a geometric series.
Every sum of fractions is expanded by expand_sum, which adds the
numerators that share a pole multiset and divides each group by its
top pole once, Horner style, so a chain of nested pole sets costs one
division per pole, not one per term and pole.  Its inverse,
TateSeries.mul_pole, multiplies by (t - theta^(q^e)) with one O(deg)
shift and scale; it serves every such product, including the lift of
both numerators to the max-merged pole multiset in sums and equality,
so no denominator is ever expanded.
The value theta itself is never a pole of these objects; anything with
a simple t = theta pole is carried in ThetaPoleForm, which keeps the
residue split off exactly.
"""

from math import inf as INF
from operator import xor

from .errors import (EvalAtPole, IndeterminateNorm, InvalidInput,
                     TailNotNegligible)
from .laurent import LaurentElem


class TateSeries:
    __slots__ = ("ctx", "coeffs", "t_prec")

    def __init__(self, ctx, coeffs, t_prec=INF):
        self.ctx = ctx
        coeffs = list(coeffs)
        if t_prec == INF:
            while coeffs and coeffs[-1].is_exact_zero():
                coeffs.pop()
        else:
            t_prec = int(t_prec)
            if t_prec < 0:
                raise InvalidInput("t_prec must be >= 0")
            if len(coeffs) < t_prec:
                coeffs = coeffs + [ctx.zero() for _ in range(t_prec - len(coeffs))]
            else:
                coeffs = coeffs[:t_prec]
        self.coeffs = coeffs
        self.t_prec = t_prec

    # -- constructors --

    @staticmethod
    def zero(ctx, t_prec=INF):
        return TateSeries(ctx, [], t_prec)

    @staticmethod
    def from_scalar(ctx, c, t_prec=INF):
        return TateSeries(ctx, [c], t_prec)

    # -- structure --

    @property
    def tval(self):
        """First index whose coefficient is not exactly zero (INF if none
        and the series is an exact polynomial)."""
        for k, c in enumerate(self.coeffs):
            if not c.is_exact_zero():
                return k
        return self.t_prec

    def is_zero_to_prec(self):
        return all(not c.coeffs for c in self.coeffs)

    @property
    def cap(self):
        """The least u-cap of the coefficients (INF when all are exact)."""
        return min((c.cap for c in self.coeffs), default=INF)

    # -- arithmetic --

    def _check(self, other):
        if not self.ctx.same(other.ctx):
            raise InvalidInput("operands live in different series contexts")

    def __add__(self, other):
        self._check(other)
        tp = min(self.t_prec, other.t_prec)
        n = max(len(self.coeffs), len(other.coeffs)) if tp == INF else tp
        z = self.ctx.zero()
        out = [(self.coeffs[k] if k < len(self.coeffs) else z)
               + (other.coeffs[k] if k < len(other.coeffs) else z)
               for k in range(n)]
        return TateSeries(self.ctx, out, tp)

    def __neg__(self):
        return TateSeries(self.ctx, [-c for c in self.coeffs], self.t_prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        tp = min(self.t_prec + other.tval, other.t_prec + self.tval)
        if tp == INF:
            n = len(self.coeffs) + len(other.coeffs) - 1 if self.coeffs and other.coeffs else 0
        else:
            tp = int(tp)
            n = tp
        out = [self.ctx.zero() for _ in range(n)]
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero():
                continue
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k >= n:
                    break
                if not b.is_exact_zero():
                    out[k] = out[k] + a * b
        return TateSeries(self.ctx, out, tp)

    def mul_pole(self, e):
        """self * (t - theta^(q^e)): one t-shift and one scale."""
        return self.shift_t(1) - self.scale(self.ctx.theta().pow_q(e))

    def div_pole(self, e):
        """self / (t - theta^(q^e)) in the Tate algebra, to the same
        t_prec: y_k = u^(m q^e) (y_(k-1) - c_k), each step one
        subtraction and one u-shift.  Caps obey the same recurrence,
        cap(y_k) = min(cap(y_(k-1)), cap(c_k)) + m q^e, so the result
        equals the product with the geometric series
        -sum_k theta^(-q^e (k+1)) t^k coefficient for coefficient and
        cap for cap.  The cap recurrence is min-plus linear, so dividing
        a sum gives the sum of the quotients, caps included."""
        if self.t_prec == INF:
            raise InvalidInput("dividing an exact polynomial by a pole "
                               "needs a finite t_prec")
        ctx = self.ctx
        step = ctx.m * ctx.q ** e
        field = ctx.field
        neg, sub = field.neg, xor if field.p == 2 else field.sub
        y, cap = {}, INF
        out = []
        for c in self.coeffs:
            lim = min(cap, c.cap)
            y = {k + step: v for k, v in y.items() if k < lim}
            for k, v in c.coeffs.items():
                if k >= lim:
                    continue
                k += step
                prev = y.get(k)
                if prev is None:
                    y[k] = neg(v)
                else:
                    v = sub(prev, v)
                    if v:
                        y[k] = v
                    else:
                        del y[k]
            cap = lim + step
            out.append(LaurentElem.wrap(ctx, y, cap))
        return TateSeries(ctx, out, self.t_prec)

    def scale(self, c: LaurentElem):
        return TateSeries(self.ctx, [x * c for x in self.coeffs], self.t_prec)

    def shift_t(self, k):
        if k < 0:
            raise InvalidInput("negative t-shift")
        tp = self.t_prec if self.t_prec == INF else self.t_prec + k
        return TateSeries(self.ctx, [self.ctx.zero()] * k + self.coeffs, tp)

    def twist(self, ell):
        """Coefficientwise Frobenius twist f -> f^(ell)."""
        return TateSeries(self.ctx, [c.pow_q(ell) for c in self.coeffs],
                          self.t_prec)

    def truncate_t(self, t_prec):
        if t_prec >= self.t_prec:
            return self
        return TateSeries(self.ctx, self.coeffs, t_prec)

    def truncate_u(self, cap):
        return TateSeries(self.ctx, [c.truncate(cap) for c in self.coeffs],
                          self.t_prec)

    # -- analysis --

    def gauss_norm_logq(self):
        """log_q of the Gauss norm over the known window.

        Certified against the u-caps of apparently-zero coefficients;
        coefficients beyond t_prec are the caller's responsibility (the
        series built here all have certified decaying tails).
        """
        best = None
        potential = None
        for c in self.coeffs:
            if c.coeffs:
                d = c.deg()
                best = d if best is None else max(best, d)
            elif not c.is_exact_zero():
                b = c.deg_bound()
                potential = b if potential is None else max(potential, b)
        if best is None:
            if potential is None:
                return -INF  # exactly zero
            raise IndeterminateNorm(
                "all coefficients vanish to precision; raise ucap")
        if potential is not None and potential > best:
            raise IndeterminateNorm(
                "an unknown coefficient could dominate; raise ucap")
        return best

    def eval(self, z: LaurentElem, tail_logq=None):
        """Value at z.  Exact polynomials evaluate exactly; truncated
        series require a certified bound tail_logq for log_q of the
        dropped tail sum_{k >= t_prec} c_k z^k."""
        acc = self.ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * z + c
        if self.t_prec != INF:
            if tail_logq is None:
                raise TailNotNegligible(
                    "evaluating a truncated series needs a certified tail "
                    "bound; none provided")
            acc = acc.truncate(self.ctx.val_from_logq(tail_logq))
        return acc

    def residual_report(self):
        """(holds, u_val, t_prec): holds iff no known-nonzero coefficient;
        u_val is the min cap over coefficients (INF when exactly zero)."""
        holds = True
        u_val = INF
        for c in self.coeffs:
            if c.coeffs:
                holds = False
                u_val = min(u_val, c.val)
            elif c.cap != INF:
                u_val = min(u_val, c.cap)
        return holds, u_val, self.t_prec

    def __eq__(self, other):
        return (isinstance(other, TateSeries) and self.ctx.same(other.ctx)
                and self.t_prec == other.t_prec and self.coeffs == other.coeffs)

    def __repr__(self):
        tp = "poly" if self.t_prec == INF else "O(t^%s)" % self.t_prec
        return "<TateSeries %d coeffs, %s>" % (len(self.coeffs), tp)

    def to_json(self):
        return {"t_prec": None if self.t_prec == INF else self.t_prec,
                "coeffs": [c.to_json() for c in self.coeffs]}


class FactoredFrac:
    """num / prod F_e^mult over den = {e: mult}, e >= 1: the arithmetic of
    TateRational (F_e = t - theta^(q^e)) and modules.BracketFrac (F_e =
    [e]).  Sums and equality lift both numerators to the max-merged
    multiset through the subclass's _lift(target)."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den=()):
        if isinstance(den, dict):
            den = den.items()
        den = {int(e): int(mlt) for e, mlt in den if mlt}
        for e, mlt in den.items():
            if e < 1 or mlt < 1:
                raise InvalidInput("factor exponents need e >= 1, mult >= 1")
        self.ctx = ctx
        self.num = num
        self.den = den

    _check = TateSeries._check

    def _merge(self, other):
        """{e: max multiplicity} over both denominators."""
        self._check(other)
        out = dict(self.den)
        for e, mlt in other.den.items():
            out[e] = max(out.get(e, 0), mlt)
        return out

    def __add__(self, other):
        den = self._merge(other)
        return type(self)(self.ctx, self._lift(den) + other._lift(den), den)

    def __neg__(self):
        return type(self)(self.ctx, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """A fraction times a fraction adds the multisets; times a scalar
        it scales the numerator."""
        if not isinstance(other, FactoredFrac):
            return type(self)(self.ctx, self._scale(other), self.den)
        self._check(other)
        den = dict(self.den)
        for e, mlt in other.den.items():
            den[e] = den.get(e, 0) + mlt
        return type(self)(self.ctx, self.num * other.num, den)

    def _scale(self, c):
        return self.num * c

    def equals(self, other):
        """Exact equality: the numerators lifted to the merged
        denominator agree.  Capped numerators are refused."""
        den = self._merge(other)
        if self.num.cap != INF or other.num.cap != INF:
            raise InvalidInput("exact equality needs exact numerators")
        return self._lift(den) == other._lift(den)


class TateRational(FactoredFrac):
    """num / prod (t - theta^(q^e))^mult with pole exponents e >= 1.  An
    exactly zero numerator keeps its poles."""

    __slots__ = ()

    def __init__(self, ctx, num, den=()):
        if not isinstance(num, TateSeries) or num.t_prec != INF:
            raise InvalidInput("numerator must be an exact t-polynomial")
        super().__init__(ctx, num, den)

    def _lift(self, target):
        """Numerator over the pole multiset target, which contains
        self.den: times each missing factor t - theta^(q^e)."""
        out = self.num
        for e, mlt in target.items():
            for _ in range(mlt - self.den.get(e, 0)):
                out = out.mul_pole(e)
        return out

    def _scale(self, c):
        return self.num.scale(c)

    def twist(self, ell):
        den = {e + ell: mlt for e, mlt in self.den.items()}
        if any(e < 1 for e in den):
            raise InvalidInput("twist would move a pole to exponent < 1")
        return TateRational(self.ctx, self.num.twist(ell), den)

    def truncate_u(self, cap):
        """The numerator's coefficients cut at cap.  Pole division only
        raises u-exponents, so the expansions of self and of the result
        agree below cap."""
        return TateRational(self.ctx, self.num.truncate_u(cap), self.den)

    def to_series(self, t_prec):
        return expand_sum(self.ctx, [self], t_prec)

    def eval(self, z: LaurentElem):
        """Exact evaluation away from the poles."""
        num = self.num.eval(z)
        den = self.ctx.one()
        for e, mlt in sorted(self.den.items()):
            d = z - self.ctx.theta().pow_q(e)
            if d.is_exact_zero():
                raise EvalAtPole("evaluation point hits the pole at e=%d" % e)
            den = den * d.pow(mlt)
        return num * den.invert()

    def to_json(self):
        return {"numer": self.num.to_json(),
                "poles": [list(p) for p in sorted(self.den.items())]}

    def __repr__(self):
        return "<TateRational deg %s, poles %r>" % (
            len(self.num.coeffs) - 1, sorted(self.den.items()))


def expand_sum(ctx, fracs, t_prec):
    """sum(fracs) as a series to O(t^t_prec).  Numerators (cut to
    t_prec) that share a pole multiset are added first; then the group
    with the largest top pole is divided once by that pole and added
    into the group with that pole removed, until only the pole-free
    group is left."""
    groups = {}

    def put(poles, x):
        groups[poles] = groups[poles] + x if poles in groups else x

    for f in fracs:
        put(tuple(sorted(f.den.items())), f.num.truncate_t(t_prec))
    while any(groups):
        poles = max(groups, key=lambda p: p[-1][0] if p else 0)
        e, mlt = poles[-1]
        put(poles[:-1] + (((e, mlt - 1),) if mlt > 1 else ()),
            groups.pop(poles).div_pole(e))
    return groups.get((), TateSeries.zero(ctx, t_prec))


class ThetaPoleForm:
    """regular + residue/(t - theta), with the residue kept exact."""

    __slots__ = ("regular", "residue")

    def __init__(self, regular: TateSeries, residue: LaurentElem):
        self.regular = regular
        self.residue = residue

    def to_series(self, t_prec=None):
        """regular + residue/(t - theta) to O(t^t_prec); t_prec defaults
        to that of the regular part and must be finite."""
        tp = self.regular.t_prec if t_prec is None else t_prec
        pole = TateSeries.from_scalar(self.regular.ctx, self.residue, tp)
        return self.regular.truncate_t(tp) + pole.div_pole(0)
