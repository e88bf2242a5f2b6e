"""Series and rational functions in the deformation variable t.

TateSeries is a t-power series with LaurentElem coefficients, known for
t-degrees below t_prec (t_prec = +inf means a polynomial, exact beyond
its listed coefficients).  The Gauss norm of sum c_k t^k is max|c_k|,
and a series lies in the Tate algebra when |c_k| -> 0.  A product of
two series is one convolution of their coefficient dicts
(laurent._convolve), cut at caps that are computed up front, with no
LaurentElem product or sum per coefficient pair: every wide pair that
lands on one output coefficient is summed in one packed integer.

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
division per pole, not one per term and pole.  A caller that wants the
expansion cut at a u-cap passes that cap in and cuts nothing itself:
each division stops there, and the cap recurrence is min-plus linear,
so nothing changes below it and nothing above it is built.  Its inverse,
TateSeries.mul_pole, multiplies by (t - theta^(q^e)) in one pass that
builds each coefficient c_(k-1) - theta^(q^e) c_k as a single dict, by
the pole step (_pole_step) that each division step runs too; it serves
every such product, including the lift of both numerators to
the max-merged pole multiset in sums and equality, so no denominator is
ever expanded.  Sums and differences also run in one pass: past the
shorter operand they take the longer one's coefficients as they are,
and every padding slot is one shared exact zero.
The value theta itself is never a pole of these objects; anything with
a simple t = theta pole is carried in ThetaPoleForm, which keeps the
residue split off exactly.
"""

from math import inf as INF
from operator import xor

from .errors import IndeterminateNorm, InvalidInput, TailNotNegligible
from .laurent import LaurentElem, _convolve


def _pole_step(neg, sub, A, a, B, b, lim):
    """{e + a: A[e]} - {e + b: B[e]} below lim, the limit after the
    shifts, as one new dict: terms that land at or above lim are
    dropped, and coefficients that cancel are deleted; neg and sub are
    the field's.  This is the one step of both pole products,
    TateSeries.mul_pole (a = 0, which copies A with no shift) and
    div_pole."""
    if a:
        cut = lim - a
        out = {e + a: v for e, v in A.items() if e < cut}
    else:
        out = {e: v for e, v in A.items() if e < lim}
    cut = lim - b
    for e, v in B.items():
        if e >= cut:
            continue
        e += b
        p = out.get(e)
        if p is None:
            out[e] = neg(v)
        else:
            v = sub(p, v)
            if v:
                out[e] = v
            else:
                del out[e]
    return out


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
                coeffs += [ctx.zero()] * (t_prec - len(coeffs))
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

    @property
    def cap(self):
        """The least u-cap of the coefficients (INF when all are exact)."""
        return min((c.cap for c in self.coeffs), default=INF)

    # -- arithmetic --

    _check = LaurentElem._check

    def __add__(self, other):
        """One pass: past the shorter operand the longer one's
        coefficients are taken as they are."""
        self._check(other)
        tp = min(self.t_prec, other.t_prec)
        a, b = self.coeffs, other.coeffs
        if tp != INF:
            a, b = a[:tp], b[:tp]
        out = [x + y for x, y in zip(a, b)]
        out += a[len(b):] or b[len(a):]
        return TateSeries(self.ctx, out, tp)

    def __neg__(self):
        return TateSeries(self.ctx, [-c for c in self.coeffs], self.t_prec)

    def __sub__(self, other):
        """self + (-other) in one pass, as __add__."""
        self._check(other)
        tp = min(self.t_prec, other.t_prec)
        a, b = self.coeffs, other.coeffs
        if tp != INF:
            a, b = a[:tp], b[:tp]
        out = [x - y for x, y in zip(a, b)]
        out += a[len(b):] or [-y for y in b[len(a):]]
        return TateSeries(self.ctx, out, tp)

    def __mul__(self, other):
        """The Cauchy product as one convolution (laurent._convolve).
        Coefficient k takes the cap that LaurentElem.__mul__ and then
        __add__ would give it: the least min(vbound(a) + cap(b),
        vbound(b) + cap(a)) over its pairs a, b that are not exactly
        zero.  A slot where no such pair lands is the shared exact zero;
        one where the pairs leave no terms is termless at that cap."""
        self._check(other)
        tp = min(self.t_prec + other.tval, other.t_prec + self.tval)
        a, b = self.coeffs, other.coeffs
        if tp == INF:
            n = len(a) + len(b) - 1 if a and b else 0
        else:
            tp = int(tp)
            n = tp
        vb = [(y.vbound, y.cap) for y in b[:n]]
        caps = [None] * n
        for i, x in enumerate(a[:n]):
            if not x.coeffs and x.cap == INF:
                continue
            va, ca = x.vbound, x.cap
            for k, (vy, cy) in enumerate(vb[:n - i], i):
                if vy == INF:
                    continue
                c = min(va + cy, vy + ca)
                if caps[k] is None or c < caps[k]:
                    caps[k] = c
        ctx = self.ctx
        dicts = _convolve(ctx.field, [x.coeffs for x in a[:n]],
                          [y.coeffs for y in b[:n]],
                          [INF if c is None else c for c in caps])
        zero = ctx.zero()
        wrap = LaurentElem.wrap
        return TateSeries(ctx, [zero if c is None else wrap(ctx, d, c)
                                for d, c in zip(dicts, caps)], tp)

    def mul_pole(self, e):
        """self * (t - theta^(q^e)) in one pass: y_k = c_(k-1) -
        u^(-m q^e) c_k, one pole step (_pole_step) per coefficient, with
        cap(y_k) = min(cap(c_(k-1)), cap(c_k) - m q^e), the caps of the
        shifted series minus the scaled one."""
        ctx = self.ctx
        step = ctx.m * ctx.q ** e
        field = ctx.field
        neg, sub = field.neg, xor if field.p == 2 else field.sub
        prev = ctx.zero()
        cs = self.coeffs + [prev] if self.t_prec == INF else self.coeffs
        out = []
        for c in cs:
            lim = min(prev.cap, c.cap - step)
            out.append(LaurentElem.wrap(ctx, _pole_step(
                neg, sub, prev.coeffs, 0, c.coeffs, -step, lim), lim))
            prev = c
        return TateSeries(ctx, out, self.t_prec)

    def div_pole(self, e, ucap=INF):
        """self / (t - theta^(q^e)) in the Tate algebra, to the same
        t_prec: y_k = u^(m q^e) (y_(k-1) - c_k), each step one pole step
        (_pole_step) that shifts both operands up by m q^e, then cuts.
        Caps obey the same recurrence, cap(y_k) = min(cap(y_(k-1)),
        cap(c_k)) + m q^e, so the result equals the product with the
        geometric series -sum_k theta^(-q^e (k+1)) t^k coefficient for
        coefficient and cap for cap.  The cap recurrence is min-plus linear, so dividing
        a sum gives the sum of the quotients, caps included.

        A finite ucap stops each step at ucap: every step reads only
        exponents below min(cap(y_(k-1)), cap(c_k), ucap - m q^e), so
        the result equals self.div_pole(e).truncate_u(ucap) coefficient
        for coefficient and cap for cap, and nothing above ucap is
        built."""
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
            cap = min(cap, c.cap, ucap - step) + step
            y = _pole_step(neg, sub, y, step, c.coeffs, step, cap)
            out.append(LaurentElem.wrap(ctx, y, cap))
        return TateSeries(ctx, out, self.t_prec)

    def scale(self, c: LaurentElem):
        """self * c coefficientwise.  The exact one hands back self, as
        each product x * 1 would give x itself; a capped one takes the
        products, which cut at its cap."""
        if c.cap == INF and c.coeffs == {0: 1}:
            return self
        return TateSeries(self.ctx, [x * c for x in self.coeffs], self.t_prec)

    def shift_t(self, k):
        if k < 0:
            raise InvalidInput("negative t-shift")
        tp = self.t_prec if self.t_prec == INF else self.t_prec + k
        return TateSeries(self.ctx, [self.ctx.zero()] * k + self.coeffs, tp)

    def twist(self, ell):
        """Coefficientwise Frobenius twist f -> f^(ell).  Twists run
        forward only: ell < 0 raises InvalidInput, also on an empty
        series, where no LaurentElem.pow_q would see it."""
        if ell < 0:
            raise InvalidInput("Frobenius twists run forward only, got ell"
                               " = %d" % ell)
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
                d = c.deg_bound()
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

    def to_text(self):
        """to_json() as JSON text with sorted keys."""
        return '{"coeffs": [%s], "t_prec": %s}' % (
            ", ".join([c.to_text() for c in self.coeffs]),
            "null" if self.t_prec == INF else self.t_prec)


class FactoredFrac:
    """num / prod F_e^mult over den = {e: mult}, e >= 1: the arithmetic of
    TateRational (F_e = t - theta^(q^e)) and modules.BracketFrac (F_e =
    [e]).  Sums and equality lift both numerators to the max-merged
    multiset through the subclass's _lift(target); a sum of two
    fractions over equal multisets keeps that multiset and lifts
    nothing.

    A den is never changed in place once it is built, so results share
    it freely.  The constructor validates its den; fractions the kernel
    builds from valid data (sums, negations, products, scalings,
    div_factor and the subclasses' twists) skip that through wrap, as
    LaurentElem.wrap does for elements."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den=()):
        if isinstance(den, dict):
            den = den.items()
        out = {}
        for e, mlt in den:
            try:
                ok = e == int(e) and mlt == int(mlt)
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise InvalidInput("factor exponents and multiplicities "
                                   "must be integers, got (%r, %r)"
                                   % (e, mlt))
            if e in out:
                raise InvalidInput("factor exponent %d is given twice" % e)
            if mlt and (e < 1 or mlt < 1):
                raise InvalidInput("factor exponents need e >= 1, mult >= 1")
            out[int(e)] = int(mlt)
        self.ctx = ctx
        self.num = num
        self.den = {e: mlt for e, mlt in out.items() if mlt}

    @classmethod
    def wrap(cls, ctx, num, den):
        """A fraction on num and den themselves: den must be a dict of
        e >= 1 to mult >= 1 that nobody changes afterwards."""
        x = cls.__new__(cls)
        x.ctx, x.num, x.den = ctx, num, den
        return x

    _check = LaurentElem._check

    def _merge(self, other):
        """{e: max multiplicity} over both denominators; the shared den
        itself when the two are equal."""
        self._check(other)
        if self.den == other.den:
            return self.den
        out = dict(self.den)
        for e, mlt in other.den.items():
            out[e] = max(out.get(e, 0), mlt)
        return out

    def __add__(self, other):
        den = self._merge(other)
        return self.wrap(self.ctx, self._lift(den) + other._lift(den), den)

    def __neg__(self):
        return self.wrap(self.ctx, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """A fraction times a fraction adds the multisets; times a scalar
        it scales the numerator."""
        if not isinstance(other, FactoredFrac):
            return self.wrap(self.ctx, self._scale(other), self.den)
        self._check(other)
        den = dict(self.den)
        for e, mlt in other.den.items():
            den[e] = den.get(e, 0) + mlt
        return self.wrap(self.ctx, self.num * other.num, den)

    def _scale(self, c):
        return self.num * c

    def div_factor(self, e):
        """self / F_e: one more factor in the denominator."""
        den = dict(self.den)
        den[e] = den.get(e, 0) + 1
        return self.wrap(self.ctx, self.num, den)

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
        """f^(ell): the numerator twisted (ell < 0 raises there), each
        pole moved from e to e + ell."""
        return TateRational.wrap(self.ctx, self.num.twist(ell),
                                 {e + ell: mlt for e, mlt in self.den.items()})

    def to_series(self, t_prec):
        return expand_sum(self.ctx, [self], t_prec)

    def to_json(self):
        return {"numer": self.num.to_json(),
                "poles": [list(p) for p in sorted(self.den.items())]}

    def to_text(self):
        """to_json() as JSON text with sorted keys."""
        return '{"numer": %s, "poles": [%s]}' % (
            self.num.to_text(),
            ", ".join(["[%d, %d]" % p for p in sorted(self.den.items())]))

    def __repr__(self):
        return "<TateRational deg %s, poles %r>" % (
            len(self.num.coeffs) - 1, sorted(self.den.items()))


def expand_sum(ctx, fracs, t_prec, ucap=INF):
    """sum(fracs) as a series to O(t^t_prec), cut at ucap: exactly
    expand_sum(ctx, fracs, t_prec).truncate_u(ucap), with nothing built
    above ucap.  Numerators (cut to t_prec, then at ucap) that share a
    pole multiset are added first, as exact t-polynomials; then the
    group with the largest top pole is padded to t_prec, divided once by
    that pole, each step stopping at ucap (div_pole), and added into the
    group with that pole removed, until only the pole-free group is
    left.  That group is padded to t_prec and cut at ucap too, which
    caps what no division reaches: the t-padding and an empty sum.  A
    padded slot is an exact zero, which a sum hands back unchanged, so
    padding only the divided groups gives the same coefficients."""
    groups = {}

    def put(poles, x):
        groups[poles] = groups[poles] + x if poles in groups else x

    for f in fracs:
        num = f.num
        if len(num.coeffs) > t_prec:
            num = TateSeries(ctx, num.coeffs[:t_prec])
        put(tuple(sorted(f.den.items())), num.truncate_u(ucap))
    while any(groups):
        poles = max(groups, key=lambda p: p[-1][0] if p else 0)
        e, mlt = poles[-1]
        put(poles[:-1] + (((e, mlt - 1),) if mlt > 1 else ()),
            groups.pop(poles).truncate_t(t_prec).div_pole(e, ucap))
    return groups.get((), TateSeries.zero(ctx)).truncate_t(
        t_prec).truncate_u(ucap)


class ThetaPoleForm:
    """regular + residue/(t - theta), with the residue kept exact."""

    __slots__ = ("regular", "residue")

    def __init__(self, regular: TateSeries, residue: LaurentElem):
        self.regular = regular
        self.residue = residue

    def to_series(self, t_prec=None):
        """regular + residue/(t - theta) to O(t^t_prec), or to the
        regular part's window where that is smaller (the sum keeps the
        smaller); t_prec defaults to that window and must be finite."""
        tp = self.regular.t_prec if t_prec is None else t_prec
        pole = TateSeries.from_scalar(self.regular.ctx, self.residue, tp)
        return self.regular + pole.div_pole(0)
