"""Drinfeld modules over the Laurent layer: bracket fractions, the
exponential and logarithm coefficients by independent routes, the
convergence radius, and evaluation with certified tails.

The partition closed forms are summed only where their fractions are
printed or cross-checked; evaluation and the checks against beta take
alpha and beta from phi's functional equations, at most r terms a step.

Coefficients are kept as exact fractions num / prod [e]^mult, where
[e] = theta^(q^e) - theta.  Each [e]^mult is written out at once by
Lucas's theorem, with prod (d + 1) terms over the base-p digits d of
mult; since mult is built from powers of q, the expanded denominators
stay sparse, so route cross-checks and composition identities are
exact, not numerical.  For odd p a session expands each cofactor
multiset once: the expansions are cached on its SeriesParams and serve
the lifts, sums and equality that multiply by them.  In characteristic
2 no cofactor is expanded: [e]^(2^j) is a monomial times a binomial
1 + u^S and addition is XOR, so each binomial factor of a lift is one
shift and XOR, of the numerator packed into one integer (one field
element per slot, _pack2, _unpack2) when it is dense on its window, and
of its dict when it is thin; every division runs on the packed
numerator.  Fractions over equal multisets add and compare with no
lift at all.  Evaluation expands no denominator:
to_laurent divides the numerator by each bracket's binomial factors
1 - y^(p^j), by running sums for odd p and by prefix XORs in
characteristic 2, and times_to_laurent builds a fraction-times-scalar
product only in the window to_laurent reads.  BracketFrac takes its
arithmetic from tate.FactoredFrac, the base it shares with
TateRational, and drops the denominator of an exact zero.
"""

from array import array
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import comb, inf as INF
from operator import add

from .errors import (InvalidInput, OutsideRadius, PrecisionExhausted)
from .ff import _LANE_FORMAT
from .laurent import LaurentElem
from .partitions import enumerate_partitions, iter_bits
from .tate import FactoredFrac


def _bracket_pow(ctx, e, mult):
    """[e]^mult for mult >= 0, written out directly.  By the binomial
    theorem [e]^mult = sum_i C(mult, i) (-1)^(mult-i) theta^(mult +
    i (q^e - 1)), and by Lucas's theorem C(mult, i) is nonzero mod p
    exactly when each base-p digit t of i is at most the digit d of
    mult in its place, where it is prod C(d, t) mod p.  Distinct i give
    distinct exponents, so the prod (d + 1) terms are stored as they
    are, and none is zero."""
    p = ctx.field.p
    binom = {0: 1}  # i -> C(mult, i) mod p, for the i Lucas keeps
    rest, place = mult, 1
    while rest:
        rest, d = divmod(rest, p)
        if d:
            row = [comb(d, t) % p for t in range(d + 1)]
            binom = {i + t * place: c * row[t] % p
                     for i, c in binom.items() for t in range(d + 1)}
        place *= p
    hi, lo = -ctx.m * (ctx.q ** e - 1), -ctx.m * mult
    terms = {lo + i * hi: c if (mult - i) % 2 == 0 else p - c
             for i, c in binom.items()}
    return LaurentElem.wrap(ctx, terms, INF)


def bracket(ctx, n):
    """[n] = theta^(q^n) - theta, exact; n >= 1.  It is [n]^1 as
    _bracket_pow writes it."""
    if n < 1:
        raise InvalidInput("bracket index must be >= 1")
    return _bracket_pow(ctx, n, 1)


def check_index(n):
    """Coefficient lists run over 0..n; a negative n names no list."""
    if n < 0:
        raise InvalidInput("n must be a non-negative integer, got %d" % n)


def _den_elem(ctx, items):
    """Expand prod [e]^mult exactly over items, a sorted tuple of
    (e, mult): the product of the brackets [e]^mult in that order, each
    written out at once (_bracket_pow).  The coefficients are kept in
    the context's den_cache under items, so every lift, sum and equality
    of the session that multiplies by an expanded cofactor expands a
    multiset once.  Only odd p reads it: characteristic-2 lifts shift
    the numerator instead (BracketFrac._lift).  The cache holds
    cofactor expansions only, never a coefficient, and dies with the
    context."""
    coeffs = ctx.den_cache.get(items)
    if coeffs is None:
        out = ctx.one()
        for e, mult in items:
            out = out * _bracket_pow(ctx, e, mult)
        coeffs = ctx.den_cache[items] = out.coeffs
    return LaurentElem.wrap(ctx, coeffs, INF)


def _slot_bytes(field):
    """Bytes per slot of the packed characteristic-2 path: a slot holds
    one packed element of F_(2^dim), the bit vector of its coordinates,
    so a field of order at most 2^8, 2^16 or 2^32 takes 1, 2 or 4."""
    return 1 if field.order <= 1 << 8 else 2 if field.order <= 1 << 16 else 4


def _pack2(coeffs, v, n, slot):
    """The integer whose slot k (slot bytes wide) holds coeffs[v + k],
    for 0 <= k < n; coeffs has no exponent below v.  In characteristic 2
    XOR of two such integers adds them slot by slot, with no carry."""
    z = [0] * n
    for e, c in coeffs.items():
        if e - v < n:
            z[e - v] = c
    return int.from_bytes(array(_LANE_FORMAT[slot], z), "little")


def _unpack2(x, base, n, slot):
    """{base + k: slot k of x} over the nonzero slots k < n of a packed
    integer x that fits in n slots."""
    vals = memoryview(x.to_bytes(n * slot, "little")).cast(_LANE_FORMAT[slot])
    return dict(compress(zip(range(base, base + n), vals), vals))


class BracketFrac(FactoredFrac):
    """num / prod [e]^mult with an exact denominator.  The numerator is
    normally exact; a capped numerator is allowed for evaluation work but
    blocks the exact-equality predicate."""

    __slots__ = ()

    def __init__(self, ctx, num, den=()):
        super().__init__(ctx, num, den)
        if num.is_exact_zero():
            self.den = {}

    @classmethod
    def wrap(cls, ctx, num, den):
        """FactoredFrac.wrap, with the constructor's rule that an exact
        zero numerator drops its denominator."""
        x = cls.__new__(cls)
        x.ctx, x.num = ctx, num
        x.den = {} if num.is_exact_zero() else den
        return x

    # perfbench/tracer.py times methods found in the class's own __dict__,
    # so the sum, this layer's hot path, is bound here by name.
    __add__ = FactoredFrac.__add__

    @staticmethod
    def one(ctx):
        return BracketFrac(ctx, ctx.one())

    @staticmethod
    def zero(ctx):
        return BracketFrac(ctx, ctx.zero())

    def _lift(self, target):
        """Numerator after lifting to the denominator multiset target: times
        the cofactor prod [e]^(target - den).  An exact zero, or a
        fraction already over target (a sum of two fractions over equal
        multisets), returns its numerator as it is.

        In characteristic 2, [e]^(2^j) = theta^(q^e 2^j) (1 + u^S) with
        S = m (q^e - 1) 2^j, so the cofactor is a unit monomial u^lead,
        lead = -m * (its degree), times one binomial 1 + u^S per set bit
        j of each missing multiplicity, and no cofactor is expanded.  The
        product is known below num.cap + lead, as num * cofactor's cap
        rule gives.  Where the window, the numerator's plus the sum of
        the S, is at most the term pairs |num| * 2^(#binomials) of the
        expanded product, the numerator is packed one element per slot
        (_pack2) from its valuation v, each binomial is x ^= x << S
        slots, and the lead only moves the start exponent.  A thinner
        numerator, or one with no terms, is moved to u^lead as a dict and
        each binomial adds the dict shifted by S into itself: terms at or
        above the cap are cut and coefficients that cancel are deleted.
        Every odd p takes num * _den_elem(ctx, extra), the expanded
        cofactor."""
        num, ctx = self.num, self.ctx
        if target == self.den or num.is_exact_zero():
            return num
        extra = tuple(sorted((e, m - self.den.get(e, 0))
                             for e, m in target.items()
                             if m - self.den.get(e, 0) > 0))
        if not extra:
            return num
        if ctx.field.p != 2:
            return num * _den_elem(ctx, extra)
        m, q = ctx.m, ctx.q
        deg = spread = binomials = 0
        for e, mult in extra:
            deg += mult * q ** e
            spread += mult * (q ** e - 1)  # the sum of this e's S / m
            binomials += mult.bit_count()
        lead = -m * deg
        cap = num.cap + lead
        coeffs = num.coeffs
        if coeffs:
            v = min(coeffs)
            width = max(coeffs) - v + 1
            n = width + m * spread
            if n <= len(coeffs) << binomials:
                slot = _slot_bytes(ctx.field)
                bits = 8 * slot
                x = _pack2(coeffs, v, width, slot)
                for e, mult in extra:
                    for j in iter_bits(mult):
                        x ^= x << (m * (q ** e - 1) << j) * bits
                if num.cap < v + n:
                    n = num.cap - v
                    x &= (1 << n * bits) - 1
                return LaurentElem.wrap(ctx, _unpack2(x, v + lead, n, slot),
                                        cap)
        out = {e + lead: c for e, c in coeffs.items()}
        for e, mult in extra:
            for j in iter_bits(mult):
                S = m * (q ** e - 1) << j
                for k, c in list(out.items()):
                    k += S
                    if k < cap:
                        c ^= out.get(k, 0)
                        if c:
                            out[k] = c
                        else:
                            del out[k]
        return LaurentElem.wrap(ctx, out, cap)

    def pow_q(self, k):
        """Forward twists only: the numerator's pow_q refuses k < 0."""
        if k == 0:
            return self
        num = self.num.pow_q(k)
        Q = self.ctx.q ** k
        return BracketFrac.wrap(self.ctx, num,
                                {e: m * Q for e, m in self.den.items()})

    def is_exact_zero(self):
        return self.num.is_exact_zero()

    def den_deg(self):
        """Degree in theta of the expanded denominator: sum m q^e."""
        q = self.ctx.q
        return sum(m * q ** e for e, m in self.den.items())

    def to_laurent(self, ucap):
        """Laurent expansion certified below the absolute cap ucap, by
        division: no denominator is expanded and nothing is inverted.
        [e] = theta^(q^e) (1 - y_e) with y_e = u^(m (q^e - 1)), and
        (1 - y)^(p^j) = 1 - y^(p^j) in characteristic p.  So the value is
        the numerator shifted by m * den_deg(), divided d times by
        1 - y_e^(p^j) for each base-p digit d of mult at place p^j, over
        the numerator's dense window of n slots from v = num.vbound up to
        lim = min(ucap - shift, num.cap).  For odd p each division is the
        running sum z_k <- z_k + z_(k - S), ascending, with S = m (q^e -
        1) p^j.  In characteristic 2 the window is one packed integer
        (_pack2), and each division is a prefix XOR whose stride doubles
        from S until it reaches n, x ^= x << stride slots, then a mask
        back to n slots.  The cap is min(ucap, num.cap + shift); a
        numerator with no terms, or one that starts at or above ucap -
        shift, has an empty window and gives the zero at that cap.  An
        infinite ucap stands for the session's relative budget ctx.prec
        past v + shift.  An exact zero carries no denominator, so the
        first branch takes it."""
        if not self.den:
            return self.num.truncate(ucap)
        ctx, num = self.ctx, self.num
        shift = ctx.m * self.den_deg()
        v = num.vbound
        if ucap == INF:  # the session's relative budget, as for invert
            ucap = v + shift + ctx.prec
        lim = min(ucap - shift, num.cap)
        n = lim - v
        if n <= 0:
            return LaurentElem.wrap(ctx, {}, lim + shift)
        field = ctx.field
        if field.p == 2:
            slot = _slot_bytes(field)
            bits = 8 * slot
            mask = (1 << n * bits) - 1
            x = _pack2(num.coeffs, v, n, slot)
            for e, mult in self.den.items():
                S = ctx.m * (ctx.q ** e - 1)
                while mult and S < n:
                    if mult & 1:
                        stride = S
                        while stride < n:
                            x ^= x << stride * bits
                            stride *= 2
                        x &= mask
                    mult >>= 1
                    S *= 2
            return LaurentElem.wrap(ctx, _unpack2(x, v + shift, n, slot),
                                    lim + shift)
        z = [0] * n
        for e, c in num.coeffs.items():
            if e < lim:
                z[e - v] = c
        p, plus = field.p, field.add
        for e, mult in self.den.items():
            S = ctx.m * (ctx.q ** e - 1)
            while mult and S < n:
                mult, d = divmod(mult, p)
                for _ in range(d):
                    for b in range(S, n, S):
                        z[b:b + S] = map(plus, z[b:b + S], z[b - S:b])
                S *= p
        base = v + shift
        return LaurentElem.wrap(ctx, {base + k: c for k, c in enumerate(z)
                                      if c}, lim + shift)

    def times_to_laurent(self, x, ucap):
        """(self * x).to_laurent(ucap), coefficients and cap included,
        with the product built only in the window to_laurent reads:
        below lim = ucap - m * den_deg().  With v the valuation bounds
        (vbound), numerator terms at or above lim - v(x), and x's terms
        at or above lim - v(num), only reach exponents >= lim, so the
        product of the cut operands is the full product cut at min(its
        cap, lim).  A product whose valuation bound lies at or above lim
        reads nothing, and to_laurent gives zero(ucap) for it.  An
        infinite ucap makes the window and both cuts infinite, so the
        full product is built."""
        num = self.num
        lim = ucap - self.ctx.m * self.den_deg()
        vn, vx = num.vbound, x.vbound
        if vn + vx >= lim:
            return self.ctx.zero(ucap)
        return BracketFrac(self.ctx, num.truncate(lim - vx) *
                           x.truncate(lim - vn), self.den).to_laurent(ucap)

    def __repr__(self):
        return "<BracketFrac %r / %r>" % (self.num, sorted(self.den.items()))


def _sum(ctx, terms):
    """The sum of bracket fractions, folded from zero in the given order;
    the order fixes the printed fraction, not its value."""
    return reduce(add, terms, BracketFrac.zero(ctx))


def _fold_den(ctx, terms):
    """The denominator of the left fold of b * a^(q^i) over terms, a
    list of (b, a, i) with b and a nonzero: the max-merge of the terms'
    denominators den(b) + q^i den(a), or None when some partial sum
    before the last term may be exactly zero and so drop its own.

    [e] has the leading u-term u^(-m q^e) with coefficient 1, so a
    term's leading u-term follows from the leading terms of the
    numerators of b and a; a partial sum is certainly nonzero when the
    leading coefficients at its least exponent do not cancel."""
    q, m, field = ctx.q, ctx.m, ctx.field
    den, best, lead = {}, INF, 0
    for n, (b, a, i) in enumerate(terms):
        Q = q ** i
        tden = dict(b.den)
        for e, mlt in a.den.items():
            tden[e] = tden.get(e, 0) + Q * mlt
        for e, mlt in tden.items():
            if mlt > den.get(e, 0):
                den[e] = mlt
        if n == len(terms) - 1:
            break
        vb, va = min(b.num.coeffs), min(a.num.coeffs)
        v = vb + Q * va + m * (b.den_deg() + Q * a.den_deg())
        c = field.mul(b.num.coeffs[vb], field.frob(a.num.coeffs[va], i))
        if v < best:
            best, lead = v, c
        elif v == best:
            lead = field.add(lead, c)
            if not lead:
                return None
    return den


class ConvergenceData:
    """Radius bookkeeping: rho_i = (deg A_i - q^i)/(q^i - 1) over the
    support, s = smallest index attaining max rho, logq_R = -rho_s."""

    __slots__ = ("support", "rho", "s", "strict", "logq_R")

    def __init__(self, support, rho, s, strict):
        self.support = support
        self.rho = rho
        self.s = s
        self.strict = strict
        self.logq_R = -rho[s]

    def to_json(self):
        return {
            "support": list(self.support),
            "rho": {str(i): [r.numerator, r.denominator]
                    for i, r in self.rho.items()},
            "s": self.s,
            "strict": self.strict,
            "logq_R": [self.logq_R.numerator, self.logq_R.denominator],
        }


class DrinfeldModule:
    """phi_t = theta + A_1 tau + ... + A_r tau^r with exact A_i and
    A_r != 0."""

    def __init__(self, ctx, A):
        self.ctx = ctx
        A = tuple(A)
        if not A:
            raise InvalidInput("rank must be >= 1")
        for a in A:
            if not isinstance(a, LaurentElem) or a.cap != INF:
                raise InvalidInput("module coefficients must be exact")
        if A[-1].is_exact_zero():
            raise InvalidInput("top coefficient A_r must be nonzero")
        self.A = A
        self.r = len(A)
        self.support = tuple(i for i in range(1, self.r + 1)
                             if not A[i - 1].is_exact_zero())
        # route "equation" takes alpha and beta from phi's functional
        # equations; its alpha is the recurrence route's list itself
        recurrence = [BracketFrac.one(ctx)]
        self._alpha = {"partitions": [BracketFrac.one(ctx)],
                       "recurrence": recurrence, "equation": recurrence}
        self._beta = {"partitions": [BracketFrac.one(ctx)],
                      "recurrence": [BracketFrac.one(ctx)],
                      "equation": [BracketFrac.one(ctx)]}
        self._da = [Fraction(0)]

    # -- the module action --

    def phi_action(self, x):
        out = self.ctx.theta() * x
        for i in self.support:
            out = out + self.A[i - 1] * x.pow_q(i)
        return out

    # -- exp/log coefficients --

    def _a_power(self, sp):
        """A^S = prod_i prod_{j in S_i} A_i^(q^j), exact and sparse, built
        afresh on each call: the partition walk (_extend_partitions) and
        the definition route of b_n (agf.x_phi) each need it once per
        partition they visit."""
        out = self.ctx.one()
        for i, mask in enumerate(sp.masks, start=1):
            for j in iter_bits(mask):
                out = out * self.A[i - 1].pow_q(j)
        return out

    def _extend_partitions(self, n):
        """Extend the partition route's alpha and beta lists to index n
        in one walk over P_r(k) per depth k.  Each partition's A^S is
        built once and enters alpha_k as A^S / D_k(S), D_k(S) =
        prod_{j in union} [k-j]^(q^j), and beta_k as A^S / L(S), L(S) =
        prod_i prod_{j in S_i} (-[i+j]).  Both sums are left folds from
        zero in enumeration order, which fixes the printed fractions;
        nothing per partition is kept."""
        ctx, q = self.ctx, self.ctx.q
        alpha, beta = self._alpha["partitions"], self._beta["partitions"]
        for k in range(len(alpha), n + 1):
            a = b = BracketFrac.zero(ctx)
            for sp in enumerate_partitions(self.r, k, support=self.support):
                num = self._a_power(sp)
                a = a + BracketFrac.wrap(ctx, num, {
                    k - j: q ** j for j in iter_bits(sp.union_mask())})
                den = sp.pair_sums()
                b = b + BracketFrac.wrap(ctx, -num if sum(den.values()) % 2
                                         else num, den)
            alpha.append(a)
            beta.append(b)

    def _extend_alpha(self, n, route):
        if route == "partitions":
            self._extend_partitions(n)
            return
        seq = self._alpha[route]
        while len(seq) <= n:
            seq.append(self._exp_step(seq, len(seq)))

    def _extend_beta(self, n, route):
        """Extend the route's beta list to beta_n: partition sums (with
        alpha, in one walk), steps of phi's log equation, or triangular
        steps (_inverse_step), which read the equation route's beta_k."""
        if route == "partitions":
            self._extend_partitions(n)
            return
        seq = self._beta[route]
        step = self._log_step if route == "equation" else self._inverse_step
        while len(seq) <= n:
            seq.append(step(seq, len(seq)))

    def _inverse_step(self, beta, k):
        """beta_k as the fraction that the triangular inversion of
        sum_{i+j=k} beta_i alpha_j^(q^i) = 0 prints, the left fold
        -sum_{i<k} beta_i alpha_(k-i)^(q^i), given beta_0 .. beta_(k-1).
        The fold's numerator is its value times its denominator D, so
        where _fold_den finds D, beta_k is phi's log-equation value
        lifted to D and no numerator is folded.  Where it refuses, or D
        does not contain the equation value's denominator, the fold
        runs."""
        self._extend_alpha(k, "recurrence")
        self._extend_beta(k, "equation")
        ctx = self.ctx
        eq = self._beta["equation"][k]
        if eq.is_exact_zero():
            return BracketFrac.zero(ctx)
        alpha = self._alpha["recurrence"]
        terms = [(beta[i], alpha[k - i], i) for i in range(k)
                 if not (beta[i].is_exact_zero() or
                         alpha[k - i].is_exact_zero())]
        den = _fold_den(ctx, terms)
        if den is None or any(mlt > den.get(e, 0)
                              for e, mlt in eq.den.items()):
            return -_sum(ctx, (b * a.pow_q(i) for b, a, i in terms))
        return BracketFrac.wrap(ctx, eq._lift(den), den)

    def exp_coeffs(self, n, route="partitions"):
        """alpha_0 .. alpha_n.  Route "partitions" sums the closed form
        over shadowed partitions, "recurrence" and "equation" solve phi's
        exp equation alpha_k [k] = sum_i A_i alpha_(k-i)^(q^i)."""
        if route not in self._alpha:
            raise InvalidInput("unknown route %r" % route)
        check_index(n)
        self._extend_alpha(n, route)
        return self._alpha[route][:n + 1]

    def log_coeffs(self, n, route="partitions"):
        """beta_0 .. beta_n.  Route "partitions" sums the closed form in
        the same walk over the shadowed partitions as alpha
        (_extend_partitions), "recurrence" prints the fraction of the
        triangular inversion of exp (the equation value lifted to that
        fold's denominator, _inverse_step), and "equation" solves phi's
        log equation (_log_step).  All three give the same values, as
        fractions that may differ; the CLI prints the first two, and
        "equation" serves the callers that read only values."""
        if route not in self._beta:
            raise InvalidInput("unknown route %r" % route)
        check_index(n)
        self._extend_beta(n, route)
        return self._beta[route][:n + 1]

    def _exp_step(self, alpha, k):
        """alpha_k from exp(theta z) = phi_t(exp z): sum_i alpha_(k-i)^(q^i)
        A_i / [k] over the i <= k in the support, given alpha_0 ..
        alpha_(k-1).  The sum is a left fold in support order, the
        fraction coeffs --route recurrence prints."""
        return _sum(self.ctx, (alpha[k - i].pow_q(i) * self.A[i - 1]
                               for i in self.support if i <= k)
                    ).div_factor(k)

    def _log_step(self, beta, k):
        """beta_k from log(phi_t z) = theta log z: -sum_i beta_(k-i)
        A_i^(q^(k-i)) / [k] over the i <= k in the support, given
        beta_0 .. beta_(k-1).  The sum is a left fold in support order,
        as in _exp_step; no route prints this fraction (_inverse_step
        lifts only its value)."""
        return (-_sum(self.ctx, (beta[k - i] * self.A[i - 1].pow_q(k - i)
                                 for i in self.support if i <= k))
                ).div_factor(k)

    def compose_check(self, n, route="partitions"):
        """phi's functional equations to depth n, exp(theta z) = phi_t(exp z)
        and log(phi_t z) = theta log z: for 1 <= k <= n, alpha_k [k] =
        sum_i A_i alpha_(k-i)^(q^i) and beta_k [k] = -sum_i beta_(k-i)
        A_i^(q^(k-i)).  With alpha_0 = beta_0 = 1 they fix alpha and beta
        uniquely, so log o exp = 1 mod tau^(n+1) follows; the converse
        fails (another module's coefficients compose to 1 too).  By that
        uniqueness the check solves both equations from scratch, in a
        fresh module whose lists no route cache shares, and compares
        every printed alpha_k and beta_k, k = 0 included, with its
        solution by value (equals).  So it also catches a corrupted
        cached coefficient on every route, including route "equation" and
        the recurrence route's alpha, which is the equation list."""
        fresh = DrinfeldModule(self.ctx, self.A)
        pairs = zip(self.exp_coeffs(n, route) + self.log_coeffs(n, route),
                    fresh.exp_coeffs(n, "equation") +
                    fresh.log_coeffs(n, "equation"))
        return all(f.equals(g) for f, g in pairs)

    # -- convergence --

    def convergence_data(self):
        q = self.ctx.q
        rho = {}
        for i in self.support:
            rho[i] = Fraction(self.A[i - 1].deg_bound() - q ** i,
                              q ** i - 1)
        best = max(rho.values())
        winners = [i for i in self.support if rho[i] == best]
        return ConvergenceData(self.support, rho, winners[0],
                               len(winners) == 1)

    # -- degree bounds and certified tails --

    def exp_deg_bound(self, n):
        """Recursive bound for log_q|alpha_n|."""
        while len(self._da) <= n:
            k = len(self._da)
            q = self.ctx.q
            best = None
            for i in self.support:
                if i > k:
                    continue
                v = self.A[i - 1].deg_bound() + q ** i * self._da[k - i]
                best = v if best is None else max(best, v)
            # best is None when the support cannot reach k: alpha_k = 0
            self._da.append(best - q ** k if best is not None else -INF)
        return self._da[n]

    def exp_tail_cut(self, d, val_target):
        """Smallest N such that sup_{n >= N} (exp_deg_bound(n) + q^n d)
        is certified <= -val_target/m, via the sliding-window argument:
        once the last r values are <= W and deg A_i + q^i W <= W + q^(n+1)
        for every i in the support, no later value exceeds W."""
        q = self.ctx.q
        m = self.ctx.m
        d = Fraction(d)
        goal = Fraction(-val_target, m)
        h = []
        n = 0
        while n < 400:
            h.append(self.exp_deg_bound(n) + q ** n * d)
            if n >= self.r:
                window = h[n - self.r + 1:n + 1]
                W = max(window)
                if W <= goal and all(
                        self.A[i - 1].deg_bound() + q ** i * W <=
                        W + q ** (n + 1)
                        for i in self.support):
                    return n + 1
            n += 1
        raise PrecisionExhausted("exponential tail did not certify; the "
                                 "requested cap is too deep; lower ucap")

    def log_tail_cut(self, d, val_target):
        """Smallest N with q^N (rho + d) - rho <= -val_target/m, using the
        closed-form bound log_q|beta_n| <= (q^n - 1) rho; requires
        d < logq_R."""
        conv = self.convergence_data()
        rho = -conv.logq_R
        d = Fraction(d)
        if d >= conv.logq_R:
            raise OutsideRadius(
                "xi has log_q|xi| = %s but the convergence radius gives "
                "logq_R = %s; need log_q|xi| < logq_R" % (d, conv.logq_R))
        goal = Fraction(-val_target, self.ctx.m)
        n = 1
        while n < 400:
            if self.ctx.q ** n * (rho + d) - rho <= goal:
                return n
            n += 1
        raise PrecisionExhausted("logarithm tail did not certify; lower "
                                 "ucap")

    # -- evaluation --

    def _eval_series(self, fracs_upto, cut, xi, ucap):
        """sum_(n < cut) fracs_upto[n] xi^(q^n), cut >= 1; every term's
        cap, and so the sum's, is at most ucap."""
        total = self.ctx.zero(INF)
        xq = xi
        for n in range(cut):
            if n:
                xq = xq.pow_q(1)
            total = total + fracs_upto[n].times_to_laurent(xq, ucap)
        return total

    def exp_eval(self, xi, ucap):
        """exp_phi(xi) certified below a cap of at most ucap.  The alpha_n
        come from phi's exp equation (route "equation"): to_laurent reads
        only a fraction's value, so the partition sums are not needed.
        An xi with no terms is O(u^c) and takes the same series, so the
        cap is at most min over n < cut of val(alpha_n) + q^n c, which
        can lie below c when some |alpha_n| is large."""
        if xi.is_exact_zero():
            return xi
        cut = self.exp_tail_cut(xi.deg_bound(), ucap)
        self._extend_alpha(cut - 1, "equation")
        return self._eval_series(self._alpha["equation"], cut, xi, ucap)

    def log_eval(self, xi, ucap):
        """log_phi(xi) certified below a cap of at most ucap; xi must lie
        inside the convergence radius.  The beta_n come from phi's log
        equation (route "equation", _log_step), as in exp_eval; an xi
        with no terms is bounded by its cap and takes the same series."""
        if xi.is_exact_zero():
            return xi
        cut = self.log_tail_cut(xi.deg_bound(), ucap)
        self._extend_beta(cut - 1, "equation")
        return self._eval_series(self._beta["equation"], cut, xi, ucap)

    def to_json(self):
        return {"q": self.ctx.q, "m": self.ctx.m, "r": self.r,
                "support": list(self.support),
                "A": [a.to_json() for a in self.A]}


def carlitz(ctx):
    """The rank-1 module with A_1 = 1."""
    return DrinfeldModule(ctx, [ctx.one()])
