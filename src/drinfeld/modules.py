"""Drinfeld modules over the Laurent layer: bracket fractions, the
exponential and logarithm coefficients by two independent routes, the
convergence radius, and evaluation with certified tails.

Coefficients are kept as exact fractions num / prod [e]^mult, where
[e] = theta^(q^e) - theta.  Since mult is built from powers of q, the
expanded denominators stay sparse ([e]^(q^k) has two terms), so route
cross-checks and composition identities are exact, not numerical.
BracketFrac takes its arithmetic from tate.FactoredFrac, the base it
shares with TateRational, and drops the denominator of an exact zero.
"""

from fractions import Fraction
from functools import reduce
from math import comb, inf as INF
from operator import add, mul

from .errors import (InvalidInput, OutsideRadius, PrecisionExhausted)
from .laurent import LaurentElem
from .partitions import enumerate_partitions, iter_bits
from .tate import FactoredFrac


def _bracket_power(ctx, e, k, d):
    """([e]^(q^k))^d for 0 < d < q, written directly as its d + 1 terms.
    [e]^(q^k) = theta^(q^(e+k)) - theta^(q^k), so the i-th term is
    C(d, i) (-1)^(d-i) theta^(i q^(e+k) + (d-i) q^k); the binomial
    coefficients are taken mod p, and some vanish when q is not prime."""
    int_scalar = ctx.field.int_scalar
    hi, lo = -ctx.m * ctx.q ** (e + k), -ctx.m * ctx.q ** k
    return ctx.make({i * hi + (d - i) * lo:
                     int_scalar((-1) ** (d - i) * comb(d, i))
                     for i in range(d + 1)})


def bracket(ctx, n):
    """[n] = theta^(q^n) - theta, exact; n >= 1."""
    if n < 1:
        raise InvalidInput("bracket index must be >= 1")
    return _bracket_power(ctx, n, 0, 1)


def check_index(n):
    """Coefficient lists run over 0..n; a negative n names no list."""
    if n < 0:
        raise InvalidInput("n must be a non-negative integer, got %d" % n)


def _den_factors(ctx, items):
    """The factors of prod [e]^mult: each base-q digit d of mult at place
    k gives ([e]^(q^k))^d, a Frobenius power of a two-term binomial
    raised to d < q, written out directly as its d + 1 terms
    (_bracket_power)."""
    q = ctx.q
    for e, mult in items:
        k = 0
        while mult:
            mult, d = divmod(mult, q)
            if d:
                yield _bracket_power(ctx, e, k, d)
            k += 1


def _den_elem(ctx, items):
    """Expand prod [e]^mult exactly, as the product of its factors."""
    return reduce(mul, _den_factors(ctx, items), ctx.one())


# Size rule, like _dict_mul's 512 pairs: a numerator of more terms is
# lifted one (d + 1)-term digit factor at a time, not by the expanded
# cofactor, whose single product would cost its size times the numerator's.
# Timed per lift (Python 3.11, 2 vCPUs): the closed-forms benchmark's
# lifts of at most this many terms take 0.21 s a pass expanded, 0.35 s by
# factor; coeffs 8 --q 5 --check --route recurrence's larger ones 4.8 s
# by factor, 38 s expanded.
_LIFT_BY_FACTOR = 1024


class BracketFrac(FactoredFrac):
    """num / prod [e]^mult with an exact denominator.  The numerator is
    normally exact; a capped numerator is allowed for evaluation work but
    blocks the exact-equality predicate."""

    __slots__ = ()

    def __init__(self, ctx, num, den=()):
        super().__init__(ctx, num, den)
        if num.is_exact_zero():
            self.den = {}

    # perfbench/tracer.py times methods found in the class's own __dict__,
    # so the sum, this layer's hot path, is bound here by name.
    __add__ = FactoredFrac.__add__

    @staticmethod
    def one(ctx):
        return BracketFrac(ctx, ctx.one())

    @staticmethod
    def zero(ctx):
        return BracketFrac(ctx, ctx.zero())

    def den_elem(self):
        return _den_elem(self.ctx, tuple(sorted(self.den.items())))

    def _lift(self, target):
        """Numerator after lifting to the denominator multiset target.  An
        exact zero stays as it is: no denominator is expanded for it."""
        if self.num.is_exact_zero():
            return self.num
        extra = tuple(sorted((e, m - self.den.get(e, 0))
                             for e, m in target.items()
                             if m - self.den.get(e, 0) > 0))
        factors = _den_factors(self.ctx, extra)
        if not extra or len(self.num.coeffs) > _LIFT_BY_FACTOR:
            return reduce(mul, factors, self.num)
        return self.num * reduce(mul, factors)

    def div_bracket(self, e, mult=1):
        merged = dict(self.den)
        merged[e] = merged.get(e, 0) + mult
        return BracketFrac(self.ctx, self.num, merged)

    def pow_q(self, k):
        if k < 0:
            raise InvalidInput("bracket fractions only twist forward")
        if k == 0:
            return self
        Q = self.ctx.q ** k
        return BracketFrac(self.ctx, self.num.pow_q(k),
                           {e: m * Q for e, m in self.den.items()})

    def is_exact_zero(self):
        return self.num.is_exact_zero()

    def deg(self):
        """log_q of the absolute value as a Fraction; None for zero."""
        d = self.num.deg()
        if d is None:
            return None
        return d - self.den_deg()

    def den_deg(self):
        """Degree in theta of the expanded denominator: sum m q^e."""
        q = self.ctx.q
        return sum(m * q ** e for e, m in self.den.items())

    def to_laurent(self, ucap=INF):
        """Laurent expansion certified below the absolute cap ucap (when
        the denominator is trivial and ucap = inf, the result is exact)."""
        if not self.den:
            return self.num if ucap == INF else self.num.truncate(ucap)
        if self.num.is_exact_zero():
            return self.num
        den = self.den_elem()
        if not self.num.coeffs:  # zero to the numerator's precision
            return self.ctx.zero(self.num.cap - den.val)
        if ucap == INF:
            ucap = self.num.val - den.val + self.ctx.prec
        rel = ucap - self.num.vbound + den.val
        if rel <= 0:
            return self.ctx.zero(ucap)
        dinv = den.truncate(den.val + rel).invert()
        return (self.num * dinv).truncate(ucap)

    def __repr__(self):
        return "<BracketFrac %r / %r>" % (self.num, sorted(self.den.items()))


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
        self._alpha = {"partitions": [BracketFrac.one(ctx)],
                       "recurrence": [BracketFrac.one(ctx)]}
        self._beta = {"partitions": [BracketFrac.one(ctx)],
                      "recurrence": [BracketFrac.one(ctx)]}
        self._da = [Fraction(0)]
        self._a_powers = {}

    # -- the module action --

    def phi_action(self, x):
        out = self.ctx.theta() * x
        for i in self.support:
            out = out + self.A[i - 1] * x.pow_q(i)
        return out

    # -- exp/log coefficients --

    def _a_power(self, sp):
        """A^S = prod_i prod_{j in S_i} A_i^(q^j), exact and sparse;
        memoised on sp.masks, since the exp and log terms, the AGF and
        both beta routes of one module visit the same partitions."""
        out = self._a_powers.get(sp.masks)
        if out is None:
            out = self.ctx.one()
            for i, mask in enumerate(sp.masks, start=1):
                for j in iter_bits(mask):
                    out = out * self.A[i - 1].pow_q(j)
            self._a_powers[sp.masks] = out
        return out

    def exp_term(self, sp, n):
        """A^S / D_n(S), D_n(S) = prod_{j in union} [n-j]^(q^j)."""
        den = {}
        for j in iter_bits(sp.union_mask()):
            den[n - j] = self.ctx.q ** j
        return BracketFrac(self.ctx, self._a_power(sp), den)

    def log_term(self, sp):
        """A^S / L(S), L(S) = prod_i prod_{j in S_i} (-[i+j])."""
        den = sp.pair_sums()
        num = self._a_power(sp)
        if sum(den.values()) % 2:
            num = -num
        return BracketFrac(self.ctx, num, den)

    def _extend_alpha(self, n, route):
        seq = self._alpha[route]
        while len(seq) <= n:
            k = len(seq)
            if route == "partitions":
                acc = BracketFrac.zero(self.ctx)
                for sp in enumerate_partitions(self.r, k, support=self.support):
                    acc = acc + self.exp_term(sp, k)
            else:
                acc = BracketFrac.zero(self.ctx)
                for i in self.support:
                    if i > k:
                        continue
                    acc = acc + self._alpha[route][k - i].pow_q(i) * self.A[i - 1]
                acc = acc.div_bracket(k)
            seq.append(acc)

    def _extend_beta(self, n, route):
        seq = self._beta[route]
        while len(seq) <= n:
            k = len(seq)
            if route == "partitions":
                acc = BracketFrac.zero(self.ctx)
                for sp in enumerate_partitions(self.r, k, support=self.support):
                    acc = acc + self.log_term(sp)
            else:
                # triangular inversion of sum_{i+j=k} beta_i alpha_j^(q^i) = 0
                self._extend_alpha(k, "recurrence")
                alpha = self._alpha["recurrence"]
                acc = BracketFrac.zero(self.ctx)
                for i in range(k):
                    acc = acc + seq[i] * alpha[k - i].pow_q(i)
                acc = -acc
            seq.append(acc)

    def exp_coeffs(self, n, route="partitions"):
        if route not in self._alpha:
            raise InvalidInput("unknown route %r" % route)
        check_index(n)
        self._extend_alpha(n, route)
        return self._alpha[route][:n + 1]

    def log_coeffs(self, n, route="partitions"):
        if route not in self._beta:
            raise InvalidInput("unknown route %r" % route)
        check_index(n)
        self._extend_beta(n, route)
        return self._beta[route][:n + 1]

    def compose_check(self, n, route="partitions"):
        """phi's functional equations to depth n, exp(theta z) = phi_t(exp z)
        and log(phi_t z) = theta log z: for 1 <= k <= n, alpha_k [k] =
        sum_i A_i alpha_(k-i)^(q^i) and beta_k [k] = -sum_i beta_(k-i)
        A_i^(q^(k-i)).  With alpha_0 = beta_0 = 1 they fix alpha and beta
        uniquely, so log o exp = 1 mod tau^(n+1) follows; the converse
        fails (another module's coefficients compose to 1 too).  On
        route="recurrence" the alpha equation is the definition; it stays,
        as it catches a corrupted cached alpha_k.  Each sum of <= r terms
        is folded from zero in ascending order of denominator degree."""
        alpha = self.exp_coeffs(n, route)
        beta = self.log_coeffs(n, route)
        def fold(terms):
            return reduce(add, sorted(terms, key=BracketFrac.den_deg),
                          BracketFrac.zero(self.ctx))
        for k in range(1, n + 1):
            live = [i for i in self.support if i <= k]
            exp_sum = fold(alpha[k - i].pow_q(i) * self.A[i - 1] for i in live)
            log_sum = fold(beta[k - i] * self.A[i - 1].pow_q(k - i)
                           for i in live)
            if not (exp_sum.div_bracket(k).equals(alpha[k]) and
                    (-log_sum).div_bracket(k).equals(beta[k])):
                return False
        return True

    # -- convergence --

    def convergence_data(self):
        q = self.ctx.q
        rho = {}
        for i in self.support:
            rho[i] = Fraction(self.A[i - 1].deg() - q ** i, q ** i - 1)
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
                v = self.A[i - 1].deg() + q ** i * self._da[k - i]
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
                        self.A[i - 1].deg() + q ** i * W <= W + q ** (n + 1)
                        for i in self.support):
                    return n + 1
            n += 1
        raise PrecisionExhausted("exponential tail did not certify; the "
                                 "requested cap is too deep")

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
        raise PrecisionExhausted("logarithm tail did not certify")

    # -- evaluation --

    def _eval_series(self, fracs_upto, cut, xi, ucap):
        total = self.ctx.zero(INF)
        xq = xi
        for n in range(cut):
            if n:
                xq = xq.pow_q(1)
            total = total + (fracs_upto[n] * xq).to_laurent(ucap)
        return total.truncate(ucap)

    def exp_eval(self, xi, ucap=None):
        """exp_phi(xi) with a certified absolute cap."""
        if xi.is_exact_zero():
            return xi
        if not xi.coeffs:
            return self.ctx.zero(xi.cap)
        if ucap is None:
            ucap = xi.vbound + self.ctx.prec
        cut = self.exp_tail_cut(xi.deg(), ucap)
        self._extend_alpha(cut - 1, "partitions")
        return self._eval_series(self._alpha["partitions"], cut, xi, ucap)

    def log_eval(self, xi, ucap=None):
        """log_phi(xi) with a certified absolute cap; xi must lie inside
        the convergence radius."""
        if xi.is_exact_zero():
            return xi
        if not xi.coeffs:
            self.log_tail_cut(Fraction(-xi.cap, self.ctx.m), xi.cap)
            return self.ctx.zero(xi.cap)
        if ucap is None:
            ucap = xi.vbound + self.ctx.prec
        cut = self.log_tail_cut(xi.deg(), ucap)
        self._extend_beta(cut - 1, "partitions")
        return self._eval_series(self._beta["partitions"], cut, xi, ucap)

    def to_json(self):
        return {"q": self.ctx.q, "m": self.ctx.m, "r": self.r,
                "support": list(self.support),
                "A": [a.to_json() for a in self.A]}


def carlitz(ctx):
    """The rank-1 module with A_1 = 1."""
    return DrinfeldModule(ctx, [ctx.one()])
