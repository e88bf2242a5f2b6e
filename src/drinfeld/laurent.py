"""Truncated Laurent series over F_{q^s} in u with u^m = 1/theta.

An element is a sparse dict {exponent: packed field scalar} together with
a precision cap: coefficients at exponents >= cap are unknown, and
cap = +inf means the element is exact (all omitted coefficients are truly
zero).  |theta| = q, so an element of valuation v has log_q absolute
value -v/m; the normalization m lets ramified quantities such as
(-theta)^(1/(q-1)) and torsion roots live in the same window.

Cap discipline: add takes the min of caps, mul takes
min(val(x) + cap(y), val(y) + cap(x)); inversion and (q-1)-st roots of
exact non-monomials get the session's relative precision budget.  A
value with no terms below its cap is bounded by that cap: its valuation
bound (vbound) is the cap, and deg_bound, the one degree there is, is
-cap/m, so every operation and evaluator takes it as it takes any other
value.  All caps are conservative, so any coefficient below a cap is
certified.

Products take one of three routes.  A single-term operand scales the
other term by term; a unit monomial u^e only shifts the exponents, with
no field product, and u^0 hands back the other operand's dict when
nothing is cut.  A product of at most 512 term pairs, or a sparse one
whose exponent window is at least its number of term pairs, is a
schoolbook sum: on fields with exp/log tables (order <= TABLE_MAX) in
the log domain, where each term pair costs one read of the exp table
and at most one field addition, and on larger fields by Field.mul per
term pair.  Every other product is one Kronecker substitution: both
operands are packed into integers by the field's lane layout
(ff.Lanes), multiplied once, and unpacked.  A Tate product is one
convolution of coefficient lists (_convolve): each coefficient pair
takes its route, and all the Kronecker pairs that land on one output
coefficient are summed in one integer, which is unpacked once; a
single product is that convolution's one-pair case.

Elements are immutable: nothing changes .coeffs after construction.
Results the kernel builds itself (products, sums of equal caps,
negations, Frobenius twists, scalings by a nonzero scalar) are
valid by construction and skip the constructor's filter through
LaurentElem.wrap; everything else goes through the constructor.  A sum
with a termless operand whose cap is at or above the other's hands
back the other operand as it is, with no copy.  The same holds one
layer up for the factored fractions (tate.FactoredFrac): nothing
changes a .num or a .den after construction, so results share them,
and the fractions the kernel builds from valid data skip the
constructor's denominator checks through FactoredFrac.wrap.
"""

from fractions import Fraction
from itertools import compress
from math import ceil, gcd, inf as INF
from operator import xor

from .errors import (DivideByZero, InvalidInput, PrecisionExhausted,
                     RamificationError)
from .ff import Field, field_for


class SeriesParams:
    """Ambient context: the field, the ramification index m, and the
    default relative precision budget (in u-digits) for operations that
    turn exact data into genuinely infinite series."""

    def __init__(self, field, m: int, prec: int = 128):
        self.field = field_for(field) if not isinstance(field, Field) else field
        if m < 1:
            raise InvalidInput("m must be a positive integer")
        if prec < 1:
            raise InvalidInput("prec must be a positive integer")
        self.m = int(m)
        self.prec = int(prec)
        # expanded bracket denominators of modules._den_elem (odd p), {items:
        # coefficient dict of prod [e]^mult}; plain dicts, so the cache
        # forms no cycle with the context and dies with the session
        self.den_cache = {}

    @property
    def q(self):
        return self.field.q

    # -- constructors --

    def make(self, coeffs, cap=INF):
        return LaurentElem(self, coeffs, cap)

    def zero(self, cap=INF):
        return LaurentElem(self, {}, cap)

    def one(self):
        return LaurentElem(self, {0: 1}, INF)

    def monomial(self, c, e, cap=INF):
        return LaurentElem(self, {int(e): c} if c else {}, cap)

    def scalar(self, c):
        return self.monomial(c, 0)

    def int_scalar(self, k):
        return self.scalar(self.field.int_scalar(k))

    def theta(self, k=1):
        """theta^k as an exact monomial (k may be negative)."""
        return self.monomial(1, -self.m * k)

    def from_poly(self, coeffs):
        """Polynomial in theta with F_q coefficients (packed ints < q),
        ascending powers."""
        d = {}
        for k, c in enumerate(coeffs):
            if not 0 <= c < self.q:
                raise InvalidInput("polynomial coefficients must lie in F_q")
            if c:
                d[-self.m * k] = c
        return LaurentElem(self, d, INF)

    def val_from_logq(self, bound):
        """Smallest integer valuation consistent with log_q|x| <= bound."""
        return ceil(Fraction(-self.m) * Fraction(bound))

    def same(self, other):
        return (self.field is other.field and self.m == other.m)


def _mul_into(field, out, A, B, lim):
    """Add the product of A and B below lim into out by the schoolbook.
    On a field with tables the pairs run in the log domain: the logs of
    B are read once, and each pair adds two logs and reads the doubled
    exp table; on a field without tables each pair is one Field.mul.  A
    pair that lands on an empty slot is stored without an addition (XOR
    in characteristic 2); sums that cancel leave zero values in out."""
    add = xor if field.p == 2 else field.add
    get = out.get
    exp, log = field.exp_tab, field.log_tab
    if exp is None:
        mul = field.mul
        for e1, c1 in A.items():
            for e2, c2 in B.items():
                e = e1 + e2
                if e < lim:
                    v = mul(c1, c2)
                    out[e] = add(prev, v) if (prev := get(e)) else v
    else:
        logs = [(e, log[c]) for e, c in B.items()]
        for e1, c1 in A.items():
            l1 = log[c1]
            for e2, l2 in logs:
                e = e1 + e2
                if e < lim:
                    v = exp[l1 + l2]
                    out[e] = add(prev, v) if (prev := get(e)) else v


def _convolve(field, As, Bs, lims):
    """[the sum over i + j = k of As[i] * Bs[j] below lims[k], for k <
    len(lims)]: one coefficient dict per output index, holding no zero
    values, for lists of coefficient dicts (empty ones allowed).

    Each pair takes _dict_mul's route.  Single-term and schoolbook pairs
    add straight into k's dict (_mul_into).  The other pairs are
    Kronecker pairs: every operand they use is packed once, at its own
    valuation v, by the field's lane layout (ff.Lanes), as far as any of
    its pairs reads; each pair's integer product is shifted by
    v_i + v_j - base_k slots, base_k being the least such valuation sum
    at k, and the shifted products of k are combined into one integer
    that is unpacked once, below lims[k].  In characteristic 2 they are
    combined by XOR: the lanes never carry, and unpacking reads each
    lane mod 2, so a lane needs only one pair's width.  For odd p they
    are added, and a lane is as wide as the summed term counts need.
    """
    n = len(lims)
    outs = [{} for _ in range(n)]
    lo_a = [min(A) if A else 0 for A in As]
    hi_a = [max(A) if A else 0 for A in As]
    lo_b = [min(B) if B else 0 for B in Bs]
    hi_b = [max(B) if B else 0 for B in Bs]
    kron = []
    for i, A in enumerate(As[:n]):
        if not A:
            continue
        la, va, wa = len(A), lo_a[i], hi_a[i] - lo_a[i] + 1
        for j, B in enumerate(Bs[:n - i]):
            if not B:
                continue
            k = i + j
            lim = lims[k]
            if va + lo_b[j] >= lim:
                continue
            lb = len(B)
            pairs = la * lb
            if pairs > 512 and la > 1 and lb > 1 and \
                    wa + hi_b[j] - lo_b[j] < pairs:
                kron.append((i, j, k))
            elif la <= lb:
                _mul_into(field, outs[k], A, B, lim)
            else:
                _mul_into(field, outs[k], B, A, lim)
    if kron:
        p2 = field.p == 2
        base, top, terms, need_a, need_b = {}, {}, {}, {}, {}
        for i, j, k in kron:
            v, w = lo_a[i] + lo_b[j], hi_a[i] + hi_b[j] + 1
            t = min(len(As[i]), len(Bs[j]))
            if k in base:
                base[k], top[k] = min(base[k], v), max(top[k], w)
                terms[k] = max(terms[k], t) if p2 else terms[k] + t
            else:
                base[k], top[k], terms[k] = v, w, t
            r = lims[k] - v
            need_a[i] = max(need_a.get(i, 0), r)
            need_b[j] = max(need_b.get(j, 0), r)
        lanes = field.lanes
        width = lanes.width(max(terms.values()))
        slot = 8 * width * lanes.count
        pa = {i: lanes.pack(As[i], lo_a[i], r, width)
              for i, r in need_a.items()}
        pb = {j: lanes.pack(Bs[j], lo_b[j], r, width)
              for j, r in need_b.items()}
        acc = {}
        for i, j, k in kron:
            x = pa[i] * pb[j] << (lo_a[i] + lo_b[j] - base[k]) * slot
            if k in acc:
                x = acc[k] ^ x if p2 else acc[k] + x
            acc[k] = x
        add = xor if p2 else field.add
        for k, x in acc.items():
            b = base[k]
            m = min(lims[k], top[k]) - b
            vals = lanes.unpack(x, m, width)
            out = outs[k]
            if out:
                get = out.get
                for e, c in compress(zip(range(b, b + m), vals), vals):
                    out[e] = add(prev, c) if (prev := get(e)) else c
            else:
                outs[k] = dict(compress(zip(range(b, b + m), vals), vals))
    return [{e: c for e, c in d.items() if c} if 0 in d.values() else d
            for d in outs]


def _dict_mul(field, A, B, lim):
    """Product of sparse coefficient dicts, dropping exponents >= lim.
    The result holds no zero values.

    A single-term operand takes one dictcomp, with no Field.mul when its
    coefficient is 1: a unit monomial u^e only shifts the exponents, and
    u^0 with nothing cut hands back the other dict itself (dicts are
    never changed after construction).  Few term pairs, or pairs spread
    over a window at least as wide as their number, take the schoolbook
    (_mul_into).  Every other product is one Kronecker product, the
    one-pair case of _convolve.
    """
    if not A or not B:
        return {}
    if len(A) > len(B):
        A, B = B, A
    if len(A) == 1:
        (e1, c1), = A.items()
        if c1 != 1:
            mul = field.mul
            return {e1 + e2: mul(c1, c2) for e2, c2 in B.items()
                    if e1 + e2 < lim}
        if e1 == 0 and (lim == INF or max(B) < lim):
            return B
        return {e1 + e2: c2 for e2, c2 in B.items() if e1 + e2 < lim}
    pairs = len(A) * len(B)
    if pairs > 512 and max(A) - min(A) + max(B) - min(B) + 1 < pairs:
        return _convolve(field, [A], [B], [lim])[0]
    out = {}
    _mul_into(field, out, A, B, lim)
    return {e: c for e, c in out.items() if c}


def _dict_inv(field, W, lim):
    """Inverse of a unit dict (W[0] = 1) modulo u^lim, by the Newton step
    Z <- Z (2 - W Z).  Z[0] stays 1, so (W Z)[0] = 1 and the step's
    constant term 2 - 1 is 1 in every characteristic."""
    Z = {0: 1}
    d = 1
    while d < lim:
        d = min(2 * d, lim)
        Wd = {e: c for e, c in W.items() if e < d}
        WZ = _dict_mul(field, Wd, Z, d)
        T = {e: field.neg(c) for e, c in WZ.items()}
        T[0] = 1
        Z = _dict_mul(field, Z, T, d)
    return Z


class LaurentElem:
    """A Laurent series known below its precision cap."""

    __slots__ = ("ctx", "coeffs", "cap")

    def __init__(self, ctx, coeffs, cap=INF):
        self.ctx = ctx
        if cap != INF:
            cap = int(cap)
            coeffs = {e: c for e, c in coeffs.items() if c and e < cap}
        else:
            coeffs = {e: c for e, c in coeffs.items() if c}
        self.coeffs = coeffs
        self.cap = cap

    @classmethod
    def wrap(cls, ctx, coeffs, cap):
        """An element on coeffs itself, which must hold no zero values
        and no exponents at or beyond cap."""
        x = cls.__new__(cls)
        x.ctx, x.coeffs, x.cap = ctx, coeffs, cap
        return x

    # -- structure --

    @property
    def exact(self):
        return self.cap == INF

    @property
    def val(self):
        """Valuation; None for (exact or apparent) zero."""
        return min(self.coeffs) if self.coeffs else None

    @property
    def vbound(self):
        """Lower bound for the valuation of the true value (INF = exact 0)."""
        return min(self.coeffs) if self.coeffs else self.cap

    def is_exact_zero(self):
        return not self.coeffs and self.cap == INF

    def is_zero_to_prec(self):
        return not self.coeffs

    def deg_bound(self):
        """Certified upper bound for log_q|x|: -val/m with terms, -cap/m
        without (-inf for exact zero)."""
        vb = self.vbound
        if vb == INF:
            return -INF
        return Fraction(-vb, self.ctx.m)

    # -- ring operations --

    def _check(self, other):
        if self.ctx is not other.ctx and not self.ctx.same(other.ctx):
            raise InvalidInput("operands live in different series contexts")

    def __add__(self, other):
        self._check(other)
        if not other.coeffs and other.cap >= self.cap:
            return self
        if not self.coeffs and self.cap >= other.cap:
            return other
        cap = min(self.cap, other.cap)
        field = self.ctx.field
        add = xor if field.p == 2 else field.add
        big, small = self.coeffs, other.coeffs
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for e, c in small.items():
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                v = add(prev, c)
                if v:
                    out[e] = v
                else:
                    del out[e]
        if self.cap == other.cap:
            return LaurentElem.wrap(self.ctx, out, cap)
        return LaurentElem(self.ctx, out, cap)

    def __neg__(self):
        field = self.ctx.field
        if field.p == 2:
            return self
        neg = field.neg
        return LaurentElem.wrap(self.ctx,
                                {e: neg(c) for e, c in self.coeffs.items()},
                                self.cap)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        cap = min(self.vbound + other.cap, other.vbound + self.cap)
        out = _dict_mul(self.ctx.field, self.coeffs, other.coeffs, cap)
        return LaurentElem.wrap(self.ctx, out, cap)

    def scale(self, c):
        """Multiply by a field scalar (packed int)."""
        if c == 0:
            return LaurentElem(self.ctx, {}, INF)
        mul = self.ctx.field.mul
        return LaurentElem.wrap(self.ctx,
                                {e: mul(c, x) for e, x in self.coeffs.items()},
                                self.cap)

    def truncate(self, cap):
        if cap >= self.cap:
            return self
        return LaurentElem(self.ctx, self.coeffs, cap)

    def pow_q(self, k):
        """Frobenius power x^(q^k).  Twists run forward only: k < 0
        raises InvalidInput, since nothing in the package twists back.
        When s divides k the twist fixes every scalar and only scales
        the exponents; otherwise a field with tables reads its Frobenius
        table for k once, and a field without them calls Field.frob per
        term."""
        if k > 0:
            field = self.ctx.field
            Q = self.ctx.q ** k
            cap = self.cap if self.cap == INF else self.cap * Q
            if k % field.s == 0:
                # the Frobenius fixes F_{q^s}: only the exponents move
                out = {e * Q: c for e, c in self.coeffs.items()}
            elif field._frob_tabs is not None:
                tab = field._frob_tabs[k % field.s]
                out = {e * Q: tab[c] for e, c in self.coeffs.items()}
            else:
                frob = field.frob
                out = {e * Q: frob(c, k) for e, c in self.coeffs.items()}
            return LaurentElem.wrap(self.ctx, out, cap)
        if k:
            raise InvalidInput("Frobenius twists run forward only, got k = %d"
                               % k)
        return self

    def invert(self):
        if not self.coeffs:
            if self.cap == INF:
                raise DivideByZero("inverse of exact zero")
            raise PrecisionExhausted(
                "divisor vanishes to working precision; raise ucap beyond %s"
                % self.cap)
        field = self.ctx.field
        v = min(self.coeffs)
        c0i = field.inv(self.coeffs[v])
        rel = INF if self.cap == INF else self.cap - v
        if len(self.coeffs) == 1:
            cap = INF if rel == INF else -v + rel
            return LaurentElem(self.ctx, {-v: c0i}, cap)
        R = self.ctx.prec if rel == INF else int(rel)
        W = {}
        for e, c in self.coeffs.items():
            k = e - v
            if k < R:
                W[k] = field.mul(c, c0i)
        Z = _dict_inv(field, W, R)
        out = {e - v: field.mul(c, c0i) for e, c in Z.items()}
        return LaurentElem(self.ctx, out, -v + R)

    def root_q_minus_1(self):
        """Deterministic y with y^(q-1) = x.  The lead is
        Field.root_q_minus_1 of x's lead; the unit part is the unique Z
        with Z = 1 + O(u) and Z^(q-1) = W, where W is x's unit part:
        with w = 1/W, Z = w * w^q * ... * w^(q^K) for q^(K+1) >= R,
        since then Z^q / Z = W * w^(q^(K+1)) = W below u^R."""
        q = self.ctx.q
        if q == 2:
            return self
        if not self.coeffs:
            if self.cap == INF:
                return self
            raise PrecisionExhausted(
                "root of a value that vanishes to working precision; raise "
                "ucap beyond %s" % self.cap)
        field = self.ctx.field
        v = min(self.coeffs)
        if v % (q - 1):
            need = self.ctx.m * (q - 1) // gcd(abs(v) if v else 1, q - 1)
            raise RamificationError(
                "(q-1)-st root has valuation %s/(q-1); enlarge m to %d"
                % (v, need), required_m=need)
        c0 = self.coeffs[v]
        y0 = field.root_q_minus_1(c0)  # may raise NoRootInField
        rel = INF if self.cap == INF else self.cap - v
        if len(self.coeffs) == 1:
            cap = INF if rel == INF else v // (q - 1) + rel
            return LaurentElem(self.ctx, {v // (q - 1): y0}, cap)
        R = self.ctx.prec if rel == INF else int(rel)
        c0i = field.inv(c0)
        W = LaurentElem(self.ctx, {e - v: field.mul(c, c0i)
                                   for e, c in self.coeffs.items()}, R)
        w = Z = W.invert()
        Q = q
        while Q < R:
            w = w.pow_q(1).truncate(R)
            Z = Z * w
            Q *= q
        return self.ctx.monomial(y0, v // (q - 1)) * Z

    # -- comparisons and serialization --

    def __eq__(self, other):
        return (isinstance(other, LaurentElem) and self.ctx.same(other.ctx)
                and self.cap == other.cap and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.cap, tuple(sorted(self.coeffs.items()))))

    def _window(self, table):
        """(val, [table[c] for each slot from val to the top term]) of a
        nonzero element: the list starts as table[0] throughout, and only
        the nonzero slots are written."""
        coeffs = self.coeffs
        v = min(coeffs)
        out = [table[0]] * (max(coeffs) - v + 1)
        for e, c in coeffs.items():
            out[e - v] = table[c]
        return v, out

    def to_json(self):
        if self.coeffs:
            # one shared row per element, absent slots included (as 0)
            v, dense = self._window(self.ctx.field.coord_rows)
        else:
            v, dense = None, []
        return {"val": v, "m": self.ctx.m, "coeffs": dense,
                "cap": None if self.cap == INF else int(self.cap),
                "exact": self.cap == INF}

    def to_text(self):
        """to_json() as JSON text with sorted keys, the bytes json writes
        for it: the field's row texts joined once."""
        if self.coeffs:
            v, rows = self._window(self.ctx.field.row_texts)
            rows = ", ".join(rows)
        else:
            v, rows = "null", ""
        cap, exact = ("null", "true") if self.cap == INF else \
            (int(self.cap), "false")
        return '{"cap": %s, "coeffs": [%s], "exact": %s, "m": %d, "val": %s}' \
            % (cap, rows, exact, self.ctx.m, v)

    @staticmethod
    def from_json(ctx, obj):
        if obj["m"] != ctx.m:
            raise InvalidInput("serialized element has mismatched m")
        cap = INF if obj["exact"] else int(obj["cap"])
        coeffs = {}
        if obj["val"] is not None:
            v = int(obj["val"])
            for k, coords in enumerate(obj["coeffs"]):
                c = ctx.field.element(coords)
                if c:
                    coeffs[v + k] = c
        return LaurentElem(ctx, coeffs, cap)

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            items = sorted(self.coeffs.items())[:6]
            body = " + ".join("%d*u^%d" % (c, e) for e, c in items)
            if len(self.coeffs) > 6:
                body += " + ..."
        cap = "exact" if self.cap == INF else "O(u^%d)" % self.cap
        return "<%s (%s)>" % (body, cap)

