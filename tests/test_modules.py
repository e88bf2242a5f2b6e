"""Module layer: bracket fractions, exp/log coefficients (both routes),
convergence data, degree bounds, certified evaluation."""

import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from math import inf as INF
from operator import add

import pytest

from drinfeld import modules
from drinfeld.agf import check_main_theorem
from drinfeld.cli import _frac_text
from drinfeld.errors import InvalidInput, OutsideRadius
from drinfeld.ff import FieldParams
from drinfeld.laurent import SeriesParams
from drinfeld.modules import (BracketFrac, DrinfeldModule, _bracket_pow,
                              _den_elem, bracket, carlitz)
from drinfeld.partitions import enumerate_partitions
from drinfeld.tate import TateRational, TateSeries
from drinfeld.verify import preset_session

from oracles import (bracket_digit_factor, frac_deg, frac_to_laurent_newton,
                     laurent_pow, pack2_list, zero_to_prec)

CTX2 = SeriesParams(FieldParams.make(2), 1, 48)
CTX3 = SeriesParams(FieldParams.make(3), 1, 48)
CTX3W = SeriesParams(FieldParams.make(3), 2, 64)


def rank2_q3(ctx=CTX3):
    # generic-looking exact coefficients
    return DrinfeldModule(ctx, [ctx.theta(), ctx.theta() + ctx.one()])


def rank2_q2(ctx=CTX2):
    return DrinfeldModule(ctx, [ctx.one(), ctx.one()])


def rank3_q2(ctx=CTX2):
    return DrinfeldModule(ctx, [ctx.one(), ctx.one(), ctx.one()])


def partition_norm_logq(phi, sp):
    """Closed form for log_q of the Gauss norm of the summand attached
    to a partition: sum_i w(S_i) (deg A_i - q^i)."""
    q = phi.ctx.q
    total = Fraction(0)
    for i, w in enumerate(sp.weights(q), start=1):
        if w:
            total += w * (phi.A[i - 1].deg_bound() - q ** i)
    return total


# -- bracket fractions --

def test_bracket_values():
    b1 = bracket(CTX2, 1)
    assert b1 == CTX2.theta(2) - CTX2.theta()
    b2 = bracket(CTX3, 2)
    assert b2 == CTX3.theta(9) - CTX3.theta()
    with pytest.raises(InvalidInput):
        bracket(CTX2, 0)


def test_den_expansion_matches_plain_power():
    for ctx, e, mult in [(CTX3, 1, 5), (CTX2, 2, 7), (CTX3, 1, 9)]:
        assert _den_elem(ctx, ((e, mult),)) == \
            laurent_pow(bracket(ctx, e), mult)


def _den_elem_oracle(ctx, items):
    """The plain expansion of prod [e]^mult: [e] = theta^(q^e) - theta
    by a Frobenius twist, and each base-q digit d of mult at place k
    as the square-and-multiply power ([e]^(q^k))^d."""
    out = ctx.one()
    q = ctx.q
    for e, mult in items:
        b = ctx.theta().pow_q(e) - ctx.theta()
        k = 0
        while mult:
            d = mult % q
            if d:
                out = out * laurent_pow(b.pow_q(k), d)
            mult //= q
            k += 1
    return out


def _digit_terms(mult, base):
    """prod (d + 1) over the digits d of mult in the given base; in base
    p, the number of i with C(mult, i) nonzero mod p."""
    terms = 1
    while mult:
        mult, d = divmod(mult, base)
        terms *= d + 1
    return terms


def _mixed_digit_mult(rng, q):
    """A multiplicity with three base-q digits, at least one zero and at
    least one nonzero."""
    while True:
        digits = [rng.choice((0, rng.randrange(1, q))) for _ in range(3)]
        if 0 in digits and any(digits):
            return sum(d * q ** k for k, d in enumerate(digits))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_den_elem_matches_bracket_power_oracle(q, s, m):
    """_den_elem writes each bracket [e]^mult out at once by Lucas's
    theorem; it equals the product of the base-q digit factors on 1-3
    brackets, including the digits whose binomial coefficients vanish
    mod p (d = 2 at q = 4, d = 3 and 6 at q = 9) and, at q = 4 and 9,
    multiplicities of 4-6 base-p digits, where base-p digits split the
    base-q ones.  A single bracket has prod (d + 1) terms over the
    base-p digits d of mult, none of them zero."""
    ctx = SeriesParams(FieldParams.make(q, s), m, 32)
    p = ctx.field.p
    rng = random.Random(1000 * q + 10 * s + m)
    cases = [((1, 1),), ((2, q),), ((1, q - 1), (2, (q - 1) * q * q))]
    if q == 4:
        cases.append(((1, 2 + 2 * 16),))
    if q == 9:
        cases.append(((1, 3 + 6 * 81),))
    top = 3 if q < 9 else 2
    while len(cases) < 12:
        es = rng.sample(range(1, top + 1), rng.randrange(1, top + 1))
        items = tuple(sorted((e, _mixed_digit_mult(rng, q)) for e in es))
        terms = 1
        for _, mult in items:
            terms *= _digit_terms(mult, q)
        if terms <= 400:
            cases.append(items)
    if q == 4:
        # 4, 5 and 6 base-2 digits
        cases += [((1, 0b1101),), ((2, 0b10111),), ((1, 0b101101),)]
    if q == 9:
        # 4, 5 and 6 base-3 digits
        cases += [((1, 2 + 1 * 3 + 2 * 27),),
                  ((2, 1 + 2 * 3 + 2 * 9 + 1 * 81),),
                  ((1, 2 + 2 * 3 + 1 * 9 + 1 * 27 + 2 * 243),)]
    for items in cases:
        assert _den_elem(ctx, items) == _den_elem_oracle(ctx, items), items
        if len(items) == 1:
            (e, mult), = items
            coeffs = _bracket_pow(ctx, e, mult).coeffs
            assert len(coeffs) == _digit_terms(mult, p), items
            assert all(coeffs.values()), items
    for n in (1, 2, 3):
        assert bracket(ctx, n) == ctx.theta().pow_q(n) - ctx.theta()
    lifted = BracketFrac.zero(ctx)._lift({1: 3, 2: q})
    assert lifted.is_exact_zero() and lifted.cap == INF


def test_den_cache_belongs_to_one_context():
    """Two contexts over one field share no cached expansion: each
    fills its own den_cache and holds nothing but the cofactor
    expansions asked of it; a repeated call reads the cached dict."""
    field = FieldParams.make(3)
    a, b = SeriesParams(field, 1, 32), SeriesParams(field, 1, 32)
    items = ((1, 4), (2, 1))
    first = _den_elem(a, items)
    assert _den_elem(a, items).coeffs is first.coeffs
    assert a.den_cache == {items: first.coeffs} and b.den_cache == {}
    other = _den_elem(b, items)
    assert other.ctx is b and other == first
    assert other.coeffs is not first.coeffs
    assert b.den_cache == {items: other.coeffs}


@pytest.mark.parametrize("kind", ["bracket", "tate"])
def test_fracs_refuse_mixed_contexts_and_capped_equality(kind):
    """Sum, product and equality of fractions over different series
    contexts raise, and so does exact equality with a capped numerator,
    for both kinds of factored fraction."""
    def frac(ctx, cap=INF):
        num = ctx.theta().truncate(cap)
        if kind == "bracket":
            return BracketFrac(ctx, num, {1: 1})
        return TateRational(ctx, TateSeries.from_scalar(ctx, num), {1: 1})
    a, b, capped = frac(CTX3), frac(CTX3W), frac(CTX3, 8)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b,
               lambda: a.equals(b), lambda: b.equals(a),
               lambda: a.equals(capped), lambda: capped.equals(a)):
        with pytest.raises(InvalidInput):
            op()
    assert a.equals(frac(CTX3))


def test_frac_arithmetic_and_equality():
    ctx = CTX3
    th = ctx.theta()
    a = BracketFrac(ctx, th, {1: 1})
    b = BracketFrac(ctx, ctx.one(), {2: 1})
    s = a + b
    # theta/[1] + 1/[2] = (theta [2] + [1]) / ([1][2])
    want = BracketFrac(ctx, th * bracket(ctx, 2) + bracket(ctx, 1),
                       {1: 1, 2: 1})
    assert s.equals(want)
    p = a * b
    assert p.equals(BracketFrac(ctx, th, {1: 1, 2: 1}))
    assert (a - a).is_exact_zero()
    assert not a.equals(b)


def _bracket_sets(rng, q):
    """Two bracket multisets over indices 1..4, disjoint or sharing an
    index, with multiplicities 1-3, q or q^2."""
    idx = [1, 2, 3, 4]
    rng.shuffle(idx)
    k = rng.randrange(1, 4)
    if rng.random() < 0.5:
        sa, sb = idx[:k], idx[k:]
    else:
        sa, sb = idx[:k], idx[k - 1:k + 1]
    mults = (1, 2, 3, q, q * q)
    return ({e: rng.choice(mults) for e in sa},
            {e: rng.choice(mults) for e in sb})


@pytest.mark.parametrize("q", [2, 3, 4])
def test_frac_equality_matches_cross_multiplication(q):
    """equals (both numerators lifted to the merged denominator) agrees
    with the cross-multiplied oracle on equal and unequal pairs."""
    rng = random.Random(80 + q)
    ctx = SeriesParams(FieldParams.make(q), 1, 32)

    def den(d):
        return _den_elem(ctx, tuple(sorted(d.items())))

    def cross_equal(x, y):
        return x.num * den(y.den) == y.num * den(x.den)

    def rand_num():
        return ctx.make({rng.randrange(-6, 12): rng.randrange(
            1, ctx.field.order) for _ in range(rng.randrange(1, 4))})

    def lifted(x, extra):
        merged = dict(x.den)
        for e, m in extra.items():
            merged[e] = merged.get(e, 0) + m
        return BracketFrac(ctx, x.num * den(extra), merged)

    for _ in range(12):
        da, db = _bracket_sets(rng, q)
        x = BracketFrac(ctx, rand_num(), da)
        y = BracketFrac(ctx, rand_num(), db)
        same_x = lifted(x, db)
        other_x = lifted(x, _bracket_sets(rng, q)[1])
        bumped = BracketFrac(ctx, same_x.num + ctx.one(), same_x.den)
        for f, g, expect in ((x, y, None), (x, same_x, True),
                             (same_x, other_x, True), (x, bumped, False),
                             (x + y, y + x, True)):
            ok = f.equals(g)
            assert ok == cross_equal(f, g) == g.equals(f)
            if expect is not None:
                assert ok is expect


def _lift_by_factor(ctx, num, items):
    """num times prod [e]^mult, one (d + 1)-term digit factor
    ([e]^(q^k))^d at a time, never expanding the cofactor."""
    q = ctx.q
    for e, mult in items:
        k = 0
        while mult:
            mult, d = divmod(mult, q)
            if d:
                num = num * bracket_digit_factor(ctx, e, k, d)
            k += 1
    return num


@pytest.mark.parametrize("q", [2, 3, 4])
def test_lift_by_factor_matches_expanded_lift(q):
    """On seeded numerators of 128 to 2,048 terms, _lift and the expanded
    cofactor's product equal the factor-by-factor product."""
    rng = random.Random(60 + q)
    ctx = SeriesParams(FieldParams.make(q), 1, 32)
    for size in (128, 1024, 1025, 2048):
        exps = rng.sample(range(-4 * size, 4 * size), size)
        num = ctx.make({e: rng.randrange(1, ctx.field.order) for e in exps})
        da, db = _bracket_sets(rng, q)
        frac = BracketFrac(ctx, num, da)
        target = {e: max(da.get(e, 0), db.get(e, 0)) for e in {*da, *db}}
        extra = tuple(sorted((e, m - da.get(e, 0)) for e, m in target.items()
                             if m > da.get(e, 0)))
        assert extra
        expanded = num * _den_elem(ctx, extra)
        assert _lift_by_factor(ctx, num, extra) == expanded, size
        assert frac._lift(target) == expanded, size


def test_frac_pow_q_scales_denominator():
    ctx = CTX3
    a = BracketFrac(ctx, ctx.theta(), {1: 2})
    t = a.pow_q(1)
    assert t.den == {1: 6}
    assert t.num == ctx.theta().pow_q(1)
    # (x/[1]^2)^q * [1]^(2q) == x^q exactly
    lift = t.num
    assert t._lift({1: 6}) == lift
    with pytest.raises(InvalidInput):
        a.pow_q(-1)


def test_frac_to_laurent_cap_discipline():
    ctx = CTX3
    a = BracketFrac(ctx, ctx.one(), {1: 2})
    x = a.to_laurent(30)
    assert x.cap == 30
    # residual of x * [1]^2 - 1 vanishes below the certified window
    res = x * laurent_pow(bracket(ctx, 1), 2) - ctx.one()
    assert not res.coeffs
    # doubling the cap and truncating back is byte-identical
    y = a.to_laurent(60).truncate(30)
    assert x == y


def test_termless_values_keep_to_the_cap_asked_for():
    """A numerator or an argument with no terms gives a zero whose cap is
    no higher than the ucap asked for, as every other branch does, nor
    higher than its series earns: exp(O(u)) on rank 1, q = 3, A_1 =
    theta^6 is known only below u^0, since alpha_1 u^3 has valuation 0.
    The main theorem's checks run on such an xi like on any other."""
    ctx, phi = preset_session("carlitz-q2")
    assert BracketFrac(ctx, ctx.zero(10), {1: 1}).to_laurent(5) == \
        ctx.zero(5)
    assert phi.exp_eval(ctx.zero(50), ucap=10) == ctx.zero(10)
    assert phi.log_eval(ctx.zero(50), ucap=10) == ctx.zero(10)
    ctx3 = SeriesParams(FieldParams.make(3), 1, 64)
    big = DrinfeldModule(ctx3, [ctx3.theta(6)])
    assert big.exp_eval(ctx3.zero(1), 40).cap <= 0
    for c in (0, 4, 20):
        rep = check_main_theorem(phi, ctx.zero(c), 16, 4)
        assert rep["holds"] and rep["cut"] >= 1
        assert all(rep[k]["u_val"] <= 16 for k in "bcde")


def _to_laurent_case(ctx, rng):
    """A bracket fraction over 1-3 brackets and an absolute cap.  The
    multiplicities are powers of p or have base-p digit sum above 1; the
    numerator is exact or capped above or below ucap - shift, and a few
    cases take the rel <= 0 branch, a numerator zero to precision or an
    infinite ucap (the session's relative budget)."""
    q, p, m = ctx.q, ctx.field.p, ctx.m
    den = {e: rng.choice((1, p, p * p, 2, 3, p + 1, q + 1, 2 * q + 1,
                          q * q + q))
           for e in rng.sample((1, 2, 3), rng.randint(1, 3))}
    shift = m * sum(mult * q ** e for e, mult in den.items())
    v = rng.randint(-30, 30)
    kind = rng.choice(("exact", "above", "below", "exact", "above",
                       "below", "rel<=0", "zero", "unbounded"))
    rel = rng.randint(-20, 0) if kind == "rel<=0" else rng.randint(1, 240)
    ucap = v + shift + rel
    if kind == "zero":
        return BracketFrac(ctx, ctx.zero(v + rng.randint(1, 40)), den), ucap
    width = max(rel, 1) + rng.randint(0, 40)
    exps = {v} | {v + rng.randrange(width)
                  for _ in range(rng.randint(0, width))}
    cap = {"above": ucap - shift + rng.randint(0, 40),
           "below": v + rng.randint(1, max(rel, 1))}.get(kind, INF)
    num = ctx.make({e: rng.randrange(1, ctx.field.order) for e in exps}, cap)
    return BracketFrac(ctx, num, den), INF if kind == "unbounded" else ucap


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("q, s, cases", [
    (2, 1, 36), (2, 2, 36), (3, 1, 36), (3, 2, 36), (4, 1, 36), (4, 2, 36),
    (5, 1, 36), (5, 2, 36), (9, 1, 36), (9, 2, 36), (2, 13, 4), (3, 8, 4),
    (2, 16, 4), (2, 20, 4), (8, 1, 36)])
def test_to_laurent_matches_newton_oracle(q, s, cases, m):
    """to_laurent divides out each bracket's binomial; its coefficients
    and cap equal those of the expanded denominator's Newton inverse
    times the numerator, on seeded fractions including multiplicities
    with several base-p digits and on fields without tables."""
    ctx = SeriesParams(FieldParams.make(q, s), m, 32)
    rng = random.Random(1000 * q + 10 * s + m)
    for _ in range(cases):
        frac, ucap = _to_laurent_case(ctx, rng)
        got, want = frac.to_laurent(ucap), frac_to_laurent_newton(frac, ucap)
        assert (got.coeffs, got.cap) == (want.coeffs, want.cap), \
            (frac, ucap)


# fields of characteristic 2 whose packed slots are 1, 2 and 4 bytes wide
PACKED_FIELDS = [(2, 1), (4, 1), (8, 1), (2, 8), (2, 12), (2, 13), (2, 16),
                 (2, 20)]


@pytest.mark.parametrize("q, s, slot", [
    (2, 1, 1), (8, 1, 1), (2, 8, 1), (2, 9, 2), (2, 12, 2), (2, 16, 2),
    (2, 17, 4), (2, 20, 4)])
def test_packed_slot_is_the_narrowest_that_holds_an_element(q, s, slot):
    field = SeriesParams(FieldParams.make(q, s), 1).field
    assert modules._slot_bytes(field) == slot


def _packed_rule(ctx, num, extra):
    """True when a characteristic-2 lift of num by the cofactor of extra
    packs: the window, num's plus the binomials' shifts, is at most the
    term pairs |num| * 2^(#binomials) of the expanded product."""
    shifts = [ctx.m * (ctx.q ** e - 1) << j for e, mult in extra
              for j in range(mult.bit_length()) if mult >> j & 1]
    window = max(num.coeffs) - min(num.coeffs) + 1 + sum(shifts)
    return window <= len(num.coeffs) << len(shifts)


def _watch_den_elem(monkeypatch):
    """The list of items that modules._den_elem expands from now on."""
    real, seen = modules._den_elem, []

    def watch(ctx, items):
        seen.append(items)
        return real(ctx, items)

    monkeypatch.setattr(modules, "_den_elem", watch)
    return seen


def _watch_pack2(monkeypatch):
    """The list of (v, n) windows that modules._pack2 packs from now on."""
    real, seen = modules._pack2, []

    def watch(coeffs, v, n, slot):
        seen.append((v, n))
        return real(coeffs, v, n, slot)

    monkeypatch.setattr(modules, "_pack2", watch)
    return seen


@pytest.mark.parametrize("slot", [1, 2, 4])
def test_pack2_matches_list_built_oracle(slot):
    """_pack2 fills a zeroed buffer (a bytearray for 1-byte slots); it
    gives the integer that a list of n zeros, filled and turned into an
    array, gives.  Exponents at or beyond the window are dropped, and
    every slot value up to the slot's top is kept."""
    rng = random.Random(slot)
    top = (1 << 8 * slot) - 1
    for _ in range(200):
        v = rng.randint(-50, 50)
        n = rng.choice((1, 2, 7, 400, 3000))
        size = rng.randint(0, min(n, 40))
        coeffs = {v + rng.randrange(2 * n): rng.randint(1, top)
                  for _ in range(size)}
        coeffs[v + n] = top  # at n, cut
        coeffs[v + n - 1] = top
        coeffs[v] = rng.randint(1, top)
        assert modules._pack2(coeffs, v, n, slot) == \
            pack2_list(coeffs, v, n, slot)
    assert modules._pack2({}, 0, 5, slot) == 0


def _lift_case(ctx, rng, kind):
    """(frac, target, extra) with 0-2 brackets below and 1-3 missing
    multiplicities, many of several set bits.  The numerator of kind
    "exact" or "capped" is dense on its window or spread thin over one
    up to 64 times wider, so the window rule goes either way; "termless"
    is zero to a cap and "zero" exactly zero."""
    q = ctx.q
    mults = (1, 2, 3, 5, 6, 7, 12, 15, q + 1, 2 * q + 3, q * q + q + 1)
    den = {e: rng.choice(mults) for e in rng.sample((1, 2, 3),
                                                    rng.randint(0, 2))}
    target = dict(den)
    for e in rng.sample((1, 2, 3), rng.randint(1, 3)):
        target[e] = target.get(e, 0) + rng.choice(mults)
    extra = tuple(sorted((e, mlt - den.get(e, 0))
                         for e, mlt in target.items() if mlt > den.get(e, 0)))
    v = rng.randint(-40, 40)
    if kind == "zero":
        num = ctx.zero()
    elif kind == "termless":
        num = ctx.zero(v)
    else:
        width = rng.choice((1, 8, 64, 400, 3000))
        spread = rng.choice((1, 1, 8, 64))
        size = width if spread == 1 else rng.randint(1, max(1, width // 8))
        exps = {v} | {v + rng.randrange(width * spread) for _ in range(size)}
        cap = INF if kind == "exact" else \
            rng.randint(v + 1, max(exps) + rng.randint(1, 60))
        num = ctx.make({e: rng.randrange(1, ctx.field.order)
                        for e in exps}, cap)
    return BracketFrac(ctx, num, den), target, extra


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("q, s", PACKED_FIELDS)
def test_packed_lift_matches_expanded_cofactor(q, s, m, monkeypatch):
    """In characteristic 2, _lift multiplies by the cofactor as shifts of
    one packed numerator where the window rule allows it, and as shifts
    of the numerator's dict elsewhere; it never expands the cofactor
    (_den_elem).  On seeded lifts over fields with 1-, 2- and 4-byte
    slots, with exact, capped, termless and exactly zero numerators,
    both paths give num * _den_elem(ctx, extra), coefficients and cap,
    and the path taken is the rule's."""
    ctx = SeriesParams(FieldParams.make(q, s), m, 32)
    rng = random.Random(7000 + 100 * q + 10 * s + m)
    real, expanded = modules._den_elem, _watch_den_elem(monkeypatch)
    packs = _watch_pack2(monkeypatch)
    paths = set()
    for case in range(60):
        kind = ("exact", "capped", "exact", "capped", "termless",
                "zero")[case % 6]
        frac, target, extra = _lift_case(ctx, rng, kind)
        num = frac.num
        want = num * real(ctx, extra)
        expanded.clear()
        packs.clear()
        got = frac._lift(target)
        assert (got.coeffs, got.cap) == (want.coeffs, want.cap), (frac,
                                                                   target)
        assert not expanded, (frac, target)
        if kind == "zero":
            assert got is num and not packs
            continue
        packed = bool(num.coeffs) and _packed_rule(ctx, num, extra)
        assert bool(packs) == packed, (frac, target)
        paths.add((kind, packed))
    assert {("exact", True), ("exact", False), ("capped", True),
            ("capped", False), ("termless", False)} <= paths


def test_sparse_lift_shifts_a_dict(monkeypatch):
    """The window rule keeps a thin numerator off the packed path: over
    F_8, two terms 200,000 slots apart lifted by [1] are shifted as a
    dict, while a numerator dense on the same lift's window is packed.
    Neither expands the cofactor."""
    ctx = SeriesParams(FieldParams.make(8), 1, 32)
    real, expanded = modules._den_elem, _watch_den_elem(monkeypatch)
    packs = _watch_pack2(monkeypatch)
    sparse = BracketFrac(ctx, ctx.make({0: 1, 200000: 3}))
    dense = BracketFrac(ctx, ctx.make({e: 1 + e % 7 for e in range(16)}))
    for frac, packed in ((sparse, False), (dense, True)):
        got = frac._lift({1: 1})
        assert not expanded and bool(packs) == packed
        assert got == frac.num * real(ctx, ((1, 1),))
        packs.clear()


@pytest.mark.parametrize("q", [2, 4, 8])
def test_dict_lift_cuts_at_the_cap_and_deletes_what_cancels(q):
    """A thin characteristic-2 lift shifts its dict once per binomial:
    (1 + u + c u^1000 + ...)(1 + u)(1 + u^2) over [1]^3 at q = 2 puts
    two terms on each exponent of the low block, which cancel, and a
    cap cuts the shifted terms above it.  Coefficients and cap equal
    num * _den_elem, and no coefficient is zero."""
    ctx = SeriesParams(FieldParams.make(q), 1, 32)
    S = q - 1
    c = ctx.field.order - 1
    for cap in (INF, 1000 + S, 1000 + 2 * S):
        num = ctx.make({0: c, S: c, 2 * S: c, 1000: 1}, cap)
        frac = BracketFrac(ctx, num, {2: 1})
        for target in ({1: 3, 2: 1}, {1: 1, 2: 1}):
            extra = tuple(sorted((e, mlt - frac.den.get(e, 0))
                                 for e, mlt in target.items()
                                 if mlt > frac.den.get(e, 0)))
            assert not _packed_rule(ctx, num, extra)
            got = frac._lift(target)
            want = num * _den_elem(ctx, extra)
            assert (got.coeffs, got.cap) == (want.coeffs, want.cap)
            assert all(got.coeffs.values())


@pytest.mark.parametrize("q, s", [(3, 1), (5, 1), (9, 1), (3, 2)])
def test_odd_p_lift_expands_the_cofactor(q, s, monkeypatch):
    """For odd p, a lift that adds a bracket multiplies by the expanded
    cofactor, once per lift, and gives its product."""
    ctx = SeriesParams(FieldParams.make(q, s), 1, 32)
    real, expanded = modules._den_elem, _watch_den_elem(monkeypatch)
    frac = BracketFrac(ctx, ctx.make({0: 1, 7: 2, 400: 1}), {1: 1})
    got = frac._lift({1: 2, 2: 1})
    assert expanded == [((1, 1), (2, 1))]
    assert got == frac.num * real(ctx, ((1, 1), (2, 1)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_equal_denominator_sums_lift_nothing(q, monkeypatch):
    """A sum or equality of two fractions over equal multisets (distinct
    dicts) keeps the first one's den, hands each numerator back as the
    very object (_lift returns num itself), and expands nothing; so
    does the lift of a fraction already over the merged multiset."""
    ctx = SeriesParams(FieldParams.make(q), 1, 32)
    expanded = _watch_den_elem(monkeypatch)
    packs = _watch_pack2(monkeypatch)
    lifts, real_lift = [], BracketFrac._lift

    def watch(self, target):
        out = real_lift(self, target)
        lifts.append((self, out))
        return out

    monkeypatch.setattr(BracketFrac, "_lift", watch)
    a = BracketFrac(ctx, ctx.make({-3: 1, 5: 1, 90: 1}), {1: 2, 3: 1})
    b = BracketFrac(ctx, ctx.make({0: 1, 40: 1}), {1: 2, 3: 1})
    big = BracketFrac(ctx, ctx.make({2: 1}), {1: 3, 2: 1, 3: 1})
    assert a.den is not b.den and a._merge(b) is a.den
    total = a + b
    assert total.den is a.den and total.num == a.num + b.num
    assert not a.equals(b)
    assert a.equals(BracketFrac(ctx, a.num, dict(a.den)))
    assert len(lifts) == 6 and all(out is frac.num for frac, out in lifts)
    assert not expanded and not packs
    lifts.clear()
    a + big
    assert [(frac, out is frac.num) for frac, out in lifts] == [
        (a, False), (big, True)]
@pytest.mark.parametrize("q, s", PACKED_FIELDS)
def test_packed_to_laurent_empty_window_is_the_zero_at_the_cap(q, s):
    """A numerator with no terms, or one that starts at or above ucap -
    shift, leaves to_laurent no window on the packed path: it gives the
    zero at min(ucap, num.cap + shift), as the Newton oracle does."""
    ctx = SeriesParams(FieldParams.make(q, s), 1, 32)
    den = {1: 3, 2: 1}
    shift = BracketFrac(ctx, ctx.one(), den).den_deg()
    for num, ucap in ((ctx.zero(5), 40), (ctx.zero(5), shift + 2),
                      (ctx.monomial(1, 10), shift + 10),
                      (ctx.monomial(1, 10), shift + 3),
                      (ctx.make({12: 1, 20: 1}, 14), shift + 12)):
        frac = BracketFrac(ctx, num, den)
        got = frac.to_laurent(ucap)
        want = frac_to_laurent_newton(frac, ucap)
        assert not got.coeffs
        assert (got.coeffs, got.cap) == (want.coeffs, want.cap), (num, ucap)


def _times_case(ctx, rng):
    """(frac, x, ucap) for times_to_laurent: _to_laurent_case's fractions
    (numerators exact, capped or zero to a cap, ucap finite or
    infinite), now and then over no bracket at all, times an x that is
    exact, capped, zero to a cap or exactly zero.  x's valuation often
    sits at the edge of the window ucap - m * den_deg(), so some
    products lie wholly above what to_laurent reads."""
    frac, ucap = _to_laurent_case(ctx, rng)
    if rng.random() < 0.15:
        frac = BracketFrac(ctx, frac.num)
    shift = ctx.m * frac.den_deg()
    vn = frac.num.vbound if frac.num.vbound != INF else 0
    edge = ucap - shift - vn if ucap != INF else 40  # lim - v(num)
    vx = (rng.randint(edge - 3, edge + 6) if rng.random() < 0.3
          else rng.randint(min(-20, edge), edge))
    kind = rng.choice(("exact", "capped", "exact", "capped", "zero",
                       "exact zero"))
    if kind == "exact zero":
        return frac, ctx.zero(), ucap
    if kind == "zero":
        return frac, ctx.zero(vx + rng.randint(0, 20)), ucap
    exps = {vx} | {vx + rng.randrange(60) for _ in range(rng.randint(0, 30))}
    cap = INF if kind == "exact" else vx + rng.randint(1, 70)
    x = ctx.make({e: rng.randrange(1, ctx.field.order) for e in exps}, cap)
    return frac, x, ucap


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("q, s", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1),
                                  (4, 2), (5, 1), (5, 2), (9, 1), (9, 2)])
def test_times_to_laurent_matches_product_then_to_laurent(q, s, m,
                                                          monkeypatch):
    """times_to_laurent(x, ucap) is (f * x).to_laurent(ucap), coefficients
    and cap, on seeded fractions and scalars: x exact, capped or without
    terms, numerators zero to a cap, products wholly above the window,
    and ucap infinite.  With a finite ucap and two operands with terms,
    the numerator handed to to_laurent holds nothing at or above the
    window ucap - m * den_deg(), and its cap is not above it."""
    ctx = SeriesParams(FieldParams.make(q, s), m, 32)
    rng = random.Random(7000 + 100 * q + 10 * s + m)
    to_laurent = BracketFrac.to_laurent
    seen = []
    monkeypatch.setattr(BracketFrac, "to_laurent",
                        lambda f, u: seen.append(f.num) or to_laurent(f, u))
    guarded = windowed = 0
    for _ in range(60):
        frac, x, ucap = _times_case(ctx, rng)
        seen.clear()
        got = frac.times_to_laurent(x, ucap)
        assert got == to_laurent(frac * x, ucap), (frac, x, ucap)
        if ucap == INF or not frac.num.coeffs or not x.coeffs:
            continue
        lim = ucap - m * frac.den_deg()
        if min(frac.num.coeffs) + min(x.coeffs) >= lim:
            guarded += 1
            assert not seen
            continue
        windowed += 1
        num, = seen
        assert num.cap <= lim and max(num.coeffs) < lim
    assert guarded and windowed


# -- coefficients: closed form vs recurrence --

def test_carlitz_coefficients_explicit():
    q = 3
    phi = carlitz(CTX3)
    alpha = phi.exp_coeffs(5)
    beta = phi.log_coeffs(5)
    for n in range(6):
        dn = {n - j: q ** j for j in range(n)}
        assert alpha[n].equals(BracketFrac(CTX3, CTX3.one(), dn))
        ln = {k: 1 for k in range(1, n + 1)}
        num = CTX3.one() if n % 2 == 0 else -CTX3.one()
        assert beta[n].equals(BracketFrac(CTX3, num, ln))


@pytest.mark.parametrize("make,depth", [
    (lambda: carlitz(CTX2), 7),
    (lambda: carlitz(CTX3), 6),
    (rank2_q2, 6),
    (rank2_q3, 5),
    (rank3_q2, 6),
    (lambda: DrinfeldModule(CTX2, [CTX2.zero(), CTX2.one()]), 8),
])
def test_routes_agree(make, depth):
    phi = make()
    a1 = phi.exp_coeffs(depth, "partitions")
    a2 = phi.exp_coeffs(depth, "recurrence")
    b1 = phi.log_coeffs(depth, "partitions")
    b2 = phi.log_coeffs(depth, "recurrence")
    for n in range(depth + 1):
        assert a1[n].equals(a2[n]), "exp coefficient %d" % n
        assert b1[n].equals(b2[n]), "log coefficient %d" % n


def _assert_inverse(f, g, tag):
    """sum_{i+j=m} f_i g_j^(q^i) is an exact zero for 1 <= m < len(f),
    each sum folded in ascending order of denominator degree."""
    for m in range(1, len(f)):
        terms = sorted((f[i] * g[m - i].pow_q(i) for i in range(m + 1)),
                       key=BracketFrac.den_deg)
        assert reduce(add, terms).is_exact_zero(), (tag, m)


def _assert_composition(phi, n, route):
    """log o exp = 1 mod tau^(n+1).  It follows from the two functional
    equations that compose_check tests, but does not imply them: the
    coefficients of another module pass it too."""
    _assert_inverse(phi.log_coeffs(n, route), phi.exp_coeffs(n, route),
                    ("log o exp", route))


def _assert_mirror(phi, n, route):
    """exp o log = 1 mod tau^(n+1), which follows from log o exp = 1:
    alpha_0 = beta_0 = 1 makes a one-sided inverse two-sided."""
    _assert_inverse(phi.exp_coeffs(n, route), phi.log_coeffs(n, route),
                    ("exp o log", route))


@pytest.mark.parametrize("make", [lambda: carlitz(CTX3), rank2_q2, rank2_q3,
                                  rank3_q2])
def test_composition_inverts(make):
    phi = make()
    for route in ("partitions", "recurrence"):
        assert phi.compose_check(6, route), route
        _assert_composition(phi, 6, route)
        _assert_mirror(phi, 6, route)


def _random_module(ctx, r, rng):
    """phi_t with random A_i in F_q[theta] of degree <= 2; A_i may be
    zero below the top, so supports have gaps."""
    q = ctx.q
    A = [[rng.randrange(q) for _ in range(rng.randrange(1, 4))]
         for _ in range(r)]
    if not any(A[-1]):
        A[-1][-1] = rng.randrange(1, q)
    return DrinfeldModule(ctx, [ctx.from_poly(c) for c in A])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_composition_random_modules(q):
    """On seeded random modules of rank 1-3, compose_check holds on both
    routes, so do both composition identities, and the routes agree."""
    rng = random.Random(90 + q)
    ctx = SeriesParams(FieldParams.make(q), 1, 48)
    depth = 5 if q < 9 else 4
    routes = ("partitions", "recurrence")
    for r in (1, 2, 3):
        phi = _random_module(ctx, r, rng)
        for route in routes:
            assert phi.compose_check(depth, route), (r, route)
            _assert_composition(phi, depth, route)
            _assert_mirror(phi, depth, route)
        a1, a2 = (phi.exp_coeffs(depth, route) for route in routes)
        b1, b2 = (phi.log_coeffs(depth, route) for route in routes)
        for n in range(depth + 1):
            assert a1[n].equals(a2[n]), (r, "exp", n)
            assert b1[n].equals(b2[n]), (r, "log", n)


def _sparse_module(ctx, rng):
    """Rank 3 with support (1, 3): A_2 = 0."""
    q = ctx.q
    return DrinfeldModule(ctx, [ctx.from_poly((rng.randrange(q),
                                               rng.randrange(1, q))),
                                ctx.zero(),
                                ctx.from_poly((rng.randrange(1, q),))])


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_equation_beta_equals_both_printed_routes(q, s):
    """beta from phi's log equation (route "equation", which log_eval,
    bseq and the main theorem's (b) read) equals the partition beta and
    the triangular inversion's beta on seeded modules of rank 1-3 and on
    one with the sparse support (1, 3); compose_check holds on it."""
    rng = random.Random(1400 + 10 * q + s)
    ctx = SeriesParams(FieldParams.make(q, s), 1, 48)
    depth = 5 if q < 9 else 4
    mods = [_random_module(ctx, r, rng) for r in (1, 2, 3)]
    mods.append(_sparse_module(ctx, rng))
    assert mods[-1].support == (1, 3)
    for phi in mods:
        eq = phi.log_coeffs(depth, "equation")
        for route in ("partitions", "recurrence"):
            other = phi.log_coeffs(depth, route)
            for n in range(depth + 1):
                assert eq[n].equals(other[n]), (phi.support, route, n)
        assert phi.exp_coeffs(depth, "equation") == \
            phi.exp_coeffs(depth, "recurrence")
        assert phi.compose_check(depth, "equation")


def _inverse_oracle(phi, n):
    """beta_0 .. beta_n by the plain triangular inversion: beta_k =
    -sum_{i<k} beta_i alpha_(k-i)^(q^i), folded from zero in order of i,
    over the recurrence route's alpha."""
    alpha = phi.exp_coeffs(n, "recurrence")
    beta = [BracketFrac.one(phi.ctx)]
    for k in range(1, n + 1):
        beta.append(-reduce(add, (beta[i] * alpha[k - i].pow_q(i)
                                  for i in range(k)),
                            BracketFrac.zero(phi.ctx)))
    return beta


def _watch_fold_den(monkeypatch):
    """A list that records each _fold_den result of _inverse_step."""
    seen = []
    real = modules._fold_den

    def watched(ctx, terms):
        seen.append(real(ctx, terms))
        return seen[-1]

    monkeypatch.setattr(modules, "_fold_den", watched)
    return seen


def _assert_inverse_matches_oracle(phi, n):
    got = phi.log_coeffs(n, "recurrence")
    want = _inverse_oracle(DrinfeldModule(phi.ctx, phi.A), n)
    for k in range(n + 1):
        assert got[k].den == want[k].den, (phi.support, k)
        assert got[k].num == want[k].num, (phi.support, k)


def _random_sparse_module(ctx, r, rng):
    """Rank r over F_(q^s): each A_i below the top is zero with
    probability 1/2, else a random polynomial of degree <= 1."""
    order, m = ctx.field.order, ctx.m
    A = []
    for i in range(1, r + 1):
        if i < r and rng.random() < 0.5:
            A.append(ctx.zero())
            continue
        poly = {-m * j: rng.randrange(order) for j in range(2)}
        poly[-m * rng.randrange(2)] = rng.randrange(1, order)
        A.append(ctx.make(poly))
    return DrinfeldModule(ctx, A)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("q,depth", [(2, 7), (3, 5), (4, 4), (5, 4),
                                     (9, 3)])
def test_printed_inverse_equals_folded_inverse(q, depth, s, m, monkeypatch):
    """The printed triangular beta_k (the log-equation beta lifted to the
    fold's denominator, or the fold itself where the guard refuses) has
    the plain fold's denominator and numerator, on seeded modules of
    ranks 1-4 with sparse supports."""
    seen = _watch_fold_den(monkeypatch)
    rng = random.Random(1800 + 100 * q + 10 * s + m)
    ctx = SeriesParams(FieldParams.make(q, s), m, 48)
    for r in (1, 2, 3, 4):
        _assert_inverse_matches_oracle(_random_sparse_module(ctx, r, rng),
                                       depth)
    assert any(den is not None for den in seen)


@pytest.mark.parametrize("q,A,n,refused", [
    (2, ((1,), (0,), (1, 1), (1,)), 7, 3),
    (4, ((2,), (0,), (3, 1), (2,)), 4, 1),
])
def test_inverse_guard_falls_back_to_the_fold(q, A, n, refused, monkeypatch):
    """On these sessions some partial sums of the triangular fold cannot
    be shown nonzero from their leading terms; those steps run the fold,
    and every printed fraction is the fold's."""
    seen = _watch_fold_den(monkeypatch)
    ctx = SeriesParams(FieldParams.make(q), 1, 64)
    phi = DrinfeldModule(ctx, [ctx.from_poly(c) for c in A])
    _assert_inverse_matches_oracle(phi, n)
    assert len(seen) == n
    assert sum(den is None for den in seen) == refused


def test_fold_den_refuses_a_cancelling_partial_sum():
    """x + (-x) + y: the fold's middle partial sum is exactly zero and
    drops den(x), so the guard refuses; without the cancellation it
    returns the max-merge, q^i times den(a) included."""
    ctx = CTX3
    one = BracketFrac.one(ctx)
    x = BracketFrac(ctx, ctx.theta(), {1: 2})
    y = BracketFrac(ctx, ctx.one(), {2: 1})
    assert modules._fold_den(ctx, [(x, one, 0), (-x, one, 0),
                                   (y, one, 0)]) is None
    assert modules._fold_den(ctx, [(x, one, 0), (x, one, 0),
                                   (y, one, 0)]) == {1: 2, 2: 1}
    assert modules._fold_den(ctx, [(y, one, 0), (one, x, 1)]) == \
        {1: 6, 2: 1}


def _eval_reading(phi, route, xi, cap):
    """(exp_eval, log_eval) at xi of a fresh copy of phi whose evaluation
    reads the given route's coefficients."""
    twin = DrinfeldModule(phi.ctx, phi.A)
    d = xi.deg_bound()
    n = max(twin.exp_tail_cut(d, cap), twin.log_tail_cut(d, cap))
    twin._alpha["equation"] = twin.exp_coeffs(n, route)
    twin._beta["equation"] = twin.log_coeffs(n, route)
    return twin.exp_eval(xi, ucap=cap), twin.log_eval(xi, ucap=cap)


@pytest.mark.parametrize("q,s", [(2, 1), (3, 1), (4, 1), (5, 1), (9, 1),
                                 (2, 2), (3, 2)])
def test_eval_reads_values_not_fractions(q, s):
    """exp_eval and log_eval give == elements, caps included, whether
    they read the partition, the triangular or the equation coefficients,
    at cap c and, truncated back, at 2c.  The triangular betas are other
    fractions than the equation's (unreduced denominators), so
    to_laurent reads values only."""
    rng = random.Random(1500 + 10 * q + s)
    ctx = SeriesParams(FieldParams.make(q, s), 1, 48)
    c = 20
    for phi in (_random_module(ctx, 2, rng), _sparse_module(ctx, rng)):
        xi = (ctx.monomial(rng.randrange(1, ctx.field.order), 1)
              + ctx.monomial(rng.randrange(ctx.field.order), 3))
        want = (phi.exp_eval(xi, ucap=c), phi.log_eval(xi, ucap=c))
        wide = (phi.exp_eval(xi, ucap=2 * c), phi.log_eval(xi, ucap=2 * c))
        assert tuple(v.truncate(c) for v in wide) == want
        for route in ("partitions", "recurrence"):
            assert _eval_reading(phi, route, xi, c) == want, route
            wide = _eval_reading(phi, route, xi, 2 * c)
            assert tuple(v.truncate(c) for v in wide) == want, route
        pairs = zip(phi.log_coeffs(4, "recurrence"),
                    phi.log_coeffs(4, "equation"))
        assert any(a.den != b.den for a, b in pairs)


def _perturbed_compose_check(make, route, which, seed):
    """compose_check after one cached alpha_k or beta_k numerator, k in
    0..n, is moved by a monomial."""
    phi = make()
    ctx = phi.ctx
    n = 4
    phi.exp_coeffs(n, route)
    phi.log_coeffs(n, route)
    rng = random.Random(seed)
    seq = (phi._alpha if which == "alpha" else phi._beta)[route]
    k = rng.randrange(n + 1)
    f = seq[k]
    bump = ctx.monomial(rng.randrange(1, ctx.field.order),
                        rng.randrange(-12, 4))
    seq[k] = BracketFrac(ctx, f.num + bump, f.den)
    return phi.compose_check(n, route)


@pytest.mark.parametrize("which", ["alpha", "beta"])
@pytest.mark.parametrize("route", ["partitions", "recurrence", "equation"])
@pytest.mark.parametrize("make", [
    lambda: carlitz(CTX2),
    lambda: carlitz(CTX3),
    rank2_q2,
    rank2_q3,
    rank3_q2,
    lambda: DrinfeldModule(CTX3, [CTX3.one(), CTX3.theta(),
                                  CTX3.theta() + CTX3.one()]),
])
def test_composition_catches_a_wrong_coefficient(make, route, which):
    for seed in range(3):
        assert _perturbed_compose_check(make, route, which, seed) is False


def _equation_step_oracle(phi, n, route):
    """The functional-equation check as each step of phi's equations
    applied to the printed coefficients: alpha_0 = beta_0 = 1, and for
    1 <= k <= n, alpha_k = _exp_step(alpha, k) and beta_k =
    _log_step(beta, k), compared by value."""
    alpha = phi.exp_coeffs(n, route)
    beta = phi.log_coeffs(n, route)
    one = BracketFrac.one(phi.ctx)
    return (alpha[0].equals(one) and beta[0].equals(one) and
            all(phi._exp_step(alpha, k).equals(alpha[k]) and
                phi._log_step(beta, k).equals(beta[k])
                for k in range(1, n + 1)))


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("q,depth", [(2, 6), (3, 5), (4, 4), (5, 4),
                                     (9, 3)])
def test_check_matches_the_step_oracle(q, depth, s):
    """compose_check, which compares the printed coefficients with a
    fresh solution of phi's equations, gives the step oracle's verdict on
    the true coefficients and on coefficients with one alpha_k or beta_k
    (k in 0..n) moved by a monomial, on seeded modules of ranks 1-4 with
    sparse supports, on both printed routes."""
    rng = random.Random(1900 + 10 * q + s)
    ctx = SeriesParams(FieldParams.make(q, s), 1, 48)
    verdicts = set()
    for r in (1, 2, 3, 4):
        A = _random_sparse_module(ctx, r, rng).A
        for route in ("partitions", "recurrence"):
            for which in (None, "_alpha", "_beta"):
                phi = DrinfeldModule(ctx, A)
                phi.exp_coeffs(depth, route)
                phi.log_coeffs(depth, route)
                if which is not None:
                    seq = getattr(phi, which)[route]
                    k = rng.randrange(depth + 1)
                    bump = ctx.monomial(rng.randrange(1, ctx.field.order),
                                        rng.randrange(-12, 4))
                    seq[k] = BracketFrac(ctx, seq[k].num + bump, seq[k].den)
                got = phi.compose_check(depth, route)
                assert got == _equation_step_oracle(phi, depth, route), \
                    (phi.support, route, which)
                assert got is (which is None)
                verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("route", ["partitions", "recurrence"])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_check_rejects_another_modules_coefficients(q, route):
    """alpha and beta of the module with A_r moved by theta, cached in the
    true module, compose to 1, so the composition oracle passes them; the
    functional equations of the true module reject them."""
    ctx = SeriesParams(FieldParams.make(q), 1, 48)
    A = [ctx.theta(), ctx.theta() + ctx.one()]
    n = 4
    phi = DrinfeldModule(ctx, A)
    other = DrinfeldModule(ctx, A[:-1] + [A[-1] * ctx.theta()])
    phi._alpha[route] = other.exp_coeffs(n, route)
    phi._beta[route] = other.log_coeffs(n, route)
    _assert_composition(phi, n, route)
    assert phi.compose_check(n, route) is False


@pytest.mark.parametrize("route", ["partitions", "recurrence"])
@pytest.mark.parametrize("A", [(0, 1, 1), (0, 0, 1)],
                         ids=["support-2-3", "support-3"])
def test_check_on_support_gaps(A, route):
    """Rank 3 with support (2, 3) or (3,): below the smallest index in the
    support the sums are empty, alpha_k and beta_k are exact zeros and the
    check holds; a bump at such a k is caught."""
    ctx = CTX3
    n = 5
    phi = DrinfeldModule(ctx, [ctx.scalar(a) for a in A])
    low = range(1, phi.support[0])
    for k in low:
        assert phi.exp_coeffs(n, route)[k].is_exact_zero()
        assert phi.log_coeffs(n, route)[k].is_exact_zero()
    assert phi.compose_check(n, route)
    _assert_composition(phi, n, route)
    for which in ("_alpha", "_beta"):
        for k in low:
            seq = getattr(phi, which)[route]
            saved = seq[k]
            seq[k] = BracketFrac(ctx, ctx.monomial(1, -k), {})
            assert phi.compose_check(n, route) is False, (which, k)
            seq[k] = saved
    assert phi.compose_check(n, route)


def test_rank2_worked_third_coefficients():
    ctx = CTX3
    phi = rank2_q3(ctx)
    q = 3
    A1, A2 = phi.A
    a1c = A1 * A1.pow_q(1) * A1.pow_q(2)      # A_1^(q^2+q+1)

    t1 = BracketFrac(ctx, -a1c, {1: 1, 2: 1, 3: 1})
    t2 = BracketFrac(ctx, A1 * A2.pow_q(1), {1: 1, 3: 1})
    t3 = BracketFrac(ctx, A1.pow_q(2) * A2, {2: 1, 3: 1})
    beta3 = phi.log_coeffs(3)[3]
    assert beta3.equals(t1 + t2 + t3)

    s1 = BracketFrac(ctx, a1c, {3: 1, 2: q, 1: q * q})
    s2 = BracketFrac(ctx, A1.pow_q(2) * A2, {1: q * q, 3: 1})
    s3 = BracketFrac(ctx, A1 * A2.pow_q(1), {2: q, 3: 1})
    alpha3 = phi.exp_coeffs(3)[3]
    assert alpha3.equals(s1 + s2 + s3)


def test_rank3_adds_one_term_at_depth_three():
    ctx = CTX2
    two = rank2_q2(ctx)
    three = rank3_q2(ctx)
    A3 = three.A[2]
    d_exp = three.exp_coeffs(3)[3] - two.exp_coeffs(3)[3]
    assert d_exp.equals(BracketFrac(ctx, A3, {3: 1}))
    d_log = three.log_coeffs(3)[3] - two.log_coeffs(3)[3]
    assert d_log.equals(BracketFrac(ctx, -A3, {3: 1}))


def _a_power_oracle(phi, sp):
    """A^S = prod_i prod_{j in S_i} A_i^(q^j), multiplied out afresh."""
    out = phi.ctx.one()
    for i, mask in enumerate(sp.masks, start=1):
        for j in range(sp.n):
            if mask >> j & 1:
                out = out * phi.A[i - 1].pow_q(j)
    return out


def _exp_term(phi, sp):
    """A^S / D_n(S), D_n(S) = prod_{j in union} [n-j]^(q^j)."""
    union = sp.union_mask()
    den = {sp.n - j: phi.ctx.q ** j for j in range(sp.n) if union >> j & 1}
    return BracketFrac(phi.ctx, _a_power_oracle(phi, sp), den)


def _log_term(phi, sp):
    """A^S / L(S), L(S) = prod_i prod_{j in S_i} (-[i+j])."""
    den = sp.pair_sums()
    num = _a_power_oracle(phi, sp)
    return BracketFrac(phi.ctx, -num if sum(den.values()) % 2 else num, den)


def _partition_oracle(phi, n):
    """alpha_0 .. alpha_n and beta_0 .. beta_n as two separate left folds
    from zero per depth, one over the exp terms and one over the log
    terms, each in enumeration order."""
    alpha, beta = [], []
    for k in range(n + 1):
        parts = enumerate_partitions(phi.r, k, support=phi.support)
        zero = BracketFrac.zero(phi.ctx)
        alpha.append(reduce(add, (_exp_term(phi, sp) for sp in parts), zero))
        beta.append(reduce(add, (_log_term(phi, sp) for sp in parts), zero))
    return alpha, beta


def _printed(fracs):
    """The text coeffs prints for each fraction."""
    return [_frac_text(f) for f in fracs]


def test_per_partition_terms_rank2_depth3():
    phi = rank2_q2()
    parts = enumerate_partitions(2, 3)
    assert len(parts) == 3
    total = BracketFrac.zero(CTX2)
    for sp in parts:
        total = total + _log_term(phi, sp)
    assert total.equals(phi.log_coeffs(3)[3])
    assert _printed([total]) == _printed(phi.log_coeffs(3)[3:])


# coeffs 7 --q 2 --A "0;1,1,0,0,1,1,1,0,0,1,1;1,1,0,1,1,0,0,0,1,1,0,1,0,1,
# 1,0,0,0,1,1,0,1,1": A_1 = 0, A_2 = R_2^2 R_3 and A_3 = R_2^5 R_3^2 with
# R_2 = theta^2 + theta + 1 and R_3 = [3]/[1].  The beta-terms of the
# first two partitions of 7, (S_2, S_3) = ({3, 5}, {0}) and ({0, 5}, {2}),
# cancel exactly, so the enumeration-order fold prints beta_7 over
# {2: 1, 4: 1, 7: 1}, and a fold over the reversed walk over
# {2, 3, 4, 5, 7}.
FOLD_ORDER_A = ((0,), (1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1),
                (1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1,
                 0, 1, 1))


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("q,depth", [(2, 9), (3, 6), (4, 5), (5, 5),
                                     (9, 4)])
def test_one_walk_prints_the_separate_folds(q, depth, s):
    """The partition route's alpha_k and beta_k, summed in one walk per
    depth, print the same bytes as two separate left folds over the exp
    and log terms, on seeded modules of ranks 1-3 with sparse supports;
    extending the lists in steps prints the same bytes as in one go.
    Over F_2 the module FOLD_ORDER_A joins them: there an exact zero
    partial sum makes the printed beta_7 depend on the walk's order."""
    rng = random.Random(2000 + 10 * q + s)
    ctx = SeriesParams(FieldParams.make(q, s), 1, 48)
    phis = [_random_sparse_module(ctx, r, rng) for r in (1, 2, 3, 3)]
    if (q, s) == (2, 1):
        phis.append(DrinfeldModule(ctx, [ctx.from_poly(c)
                                         for c in FOLD_ORDER_A]))
    for phi in phis:
        alpha, beta = _partition_oracle(phi, depth)
        assert _printed(phi.log_coeffs(depth // 2)) == \
            _printed(beta[:depth // 2 + 1]), phi.support
        assert _printed(phi.exp_coeffs(depth)) == _printed(alpha), phi.support
        assert _printed(phi.log_coeffs(depth)) == _printed(beta), phi.support
    if (q, s) == (2, 1):
        assert phis[-1].log_coeffs(7)[7].den == {2: 1, 4: 1, 7: 1}


@pytest.mark.parametrize("q,depth", [(2, 6), (3, 4), (4, 4), (5, 3)])
def test_partition_route_denominators_when_a1_nonzero(q, depth):
    """With A_1 != 0 the lex-last partition (S_1 = {0..k-1}) is nonzero,
    and its denominators, {k-j: q^j} for alpha_k and {1..k} for beta_k,
    contain every other term's.  So the fold prints them whatever partial
    sums vanish: checked on seeded modules of ranks 1-3 whose other
    coefficients may be zero."""
    rng = random.Random(2100 + q)
    ctx = SeriesParams(FieldParams.make(q), 1, 48)
    for r in (1, 2, 2, 3, 3):
        A = [ctx.make({-j: rng.randrange(q) for j in range(2)})
             for _ in range(r)]
        for i in (0, r - 1):
            A[i] = A[i] + ctx.monomial(rng.randrange(1, q), -rng.randrange(2))
            if A[i].is_exact_zero():
                A[i] = ctx.one()
        phi = DrinfeldModule(ctx, A)
        alpha, beta = phi.exp_coeffs(depth), phi.log_coeffs(depth)
        for k in range(1, depth + 1):
            assert alpha[k].den == {k - j: q ** j for j in range(k)}, (r, k)
            assert beta[k].den == {j: 1 for j in range(1, k + 1)}, (r, k)


def test_partition_route_keeps_no_per_partition_state():
    """Summing alpha and beta to depth 10 on a rank-2 module over F_2
    keeps no product A^S alive: the traced peak stays far below the
    2.5 MB that a memo of every A^S reached."""
    phi = DrinfeldModule(CTX2, [CTX2.from_poly((1, 1))] * 2)
    tracemalloc.start()
    try:
        phi.exp_coeffs(10)
        phi.log_coeffs(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6e6, peak


# -- convergence data --

def test_convergence_known_values():
    c2 = carlitz(CTX2).convergence_data()
    assert (c2.s, c2.logq_R, c2.strict) == (1, 2, True)
    c3 = carlitz(CTX3).convergence_data()
    assert c3.logq_R == Fraction(3, 2)
    r2 = rank2_q2().convergence_data()
    assert (r2.s, r2.logq_R, r2.strict) == (2, Fraction(4, 3), True)
    r3 = rank3_q2().convergence_data()
    assert (r3.s, r3.logq_R) == (3, Fraction(8, 7))
    # deg A_1 = deg A_2 = 1 over q=2 ties rho at -1
    tie = DrinfeldModule(CTX2, [CTX2.theta(), CTX2.theta()]).convergence_data()
    assert (tie.s, tie.strict, tie.logq_R) == (1, False, 1)


def test_gapped_support_ignores_zero_coefficient():
    phi = DrinfeldModule(CTX2, [CTX2.zero(), CTX2.one()])
    assert phi.support == (2,)
    conv = phi.convergence_data()
    assert conv.s == 2 and conv.logq_R == Fraction(4, 3)
    # odd-depth exp coefficients vanish
    assert phi.exp_coeffs(5)[3].is_exact_zero()
    assert not phi.exp_coeffs(5)[4].is_exact_zero()


def test_partition_norm_decomposition_identity():
    """The closed-form norm of each summand splits, for any anchor i in
    the support, into (q^n-1)/(q^i-1)(deg A_i - q^i) plus the weighted
    mu-corrections."""
    for phi, n in [(rank2_q2(), 5), (rank2_q3(), 4), (rank3_q2(), 6)]:
        q = phi.ctx.q
        conv = phi.convergence_data()
        for sp in enumerate_partitions(phi.r, n, support=phi.support):
            w = sp.weights(q)
            val = partition_norm_logq(phi, sp)
            for i in phi.support:
                anchor = Fraction(q ** n - 1, q ** i - 1) * (
                    phi.A[i - 1].deg_bound() - q ** i)
                corr = sum((q ** k - 1) * w[k - 1]
                           * (conv.rho[k] - conv.rho[i])
                           for k in phi.support)
                assert val == anchor + corr


def test_norm_bound_from_radius():
    # log_q|beta_n| <= (q^n - 1) rho, with rho = -logq_R
    for phi in (carlitz(CTX3), rank2_q2(), rank3_q2()):
        conv = phi.convergence_data()
        beta = phi.log_coeffs(6)
        for n in range(1, 7):
            if beta[n].is_exact_zero():
                continue
            assert frac_deg(beta[n]) <= (phi.ctx.q ** n - 1) * (-conv.logq_R)


def test_exp_degree_bound_tight_for_carlitz():
    phi = carlitz(CTX3)
    alpha = phi.exp_coeffs(5)
    for n in range(6):
        assert phi.exp_deg_bound(n) == frac_deg(alpha[n]) == -n * 3 ** n


def test_exp_degree_bound_majorizes():
    for phi in (rank2_q2(), rank2_q3(), rank3_q2()):
        alpha = phi.exp_coeffs(6)
        for n in range(7):
            if not alpha[n].is_exact_zero():
                assert frac_deg(alpha[n]) <= phi.exp_deg_bound(n)


# -- evaluation --

def test_carlitz_exp_matches_direct_sum():
    ctx = CTX2
    phi = carlitz(ctx)
    xi = ctx.theta(-1) + ctx.one()
    got = phi.exp_eval(xi, ucap=40)
    # independent accumulation: sum xi^(q^n) / D_n with plain products
    total = ctx.zero(INF)
    xq = xi
    dn = ctx.one()
    for n in range(12):
        if n:
            xq = xq.pow_q(1)
            dn = bracket(ctx, n) * dn.pow_q(1)
        total = total + (xq * dn.truncate(dn.val + 64).invert()).truncate(40)
    assert zero_to_prec(got - total)
    assert got.cap == 40


@pytest.mark.parametrize("make,xis", [
    (rank2_q2, ["one", "inv", "inv2"]),
    (lambda: carlitz(CTX3), ["inv", "inv2"]),
    (rank3_q2, ["inv"]),
])
def test_log_exp_roundtrip(make, xis):
    phi = make()
    ctx = phi.ctx
    table = {"one": ctx.one(), "inv": ctx.theta(-1),
             "inv2": ctx.theta(-2) + ctx.theta(-3)}
    for name in xis:
        xi = table[name]
        cap = 36
        ex = phi.exp_eval(xi, ucap=cap)
        back = phi.log_eval(ex, ucap=cap)
        assert zero_to_prec(back - xi)
        assert (back - xi).cap >= cap
        lg = phi.log_eval(xi, ucap=cap)
        again = phi.exp_eval(lg, ucap=cap)
        assert zero_to_prec(again - xi)


def test_exp_functional_equation_numeric():
    for phi in (rank2_q2(), rank2_q3()):
        ctx = phi.ctx
        xi = ctx.theta(-1)
        cap = 30
        lhs = phi.exp_eval(ctx.theta() * xi, ucap=cap)
        rhs = phi.phi_action(phi.exp_eval(xi, ucap=cap)).truncate(cap)
        assert zero_to_prec(lhs - rhs)


def test_log_functional_equation_numeric():
    phi = rank2_q2()
    ctx = phi.ctx
    xi = ctx.theta(-2)
    cap = 30
    lhs = phi.log_eval(phi.phi_action(xi), ucap=cap)
    rhs = (ctx.theta() * phi.log_eval(xi, ucap=cap)).truncate(cap)
    assert zero_to_prec(lhs - rhs)


def test_exp_is_entire_log_is_not():
    phi = rank2_q2()
    ctx = phi.ctx
    big = ctx.theta(3)
    out = phi.exp_eval(big, ucap=10)
    assert out.coeffs  # converges and is nonzero
    with pytest.raises(OutsideRadius) as ei:
        phi.log_eval(big, ucap=10)
    assert "logq_R" in str(ei.value)


def test_eval_doubling_is_byte_identical():
    for phi in (rank2_q2(), carlitz(CTX3)):
        ctx = phi.ctx
        xi = ctx.theta(-1) + ctx.one() if phi.r == 2 else ctx.theta(-1)
        for cap in (24, 33):
            a = phi.exp_eval(xi, ucap=cap)
            b = phi.exp_eval(xi, ucap=2 * cap).truncate(cap)
            assert a == b
            la = phi.log_eval(xi, ucap=cap)
            lb = phi.log_eval(xi, ucap=2 * cap).truncate(cap)
            assert la == lb


def test_module_validation():
    with pytest.raises(InvalidInput):
        DrinfeldModule(CTX2, [])
    with pytest.raises(InvalidInput):
        DrinfeldModule(CTX2, [CTX2.zero()])
    with pytest.raises(InvalidInput):
        DrinfeldModule(CTX2, [CTX2.zero(cap=5), CTX2.one()])


def test_phi_action_values():
    phi = rank2_q2()
    ctx = phi.ctx
    x = ctx.theta(-1)
    # theta x + x^2 + x^4 at x = 1/theta
    want = ctx.one() + ctx.theta(-2) + ctx.theta(-4)
    assert phi.phi_action(x) == want


def test_negative_index_rejected_after_cache_fills():
    # a negative n used to slice the cached lists: [:n + 1] with n = -3
    # returned the first three cached coefficients
    phi = carlitz(CTX2)
    for route in ("partitions", "recurrence"):
        assert len(phi.exp_coeffs(4, route)) == 5
        assert len(phi.log_coeffs(4, route)) == 5
        with pytest.raises(InvalidInput):
            phi.exp_coeffs(-3, route)
        with pytest.raises(InvalidInput):
            phi.log_coeffs(-1, route)
    assert len(phi.exp_coeffs(0)) == 1
