"""t-series and t-rational layer: truncation rules, pole expansions,
twists, residues, Gauss norms."""

import random
from fractions import Fraction
from math import inf as INF

import pytest

from drinfeld.errors import IndeterminateNorm, InvalidInput, TailNotNegligible
from drinfeld.ff import FieldParams
from drinfeld.laurent import LaurentElem, SeriesParams
from drinfeld.tate import (TateRational, TateSeries, ThetaPoleForm,
                           expand_sum)

from oracles import (EvalAtPole, expand_sum_pad_first, laurent_sum,
                     mul_pole_composed, rational_eval, tate_diff, tate_sum,
                     zero_to_prec)

CTX2 = SeriesParams(FieldParams.make(2), 1, 48)
CTX3 = SeriesParams(FieldParams.make(3, 2), 2, 40)


def t_poly(ctx, coeffs):
    """Exact polynomial in t with LaurentElem coefficients."""
    return TateSeries(ctx, coeffs, INF)


def deg_t(f):
    """Degree of an exact polynomial in t."""
    assert f.t_prec == INF, "degree of a truncated series is unknown"
    return len(f.coeffs) - 1


def geometric_pole_series(ctx, e, t_prec):
    """Expansion of 1/(t - theta^(q^e)) in the Tate algebra:
    -sum_k theta^(-q^e (k+1)) t^k (valid since |theta^(q^e)| > 1).
    The product with it is the oracle for TateSeries.div_pole."""
    q = ctx.q
    neg1 = ctx.field.neg(1)
    step = ctx.m * (q ** e)
    coeffs = [ctx.monomial(neg1, step * (k + 1)) for k in range(t_prec)]
    return TateSeries(ctx, coeffs, t_prec)


def apply_delta(delta_coeffs, f: TateSeries):
    """Apply sum_i g_i * (Frobenius twist by i) to f.  Coefficients may be
    LaurentElem scalars or exact t-polynomials."""
    out = None
    for i, g in enumerate(delta_coeffs):
        fi = f.twist(i)
        if isinstance(g, LaurentElem):
            term = fi.scale(g)
        elif isinstance(g, TateSeries):
            term = g * fi
        else:
            raise InvalidInput("unsupported delta coefficient")
        out = term if out is None else out + term
    if out is None:
        raise InvalidInput("empty delta")
    return out


def _rand_scalar(ctx, rng, exact_ok=True):
    n = rng.randrange(0, 5)
    coeffs = {rng.randrange(-8, 16): rng.randrange(1, ctx.field.order)
              for _ in range(n)}
    if exact_ok and rng.random() < 0.5:
        return LaurentElem(ctx, coeffs, INF)
    return LaurentElem(ctx, coeffs, rng.randrange(14, 22))


def _rand_series(ctx, rng, poly_ok=True):
    n = rng.randrange(0, 5)
    coeffs = [_rand_scalar(ctx, rng) for _ in range(n)]
    if poly_ok and rng.random() < 0.4:
        return TateSeries(ctx, coeffs, INF)
    return TateSeries(ctx, coeffs, rng.randrange(max(1, n), n + 4))


@pytest.mark.parametrize("ctx,seed", [(CTX2, 5), (CTX3, 6)])
def test_series_ring_axioms(ctx, seed):
    rng = random.Random(seed)
    for _ in range(80):
        f, g, h = (_rand_series(ctx, rng) for _ in range(3))
        assert (f + g).coeffs == (g + f).coeffs
        assert (f * g).coeffs == (g * f).coeffs
        dist = f * (g + h) - (f * g + f * h)
        assert zero_to_prec(dist)
        assoc = (f * g) * h - f * (g * h)
        assert zero_to_prec(assoc)
        assert (f + g).t_prec == min(f.t_prec, g.t_prec)
        assert (f * g).t_prec == min(f.t_prec + g.tval, g.t_prec + f.tval)


def test_polynomial_product_is_exact():
    th = CTX2.theta()
    f = t_poly(CTX2, [th, CTX2.one()])                     # t + theta
    g = t_poly(CTX2, [th, CTX2.one()])
    h = f * g                                              # (t + theta)^2
    assert h.t_prec == INF
    assert h.coeffs[0] == th * th
    assert h.coeffs[1].is_exact_zero()                     # char 2 cross term
    assert h.coeffs[2] == CTX2.one()
    assert deg_t(h) == 2


@pytest.mark.parametrize("ctx,e", [(CTX2, 1), (CTX2, 2), (CTX3, 1)])
def test_geometric_expansion_inverts_linear_factor(ctx, e):
    n = 9
    g = geometric_pole_series(ctx, e, n)
    lin = t_poly(ctx, [-ctx.theta().pow_q(e), ctx.one()])
    prod = lin * g
    assert prod.t_prec == n
    assert prod.coeffs[0] == ctx.one()
    for c in prod.coeffs[1:]:
        assert c.is_exact_zero()


def _pole_operand(ctx, rng, lead, n):
    """A series to O(t^n) with lead exact-zero coefficients first, then
    exact, capped, zero-to-precision and exact-zero coefficients in a
    random order."""
    def terms():
        return {rng.randrange(-6, 20): rng.randrange(1, ctx.field.order)
                for _ in range(rng.randrange(1, 6))}
    kinds = [lambda: LaurentElem(ctx, terms(), INF),
             lambda: LaurentElem(ctx, terms(), rng.randrange(-4, 24)),
             lambda: ctx.zero(rng.randrange(-4, 24)),
             ctx.zero]
    body = kinds + [rng.choice(kinds) for _ in range(n - lead - len(kinds))]
    rng.shuffle(body)
    return TateSeries(ctx, [ctx.zero()] * lead + [k() for k in body], n)


def test_div_pole_matches_geometric_product():
    rng = random.Random(41)
    for q in (2, 3, 4, 5, 9):
        for s in (1, 2):
            fp = FieldParams.make(q, s)
            for m in (1, 2, 3):
                ctx = SeriesParams(fp, m, 32)
                for e in (0, 1, 2):
                    for lead in (0, rng.randrange(1, 4)):
                        n = lead + 4 + rng.randrange(0, 5)
                        x = _pole_operand(ctx, rng, lead, n)
                        assert x.tval >= lead
                        want = x * geometric_pole_series(ctx, e, n)
                        assert x.div_pole(e) == want
                    empty = TateSeries.zero(ctx, 0)
                    assert empty.div_pole(e) == (
                        empty * geometric_pole_series(ctx, e, 0))


def _cut_points(rng, series):
    """u-cuts below the first finite cap, between two caps, above every
    cap and infinite; an exact series cuts among its exponents."""
    caps = sorted({c.cap for c in series.coeffs if c.cap != INF} |
                  {e for c in series.coeffs for e in c.coeffs})
    if not caps:
        return [rng.randrange(-10, 30), INF]
    lo, hi = caps[0], caps[-1]
    return [lo - rng.randrange(1, 8), rng.randrange(lo, hi + 1),
            hi + rng.randrange(1, 8), INF]


def test_div_pole_window_equals_cut_quotient():
    """div_pole(e, u) is div_pole(e).truncate_u(u), coefficient for
    coefficient and cap for cap, for cuts below the first cap, between
    caps, above them and infinite, on series with exact, capped, zero to
    a cap and exactly zero coefficients, divided once or through a
    chain of nested poles."""
    rng = random.Random(53)
    for q in (2, 3, 4, 5, 9):
        for s in (1, 2):
            fp = FieldParams.make(q, s)
            for m in (1, 2, 3):
                ctx = SeriesParams(fp, m, 32)
                for lead in (0, rng.randrange(1, 4)):
                    n = lead + 4 + rng.randrange(0, 5)
                    x = _pole_operand(ctx, rng, lead, n)
                    for e in (0, 1, 2):
                        full = x.div_pole(e)
                        for u in _cut_points(rng, full):
                            assert x.div_pole(e, u) == full.truncate_u(u)
                    chain = x.div_pole(3).div_pole(2).div_pole(1)
                    for u in _cut_points(rng, chain):
                        assert (x.div_pole(3, u).div_pole(2, u)
                                .div_pole(1, u)) == chain.truncate_u(u)


def test_div_pole_of_polynomial_raises():
    f = t_poly(CTX2, [CTX2.one(), CTX2.theta()])
    with pytest.raises(InvalidInput):
        f.div_pole(1)
    with pytest.raises(InvalidInput):
        TateRational(CTX2, f, {1: 1}).to_series(INF)


def test_mul_pole_matches_linear_product():
    rng = random.Random(43)
    for q in (2, 3, 4, 5, 9):
        for s in (1, 2):
            fp = FieldParams.make(q, s)
            for m in (1, 2, 3):
                ctx = SeriesParams(fp, m, 32)
                for e in (0, 1, 2):
                    lin = t_poly(ctx, [-ctx.theta().pow_q(e), ctx.one()])
                    lead = rng.randrange(0, 3)
                    x = _pole_operand(ctx, rng, lead, lead + 4
                                      + rng.randrange(0, 5))
                    for y in (x, TateSeries(ctx, x.coeffs, INF),
                              TateSeries.zero(ctx), TateSeries.zero(ctx, 0)):
                        assert y.mul_pole(e) == lin * y


def _one_pass_operands(ctx, rng):
    """_pole_operand series of unequal lengths at finite t_prec, their
    exact-polynomial cuts, and the empty series at t_prec INF and 0."""
    out = [TateSeries.zero(ctx), TateSeries.zero(ctx, 0)]
    for _ in range(3):
        lead = rng.randrange(0, 3)
        x = _pole_operand(ctx, rng, lead, lead + 4 + rng.randrange(0, 5))
        out += [x, TateSeries(ctx, x.coeffs[:rng.randrange(0, 9)], INF)]
    return out


def test_t_layer_one_pass_matches_composed_oracles():
    """Sums, differences and pole products equal their composed forms
    (oracles.tate_sum, tate_diff, mul_pole_composed), caps included."""
    rng = random.Random(47)
    for q in (2, 3, 4, 5, 9):
        for s in (1, 2):
            fp = FieldParams.make(q, s)
            for m in (1, 2, 3):
                ctx = SeriesParams(fp, m, 32)
                xs = _one_pass_operands(ctx, rng)
                for a in xs:
                    for e in (0, 1, 2):
                        assert a.mul_pole(e) == mul_pole_composed(a, e)
                    for b in xs:
                        assert a + b == tate_sum(a, b)
                        assert a - b == tate_diff(a, b)


def test_sum_with_termless_operand_keeps_the_cap():
    """x + zero(c) and zero(c) + x equal the constructor's x cut at c,
    for c below, at and above x.cap and for the exact zero; a zero whose
    cap is at or above x.cap hands back x itself (of two termless
    operands with one cap, either one)."""
    rng = random.Random(53)
    for q, s, m in ((2, 1, 1), (3, 2, 2), (4, 1, 3), (5, 2, 1), (9, 1, 2)):
        ctx = SeriesParams(FieldParams.make(q, s), m, 32)
        for _ in range(12):
            x = _pole_operand(ctx, rng, 0, 4).coeffs[rng.randrange(4)]
            top = 24 if x.cap == INF else x.cap
            for c in (top - rng.randint(1, 6), top, top + rng.randint(1, 6),
                      INF):
                z = ctx.zero(c)
                want = LaurentElem(ctx, x.coeffs, min(x.cap, c))
                assert x + z == want == z + x == laurent_sum(x, z)
                if c >= x.cap:
                    assert x + z is x
                    assert z + x is x or not x.coeffs


def test_t_layer_ops_leave_operands_untouched():
    """A seeded run of sums, differences, pole products and Tate
    products, each result fed back in as an operand: afterwards every
    operand's coefficient dicts still equal a snapshot taken when it
    was made, so no result writes into a dict it shares."""
    def snap(x):
        return [(dict(c.coeffs), c.cap) for c in x.coeffs]

    rng = random.Random(59)
    for q, s, m in ((2, 1, 1), (3, 2, 2), (5, 1, 3), (9, 1, 1)):
        ctx = SeriesParams(FieldParams.make(q, s), m, 32)
        pool = _one_pass_operands(ctx, rng)
        snaps = [snap(x) for x in pool]
        for _ in range(40):
            a, b = rng.choice(pool), rng.choice(pool)
            for y in (a + b, a - b, a.mul_pole(rng.randrange(3)), a * b):
                pool.append(y)
                snaps.append(snap(y))
        assert [snap(x) for x in pool] == snaps


def _per_term_sum(ctx, fracs, t_prec):
    """The expansion of a sum of fractions one term at a time: each
    numerator divided by all of its own poles, the quotients added."""
    out = TateSeries.zero(ctx, t_prec)
    for f in fracs:
        x = f.num.truncate_t(t_prec)
        for e, mlt in f.den.items():
            for _ in range(mlt):
                x = x.div_pole(e)
        out = out + x
    return out


def _rand_numer(ctx, rng):
    """An exact t-polynomial whose coefficients are exact, capped, zero
    to a cap or exactly zero; sometimes the zero polynomial."""
    if rng.random() < 0.1:
        return TateSeries.zero(ctx)
    body = _pole_operand(ctx, rng, 0, 4).coeffs
    return TateSeries(ctx, body[:rng.randrange(1, 4)], INF)


def _rand_fracs(ctx, rng):
    """Fractions over a nested chain of pole sets, over random (disjoint
    or overlapping) subsets of 1..4, or drawn from a small pool so that
    pole multisets repeat; multiplicities 1-3."""
    shape = rng.choice(("chain", "subsets", "pool"))
    if shape == "chain":
        mults = [rng.choice((1, 1, 2, 3)) for _ in range(5)]
        sets = [{e: mults[e - 1] for e in range(1, k + 1)}
                for k in range(rng.randrange(1, 6))]
    else:
        def subset():
            return {e: rng.randrange(1, 4)
                    for e in rng.sample(range(1, 5), rng.randrange(0, 4))}
        pool = [subset() for _ in range(2)]
        sets = [rng.choice(pool) if shape == "pool" else subset()
                for _ in range(rng.randrange(1, 6))]
    return [TateRational(ctx, _rand_numer(ctx, rng), p) for p in sets]


def test_expand_sum_matches_per_term_oracle():
    rng = random.Random(47)
    for q in (2, 3, 4, 5, 9):
        for s in (1, 2):
            fp = FieldParams.make(q, s)
            for m in (1, 2, 3):
                ctx = SeriesParams(fp, m, 32)
                for t_prec in range(9):
                    assert expand_sum(ctx, [], t_prec) == \
                        TateSeries.zero(ctx, t_prec)
                    for _ in range(2):
                        fracs = _rand_fracs(ctx, rng)
                        want = _per_term_sum(ctx, fracs, t_prec)
                        assert expand_sum(ctx, fracs, t_prec) == want
                        assert expand_sum(ctx, fracs[::-1], t_prec) == want
                        f = fracs[0]
                        assert f.to_series(t_prec) == _per_term_sum(
                            ctx, [f], t_prec)


def test_expand_sum_window_equals_cut_sum():
    """expand_sum(..., u) is expand_sum(...) cut at u, coefficient for
    coefficient and cap for cap, with no further cut: on nested chains,
    overlapping and repeated pole sets, pole-free fractions only and
    the empty sum; exact, capped and zero numerators; cuts below the
    first cap, between caps, above them and infinite."""
    rng = random.Random(59)
    for q in (2, 3, 4, 5, 9):
        for s in (1, 2):
            fp = FieldParams.make(q, s)
            for m in (1, 2, 3):
                ctx = SeriesParams(fp, m, 32)
                for t_prec in range(0, 9, 2):
                    pole_free = [TateRational(ctx, _rand_numer(ctx, rng))
                                 for _ in range(rng.randrange(1, 3))]
                    for fracs in (_rand_fracs(ctx, rng),
                                  _rand_fracs(ctx, rng), pole_free, []):
                        full = expand_sum(ctx, fracs, t_prec)
                        for u in _cut_points(rng, full):
                            assert expand_sum(ctx, fracs, t_prec, u) == \
                                full.truncate_u(u)


def _long_numer(ctx, rng):
    """An exact t-polynomial of length 0-6, often longer than the window,
    whose coefficients are exact, capped, zero to a cap or exactly zero
    (inside the list too, so a cut can end on one)."""
    coeffs = []
    for _ in range(rng.randrange(0, 7)):
        kind = rng.randrange(4)
        v = rng.randrange(-6, 10)
        if kind == 3:
            coeffs.append(ctx.zero())
        elif kind == 2:
            coeffs.append(ctx.zero(v))
        else:
            c = {e: rng.randrange(1, ctx.field.order)
                 for e in range(v, v + rng.randrange(1, 5))}
            coeffs.append(ctx.make(c, INF if kind == 0 else
                                   v + rng.randrange(1, 8)))
    return TateSeries(ctx, coeffs, INF)


def test_expand_sum_matches_pad_first_oracle():
    """expand_sum adds numerators as exact t-polynomials and pads a group
    only to divide it, and the pole-free group at the end: the same
    series, caps and t_prec as padding every numerator first
    (oracles.expand_sum_pad_first), on empty, pole-free-only, one-term
    and mixed lists, at windows shorter and longer than the numerators
    and at finite and infinite u-cuts."""
    rng = random.Random(61)
    for q in (2, 3, 4, 5, 9):
        for s in (1, 2):
            fp = FieldParams.make(q, s)
            for m in (1, 2, 3):
                ctx = SeriesParams(fp, m, 32)

                def frac(poles=True):
                    den = {e: rng.randrange(1, 3) for e in
                           rng.sample(range(1, 4), rng.randrange(0, 3))}
                    return TateRational(ctx, _long_numer(ctx, rng),
                                        den if poles else {})

                mixed = [frac() for _ in range(rng.randrange(2, 6))]
                mixed += [TateRational(ctx, _long_numer(ctx, rng), f.den)
                          for f in mixed[:2]]
                for fracs in ([], [frac(False) for _ in range(3)],
                              [frac()], mixed):
                    for t_prec in (0, 1, 3, 7):
                        for u in (INF, rng.randrange(-4, 12),
                                  rng.randrange(12, 40)):
                            got = expand_sum(ctx, fracs, t_prec, u)
                            want = expand_sum_pad_first(ctx, fracs,
                                                        t_prec, u)
                            assert got.t_prec == want.t_prec == t_prec
                            assert got == want
                            assert got.to_text() == want.to_text()


def _general_scale(x, c):
    return TateSeries(x.ctx, [y * c for y in x.coeffs], x.t_prec)


def test_scale_by_exact_one_is_the_series_itself():
    """scale by the exact one hands back the same object; by a capped
    one or a unit monomial u^e, e != 0, it equals the coefficientwise
    products, caps included."""
    rng = random.Random(67)
    for ctx in (CTX2, CTX3):
        for _ in range(40):
            x = _rand_series(ctx, rng)
            x = TateSeries(ctx, x.coeffs + [_rand_scalar(ctx, rng)],
                           x.t_prec)
            assert x.scale(ctx.one()) is x
            for c in (ctx.one().truncate(rng.randrange(-4, 24)),
                      ctx.monomial(1, rng.choice((-5, -1, 1, 3))),
                      ctx.monomial(1, 2, rng.randrange(4, 24))):
                got, want = x.scale(c), _general_scale(x, c)
                assert got == want
                assert got.to_text() == want.to_text()


def test_series_eval_polynomial_horner():
    th = CTX2.theta()
    f = t_poly(CTX2, [th, CTX2.one(), th.invert()])
    z = CTX2.theta(2)
    # theta + theta^2 + theta^3
    want = th + z + z * z * th.invert()
    assert f.eval(z) == want


def test_series_eval_truncated_needs_tail_bound():
    f = TateSeries(CTX2, [CTX2.one()], 3)
    z = CTX2.theta(-1)
    with pytest.raises(TailNotNegligible):
        f.eval(z)
    v = f.eval(z, tail_logq=-10)
    assert v.cap == 10
    assert v.coeffs == {0: 1}


def test_twist_is_coefficientwise_frobenius():
    rng = random.Random(9)
    f = _rand_series(CTX3, rng)
    g = f.twist(2)
    for a, b in zip(f.coeffs, g.coeffs):
        assert b == a.pow_q(2)
    # twisting a product = product of twists (Frobenius is a ring map)
    h = _rand_series(CTX3, rng)
    lhs = (f * h).twist(1)
    rhs = f.twist(1) * h.twist(1)
    assert zero_to_prec(lhs - rhs)
    with pytest.raises(InvalidInput):  # twists run forward only
        TateSeries(CTX3, [CTX3.theta(), CTX3.one()], 4).twist(-1)


def test_series_twist_refuses_backward_on_zero():
    """An empty series has no coefficient whose pow_q would refuse a
    backward twist, so the series checks ell itself."""
    with pytest.raises(InvalidInput):
        TateSeries.zero(CTX3).twist(-1)
    assert TateSeries.zero(CTX3).twist(0).coeffs == []


def test_gauss_norm_known_values():
    th = CTX2.theta()
    f = t_poly(CTX2, [th * th, th.invert()])
    assert f.gauss_norm_logq() == 2
    assert TateSeries.zero(CTX2).gauss_norm_logq() == -INF
    # a capped-zero coefficient that could dominate blocks the norm
    g = TateSeries(CTX2, [CTX2.theta(-3), CTX2.zero(cap=1)], 2)
    with pytest.raises(IndeterminateNorm):
        g.gauss_norm_logq()
    # ... but is harmless when its potential stays below the known max
    h = TateSeries(CTX2, [th, CTX2.zero(cap=5)], 2)
    assert h.gauss_norm_logq() == 1


def test_gauss_norm_fractional():
    ctx = CTX3  # m = 2: half-integral slopes are representable
    f = t_poly(ctx, [ctx.monomial(1, -3)])
    assert f.gauss_norm_logq() == Fraction(3, 2)


def _den_product(ctx, poles):
    """prod (t - theta^(q^e))^mult over (e, mult) pairs, expanded by
    general products: the cross-multiplication oracle's denominator."""
    out = t_poly(ctx, [ctx.one()])
    for e, mlt in poles:
        factor = t_poly(ctx, [-ctx.theta().pow_q(e), ctx.one()])
        for _ in range(mlt):
            out = out * factor
    return out


def test_rational_series_expansion_matches_cross_multiplication():
    rng = random.Random(21)
    for ctx in (CTX2, CTX3):
        for _ in range(12):
            numer = TateSeries(
                ctx, [_rand_scalar(ctx, rng, exact_ok=False).truncate(INF)
                      for _ in range(rng.randrange(1, 4))], INF)
            numer = TateSeries(
                ctx, [LaurentElem(ctx, c.coeffs, INF) for c in numer.coeffs],
                INF)
            poles = {e: rng.randrange(1, 4)
                     for e in rng.sample(range(1, 4), rng.randrange(1, 3))}
            f = TateRational(ctx, numer, poles)
            n = 8
            s = f.to_series(n)
            back = s * _den_product(ctx, f.den.items())
            assert back == numer.truncate_t(n)
            assert expand_sum(ctx, [f], n, 12) == s.truncate_u(12)


def test_rational_eval_agrees_with_denominator_clearing():
    ctx = CTX2
    th = ctx.theta()
    numer = t_poly(ctx, [ctx.one(), th])
    f = TateRational(ctx, numer, {1: 1, 2: 1})
    z = ctx.theta(-1) + ctx.one()
    val = rational_eval(f, z)
    den = (z - th.pow_q(1)) * (z - th.pow_q(2))
    assert zero_to_prec(val * den - numer.eval(z))


def test_rational_eval_at_pole_raises():
    ctx = CTX2
    f = TateRational(ctx, t_poly(ctx, [ctx.one()]), {2: 1})
    with pytest.raises(EvalAtPole):
        rational_eval(f, ctx.theta().pow_q(2))


def test_rational_arithmetic_via_evaluation():
    rng = random.Random(33)
    ctx = CTX3
    z = ctx.theta(-1)
    for _ in range(10):
        def rand_rat():
            numer = TateSeries(ctx, [
                LaurentElem(ctx, _rand_scalar(ctx, rng).coeffs, INF)
                for _ in range(rng.randrange(1, 3))], INF)
            poles = {rng.randrange(1, 3): 1}
            return TateRational(ctx, numer, poles)
        a, b = rand_rat(), rand_rat()
        va, vb = rational_eval(a, z), rational_eval(b, z)
        assert rational_eval(a + b, z) == va + vb
        assert rational_eval(a * b, z) == va * vb
        assert rational_eval(a - b, z) == va - vb


def test_rational_twist_commutes_with_expansion():
    ctx = CTX3
    th = ctx.theta()
    numer = t_poly(ctx, [th, ctx.one()])
    f = TateRational(ctx, numer, {1: 1})
    n = 7
    lhs = f.twist(2).to_series(n)
    rhs = f.to_series(n).twist(2)
    assert zero_to_prec(lhs - rhs)
    assert f.twist(1).den == {2: 1}


def test_rational_twist_refuses_backward_on_zero_numerator():
    """An exact-zero numerator keeps its poles; a backward twist must
    not move them down (poles {3: 1} would become {1: 1} at ell = -2)."""
    f = TateRational(CTX3, TateSeries.zero(CTX3), {3: 1})
    with pytest.raises(InvalidInput):
        f.twist(-2)
    assert f.twist(1).den == {4: 1}


def test_rational_equality_by_cross_multiplication():
    ctx = CTX2
    th = ctx.theta()
    one = ctx.one()
    f = TateRational(ctx, t_poly(ctx, [one]), {1: 1})
    lifted = t_poly(ctx, [-th.pow_q(2), one])
    g = TateRational(ctx, lifted, {1: 1, 2: 1})
    assert f.equals(g)
    h = TateRational(ctx, t_poly(ctx, [one]), {2: 1})
    assert not f.equals(h)


def _pole_sets(rng, q):
    """Two pole multisets over exponents 1..4, disjoint or sharing an
    exponent, with multiplicities 1-3 or q."""
    exps = [1, 2, 3, 4]
    rng.shuffle(exps)
    k = rng.randrange(1, 4)
    if rng.random() < 0.5:
        sa, sb = exps[:k], exps[k:]
    else:
        sa, sb = exps[:k], exps[k - 1:k + 1]
    mults = (1, 2, 3, q)
    return ({e: rng.choice(mults) for e in sa},
            {e: rng.choice(mults) for e in sb})


def _exact_numer(ctx, rng):
    return t_poly(ctx, [
        LaurentElem(ctx, {rng.randrange(-6, 12): rng.randrange(
            1, ctx.field.order) for _ in range(rng.randrange(1, 4))})
        for _ in range(rng.randrange(1, 4))])


def _lifted(ctx, f, extra):
    """f with numerator and poles both multiplied by the factors in
    extra: the same rational, written over a larger denominator."""
    poles = dict(f.den)
    for e, mlt in extra.items():
        poles[e] = poles.get(e, 0) + mlt
    return TateRational(ctx, f.num * _den_product(ctx, extra.items()),
                        poles)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rational_lift_matches_cross_multiplication(q):
    """Sum and equality through _lift agree with the cross-multiplied
    oracle: numerators times expanded denominators."""
    rng = random.Random(70 + q)
    ctx = SeriesParams(FieldParams.make(q), 1, 32)

    def cross_equal(f, g):
        d = (f.num * _den_product(ctx, g.den.items())
             - g.num * _den_product(ctx, f.den.items()))
        return zero_to_prec(d)

    for _ in range(12):
        pa, pb = _pole_sets(rng, q)
        a = TateRational(ctx, _exact_numer(ctx, rng), pa)
        b = TateRational(ctx, _exact_numer(ctx, rng), pb)
        merged = {e: max(pa.get(e, 0), pb.get(e, 0)) for e in {*pa, *pb}}
        want = (a.num * _den_product(
                    ctx, [(e, m - pa.get(e, 0)) for e, m in merged.items()])
                + b.num * _den_product(
                    ctx, [(e, m - pb.get(e, 0)) for e, m in merged.items()]))
        got = a + b
        assert got.num == want
        assert got.den == merged
        zero = TateRational(ctx, TateSeries.zero(ctx))
        assert (zero + a).num == a.num and (zero + a).den == a.den

        same_a = _lifted(ctx, a, pb)
        other_a = _lifted(ctx, a, _pole_sets(rng, q)[0])
        bumped = TateRational(ctx, same_a.num + TateSeries.from_scalar(
            ctx, ctx.one()), same_a.den)
        for f, g, expect in ((a, b, None), (a, same_a, True),
                             (same_a, other_a, True), (a, bumped, False),
                             (a + b, b + a, True)):
            ok = f.equals(g)
            assert ok == cross_equal(f, g) == g.equals(f)
            if expect is not None:
                assert ok is expect


def test_theta_pole_form_expansion():
    ctx = CTX2
    th = ctx.theta()
    reg = TateSeries(ctx, [ctx.one(), th], 6)
    res = th * th
    form = ThetaPoleForm(reg, res)
    s = form.to_series()
    # (t - theta) * s == (t - theta) * reg + res on the known window
    lin = t_poly(ctx, [-th, ctx.one()])
    lhs = lin * s
    rhs = lin * reg + TateSeries.from_scalar(ctx, res)
    assert zero_to_prec(lhs - rhs.truncate_t(lhs.t_prec))


def test_theta_pole_form_matches_geometric_oracle():
    rng = random.Random(49)
    for ctx in (CTX2, CTX3):
        for n in (0, 1, 6):
            reg = _pole_operand(ctx, rng, 0, 4 + n)
            for res in (_rand_scalar(ctx, rng, exact_ok=False),
                        ctx.theta(), ctx.zero()):
                want = (reg.truncate_t(n)
                        + geometric_pole_series(ctx, 0, n).scale(res))
                assert ThetaPoleForm(reg, res).to_series(n) == want


def test_apply_delta_scalar_and_polynomial_coefficients():
    ctx = CTX2
    th = ctx.theta()
    f = TateSeries(ctx, [th, ctx.one(), th.invert()], 5)
    g0, g1 = th, ctx.one()
    out = apply_delta([g0, g1], f)
    manual = f.scale(g0) + f.twist(1).scale(g1)
    assert zero_to_prec(out - manual)
    lin = t_poly(ctx, [th, -ctx.one()])
    out2 = apply_delta([lin, g1], f)
    manual2 = lin * f + f.twist(1).scale(g1)
    assert zero_to_prec(out2 - manual2)


def test_shift_and_truncate():
    ctx = CTX2
    f = TateSeries(ctx, [ctx.one(), ctx.theta()], 4)
    g = f.shift_t(2)
    assert g.t_prec == 6
    assert g.coeffs[0].is_exact_zero() and g.coeffs[2] == ctx.one()
    assert g.truncate_t(3).t_prec == 3
    capped = f.truncate_u(2)
    assert all(c.cap <= 2 for c in capped.coeffs)


def test_residual_report():
    ctx = CTX2
    ok, uval, tp = TateSeries(ctx, [ctx.zero(cap=7), ctx.zero(cap=9)],
                              2).residual_report()
    assert ok and uval == 7 and tp == 2
    bad, uval2, _ = TateSeries(ctx, [ctx.theta()], 2).residual_report()
    assert not bad and uval2 == -1


def test_series_json_roundtrip_shape():
    ctx = CTX2
    f = TateSeries(ctx, [ctx.theta(), ctx.zero(cap=3)], 2)
    j = f.to_json()
    assert j["t_prec"] == 2 and len(j["coeffs"]) == 2
    r = TateRational(ctx, t_poly(ctx, [ctx.one()]), {1: 2})
    assert r.to_json()["poles"] == [[1, 2]]
