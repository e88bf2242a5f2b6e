"""Factored fractions (tate.FactoredFrac, with modules.BracketFrac and
tate.TateRational): the denominators the validating constructor
refuses, and the fractions the kernel builds through wrap against the
ones the constructor builds from the same data."""

import random
from math import inf as INF

import pytest

from drinfeld.errors import InvalidInput
from drinfeld.ff import FieldParams
from drinfeld.laurent import SeriesParams
from drinfeld.modules import BracketFrac, _bracket_pow
from drinfeld.tate import TateRational, TateSeries

CTX = SeriesParams(FieldParams.make(3), 1, 32)


def _bracket(ctx, num, den):
    return BracketFrac(ctx, num, den)


def _tate(ctx, num, den):
    return TateRational(ctx, TateSeries.from_scalar(ctx, num), den)


@pytest.mark.parametrize("make", [_bracket, _tate])
@pytest.mark.parametrize("den", [
    {1.5: 1}, {2: 1.5}, [(1, 1), (1, 2)], [(2, 1), (2, 0)], {"1": 1},
    {None: 1}, {float("inf"): 1}, {0: 1}, {-1: 2}, {1: -1}, [(0, 3)]])
def test_constructors_refuse_malformed_denominators(make, den):
    """A non-integral pole exponent or multiplicity, a pole named twice
    in a pair list, e < 1 and mult < 1 are refused, not truncated,
    merged or dropped."""
    with pytest.raises(InvalidInput):
        make(CTX, CTX.theta(), den)


@pytest.mark.parametrize("make", [_bracket, _tate])
def test_constructors_keep_integral_denominators(make):
    """Integral values of any numeric type become ints, a zero
    multiplicity names no factor, and a pair list reads as a dict."""
    f = make(CTX, CTX.theta(), {1.0: 2, 3: 0, 2: True})
    assert f.den == {1: 2, 2: 1}
    assert all(type(x) is int for x in (*f.den, *f.den.values()))
    assert make(CTX, CTX.theta(), [(2, 1), (1, 3)]).den == {2: 1, 1: 3}


def _merged(a, b):
    return {e: max(a.den.get(e, 0), b.den.get(e, 0))
            for e in {*a.den, *b.den}}


def _lifted(f, den):
    """f's numerator over den, which contains f.den: times each missing
    factor, [e]^k written out at once or t - theta^(q^e) one at a
    time."""
    num = f.num
    for e, mlt in den.items():
        k = mlt - f.den.get(e, 0)
        if isinstance(f, BracketFrac):
            num = num * _bracket_pow(f.ctx, e, k)
        else:
            for _ in range(k):
                num = num.mul_pole(e)
    return num


def _key(f):
    num = f.num
    if isinstance(num, TateSeries):
        num = (num.t_prec, [(c.coeffs, c.cap) for c in num.coeffs])
    else:
        num = (num.coeffs, num.cap)
    return type(f), f.den, num


def _frac_case(ctx, rng, cls):
    """Two fractions of class cls: b is a over an equal multiset (a
    distinct dict), over the same poles with other multiplicities, -a
    or a over a larger multiset (their difference is an exact zero), or
    a fraction of its own; numerators are now and then exactly zero."""
    q = ctx.q
    mults = (1, 2, 3, q)

    def num():
        if rng.random() < 0.1:
            return ctx.zero() if cls is BracketFrac else TateSeries.zero(ctx)
        c = ctx.make({rng.randint(-20, 40): rng.randrange(1, ctx.field.order)
                      for _ in range(rng.randint(1, 6))})
        if cls is BracketFrac:
            return c
        return TateSeries(ctx, [c, ctx.zero(), c * c][:rng.randint(1, 3)])

    def den(keys):
        return {e: rng.choice(mults) for e in keys}

    a = cls(ctx, num(), den(rng.sample((1, 2, 3), rng.randint(1, 3))))
    kind = rng.randrange(5)
    if kind == 0:
        b = cls(ctx, num(), dict(a.den))
    elif kind == 1:
        b = cls(ctx, num(), {e: mlt + rng.randint(1, 2)
                             for e, mlt in a.den.items()})
    elif kind == 2:
        b = -a
    elif kind == 3:
        wider = dict(a.den)
        wider[1] = wider.get(1, 0) + 1
        b = cls(ctx, _lifted(a, wider), wider)
    else:
        b = cls(ctx, num(), den(rng.sample((1, 2, 3), rng.randint(0, 3))))
    return a, b


@pytest.mark.parametrize("cls", [BracketFrac, TateRational])
@pytest.mark.parametrize("q, s", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1),
                                  (4, 2), (5, 1), (5, 2), (9, 1), (9, 2)])
def test_wrapped_fractions_match_the_validating_constructor(cls, q, s):
    """Sums, differences, negations, products, scalings, div_factor and
    the twists (BracketFrac.pow_q, TateRational.twist) build their
    results through wrap; on seeded fractions each equals the fraction
    the validating constructor builds from the same data, numerators
    lifted factor by factor over a merged multiset found apart from
    _merge.  Sums that cancel are included: a BracketFrac then drops its
    denominator, a TateRational keeps its poles."""
    ctx = SeriesParams(FieldParams.make(q, s), 1, 32)
    rng = random.Random(9100 + 10 * q + s + (cls is TateRational))
    zeros = 0
    for _ in range(60):
        a, b = _frac_case(ctx, rng, cls)
        den = _merged(a, b)
        la, lb = _lifted(a, den), _lifted(b, den)
        c = ctx.make({rng.randint(-5, 5): rng.randrange(1, ctx.field.order)},
                     rng.choice((INF, 30)))
        if rng.random() < 0.1:
            c = ctx.zero()
        e, k = rng.randint(1, 4), rng.randint(0, 2)
        scaled = a.num * c if cls is BracketFrac else a.num.scale(c)
        product = {f: a.den.get(f, 0) + b.den.get(f, 0)
                   for f in {*a.den, *b.den}}
        total = a + b
        cases = [(total, cls(ctx, la + lb, den)),
                 (a - b, cls(ctx, la - lb, den)),
                 (-a, cls(ctx, -a.num, a.den)),
                 (a * b, cls(ctx, a.num * b.num, product)),
                 (a * c, cls(ctx, scaled, a.den)),
                 (a.div_factor(e), cls(ctx, a.num, {**a.den,
                                                    e: a.den.get(e, 0) + 1}))]
        if cls is BracketFrac:
            cases.append((a.pow_q(k), cls(ctx, a.num.pow_q(k), {
                f: mlt * q ** k for f, mlt in a.den.items()})))
        else:
            cases.append((a.twist(k), cls(ctx, a.num.twist(k), {
                f + k: mlt for f, mlt in a.den.items()})))
        for got, want in cases:
            assert _key(got) == _key(want), (a, b)
        if not total.num.coeffs:  # the numerators are exact
            zeros += 1
            assert total.den == ({} if cls is BracketFrac else den)
    assert zeros
