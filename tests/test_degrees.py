"""Degree bookkeeping in exact integers: exp_deg_bound, the two tail
cuts, the convergence radius and their readers (the orbit's sup bound,
the shift-identity preconditions, the main theorem's (a) bounds, and
val_from_logq) against the Fraction oracle on seeded modules."""

import json
import random
from fractions import Fraction
from math import ceil, inf as INF

import pytest

from drinfeld.agf import check_main_theorem, shift_precondition_violations
from drinfeld.errors import OutsideRadius, PrecisionExhausted
from drinfeld.ff import FieldParams
from drinfeld.laurent import SeriesParams
from drinfeld.modules import DrinfeldModule, carlitz
from drinfeld.periods import _exp_deg_sup, quasi_period_orbit

from oracles import FractionDegrees

_CTXS = {}


def _ctx(q, s, m):
    key = (q, s, m)
    if key not in _CTXS:
        _CTXS[key] = SeriesParams(FieldParams.make(q, s), m, 64)
    return _CTXS[key]


def _rand_coeff(rng, ctx, zero_ok):
    """An exact A_i: a few F_q terms between theta^-1 and theta^3, or
    zero (a gap in the support) when zero_ok."""
    if zero_ok and rng.random() < 0.35:
        return ctx.zero()
    while True:
        terms = {-ctx.m * k: rng.randrange(1, ctx.q)
                 for k in rng.sample(range(-1, 4), rng.randint(1, 3))}
        return ctx.make(terms)


def _modules(seed, count):
    """Seeded modules: q in {2, 3, 4, 5, 9}, s <= 2, m in 1..4, ranks
    1-3, gaps in the support included."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        q = rng.choice((2, 3, 4, 5, 9))
        s = rng.choice((1, 2)) if q < 9 else 1
        ctx = _ctx(q, s, rng.randint(1, 4))
        r = rng.randint(1, 3)
        A = [_rand_coeff(rng, ctx, True) for _ in range(r - 1)]
        A.append(_rand_coeff(rng, ctx, False))
        out.append(DrinfeldModule(ctx, A))
    return out


def _degrees(rng, ctx):
    """deg_bound() of a seeded element and of a termless capped one,
    each also less 1 and less 13 (the orbit's d - terms - 1), and
    degrees whose denominator does not divide m."""
    m = ctx.m
    x = ctx.make({rng.randint(-4 * m, 6 * m): 1,
                  rng.randint(0, 8 * m): rng.randrange(1, ctx.q)})
    z = ctx.zero(rng.randint(-3 * m, 9 * m))
    out = []
    for d in (x.deg_bound(), z.deg_bound()):
        out += [d, d - 1, d - 13]
    for den in (3, 5, 7, 2 * m + 1):
        out.append(Fraction(rng.randint(-20, 12), den))
    out.append(rng.randint(-6, 4))
    return out


_TARGETS = (-40, -1, 0, 1, 7, 48, 500, 20000)


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except (OutsideRadius, PrecisionExhausted) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("seed", range(6))
def test_integer_bookkeeping_matches_fraction_oracle(seed):
    """Every cut, bound and exit equals the Fraction oracle's, with the
    same exception and message."""
    rng = random.Random(1000 + seed)
    for phi in _modules(seed, 10):
        ref = FractionDegrees(phi)
        conv, rconv = phi.convergence_data(), ref.convergence_data()
        assert json.dumps(conv.to_json()) == json.dumps(rconv.to_json())
        assert (conv.s, conv.strict, conv.logq_R, conv.rho) == \
            (rconv.s, rconv.strict, rconv.logq_R, rconv.rho)
        for n in range(12):
            assert phi.exp_deg_bound(n) == ref.exp_deg_bound(n)
        for d in _degrees(rng, phi.ctx):
            for val in _TARGETS:
                got = _outcome(phi.exp_tail_cut, d, val)
                assert got == _outcome(ref.exp_tail_cut, d, val), (d, val)
                if got[0] == "ok":
                    sup = _exp_deg_sup(phi, d, val)
                    assert type(sup) is Fraction
                    assert sup == ref.exp_deg_sup(d, val)
                    for n in range(got[1]):
                        assert phi.exp_deg_bound(n) == ref.exp_deg_bound(n)
                assert _outcome(phi.log_tail_cut, d, val) == \
                    _outcome(ref.log_tail_cut, d, val), (d, val)


@pytest.mark.parametrize("seed", range(3))
def test_radius_edge_matches_fraction_oracle(seed):
    """Degrees at logq_R and just inside or outside it, at every scale:
    the radius test and its message match the oracle's."""
    for phi in _modules(50 + seed, 20):
        ref = FractionDegrees(phi)
        R = ref.convergence_data().logq_R
        for d in (R, R - Fraction(1, 97), R + Fraction(1, 97),
                  R - Fraction(1, phi.ctx.m * 7), R - 1, 2 * R, R / 3):
            for val in (-3, 0, 5, 90):
                assert _outcome(phi.log_tail_cut, d, val) == \
                    _outcome(ref.log_tail_cut, d, val), (d, val)


def test_shift_preconditions_match_fraction_oracle():
    rng = random.Random(7)
    for phi in _modules(70, 30):
        ref = FractionDegrees(phi)
        ctx = phi.ctx
        for v in range(-5 * ctx.m, 3 * ctx.m, max(1, ctx.m // 2)):
            for xi in (ctx.make({v: rng.randrange(1, ctx.q)}), ctx.zero(v)):
                assert shift_precondition_violations(phi, xi) == \
                    ref.shift_precondition_violations(xi)
        assert shift_precondition_violations(phi, ctx.zero()) == []


@pytest.mark.parametrize("q,s,m,A,xi", [
    (2, 1, 1, "1;1", {1: 1}),
    (3, 2, 2, "1;0,1", {2: 1, 3: 2}),
    (5, 1, 4, "1;0,1", {4: 1}),
    (4, 1, 3, "0;1", {5: 1}),
    (3, 1, 1, "1", {}),
])
def test_main_theorem_term_bounds_match_fraction_oracle(q, s, m, A, xi):
    """The (a) bounds of check_main_theorem, byte for byte; an exact-zero
    xi has none."""
    ctx = _ctx(q, s, m)
    coeffs = [ctx.make({-m * k: c for k, c in enumerate(map(int, a.split(",")))
                        if c}) for a in A.split(";")]
    phi = DrinfeldModule(ctx, coeffs)
    x = ctx.make(xi)
    rep = check_main_theorem(phi, x, 12, 2)
    want = FractionDegrees(phi).term_bounds(x.deg_bound(), rep["cut"]) \
        if xi else []
    assert rep["a"]["term_bound_logq"] == want
    logq_R = FractionDegrees(phi).convergence_data().logq_R
    assert rep["logq_R"] == [logq_R.numerator, logq_R.denominator]


def test_convergence_data_is_built_once():
    phi = carlitz(_ctx(3, 1, 2))
    assert phi.convergence_data() is phi.convergence_data()


def test_exp_deg_bound_keeps_fractions_and_minus_inf():
    """exp_deg_bound returns a Fraction (or -inf where alpha_n = 0) for
    its callers, though it is kept in integers at the scale m."""
    ctx = _ctx(2, 1, 3)
    phi = DrinfeldModule(ctx, [ctx.zero(), ctx.theta()])
    assert phi.exp_deg_bound(3) == -INF
    b = phi.exp_deg_bound(4)
    assert type(b) is Fraction and b == FractionDegrees(phi).exp_deg_bound(4)


def test_val_from_logq_matches_ceil_and_maps_minus_inf():
    """ceil(-m bound) on Fractions and ints; an exact zero's bound, -inf,
    gives +inf instead of raising OverflowError."""
    rng = random.Random(3)
    for m in (1, 2, 3, 4, 7):
        ctx = _ctx(2, 1, m)
        for _ in range(50):
            b = Fraction(rng.randint(-400, 400), rng.randint(1, 30))
            assert ctx.val_from_logq(b) == ceil(Fraction(-m) * b)
            k = rng.randint(-50, 50)
            assert ctx.val_from_logq(k) == -m * k
        assert ctx.val_from_logq(-INF) == INF


def test_zero_omega_orbit_tail_reads_as_no_bound():
    """quasi_period_orbit reports a tail of -inf for omega = 0; its two
    readers turn it into a floor through val_from_logq, which now gives
    +inf, so the floor is the residual's cap."""
    ctx = _ctx(2, 1, 1)
    phi = DrinfeldModule(ctx, [ctx.one(), ctx.one()])
    [(partial, tail)] = quasi_period_orbit(phi, ctx.zero(), 32)
    assert tail == -INF
    assert ctx.val_from_logq(tail) == INF
    assert min(ctx.val_from_logq(tail), partial.cap) == 32


def test_both_tails_exhaust_with_the_oracle_message():
    """The 400-step limits: a degree far outside exp's reach and one a
    hair inside the radius exhaust both cuts, with the oracle's
    exception and message.  (q <= 5 keeps every oracle height inside a
    float, which the oracle's -inf arithmetic needs.)"""
    for phi in _modules(90, 30):
        if phi.ctx.q > 5:
            continue
        ref = FractionDegrees(phi)
        R = ref.convergence_data().logq_R
        k = 2 * phi.ctx.m + 1
        for d in (Fraction(450), Fraction(450 * k + 1, k)):
            got = _outcome(phi.exp_tail_cut, d, 10)
            assert got[0] == "PrecisionExhausted"
            assert got == _outcome(ref.exp_tail_cut, d, 10)
        d = R - Fraction(1, 10 ** 150)
        got = _outcome(phi.log_tail_cut, d, 1000)
        assert got == _outcome(ref.log_tail_cut, d, 1000)
        if phi.ctx.q == 2:
            assert got[0] == "PrecisionExhausted"
