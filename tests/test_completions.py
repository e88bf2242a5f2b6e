"""Seeded completion tests of the cap contract: every coefficient below a
reported cap is certified.

A capped input is known only below its cap.  A completion of it is any
exact value that agrees with it there: here the input plus random terms
at or above its cap (a coefficient of a t-series with a finite t-window
also gets random coefficients past the window).  For each operation and
each capped input, the result of every completion must agree with the
result of the capped input below that result's own cap, coefficient for
coefficient, and in every t-slot below its window.  Inputs are exact,
capped, without terms (known only to be O(u^c)) or exactly zero, over
q in {2, 3, 4, 5, 9}, s <= 2 and m <= 3."""

import random
from math import floor, inf as INF

from drinfeld.agf import AGFValue, DeformedLog
from drinfeld.ff import FieldParams
from drinfeld.laurent import SeriesParams
from drinfeld.modules import BracketFrac, DrinfeldModule
from drinfeld.periods import quasi_function_eval
from drinfeld.tate import TateRational, TateSeries, expand_sum

FIELDS = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2),
          (9, 1), (9, 2)]
KINDS = ("exact", "capped", "termless", "termless", "exact zero")


def _elem(ctx, rng, v, kind=None):
    """An element at valuation v of the given kind (random if None):
    exact, capped above v, termless (zero to the cap v) or exactly
    zero."""
    kind = kind or rng.choice(KINDS)
    if kind == "exact zero":
        return ctx.zero()
    if kind == "termless":
        return ctx.zero(v)
    order = ctx.field.order
    coeffs = {e: rng.randrange(1, order)
              for e in range(v, v + rng.randint(1, 8))
              if e == v or rng.random() < 0.5}
    cap = INF if kind == "exact" else v + rng.randint(1, 8)
    return ctx.make(coeffs, cap)


def _complete(x, rng):
    """x plus random terms at or above its cap, as an exact element;
    half the time the first added term sits at the cap itself."""
    if x.cap == INF:
        return x
    coeffs = dict(x.coeffs)
    start = x.cap if rng.random() < 0.5 else x.cap + rng.randint(1, 4)
    order = x.ctx.field.order
    for e in range(start, start + rng.randint(0, 6)):
        if e == start or rng.random() < 0.5:
            coeffs[e] = rng.randrange(1, order)
    return x.ctx.make(coeffs)


def _series(ctx, rng, v_lo, v_hi, t_prec):
    return TateSeries(ctx, [_elem(ctx, rng, rng.randint(v_lo, v_hi))
                            for _ in range(rng.randint(0, 4))], t_prec)


def _complete_series(s, rng):
    """Every coefficient completed; a finite t-window also gets up to
    two random exact coefficients past it, and grows by as many."""
    coeffs = [_complete(c, rng) for c in s.coeffs]
    if s.t_prec == INF:
        return TateSeries(s.ctx, coeffs)
    extra = rng.randint(0, 2)
    for _ in range(extra):
        coeffs.append(_complete(_elem(s.ctx, rng, rng.randint(-8, 8),
                                      "capped"), rng))
    return TateSeries(s.ctx, coeffs, s.t_prec + extra)


def _agrees(got, want):
    """want, the result on a completion, agrees with got below got's
    cap, and is known at least that far."""
    assert want.cap >= got.cap, (got, want)
    assert {e: c for e, c in want.coeffs.items() if e < got.cap} == \
        got.coeffs, (got, want)


def _agrees_series(got, want):
    assert want.t_prec >= got.t_prec, (got, want)
    n = max(len(got.coeffs), len(want.coeffs)) if got.t_prec == INF \
        else got.t_prec
    zero = got.ctx.zero()
    for k in range(n):
        _agrees(got.coeffs[k] if k < len(got.coeffs) else zero,
                want.coeffs[k] if k < len(want.coeffs) else zero)


def _session(rng, q, s):
    """A random module of rank 1-2 (rank 3 at q = 2) with deg A_i <= 7,
    over F_(q^s) with m <= 3."""
    m = rng.randint(1, 3)
    ctx = SeriesParams(FieldParams.make(q, s), m, 64)
    r = rng.randint(1, 3 if q == 2 else 2)
    A = []
    for i in range(1, r + 1):
        if i < r and rng.random() < 0.3:
            A.append(ctx.zero())
            continue
        digits = [rng.randrange(q) for _ in range(rng.randint(1, 8))]
        digits[-1] = digits[-1] or 1
        A.append(ctx.from_poly(digits))
    return ctx, DrinfeldModule(ctx, A)


def _in_radius(phi, rng):
    """A valuation v with log_q|u^v| = -v/m inside the radius of log."""
    low = floor(-phi.ctx.m * phi.convergence_data().logq_R) + 1
    return low + rng.randint(0, 3)


def _each_case(op, draws, check):
    """Run check(rng, q, s) on draws seeded cases per field."""
    for q, s in FIELDS:
        rng = random.Random("%s-%d-%d" % (op, q, s))
        for _ in range(draws):
            check(rng, q, s)


def _completions(x, rng, n=3):
    return [_complete(x, rng) for _ in range(n)]


def test_exp_eval_completions():
    def check(rng, q, s):
        ctx, phi = _session(rng, q, s)
        xi = _elem(ctx, rng, rng.randint(-2 * ctx.m, 6))
        ucap = rng.randint(1, 24)
        got = phi.exp_eval(xi, ucap)
        for w in _completions(xi, rng):
            _agrees(got, phi.exp_eval(w, ucap))
    _each_case("exp", 30, check)


def test_log_eval_completions():
    def check(rng, q, s):
        ctx, phi = _session(rng, q, s)
        xi = _elem(ctx, rng, _in_radius(phi, rng))
        ucap = rng.randint(1, 24)
        got = phi.log_eval(xi, ucap)
        for w in _completions(xi, rng):
            _agrees(got, phi.log_eval(w, ucap))
    _each_case("log", 20, check)


def test_quasi_function_eval_completions():
    def check(rng, q, s):
        ctx, phi = _session(rng, q, s)
        z = _elem(ctx, rng, rng.randint(-2 * ctx.m, 6))
        j, ucap = rng.randint(1, 2), rng.randint(1, 24)
        got = quasi_function_eval(phi, j, z, ucap)
        for w in _completions(z, rng):
            _agrees(got, quasi_function_eval(phi, j, w, ucap))
    _each_case("quasi", 20, check)


def test_deformed_log_completions():
    def check(rng, q, s):
        ctx, phi = _session(rng, q, s)
        xi = _elem(ctx, rng, _in_radius(phi, rng))
        ucap, t_prec = rng.randint(1, 16), rng.randint(1, 4)
        dl = DeformedLog(phi, xi, ucap)
        series, at_theta = dl.series(t_prec), dl.eval_theta()
        for w in _completions(xi, rng, 2):
            dw = DeformedLog(phi, w, ucap)
            _agrees_series(series, dw.series(t_prec))
            _agrees(at_theta, dw.eval_theta())
    _each_case("deform", 10, check)


def test_agf_theta_pole_form_completions():
    def check(rng, q, s):
        ctx, phi = _session(rng, q, s)
        u = _elem(ctx, rng, rng.randint(-ctx.m, 6))
        ucap, t_prec = rng.randint(1, 16), rng.randint(1, 4)
        got = AGFValue(phi, u, ucap).theta_pole_form(t_prec)
        for w in _completions(u, rng, 2):
            want = AGFValue(phi, w, ucap).theta_pole_form(t_prec)
            _agrees_series(got.regular, want.regular)
            _agrees(got.residue, want.residue)
    _each_case("agf", 10, check)


def _frac(ctx, rng):
    den = {e: rng.choice((1, 2, 3, ctx.field.p, ctx.q + 1))
           for e in rng.sample((1, 2, 3), rng.randint(0, 2))}
    return BracketFrac(ctx, _elem(ctx, rng, rng.randint(-12, 12)), den)


def test_to_laurent_completions():
    def check(rng, q, s):
        ctx = SeriesParams(FieldParams.make(q, s), rng.randint(1, 3), 32)
        for _ in range(6):
            f = _frac(ctx, rng)
            x = _elem(ctx, rng, rng.randint(-12, 12))
            ucap = rng.choice((INF, rng.randint(-8, 40)))
            got, prod = f.to_laurent(ucap), f.times_to_laurent(x, ucap)
            for _ in range(3):
                g = BracketFrac(ctx, _complete(f.num, rng), f.den)
                _agrees(got, g.to_laurent(ucap))
                _agrees(prod, g.times_to_laurent(_complete(x, rng), ucap))
    _each_case("to_laurent", 5, check)


def test_tate_mul_completions():
    def check(rng, q, s):
        ctx = SeriesParams(FieldParams.make(q, s), rng.randint(1, 3), 32)
        for _ in range(6):
            a, b = (_series(ctx, rng, -8, 8,
                            rng.choice((INF, rng.randint(0, 5))))
                    for _ in range(2))
            got = a * b
            for _ in range(3):
                _agrees_series(got, _complete_series(a, rng) *
                               _complete_series(b, rng))
    _each_case("tate_mul", 5, check)


def test_div_pole_completions():
    def check(rng, q, s):
        ctx = SeriesParams(FieldParams.make(q, s), rng.randint(1, 3), 32)
        for _ in range(6):
            a = _series(ctx, rng, -8, 8, rng.randint(0, 5))
            e, ucap = rng.randint(0, 2), rng.choice((INF, rng.randint(-8, 40)))
            got = a.div_pole(e, ucap)
            for _ in range(3):
                _agrees_series(got, _complete_series(a, rng).div_pole(e, ucap))
    _each_case("div_pole", 5, check)


def test_expand_sum_completions():
    def check(rng, q, s):
        ctx = SeriesParams(FieldParams.make(q, s), rng.randint(1, 3), 32)
        for _ in range(4):
            fracs = [TateRational(ctx, _series(ctx, rng, -8, 8, INF),
                                  {e: rng.randint(1, 2) for e in
                                   rng.sample((1, 2, 3), rng.randint(0, 2))})
                     for _ in range(rng.randint(0, 3))]
            t_prec = rng.randint(0, 4)
            ucap = rng.choice((INF, rng.randint(-8, 40)))
            got = expand_sum(ctx, fracs, t_prec, ucap)
            for _ in range(3):
                done = [TateRational(ctx, _complete_series(f.num, rng),
                                     f.den) for f in fracs]
                _agrees_series(got, expand_sum(ctx, done, t_prec, ucap))
    _each_case("expand_sum", 5, check)
