"""The divisions by brackets and poles against the routes they replaced:
quasi-periods and the Carlitz W through the fraction layer against
Newton inversion and one pole division per factor (tests/oracles.py),
and the shared pole step of TateSeries.mul_pole and div_pole against
their own loops.  Every comparison is by to_text, coefficients and caps
included."""

import random
from math import inf as INF

import pytest

from drinfeld import cli
from drinfeld.agf import DeformedLog, OmegaCarlitz
from drinfeld.errors import InvalidInput
from drinfeld.ff import FieldParams
from drinfeld.laurent import SeriesParams
from drinfeld.periods import quasi_period_prop, torsion_roots
from drinfeld.tate import TateSeries
from oracles import (div_pole_loop, mul_pole_loop, omega_w_by_factors,
                     omega_w_theta_newton, quasi_period_newton)

# (q, s) with s <= 4 where (-theta)^(1/(q-1)) exists at m = q - 1:
# -1 needs a (q-1)-st root in F_(q^s), so s is even for q = 3, 5, 9
OMEGA_FIELDS = [(2, s) for s in range(1, 5)] + [(3, 2), (3, 4)] + \
    [(4, s) for s in range(1, 5)] + [(5, 2), (5, 4)] + \
    [(8, s) for s in range(1, 5)] + [(9, 2), (9, 4)]


@pytest.mark.parametrize("q,s", OMEGA_FIELDS)
def test_omega_divisions_match_factor_routes(q, s):
    """W(t) as one pole fraction equals the division and scaling by one
    factor at a time, and W(theta) as one bracket fraction equals the
    product of the factors' Newton inverses, at caps c and 2c and t_prec
    1, 6 and 16; so do the omega series built on W."""
    m = q - 1
    ctx = SeriesParams(FieldParams.make(q, s), m)
    c = 12 * m
    for ucap in (c, 2 * c):
        for t_prec in (1, 6, 16):
            om = OmegaCarlitz(ctx, ucap, t_prec)
            w = omega_w_by_factors(om)
            assert om.regular_series().to_text() == w.to_text()
            assert om._w_at_theta("factored").to_text() == \
                omega_w_theta_newton(om).to_text()
            want = w.scale(om.root * -ctx.theta()).div_pole(0, ucap)
            assert om.series().to_text() == want.to_text()


def test_omega_fields_cover_odd_depth_at_odd_p():
    """The sign (-1)^depth of W's numerator shows only at odd p, so the
    cases above include an odd depth there, and an even one."""
    depths = {OmegaCarlitz(SeriesParams(FieldParams.make(q, s), q - 1),
                           ucap * (q - 1), 1).depth % 2
              for q, s in OMEGA_FIELDS if q % 2 for ucap in (12, 24)}
    assert depths == {0, 1}


# rank 2-3 single-layer sessions over q = 2, 3, 4, 5, 8 and 9 that reach
# a torsion basis: (q, s, m, A)
QUASI_SESSIONS = [(2, 2, 3, "1;1"), (2, 3, 7, "1;1;1"), (3, 4, 8, "1;1"),
                  (3, 6, 26, "1;1;1"), (4, 2, 15, "1;1"),
                  (4, 3, 63, "1;1;1"), (5, 4, 24, "1;1"), (8, 2, 63, "1;1"),
                  (9, 4, 80, "1;1")]


@pytest.mark.parametrize("q,s,m,A", QUASI_SESSIONS)
def test_quasi_period_bracket_division_matches_newton(q, s, m, A):
    """theta/[j] times the j-twisted value by one bracket fraction equals
    the Newton inverse of [j] for every j = 1..r-1 and basis element, at
    caps c and 2c, with the deformed logarithm at cap + 2m; the exact
    division needs no margin, so a deformed logarithm at the cap itself
    gives the same bytes."""
    phi = cli.SessionConfig(q=q, s=s, m=m, A=cli.parse_coeff_polys(A)).phi
    c = 24
    for zeta in torsion_roots(phi, 2 * c).basis:
        for ucap in (c, 2 * c):
            dl = DeformedLog(phi, zeta, ucap + 2 * m)
            at_cap = DeformedLog(phi, zeta, ucap)
            for j in range(1, phi.r):
                want = quasi_period_newton(dl, j, ucap).to_text()
                assert quasi_period_prop(dl, j, ucap).to_text() == want
                assert quasi_period_prop(at_cap, j, ucap).to_text() == want


def test_quasi_period_needs_a_bracket():
    """j = 0 names no bracket [j]: InvalidInput, as bracket(ctx, 0)."""
    phi = cli.SessionConfig(q=2, s=2, m=3, A=((1,), (1,))).phi
    dl = DeformedLog(phi, torsion_roots(phi, 24).basis[0], 30)
    with pytest.raises(InvalidInput):
        quasi_period_prop(dl, 0, 24)


def _random_series(rng, ctx, n, t_prec):
    """n coefficients of random terms over [-12, 12) with random caps,
    some exact, some termless, some cut right at their top term."""
    out = []
    for _ in range(n):
        kind = rng.randrange(4)
        terms = {e: rng.randrange(1, ctx.field.order)
                 for e in rng.sample(range(-12, 12), rng.randrange(6))}
        if kind == 0:
            out.append(ctx.make(terms))
        elif kind == 1:
            out.append(ctx.zero(rng.randrange(-6, 14)))
        else:
            top = max(terms, default=0) + (1 if kind == 2 else
                                           rng.randrange(-4, 6))
            out.append(ctx.make(terms, top))
    return TateSeries(ctx, out, t_prec)


@pytest.mark.parametrize("q,s,m", [(2, 1, 1), (2, 3, 2), (3, 2, 1),
                                   (5, 1, 3), (9, 1, 2)])
def test_pole_step_matches_pole_loops(q, s, m):
    """mul_pole and div_pole, which share one pole step, equal the loops
    they each ran before, on random series whose terms sit at and near
    the caps: poles e = 0..2, div_pole uncut and cut at ucap."""
    rng = random.Random(q * 100 + s * 10 + m)
    ctx = SeriesParams(FieldParams.make(q, s), m)
    for _ in range(40):
        n = rng.randrange(1, 7)
        for t_prec in (INF, n + rng.randrange(3)):
            x = _random_series(rng, ctx, n, t_prec)
            for e in range(3):
                assert x.mul_pole(e).to_text() == \
                    mul_pole_loop(x, e).to_text()
                if t_prec == INF:
                    continue
                for ucap in (INF, rng.randrange(-4, 30)):
                    assert x.div_pole(e, ucap).to_text() == \
                        div_pole_loop(x, e, ucap).to_text()
