"""Laurent series layer: cap discipline, inversion, roots, twists."""

import random
from math import inf as INF

import pytest

from drinfeld.errors import (DivideByZero, InvalidInput, PrecisionExhausted,
                             RamificationError, NoRootInField)
from drinfeld.ff import FieldParams, field_for
from drinfeld.laurent import LaurentElem, SeriesParams, _dict_mul
from drinfeld.tate import TateSeries

from oracles import laurent_pow, tate_mul_pairwise

CTX2 = SeriesParams(FieldParams.make(2), 1, 48)
CTX3 = SeriesParams(FieldParams.make(3, 2), 2, 40)
CTX4 = SeriesParams(FieldParams.make(4, 2), 3, 36)


def _random_elem(ctx, rng, exact_ok=True):
    n = rng.randrange(0, 9)
    coeffs = {rng.randrange(-12, 25): rng.randrange(1, ctx.field.order)
              for _ in range(n)}
    if exact_ok and rng.random() < 0.4:
        return LaurentElem(ctx, coeffs, INF)
    return LaurentElem(ctx, coeffs, rng.randrange(18, 30))


def agreement_cap(x, y):
    """Cap below which x and y provably agree, or None if they differ at
    a known coefficient."""
    d = x - y
    if d.coeffs:
        return None
    return d.cap


@pytest.mark.parametrize("ctx,seed", [(CTX2, 1), (CTX3, 2), (CTX4, 3)])
def test_ring_axioms_and_cap_rules(ctx, seed):
    rng = random.Random(seed)
    for _ in range(120):
        x, y, z = (_random_elem(ctx, rng) for _ in range(3))
        assert (x + y).coeffs == (y + x).coeffs
        assert agreement_cap((x + y) + z, x + (y + z)) is not None
        assert (x * y).coeffs == (y * x).coeffs
        lhs = (x * y) * z
        rhs = x * (y * z)
        assert agreement_cap(lhs, rhs) is not None
        dist = x * (y + z) - (x * y + x * z)
        assert not dist.coeffs  # distributivity holds on the known window
        assert (x + y).cap == min(x.cap, y.cap)
        assert (x * y).cap == min(x.vbound + y.cap, y.vbound + x.cap)


@pytest.mark.parametrize("ctx,seed", [(CTX2, 11), (CTX3, 12), (CTX4, 13)])
def test_inversion_against_geometric_oracle(ctx, seed):
    rng = random.Random(seed)
    for _ in range(40):
        x = _random_elem(ctx, rng)
        if not x.coeffs:
            continue
        ix = x.invert()
        res = x * ix - ctx.one()
        assert not res.coeffs
        assert res.cap >= min(ctx.prec, x.cap - x.val if x.cap != INF else ctx.prec)


def test_inverse_of_one_minus_u_is_geometric_series():
    one = CTX2.one()
    x = one - CTX2.monomial(1, 1)
    ix = x.invert()
    assert all(ix.coeffs.get(k) == 1 for k in range(CTX2.prec))


def test_invert_monomial_is_exact():
    x = CTX3.theta(5)
    ix = x.invert()
    assert ix.exact and ix.coeffs == {10: 1}


def test_divide_by_zero_and_precision_exhausted():
    with pytest.raises(DivideByZero):
        CTX2.zero().invert()
    with pytest.raises(PrecisionExhausted):
        CTX2.zero(cap=5).invert()


def test_pow_q_is_frobenius_homomorphism():
    rng = random.Random(99)
    for ctx in (CTX2, CTX3, CTX4):
        for _ in range(30):
            x, y = _random_elem(ctx, rng), _random_elem(ctx, rng)
            k = rng.randrange(0, 3)
            t = (x + y).pow_q(k) - (x.pow_q(k) + y.pow_q(k))
            assert not t.coeffs
            t = (x * y).pow_q(k) - x.pow_q(k) * y.pow_q(k)
            assert not t.coeffs


def test_pow_q_caps_scale():
    x = LaurentElem(CTX3, {-2: 1, 3: 2}, 17)
    y = x.pow_q(2)  # q^2 = 9
    assert y.cap == 17 * 9 and y.coeffs == {-18: 1, 27: 2}
    with pytest.raises(InvalidInput):
        y.pow_q(-2)


def test_pow_q_fixing_the_field_matches_per_term_frobenius():
    """For k a multiple of s, pow_q(k) moves exponents only; it must
    agree with a per-term Field.frob on fields with and without tables."""
    rng = random.Random(31)
    for q, s in ((2, 1), (3, 2), (4, 2), (9, 2), (2, 13), (3, 8)):
        ctx = SeriesParams(FieldParams.make(q, s), 2, 32)
        F = ctx.field
        for k in (s, 2 * s):
            Q = q ** k
            for cap in (INF, 40):
                coeffs = {rng.randrange(-10, 30): rng.randrange(1, F.order)
                          for _ in range(12)}
                x = LaurentElem(ctx, coeffs, cap)
                want = LaurentElem(ctx, {e * Q: F.frob(c, k)
                                         for e, c in x.coeffs.items()},
                                   cap if cap == INF else cap * Q)
                assert x.pow_q(k) == want, (q, s, k, cap)


def test_pow_q_off_the_field_matches_per_term_frobenius():
    """For k with s not dividing k, pow_q(k) must agree with a per-term
    Field.frob: on F_4, F_8, F_9, F_25, F_81 and F_(2^12), which read
    one Frobenius table per call, and on F_(2^13), which has none.
    Skipping the Frobenius moves some scalar on each of them."""
    rng = random.Random(37)
    for q, s in ((2, 2), (2, 3), (3, 2), (5, 2), (9, 2), (3, 4), (2, 12),
                 (4, 6), (2, 13)):
        ctx = SeriesParams(FieldParams.make(q, s), 2, 32)
        F = ctx.field
        for k in sorted({1, s - 1, s + 1, 2 * s - 1} - {0}):
            if k % s == 0:
                continue
            Q = q ** k
            for cap in (INF, 40):
                coeffs = {rng.randrange(-10, 30): rng.randrange(1, F.order)
                          for _ in range(12)}
                coeffs[-11] = 1
                x = LaurentElem(ctx, coeffs, cap)
                want = LaurentElem(ctx, {e * Q: F.frob(c, k)
                                         for e, c in x.coeffs.items()},
                                   cap if cap == INF else cap * Q)
                got = x.pow_q(k)
                assert got == want, (q, s, k, cap)
                assert got.coeffs != {e * Q: c for e, c in
                                      x.coeffs.items()}, (q, s, k)


def test_pow_q_negative_requires_divisibility():
    # twists run forward only: divisible exponents are refused too
    for coeffs in ({1: 1}, {3: 1}, {}):
        with pytest.raises(InvalidInput):
            LaurentElem(CTX3, coeffs, INF).pow_q(-1)


@pytest.mark.parametrize("shape", ["mono", "sparse", "dense"])
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_root_q_minus_1_squares_back(q, s, exact, shape):
    ctx = SeriesParams(FieldParams.make(q, s), q - 1, 40)
    F = ctx.field
    rng = random.Random(1000 * q + 100 * s + 10 * exact + len(shape))
    for _ in range(4):
        v = (q - 1) * rng.randrange(-3, 4)
        cap = INF if exact else v + rng.randrange(1, 60)
        coeffs = {v: F.pow_int(rng.randrange(1, F.order), q - 1)}
        if shape == "sparse":
            for _ in range(3):
                coeffs[v + rng.randrange(1, 50)] = rng.randrange(1, F.order)
        elif shape == "dense":
            for e in range(v + 1, v + 50):
                coeffs[e] = rng.randrange(F.order)
        x = LaurentElem(ctx, coeffs, cap)
        r = x.root_q_minus_1()
        R = ctx.prec if exact else cap - v
        res = laurent_pow(r, q - 1) - x
        assert not res.coeffs
        if exact and len(x.coeffs) == 1:
            assert r.cap == INF and res.is_exact_zero()
        else:
            assert r.cap == v // (q - 1) + R
            assert res.cap == v + R
        assert r.val == v // (q - 1)
        assert r.coeffs[r.val] == F.root_q_minus_1(x.coeffs[v])


def test_root_q_minus_1_val_divisibility():
    x = CTX3.monomial(1, 1)
    with pytest.raises(RamificationError) as e:
        x.root_q_minus_1()
    assert e.value.required_m == 4


def test_root_q_minus_1_no_root_in_residue_field():
    ctx = SeriesParams(FieldParams.make(3, 1), 2, 24)
    with pytest.raises(NoRootInField) as e:
        (-ctx.theta()).root_q_minus_1()
    assert e.value.required_s == 2


def test_root_of_minus_theta_q3():
    r = (-CTX3.theta()).root_q_minus_1()
    assert r.exact
    assert (r * r + CTX3.theta()).is_exact_zero()
    # deterministic branch: lexicographically smallest of the two roots
    other = -r
    F = CTX3.field
    assert F.coords(r.coeffs[-1]) < F.coords(other.coeffs[-1])


def test_q2_root_is_identity():
    x = CTX2.theta() + CTX2.one()
    assert x.root_q_minus_1() == x


def test_truncation_consistency_of_derived_series():
    """Doubling the budget then truncating matches the low-budget run."""
    lo = SeriesParams(FieldParams.make(2), 1, 24)
    hi = SeriesParams(FieldParams.make(2), 1, 48)
    xs_lo = lo.one() + lo.monomial(1, 1) + lo.monomial(1, 3)
    xs_hi = hi.one() + hi.monomial(1, 1) + hi.monomial(1, 3)
    inv_lo, inv_hi = xs_lo.invert(), xs_hi.invert()
    assert inv_hi.truncate(inv_lo.cap).coeffs == inv_lo.coeffs
    r_lo = xs_lo.root_q_minus_1()
    r_hi = xs_hi.root_q_minus_1()
    assert r_hi.truncate(r_lo.cap).coeffs == r_lo.coeffs


def test_from_poly_and_theta():
    x = CTX2.from_poly([1, 1])  # 1 + theta
    assert x.coeffs == {0: 1, -1: 1} and x.exact
    b1 = CTX2.theta().pow_q(1) - CTX2.theta()
    assert b1.coeffs == {-2: 1, -1: 1}


def test_json_round_trip():
    rng = random.Random(17)
    for ctx in (CTX2, CTX3, CTX4):
        for _ in range(25):
            x = _random_elem(ctx, rng)
            y = LaurentElem.from_json(ctx, x.to_json())
            assert x == y


def _to_json_oracle(x):
    """LaurentElem.to_json by the plain rule: one coordinate vector per
    slot of the dense window, zero slots included."""
    out = x.to_json()
    if x.coeffs:
        out["coeffs"] = [list(x.ctx.field.coords(x.coeffs.get(e, 0)))
                         for e in range(min(x.coeffs), max(x.coeffs) + 1)]
    return out


@pytest.mark.parametrize("s,q", [(s, q) for s in (1, 2)
                                 for q in (2, 3, 4, 5, 9)] + [(8, 3), (13, 2)])
def test_to_json_matches_per_slot_coords(q, s):
    """The coordinate rows of to_json, on fields with tables and on two
    without (F_{3^8}, F_{2^13}), whose rows come from the same memo."""
    ctx = SeriesParams(FieldParams.make(q, s), 2, 40)
    rng = random.Random(100 * q + s)
    order = ctx.field.order
    cases = [ctx.zero(), LaurentElem(ctx, {}, 7),
             ctx.monomial(rng.randrange(1, order), -5),
             LaurentElem(ctx, {-9: 1, 0: order - 1, 13: 1}, 30)]
    cases += [_random_elem(ctx, rng) for _ in range(40)]
    for x in cases:
        got = x.to_json()
        assert got == _to_json_oracle(x)
        assert LaurentElem.from_json(ctx, got) == x


def _schoolbook(F, A, B, lim):
    ref = {}
    for e1, c1 in A.items():
        for e2, c2 in B.items():
            e = e1 + e2
            if e >= lim:
                continue
            v = F.add(ref.get(e, 0), F.mul(c1, c2))
            if v:
                ref[e] = v
            elif e in ref:
                del ref[e]
    return ref


def _route(F, A, B):
    """The route _dict_mul takes: one dictcomp for a single-term operand;
    the Kronecker product for more than 512 term pairs on a raw exponent
    window narrower than their number; the schoolbook otherwise, in the
    log domain on fields with tables and by Field.mul on fields
    without."""
    if min(len(A), len(B)) == 1:
        return "single"
    pairs = len(A) * len(B)
    window = max(A) - min(A) + max(B) - min(B) + 1
    if pairs > 512 and window < pairs:
        return "kronecker"
    return "schoolbook" if F.exp_tab is not None else "plain schoolbook"


def _operand_pairs(F, rng):
    """Operand pairs on both sides of the kernel selection rule."""
    top = F.order - 1  # every F_p coordinate p-1: the largest lane sums

    def rand(lo, hi, n):
        return {rng.randrange(lo, hi): rng.randrange(1, F.order)
                for _ in range(n)}

    return [
        ({e: top for e in range(-5, 60)}, {e: top for e in range(3, 70)}),
        (rand(-40, 80, 50), rand(-40, 80, 45)),
        (rand(0, 400, 30), {e: rng.randrange(1, F.order)
                            for e in range(-7, 90)}),
        (rand(-40, 80, 20), rand(-40, 80, 20)),
        (rand(0, 5000, 30), rand(0, 5000, 40)),
        ({7: rng.randrange(1, F.order)}, rand(-40, 80, 60)),
        ({0: 1}, rand(-40, 80, 60)),
        (rand(-40, 80, 30), {-9: 1}),
    ]


def _strided_pairs(F, rng, g):
    """Operand pairs on a common exponent stride g at nonzero offsets,
    and pairs in which only one operand is strided."""
    def coef():
        return rng.randrange(1, F.order)

    def dense(lo, hi, off):
        return {off + g * i: coef() for i in range(lo, hi)}

    def sparse(n, lo, hi, off):
        return {off + g * rng.randrange(lo, hi): coef() for _ in range(n)}

    return [
        (dense(-5, 40, 3), dense(3, 50, -7)),
        (sparse(50, -40, 80, 1), sparse(45, -40, 80, -2)),
        (sparse(30, 0, 3000, 5), sparse(40, 0, 3000, 2)),
        (dense(0, 60, 4), {e: coef() for e in range(-7, 90)}),
        ({e: coef() for e in range(-7, 90)}, sparse(40, -30, 200, 1)),
    ]


def test_fast_multiply_matches_schoolbook():
    """_dict_mul against an inline schoolbook oracle on every route, over
    q in {2,3,4,5,9} and s in {1,2,3} (the F_{4^2} tower among them) and
    two fields too large for lookup tables, F_{2^16} and F_{3^8}, whose
    schoolbook multiplies by Field.mul.  For s <= 2,
    strided pairs with a stride g in {2, q-1, q, q^2} are further
    inputs, not a separate route; their limits also fall on a strided
    slot and strictly between two slots."""
    rng = random.Random(23)
    fields = [(q, s) for q in (2, 3, 4, 5, 9) for s in (1, 2, 3)]
    fields += [(2, 16), (3, 8)]
    for q, s in fields:
        F = field_for(FieldParams.make(q, s))
        routes = set()
        cases = [(1, A, B) for A, B in _operand_pairs(F, rng)]
        if s <= 2:
            cases += [(g, A, B) for g in sorted({2, q - 1, q, q * q})
                      for A, B in _strided_pairs(F, rng, g)]
        for g, A, B in cases:
            routes.add(_route(F, A, B))
            full = _schoolbook(F, A, B, INF)
            base = min(A) + min(B)
            top = max(A) + max(B)
            lims = [INF, rng.randrange(base + 1, top), base,
                    base - rng.randrange(1, 9)]
            if g > 1:
                slot = base + g * rng.randrange(1, 60)
                lims += [slot, slot + rng.randrange(1, g)]
            for lim in lims:
                want = {e: c for e, c in full.items() if e < lim}
                assert _dict_mul(F, A, B, lim) == want, (q, s, g, lim)
        school = "schoolbook" if F.exp_tab is not None else "plain schoolbook"
        assert routes == {"single", school, "kronecker"}, (q, s)
        # u^0 with nothing cut hands back the other dict itself
        B = {e: rng.randrange(1, F.order) for e in range(-3, 9)}
        assert _dict_mul(F, {0: 1}, B, INF) is B
        assert _dict_mul(F, B, {0: 1}, 9) is B


def _tate_coeff(ctx, rng, kind):
    """A Tate coefficient of the given kind: the exact zero, termless at
    a cap, a unit or other single term, a few scattered terms, or a wide
    dense run (wide against wide is a Kronecker pair); every one with
    terms is exact or capped, the cap possibly inside its support."""
    F = ctx.field
    lo = rng.randrange(-20, 40)
    if kind == "zero":
        return ctx.zero()
    if kind == "termless":
        return LaurentElem(ctx, {}, lo)
    if kind == "unit":
        terms = {lo: 1}
    elif kind == "mono":
        terms = {lo: rng.randrange(1, F.order)}
    elif kind == "small":
        terms = {lo + rng.randrange(30): rng.randrange(1, F.order)
                 for _ in range(rng.randrange(2, 9))}
    else:
        terms = {lo + e: rng.randrange(1, F.order)
                 for e in range(rng.randrange(30, 50)) if rng.random() < 0.9}
    cap = INF if rng.random() < 0.4 else lo + rng.randrange(1, 70)
    return LaurentElem(ctx, terms, cap)


_TATE_KINDS = ("zero", "termless", "unit", "mono", "small", "wide", "wide")


def _tate_operand(ctx, rng):
    """A series of up to 5 random coefficients after 0-2 exact zeros
    (tval > 0), exact (t_prec = inf) or cut at a t_prec that may fall
    inside or beyond them."""
    lead = rng.choice((0, 0, 1, 2))
    coeffs = [ctx.zero()] * lead + [_tate_coeff(ctx, rng,
                                                rng.choice(_TATE_KINDS))
                                    for _ in range(rng.randrange(1, 6))]
    tp = INF if rng.random() < 0.4 else rng.randrange(1, len(coeffs) + 3)
    return TateSeries(ctx, coeffs, tp)


def _tate_pair_routes(x, y, prod):
    """The _dict_mul routes of the pairs that land in prod below their
    slot's cap, and whether a Kronecker pair's valuation sum reached its
    slot's cap (a window with lim_k <= base_k)."""
    F = x.ctx.field
    routes, above = set(), False
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            k = i + j
            if not a.coeffs or not b.coeffs or k >= len(prod.coeffs):
                continue
            route = _route(F, a.coeffs, b.coeffs)
            if min(a.coeffs) + min(b.coeffs) >= prod.coeffs[k].cap:
                above |= route == "kronecker"
            else:
                routes.add(route)
    return routes, above


def test_tate_product_matches_pairwise():
    """TateSeries.__mul__ (one convolution) against tate_mul_pairwise
    (LaurentElem.__mul__ and __add__ per coefficient pair), compared by
    ==, so coefficients and caps alike, over q in {2,3,4,5,9}, s in
    {1,2}, m in {1,2,3} and the table-less F_{2^13} and F_{3^8}.  The
    operands mix exact, capped and termless coefficients, exact zeros,
    t_prec = inf and tval > 0; some product mixes all three routes and
    some Kronecker pair lies wholly above its slot's cap.  Last, an odd-p
    slot summing three Kronecker pairs whose lanes overflow a lane sized
    for one pair."""
    rng = random.Random(41)
    fields = [(q, s, m, 6) for q in (2, 3, 4, 5, 9) for s in (1, 2)
              for m in (1, 2, 3)]
    fields += [(2, 13, 1, 3), (3, 8, 1, 3)]
    mixed = above = False
    for q, s, m, count in fields:
        ctx = SeriesParams(FieldParams.make(q, s), m, 64)
        F = ctx.field
        school = "schoolbook" if F.exp_tab is not None else "plain schoolbook"
        for _ in range(count):
            x, y = _tate_operand(ctx, rng), _tate_operand(ctx, rng)
            got = x * y
            assert got == tate_mul_pairwise(x, y), (q, s, m)
            routes, hit = _tate_pair_routes(x, y, got)
            mixed |= routes >= {"single", school, "kronecker"}
            above |= hit
        x = _tate_operand(ctx, rng)
        for z in (TateSeries.zero(ctx), TateSeries.zero(ctx, 4),
                  TateSeries(ctx, [ctx.zero(), ctx.zero()], 3)):
            assert x * z == tate_mul_pairwise(x, z)
            assert z * x == tate_mul_pairwise(z, x)
    assert mixed and above
    # every coordinate p - 1 = 2: a pair puts 40 * 4 = 160 into the
    # middle lane of t^1's u^39, a one-byte lane, and the two pairs there
    # sum to 320 > 255; slot k of x * x is (pairs at k) * run^2, checked
    # against the inline schoolbook too
    ctx = SeriesParams(FieldParams.make(3), 1, 64)
    run = LaurentElem(ctx, {e: 2 for e in range(40)}, INF)
    x = TateSeries(ctx, [run] * 3)
    assert x * x == tate_mul_pairwise(x, x)
    sq = _schoolbook(ctx.field, run.coeffs, run.coeffs, INF)
    assert [c.coeffs for c in (x * x).coeffs] == [
        {e: v * c % 3 for e, c in sq.items() if v * c % 3}
        for v in (1, 2, 3, 2, 1)]


def _cancelling_elem(ctx, rng, lo, hi):
    """A random element whose coefficients lie in F_p half the time, so
    sums and products of such elements cancel often, with a cap that is
    exact, beyond its support, or inside it."""
    F = ctx.field
    small = rng.random() < 0.5
    coeffs = {rng.randrange(lo, hi): (rng.randrange(1, F.p) if small
                                      else rng.randrange(1, F.order))
              for _ in range(rng.randrange(0, 40))}
    cap = rng.choice([INF, hi + rng.randrange(0, 5),
                      rng.randrange(lo, hi + 1)])
    return LaurentElem(ctx, coeffs, cap)


@pytest.mark.parametrize("q,s", [(2, 1), (9, 1), (3, 6), (2, 13)])
def test_kernel_results_are_valid(q, s):
    """Results that skip the constructor's filter (sum, difference,
    negation, product, scaling, forward Frobenius twist) hold no zero
    value and no exponent at or beyond their cap, so each equals the
    element the constructor builds from its own coeffs and cap.  Fields:
    F_2, F_9, F_729 (odd p, tables, no addition table) and F_{2^13}
    (no tables)."""
    ctx = SeriesParams(FieldParams.make(q, s), 1, 40)
    F = ctx.field
    rng = random.Random(1000 * q + s)
    for _ in range(150):
        x = _cancelling_elem(ctx, rng, -20, 30)
        y = _cancelling_elem(ctx, rng, -20, 30)
        results = [x + y, x - y, x + x, x - x, -x, x * y, x * x,
                   (x + y) * (x - y), x.scale(rng.randrange(F.order)),
                   x.pow_q(rng.randrange(1, 3))]
        for r in results:
            assert all(r.coeffs.values())
            assert all(e < r.cap for e in r.coeffs)
            assert r == LaurentElem(ctx, r.coeffs, r.cap)
