"""Module layer: bracket fractions, exp/log coefficients (both routes),
convergence data, degree bounds, certified evaluation."""

import random
from fractions import Fraction
from functools import reduce
from math import inf as INF
from operator import add, mul

import pytest

from drinfeld.errors import InvalidInput, OutsideRadius
from drinfeld.ff import FieldParams
from drinfeld.laurent import LaurentElem, SeriesParams
from drinfeld.modules import (_LIFT_BY_FACTOR, BracketFrac, DrinfeldModule,
                              _den_elem, _den_factors, bracket, carlitz)
from drinfeld.partitions import enumerate_partitions
from drinfeld.tate import TateRational, TateSeries

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
            total += w * (phi.A[i - 1].deg() - q ** i)
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
        assert _den_elem(ctx, ((e, mult),)) == bracket(ctx, e).pow(mult)


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
                out = out * b.pow_q(k).pow(d)
            mult //= q
            k += 1
    return out


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
    """_den_elem writes each factor ([e]^(q^k))^d out as its d + 1 terms;
    it equals the bracket-power product on 1-3 brackets, including the
    digits whose binomial coefficients vanish mod p (d = 2 at q = 4,
    d = 3 and 6 at q = 9)."""
    ctx = SeriesParams(FieldParams.make(q, s), m, 32)
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
            while mult:
                mult, d = divmod(mult, q)
                terms *= d + 1
        if terms <= 400:
            cases.append(items)
    for items in cases:
        assert _den_elem(ctx, items) == _den_elem_oracle(ctx, items), items
    for n in (1, 2, 3):
        assert bracket(ctx, n) == ctx.theta().pow_q(n) - ctx.theta()
    lifted = BracketFrac.zero(ctx)._lift({1: 3, 2: q})
    assert lifted.is_exact_zero() and lifted.cap == INF


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


@pytest.mark.parametrize("q", [2, 3, 4])
def test_lift_by_factor_matches_expanded_lift(q):
    """_lift multiplies a numerator of more than _LIFT_BY_FACTOR terms by
    the digit factors one at a time, and a smaller one by the expanded
    cofactor; on seeded numerators on both sides of the threshold the two
    forms and _lift agree."""
    rng = random.Random(60 + q)
    ctx = SeriesParams(FieldParams.make(q), 1, 32)
    for size in (_LIFT_BY_FACTOR // 8, _LIFT_BY_FACTOR,
                 _LIFT_BY_FACTOR + 1, 2 * _LIFT_BY_FACTOR):
        exps = rng.sample(range(-4 * size, 4 * size), size)
        num = ctx.make({e: rng.randrange(1, ctx.field.order) for e in exps})
        da, db = _bracket_sets(rng, q)
        frac = BracketFrac(ctx, num, da)
        target = {e: max(da.get(e, 0), db.get(e, 0)) for e in {*da, *db}}
        extra = tuple(sorted((e, m - da.get(e, 0)) for e, m in target.items()
                             if m > da.get(e, 0)))
        assert extra
        expanded = num * _den_elem(ctx, extra)
        assert reduce(mul, _den_factors(ctx, extra), num) == expanded, size
        assert frac._lift(target) == expanded, size


@pytest.mark.parametrize("q", [2, 3, 4])
def test_lift_route_follows_numerator_size(q, monkeypatch):
    """The two lift routes differ only in cost, so this watches the
    products: above _LIFT_BY_FACTOR terms the running numerator is
    multiplied by each digit factor (at most q terms) in turn; at or
    below it the numerator enters one product, the last, with the
    expanded cofactor."""
    rng = random.Random(70 + q)
    ctx = SeriesParams(FieldParams.make(q), 1, 32)
    da, extra = {1: 1}, ((1, q), (2, q + 1), (3, 1))
    target = {e: da.get(e, 0) + m for e, m in extra}
    factors = list(_den_factors(ctx, extra))
    assert len(factors) >= 3 and all(len(f.coeffs) <= q for f in factors)
    products = []
    laurent_mul = LaurentElem.__mul__

    def watched(a, b):
        products.append((a, b))
        return laurent_mul(a, b)

    monkeypatch.setattr(LaurentElem, "__mul__", watched)
    for size in (_LIFT_BY_FACTOR, _LIFT_BY_FACTOR + 1):
        exps = rng.sample(range(-4 * size, 4 * size), size)
        num = ctx.make({e: rng.randrange(1, ctx.field.order) for e in exps})
        del products[:]
        BracketFrac(ctx, num, da)._lift(target)
        if size > _LIFT_BY_FACTOR:
            assert [b for _, b in products] == factors
            assert products[0][0] is num
        else:
            assert [a is num for a, _ in products] == \
                [False] * (len(factors) - 1) + [True]
            assert products[-1][1] == _den_elem(ctx, extra)


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


def test_frac_deg():
    ctx = CTX3
    a = BracketFrac(ctx, ctx.theta(2), {1: 1, 2: 1})
    assert a.deg() == 2 - 3 - 9
    assert BracketFrac.zero(ctx).deg() is None


def test_frac_to_laurent_cap_discipline():
    ctx = CTX3
    a = BracketFrac(ctx, ctx.one(), {1: 2})
    x = a.to_laurent(30)
    assert x.cap == 30
    # residual of x * [1]^2 - 1 vanishes below the certified window
    res = x * bracket(ctx, 1).pow(2) - ctx.one()
    assert not res.coeffs
    # doubling the cap and truncating back is byte-identical
    y = a.to_laurent(60).truncate(30)
    assert x == y


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


def _perturbed_compose_check(make, route, which, seed):
    """compose_check after one cached alpha_k or beta_k numerator is
    moved by a monomial."""
    phi = make()
    ctx = phi.ctx
    n = 4
    phi.exp_coeffs(n, route)
    phi.log_coeffs(n, route)
    rng = random.Random(seed)
    seq = (phi._alpha if which == "alpha" else phi._beta)[route]
    k = rng.randrange(1, n + 1)
    f = seq[k]
    bump = ctx.monomial(rng.randrange(1, ctx.field.order),
                        rng.randrange(-12, 4))
    seq[k] = BracketFrac(ctx, f.num + bump, f.den)
    return phi.compose_check(n, route)


@pytest.mark.parametrize("which", ["alpha", "beta"])
@pytest.mark.parametrize("route", ["partitions", "recurrence"])
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


def test_per_partition_terms_rank2_depth3():
    phi = rank2_q2()
    parts = enumerate_partitions(2, 3)
    assert len(parts) == 3
    total = BracketFrac.zero(CTX2)
    for sp in parts:
        total = total + phi.log_term(sp)
    assert total.equals(phi.log_coeffs(3)[3])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_a_power_memo_matches_fresh_product(q):
    """A^S from the module's memo, after the exp and log terms have
    filled it, equals a fresh product on every partition."""
    rng = random.Random(40 + q)
    ctx = SeriesParams(FieldParams.make(q), 1, 48)
    for r in (1, 2, 3):
        phi = _random_module(ctx, r, rng)
        phi.exp_coeffs(5)
        phi.log_coeffs(5)
        for n in range(1, 6):
            for sp in enumerate_partitions(r, n, support=phi.support):
                fresh = ctx.one()
                for i, mask in enumerate(sp.masks, start=1):
                    for j in range(n):
                        if mask >> j & 1:
                            fresh = fresh * phi.A[i - 1].pow_q(j)
                assert sp.masks in phi._a_powers
                assert phi._a_power(sp) == fresh
                assert phi._a_power(sp) is phi._a_power(sp)


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
                    phi.A[i - 1].deg() - q ** i)
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
            assert beta[n].deg() <= (phi.ctx.q ** n - 1) * (-conv.logq_R)


def test_exp_degree_bound_tight_for_carlitz():
    phi = carlitz(CTX3)
    alpha = phi.exp_coeffs(5)
    for n in range(6):
        assert phi.exp_deg_bound(n) == alpha[n].deg() == -n * 3 ** n


def test_exp_degree_bound_majorizes():
    for phi in (rank2_q2(), rank2_q3(), rank3_q2()):
        alpha = phi.exp_coeffs(6)
        for n in range(7):
            if not alpha[n].is_exact_zero():
                assert alpha[n].deg() <= phi.exp_deg_bound(n)


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
    assert (got - total).is_zero_to_prec()
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
        assert (back - xi).is_zero_to_prec()
        assert (back - xi).cap >= cap
        lg = phi.log_eval(xi, ucap=cap)
        again = phi.exp_eval(lg, ucap=cap)
        assert (again - xi).is_zero_to_prec()


def test_exp_functional_equation_numeric():
    for phi in (rank2_q2(), rank2_q3()):
        ctx = phi.ctx
        xi = ctx.theta(-1)
        cap = 30
        lhs = phi.exp_eval(ctx.theta() * xi, ucap=cap)
        rhs = phi.phi_action(phi.exp_eval(xi, ucap=cap)).truncate(cap)
        assert (lhs - rhs).is_zero_to_prec()


def test_log_functional_equation_numeric():
    phi = rank2_q2()
    ctx = phi.ctx
    xi = ctx.theta(-2)
    cap = 30
    lhs = phi.log_eval(phi.phi_action(xi), ucap=cap)
    rhs = (ctx.theta() * phi.log_eval(xi, ucap=cap)).truncate(cap)
    assert (lhs - rhs).is_zero_to_prec()


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
