"""Residue field arithmetic: axioms, Frobenius, (q-1)-st roots."""

import random
from math import gcd

import pytest

from drinfeld.errors import ConfigError, InvalidElement, NoRootInField
from drinfeld.ff import FieldParams, field_for

FIELDS = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1),
          (7, 1), (8, 1), (9, 1), (9, 2), (3, 8)]


@pytest.mark.parametrize("q,s", FIELDS)
def test_field_axioms_sampled(q, s):
    F = field_for(FieldParams.make(q, s))
    rng = random.Random(10_000 * q + s)
    n = F.order
    for _ in range(60):
        a, b, c = (rng.randrange(n) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        assert F.mul(a, 1) == a
        if a:
            assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("q,s", FIELDS)
def test_frobenius_is_field_automorphism(q, s):
    F = field_for(FieldParams.make(q, s))
    rng = random.Random(20_000 * q + s)
    n = F.order
    for _ in range(40):
        a, b = rng.randrange(n), rng.randrange(n)
        k = rng.randrange(-2 * s, 2 * s + 1)
        fa, fb = F.frob(a, k), F.frob(b, k)
        assert F.frob(F.add(a, b), k) == F.add(fa, fb)
        assert F.frob(F.mul(a, b), k) == F.mul(fa, fb)
        assert F.frob(a, k) == F.pow_int(a, pow(q, k % s, F.order - 1)) or a == 0
        # inverse twist undoes the twist
        assert F.frob(F.frob(a, k), -k) == a


def test_frobenius_fixed_field_is_base():
    F = field_for(FieldParams.make(3, 2))
    fixed = [a for a in range(F.order) if F.frob(a, 1) == a]
    assert sorted(fixed) == [0, 1, 2]
    F4 = field_for(FieldParams.make(4, 2))
    fixed = [a for a in range(F4.order) if F4.frob(a, 1) == a]
    assert len(fixed) == 4 and all(F4.in_base(a) for a in fixed)


def test_f4_cube_roots_of_unity():
    F = field_for(FieldParams.make(4))
    g = 2  # the class of x
    assert F.mul(g, g) == 3           # g^2 = g + 1
    assert F.pow_int(g, 3) == 1


def test_root_q_minus_1_q2_is_identity():
    F = field_for(FieldParams.make(2, 2))
    for c in range(4):
        assert F.root_q_minus_1(c) == c


def test_root_q_minus_1_exists_and_is_lex_min():
    F = field_for(FieldParams.make(3, 2))
    for c in range(1, 9):
        try:
            y = F.root_q_minus_1(c)
        except NoRootInField:
            # c has no square root in F_9 iff c is a non-square
            assert F.pow_int(c, 4) != 1
            continue
        assert F.mul(y, y) == c
        all_roots = [z for z in range(9) if F.mul(z, z) == c]
        assert F.coords(y) == min(F.coords(z) for z in all_roots)


def test_root_q_minus_1_failure_names_required_s():
    # -1 is not a square in F_3; s = 2 fixes it
    F = field_for(FieldParams.make(3, 1))
    with pytest.raises(NoRootInField) as e:
        F.root_q_minus_1(2)
    assert e.value.required_s == 2
    F2 = field_for(FieldParams.make(3, 2))
    y = F2.root_q_minus_1(2)
    assert F2.mul(y, y) == 2


def test_element_validates_coords():
    F = field_for(FieldParams.make(4))
    with pytest.raises(InvalidElement):
        F.element((1,))
    with pytest.raises(InvalidElement):
        F.element((2, 0))
    x = F.element((1, 1))
    assert F.coords(x) == (1, 1)
    with pytest.raises(InvalidElement):
        F.coords(F.order)


def test_field_ops_frob_and_root():
    F = field_for(FieldParams.make(9, 2))
    a, b = 7, 52
    assert F.sub(F.add(a, b), b) == a
    assert F.mul(F.mul(a, b), F.inv(b)) == a
    assert F.frob(F.frob(a, 1), -1) == a
    assert F.frob(a, 2) == a  # s = 2: q^2-power Frobenius is the identity
    c = F.root_q_minus_1(F.pow_int(a, 8))  # a^8 = (a^4)^{q-1}
    assert F.pow_int(c, 8) == F.pow_int(a, 64)


def _discrete_log_oracle(F):
    """{c: log_g c} for a generator g found by brute force."""
    n = F.order - 1
    for g in range(2, F.order):
        logs, x = {}, 1
        for j in range(n):
            logs.setdefault(x, j)
            x = F.mul(x, g)
        if len(logs) == n:
            return logs
    return {1: 0}  # F_2


@pytest.mark.parametrize("q,s", [(3, 1), (3, 2), (3, 4), (4, 1), (4, 2),
                                 (5, 2), (7, 2), (8, 2), (9, 2)])
def test_root_q_minus_1_matches_brute_force(q, s):
    """Every c: 1 for c = 1, else the lexicographically smallest of all
    roots; without a root, required_s = s (q-1) / gcd(log c, q-1)."""
    F = field_for(FieldParams.make(q, s))
    logs = _discrete_log_oracle(F)
    for c in range(1, F.order):
        roots = [y for y in range(1, F.order) if F.pow_int(y, q - 1) == c]
        if roots:
            want = 1 if c == 1 else min(roots, key=F.coords)
            assert F.root_q_minus_1(c) == want
        else:
            with pytest.raises(NoRootInField) as e:
                F.root_q_minus_1(c)
            assert e.value.required_s == s * (q - 1) // gcd(logs[c], q - 1)


@pytest.mark.parametrize("q", [4, 9])
def test_root_of_one_is_one_not_lex_min(q):
    # F_q^x holds every (q-1)-st root of 1; the lexicographic minimum is
    # the class of x (packed 2 in F_4, 3 in F_9), but 1 is returned
    F = field_for(FieldParams.make(q))
    roots = [y for y in range(1, q) if F.pow_int(y, q - 1) == 1]
    assert min(roots, key=F.coords) == {4: 2, 9: 3}[q]
    assert F.root_q_minus_1(1) == 1


def test_root_q_minus_1_untabled_field_exact_required_s():
    # F_{5^6} has no log tables (order 15625 > 4096).  c has a 4th root
    # iff its norm c^((5^6-1)/4) to F_5 is 1; otherwise a root appears
    # first at residue degree 6 times the order of the norm mod 5.
    F = field_for(FieldParams.make(5, 6))
    N = (F.order - 1) // 4
    seen = set()
    for c in range(2, 60):
        norm = F.pow_int(c, N)
        if norm == 1:
            y = F.root_q_minus_1(c)
            assert F.pow_int(y, 4) == c
            assert all(F.coords(y) <= F.coords(F.mul(y, a))
                       for a in range(1, 5))
        else:
            k = next(k for k in range(1, 5) if pow(norm, k, 5) == 1)
            with pytest.raises(NoRootInField) as e:
                F.root_q_minus_1(c)
            assert e.value.required_s == 6 * k
        seen.add(norm)
    assert seen == {1, 2, 3, 4}


def test_root_q_minus_1_failure_notes_cap():
    """The exit names required_s either way, and notes when F_(q^s) at
    that s is beyond the supported cap: -1 has a square root in F_9, but
    a non-square of F_(3^12) has its first in F_(3^24)."""
    with pytest.raises(NoRootInField) as e:
        field_for(FieldParams.make(3, 1)).root_q_minus_1(2)
    assert str(e.value).endswith("s=2 would contain one")
    F = field_for(FieldParams.make(3, 12))
    c = next(c for c in range(2, 30)
             if F.pow_int(c, (F.order - 1) // 2) != 1)
    with pytest.raises(NoRootInField) as e:
        F.root_q_minus_1(c)
    assert e.value.required_s == 24
    assert str(e.value).endswith(
        "s=24 would contain one (q^s = 3^24 exceeds the supported cap 2^20)")


@pytest.mark.parametrize("q,s", [(2, 13), (2, 16), (3, 8), (5, 6), (2, 20)])
def test_frob_matrix_matches_power(q, s):
    """On fields without tables, Frobenius applies an F_p-matrix built
    from the basis images; it equals the power a^(q^(k mod s)) on 0, 1,
    every basis element p^j and 40 seeded elements, for k = 0..s+1."""
    F = field_for(FieldParams.make(q, s))
    assert F.exp_tab is None
    rng = random.Random(30_000 * q + s)
    elems = [0, 1] + [F.p ** j for j in range(F.dim)] + \
        [rng.randrange(F.order) for _ in range(40)]
    for k in range(s + 2):
        for a in elems:
            assert F.frob(a, k) == F.pow_int(a, q ** (k % s)), (k, a)


def test_order_cap_enforced():
    with pytest.raises(ConfigError):
        FieldParams.make(2, 21)
    FieldParams.make(2, 20)  # exactly 2^20 is allowed


def test_canonical_moduli_for_builtin_q():
    # every built-in q constructs, and the modulus is irreducible by fiat
    for q in (2, 3, 4, 5, 7, 8, 9):
        P = FieldParams.make(q)
        assert P.order == q
    assert FieldParams.make(4).modulus == (1, 1, 1)
    assert FieldParams.make(9).modulus == (1, 0, 1)
    assert FieldParams.make(8).modulus == (1, 0, 1, 1)


@pytest.mark.parametrize("q,s", FIELDS)
def test_make_default_moduli_are_canonical(q, s):
    P = FieldParams.make(q, s)
    assert FieldParams.make(q, s) == P
    assert FieldParams._build(q, s) == P  # uncached


@pytest.mark.parametrize("q", [6, 1])
def test_make_bad_q_raises_every_call(q):
    for _ in range(2):
        with pytest.raises(ConfigError):
            FieldParams.make(q)


def test_tables_match_schoolbook():
    # same field with and without tables must agree
    P = FieldParams.make(3, 2)
    F = field_for(P)
    from drinfeld.ff import _ExtLevel, _PrimeLevel
    Lq = _PrimeLevel(3)
    L = _ExtLevel(Lq, P.modulus_s)
    for a in range(9):
        for b in range(9):
            assert F.mul(a, b) == L.mul(a, b)
            assert F.add(a, b) == L.add(a, b)


@pytest.mark.parametrize("q,s", [(3, 1), (5, 1), (9, 1), (3, 4), (9, 2),
                                 (25, 1), (3, 5)])
def test_addition_table_matches_level_add(q, s):
    """The addition table, built digit by digit in base p, against the
    tower's own addition on every pair, for odd-p fields of order <= 512
    (F_{3^4} and F_{9^2} are the same order on different towers)."""
    F = field_for(FieldParams.make(q, s))
    add = F._level.add
    n = F.order
    assert F._addtab == [[add(a, b) for b in range(n)] for a in range(n)]


@pytest.mark.parametrize("q,s", [(3, 1), (5, 1), (9, 1), (3, 4), (9, 2),
                                 (25, 1), (3, 5), (5, 4), (3, 7), (7, 4)])
def test_negation_table_matches_level(q, s):
    """The negation table of an odd-p table field, built digit by digit,
    against the tower's negation on every element, and sub (which reads
    the addition table at (a, -b) on orders <= 512) against the tower's
    subtraction on every pair or, above 512, on seeded ones."""
    F = field_for(FieldParams.make(q, s))
    L, n = F._level, F.order
    assert F._negtab == [L.neg(a) for a in range(n)]
    assert [F.neg(a) for a in range(n)] == F._negtab
    if n <= 512:
        pairs = [(a, b) for a in range(n) for b in range(n)]
    else:
        rng = random.Random(n)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    assert [F.sub(a, b) for a, b in pairs] == [L.sub(a, b) for a, b in pairs]
