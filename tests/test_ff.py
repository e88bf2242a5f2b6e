"""Residue field arithmetic: axioms, Frobenius, (q-1)-st roots."""

import random

import pytest

from drinfeld.errors import ConfigError, InvalidElement, NoRootInField
from drinfeld.ff import (FieldParams, field_for, ff_make, ff_pow_q,
                         ff_root_q_minus_1, ResidueElem)

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
        assert F.lex_key(y) == min(F.lex_key(z) for z in all_roots)


def test_root_q_minus_1_failure_names_required_s():
    # -1 is not a square in F_3; s = 2 fixes it
    F = field_for(FieldParams.make(3, 1))
    with pytest.raises(NoRootInField) as e:
        F.root_q_minus_1(2)
    assert e.value.required_s == 2
    F2 = field_for(FieldParams.make(3, 2))
    y = F2.root_q_minus_1(2)
    assert F2.mul(y, y) == 2


def test_ff_make_validates_coords():
    P = FieldParams.make(4)
    with pytest.raises(InvalidElement):
        ff_make(P, (1,))
    with pytest.raises(InvalidElement):
        ff_make(P, (2, 0))
    x = ff_make(P, (1, 1))
    assert x.coords == (1, 1)


def test_residue_elem_ops_and_pow_q():
    P = FieldParams.make(9, 2)
    F = field_for(P)
    a = ResidueElem(F, 7)
    b = ResidueElem(F, 52)
    assert (a + b - b) == a
    assert (a * b / b) == a
    assert ff_pow_q(ff_pow_q(a, 1), -1) == a
    assert ff_pow_q(a, 2) == a  # s = 2: q^2-power Frobenius is the identity
    c = ff_root_q_minus_1(a * a * a * a * a * a * a * a)  # a^8 = (a^4)^{q-1}
    assert c ** 8 == a ** 64


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
    assert FieldParams._build(q, s, None, None) == P  # uncached
    assert FieldParams.make(q, s, P.modulus, P.modulus_s) == P


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
