"""Shadowed partitions: enumeration vs. filter oracle, counts, maps."""

import pytest

from drinfeld.partitions import (ShadowedPartition, _enumerate_masks,
                                 count_partitions, enumerate_partitions)
from oracles import partition_lex_key


def enumerate_by_filter(r, n):
    """Oracle: scan all candidate subsets per slot against the defining
    tiling condition, pruning branches whose shadows already overlap.
    Exponential cost."""
    if n < 0:
        return []
    full = (1 << n) - 1
    out = []

    def rec(masks, seen):
        i = len(masks) + 1
        if i > r:
            if seen == full:
                out.append(ShadowedPartition(r, n, masks))
            return
        for m in range(1 << n):
            cells = 0
            ok = True
            for j in range(i):
                cell = m << j
                if cell & (seen | cells) or cell > full:
                    ok = False
                    break
                cells |= cell
            if ok:
                rec(masks + [m], seen | cells)

    rec([], 0)
    out.sort(key=lambda sp: partition_lex_key(r, n)(sp.masks))
    return out


def pi_bijection(i, sp):
    """Shift map P_r(n) -> P_r^i(n+i): add i to every element and put 0
    into S_i.  Images are exactly the partitions whose S_i contains 0."""
    masks = [m << i for m in sp.masks]
    masks[i - 1] |= 1
    return ShadowedPartition(sp.r, sp.n + i, masks)


def psi_injection(i, sp):
    """Last-element map P_r(n) -> P_r(n+i): adjoin n (the new n-i) to S_i.
    Over i = 1..r the images partition the target."""
    masks = list(sp.masks)
    masks[i - 1] |= 1 << sp.n
    return ShadowedPartition(sp.r, sp.n + i, masks)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("n", list(range(0, 7)))
def test_enumeration_matches_filter_oracle(r, n):
    slow = enumerate_by_filter(r, n)
    # every support: none, each subset of the rows (the empty one too),
    # and rows outside 1..r, which select nothing
    supports = [None, (0, r + 1)] + [
        tuple(i for i in range(1, r + 1) if bits >> (i - 1) & 1)
        for bits in range(1 << r)]
    for support in supports:
        fast = enumerate_partitions(r, n, support=support)
        rows = range(1, r + 1) if support is None else support
        want = [sp.masks for sp in slow
                if all(m == 0 for i, m in enumerate(sp.masks, start=1)
                       if i not in rows)]
        assert [sp.masks for sp in fast] == want, support


@pytest.mark.parametrize("r", [2, 3, 4])
def test_enumeration_matches_filter_oracle_n8(r):
    assert ([sp.masks for sp in enumerate_partitions(r, 8)]
            == [sp.masks for sp in enumerate_by_filter(r, 8)])


def test_everything_enumerated_is_valid():
    for r in (1, 2, 3, 4):
        for n in range(0, 12):
            for sp in enumerate_partitions(r, n):
                assert sp.is_valid()


def test_counts_match_multistep_fibonacci():
    # r = 2: Fibonacci 1,1,2,3,5,...; r = 3: tribonacci 1,1,2,4,7,...
    assert [count_partitions(2, n) for n in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert [count_partitions(3, n) for n in range(8)] == [1, 1, 2, 4, 7, 13, 24, 44]
    assert [count_partitions(1, n) for n in range(5)] == [1, 1, 1, 1, 1]
    for r in (1, 2, 3, 4):
        for n in range(0, 15):
            assert count_partitions(r, n) == len(enumerate_partitions(r, n))


def test_base_cases():
    assert enumerate_partitions(3, -2) == []
    assert count_partitions(3, -2) == 0
    only = enumerate_partitions(3, 0)
    assert len(only) == 1 and only[0].masks == (0, 0, 0)


def test_pi_bijection_hits_exactly_the_zero_classes():
    r, n = 3, 7
    target = enumerate_partitions(r, n)
    images = []
    for i in range(1, r + 1):
        for sp in enumerate_partitions(r, n - i):
            im = pi_bijection(i, sp)
            assert im.is_valid() and im.masks[i - 1] & 1
            images.append(im.masks)
    # the P_r^i(n) classes (0 in S_i) partition all of P_r(n)
    assert sorted(images) == sorted(sp.masks for sp in target)
    # and within class i, exactly the partitions with 0 in S_i are hit
    for i in range(1, r + 1):
        cls = {sp.masks for sp in target if sp.masks[i - 1] & 1}
        got = {pi_bijection(i, sp).masks for sp in enumerate_partitions(r, n - i)}
        assert got == cls


def test_psi_images_partition_target():
    r, n = 4, 9
    images = []
    for i in range(1, r + 1):
        for sp in enumerate_partitions(r, n - i):
            im = psi_injection(i, sp)
            assert im.is_valid()
            assert im.masks[i - 1] >> (n - i) & 1
            images.append(im.masks)
    assert sorted(images) == sorted(sp.masks for sp in enumerate_partitions(r, n))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_weight_identity_holds_on_every_member(q):
    for r in (1, 2, 3):
        for n in range(0, 10):
            for sp in enumerate_partitions(r, n):
                lhs = sum((q ** i - 1) * w
                          for i, w in enumerate(sp.weights(q), start=1))
                assert lhs == q ** n - 1


def test_weight_identity_is_not_sufficient_at_small_q():
    # the identity is necessary but (for q = 2) not sufficient: overlapping
    # shadows can rearrange the same digit sum, so validation must use the
    # defining tiling check rather than the weight identity
    sp = ShadowedPartition(2, 5, (0b01010, 0b00111))  # S1={1,3}, S2={0,1,2}
    q = 2
    lhs = sum((q ** i - 1) * w for i, w in enumerate(sp.weights(q), start=1))
    assert lhs == q ** 5 - 1 and not sp.is_valid()


def test_restrict_to_support():
    got = enumerate_partitions(3, 6, support=(3,))
    assert len(got) == 1 and got[0].sets == ((), (), (0, 3))
    # support {1} reduces rank-3 enumeration to the rank-1 (Carlitz) case
    got = enumerate_partitions(3, 5, support=(1,))
    assert len(got) == 1 and got[0].sets[0] == (0, 1, 2, 3, 4)
    # a support of every row changes nothing, and rows outside 1..r
    # select nothing
    assert (enumerate_partitions(2, 6, support=(1, 2))
            == enumerate_partitions(2, 6))
    assert enumerate_partitions(2, 6, support=(0, 3)) == []
    assert enumerate_partitions(2, 0, support=()) == enumerate_partitions(2, 0)


def test_rank2_worked_layout_for_n3():
    # the three rank-2 partitions of n = 3
    got = [sp.sets for sp in enumerate_partitions(2, 3)]
    assert sorted(got) == sorted([
        (((0, 1, 2)), ()),
        ((2,), (0,)),
        ((0,), (1,)),
    ])


def test_lex_order_of_enumeration():
    for r, n in ((2, 5), (3, 6)):
        keys = [tuple((m >> j) & 1 for m in sp.masks for j in range(n))
                for sp in enumerate_partitions(r, n)]
        assert keys == sorted(keys)


def test_integer_lex_key_matches_tuple_order():
    """The one-integer key sorts the enumerated mask tuples as the
    flattened membership tuples do, for r <= 4, n <= 14 and the supports
    all rows, 2..r, {1, r} and {r}."""
    for r in range(1, 5):
        supports = {range(1, r + 1), range(2, r + 1), (1, r), (r,)}
        for n in range(15):
            for rows in supports:
                masks = _enumerate_masks(r, n, set(rows))
                assert ([sp.masks
                         for sp in enumerate_partitions(r, n, rows)]
                        == sorted(masks, key=partition_lex_key(r, n))), \
                    (r, n, rows)
