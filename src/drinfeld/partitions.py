"""Shadowed partitions.

An r-tuple (S_1, ..., S_r) of subsets of {0, ..., n-1} is a shadowed
partition of n if the shifted copies S_i + j for 1 <= i <= r,
0 <= j <= i-1 partition {0, ..., n-1}; each S_i casts i-1 shadows to its
right and nothing overlaps.  These tuples index the closed forms for the
exponential and logarithm coefficients of a rank-r Drinfeld module, with
S_i recording which Frobenius powers of the i-th coefficient occur.

Sets are stored as bitmasks (bit j <-> j in S_i).  Enumeration is by the
last-element recursion: removing n-i from S_i (for the unique i whose set
contains an element >= n-i... precisely, adjoining n-i to S_i maps
P_r(n-i) into P_r(n), and the images partition P_r(n)).
"""

from collections import deque

from .errors import InvalidInput


def iter_bits(mask):
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ShadowedPartition:
    """One shadowed partition; masks[i-1] is the bitmask of S_i."""

    __slots__ = ("r", "n", "masks")

    def __init__(self, r, n, masks):
        masks = tuple(int(m) for m in masks)
        if len(masks) != r:
            raise InvalidInput("expected %d sets" % r)
        self.r = r
        self.n = n
        self.masks = masks

    @property
    def sets(self):
        return tuple(tuple(j for j in range(self.n) if m >> j & 1)
                     for m in self.masks)

    def is_valid(self):
        """Check the shifted copies S_i + j (0 <= j < i) tile {0..n-1}."""
        full = (1 << self.n) - 1
        seen = 0
        for i, m in enumerate(self.masks, start=1):
            if m < 0 or m >> self.n:
                return False
            for j in range(i):
                cell = m << j
                if cell & seen:
                    return False
                seen |= cell
        return seen == full

    def weights(self, q):
        """w(S_i) = sum of q^j over j in S_i, for each i."""
        return tuple(sum(q ** j for j in range(self.n) if m >> j & 1)
                     for m in self.masks)

    def pair_sums(self):
        """{i + j: count} over the pairs (i, j) with j in S_i: the
        exponents of the factors of the log and deformed-log summands."""
        out = {}
        for i, mask in enumerate(self.masks, start=1):
            for j in iter_bits(mask):
                out[i + j] = out.get(i + j, 0) + 1
        return out

    def union_mask(self):
        out = 0
        for m in self.masks:
            out |= m
        return out

    def __eq__(self, other):
        return (isinstance(other, ShadowedPartition) and self.r == other.r
                and self.n == other.n and self.masks == other.masks)

    def __hash__(self):
        return hash((self.r, self.n, self.masks))

    def __repr__(self):
        return "ShadowedPartition(r=%d, n=%d, sets=%r)" % (self.r, self.n, self.sets)

    def to_json(self, q=None):
        obj = {"n": self.n, "r": self.r,
               "sets": [list(s) for s in self.sets]}
        if q is not None:
            obj["weights"] = list(self.weights(q))
        return obj


def _lex_key(r, n):
    """The flattened membership vector of a mask tuple (bit j of S_1
    first) read as one integer: each mask's n bits reversed, with S_1
    most significant."""
    fmt = "0%db" % n
    def key(masks):
        return int("".join([format(m, fmt)[::-1] for m in masks]), 2)
    return key


def _enumerate_masks(r, n, rows):
    """Mask tuples of P_r(n) whose nonempty sets all have their index in
    rows: level k adjoins k-i to S_i, for i in rows, to each tuple of
    level k-i.  Built bottom up from level 0 = {(0, ..., 0)}, keeping
    only the last r levels, so no depth of n recurses."""
    levels = deque([[(0,) * r]], maxlen=r)
    for k in range(1, n + 1):
        out = []
        for i in range(1, min(r, k) + 1):
            if i not in rows:
                continue
            bit = 1 << (k - i)
            for masks in levels[-i]:
                lst = list(masks)
                lst[i - 1] |= bit
                out.append(tuple(lst))
        levels.append(out)
    return levels[-1]


def enumerate_partitions(r, n, support=None):
    """All shadowed partitions of n into r sets, in lexicographic order of
    the flattened membership vector.  `support` restricts to partitions
    with S_i empty for all i outside it."""
    if r < 1:
        raise InvalidInput("r must be >= 1")
    if n < 0:
        return []
    rows = range(1, r + 1) if support is None else set(support)
    return [ShadowedPartition(r, n, masks)
            for masks in sorted(_enumerate_masks(r, n, rows),
                                key=_lex_key(r, n))]


def count_partitions(r, n):
    """|P_r(n)| via the r-step Fibonacci recurrence: F_0 = 1, F_{<0} = 0,
    F_n = F_{n-1} + ... + F_{n-r}."""
    if r < 1:
        raise InvalidInput("r must be >= 1")
    if n < 0:
        return 0
    f = {0: 1}
    for k in range(1, n + 1):
        f[k] = sum(f.get(k - i, 0) for i in range(1, r + 1))
    return f[n]
