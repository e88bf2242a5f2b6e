"""Exact arithmetic in the residue fields F_q and F_{q^s}.

Elements are packed integers: an element with F_p-coordinate vector
(c_0, ..., c_{L-1}) relative to the tower basis is stored as
sum(c_k * p**k).  The tower is F_p[x]/(modulus) = F_q, then
F_q[y]/(modulus_s) = F_{q^s}; the flat basis is x^i y^j in the order
i + e*j, so packing nests correctly (p^i * q^j = p^(i+e*j)).

Small fields (order <= 2^12) get exp/log tables relative to a fixed
generator and Frobenius permutation tables; larger fields (capped at
2^20) fall back to schoolbook polynomial arithmetic per operation, and
apply a^(q^k) as one F_p-matrix per k, read off the images of the basis
(`Field.basis_images`).
"""

import json
from collections import namedtuple
from functools import lru_cache, partial
from itertools import product as _iproduct, repeat
from operator import add, mod, mul

from .errors import ConfigError, InvalidElement, NoRootInField

TABLE_MAX = 1 << 12
ORDER_CAP = 1 << 20


def over_cap(q, s):
    """The note an exit naming residue degree s appends when F_{q^s} is
    beyond ORDER_CAP (a rerun there could only be refused), else ''."""
    if q ** s <= ORDER_CAP:
        return ""
    return " (q^s = %d^%d exceeds the supported cap 2^20)" % (q, s)


def _factor(n):
    """Distinct prime factors of n by trial division (n <= 2^20)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class _PrimeLevel:
    __slots__ = ("order", "p")

    def __init__(self, p):
        self.p = p
        self.order = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n):
        if a == 0:
            return 1 if n == 0 else 0
        if self.p == 2:
            return a
        return pow(a, n % (self.p - 1), self.p)


class _ExtLevel:
    """F_B[z]/(mod) over a base level with |base| = B; packed base-B digits."""

    __slots__ = ("base", "mod", "d", "order")

    def __init__(self, base, mod):
        self.base = base
        self.mod = mod
        self.d = len(mod) - 1
        self.order = base.order ** self.d

    def unpack(self, a):
        B = self.base.order
        digs = []
        for _ in range(self.d):
            a, r = divmod(a, B)
            digs.append(r)
        return digs

    def pack(self, digs):
        B = self.base.order
        a = 0
        for c in reversed(digs):
            a = a * B + c
        return a

    def add(self, a, b):
        ba = self.base
        da, db = self.unpack(a), self.unpack(b)
        return self.pack([ba.add(x, y) for x, y in zip(da, db)])

    def sub(self, a, b):
        ba = self.base
        da, db = self.unpack(a), self.unpack(b)
        return self.pack([ba.sub(x, y) for x, y in zip(da, db)])

    def neg(self, a):
        ba = self.base
        return self.pack([ba.neg(x) for x in self.unpack(a)])

    def mul(self, a, b):
        ba = self.base
        d = self.d
        da, db = self.unpack(a), self.unpack(b)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(da):
            if x == 0:
                continue
            for j, y in enumerate(db):
                if y:
                    conv[i + j] = ba.add(conv[i + j], ba.mul(x, y))
        # reduce: z^d = -(mod[0] + ... + mod[d-1] z^(d-1))
        for k in range(2 * d - 2, d - 1, -1):
            c = conv[k]
            if c == 0:
                continue
            conv[k] = 0
            for j in range(d):
                if self.mod[j]:
                    conv[k - d + j] = ba.sub(conv[k - d + j], ba.mul(c, self.mod[j]))
        return self.pack(conv[:d])

    def pow(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.order - 2)


# ---- polynomial helpers over a level or field (modulus searches, residual
# polynomials of torsion) ----


def _pol_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pol_sub(L, f, g):
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = L.sub(out[i], c)
    return _pol_trim(out)


def _pol_mul(L, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x == 0:
            continue
        for j, y in enumerate(g):
            if y:
                out[i + j] = L.add(out[i + j], L.mul(x, y))
    return _pol_trim(out)


def _pol_mod(L, f, g):
    """Remainder of f by a nonzero trimmed g, trimmed."""
    f = list(f)
    dg = len(g) - 1
    ginv = L.inv(g[-1])
    for k in range(len(f) - 1 - dg, -1, -1):
        c = f[k + dg]
        if c:
            c = L.mul(c, ginv)
            for j, y in enumerate(g):
                if y:
                    f[k + j] = L.sub(f[k + j], L.mul(c, y))
    return _pol_trim(f)


def _pol_gcd(L, f, g):
    f, g = list(f), list(g)
    while g:
        f, g = g, _pol_mod(L, f, g)
    if f:
        c = L.inv(f[-1])
        f = [L.mul(c, x) for x in f]
    return f


def _pol_powmod(L, base, n, f):
    r = [1]
    base = _pol_mod(L, list(base), f)
    while n:
        if n & 1:
            r = _pol_mod(L, _pol_mul(L, r, base), f)
        base = _pol_mod(L, _pol_mul(L, base, base), f)
        n >>= 1
    return r


def _is_irreducible(L, mod):
    """Irreducibility of a monic polynomial over the level's field."""
    d = len(mod) - 1
    if d == 1:
        return True
    B = L.order
    x = [0, 1]
    # iterated Frobenius images of x modulo mod
    frob = [x]
    for _ in range(d):
        frob.append(_pol_powmod(L, frob[-1], B, mod))
    if _pol_sub(L, frob[d], x):
        return False
    for ell in _factor(d):
        g = _pol_sub(L, frob[d // ell], x)
        if len(_pol_gcd(L, g, list(mod))) != 1:
            return False
    return True


def _level_lex_key(L, a):
    """Flat F_p coordinate tuple of a packed element, ascending basis order."""
    if isinstance(L, _PrimeLevel):
        return (a,)
    out = []
    for c in L.unpack(a):
        out.extend(_level_lex_key(L.base, c))
    return tuple(out)


def canonical_irreducible(level, d):
    """Lexicographically smallest monic irreducible of degree d over the level.

    Order: coefficient tuples (c_0, ..., c_{d-1}) with each coefficient
    compared by its F_p-coordinate vector.
    """
    elems = sorted(range(level.order), key=lambda a: _level_lex_key(level, a))
    # constant term 0 would make the polynomial divisible by z
    heads = [c for c in elems if c != 0] if d > 1 else elems
    for c0 in heads:
        for rest in _iproduct(elems, repeat=d - 1):
            mod = [c0, *rest, 1]
            if _is_irreducible(level, mod):
                return tuple(mod)
    raise ConfigError("no irreducible polynomial found (impossible)")


class FieldParams(namedtuple("FieldParams", "p e modulus s modulus_s")):
    """Description of F_{q^s}: q = p^e via modulus over F_p, then modulus_s over F_q.
    A named tuple: immutable and hashable without importing dataclasses,
    which costs every process about 5 ms."""

    __slots__ = ()

    @property
    def q(self):
        return self.p ** self.e

    @property
    def order(self):
        return self.q ** self.s

    @staticmethod
    def make(q, s=1):
        """Params for F_{q^s} with the canonical moduli."""
        return _default_params(q, s)

    @staticmethod
    def _build(q, s):
        if q < 2:
            raise ConfigError("q must be a prime power >= 2")
        p = _factor(q)[0]
        e = 0
        qq = q
        while qq > 1 and qq % p == 0:
            qq //= p
            e += 1
        if p ** e != q:
            raise ConfigError("q = %d is not a prime power" % q)
        if s < 1:
            raise ConfigError("s must be >= 1")
        if q ** s > ORDER_CAP:
            raise ConfigError("q^s exceeds the supported cap 2^20")
        Lp = _PrimeLevel(p)
        modulus = canonical_irreducible(Lp, e) if e > 1 else (0, 1)
        Lq = _ExtLevel(Lp, modulus) if e > 1 else Lp
        modulus_s = canonical_irreducible(Lq, s) if s > 1 else (0, 1)
        return FieldParams(p, e, modulus, s, modulus_s)


@lru_cache(maxsize=None)
def _default_params(q, s):
    # the canonical moduli cost a search plus irreducibility tests, and
    # the params are frozen, so one instance per (q, s) is shared;
    # errors are not cached and raise on every call
    return FieldParams._build(q, s)


def _add_table(p, order):
    """Addition table of the packed elements of a field of order p^d.
    Packed elements add digit by digit in base p, so the table of the
    first n * p elements follows from that of the first n, one top digit
    at a time."""
    tab, n = [[0]], 1
    while n < order:
        tab = [[t + n * ((hi + bh) % p) for bh in range(p) for t in row]
               for hi in range(p) for row in tab]
        n *= p
    return tab


def _neg_table(p, order):
    """Negation table of the packed elements of a field of order p^d,
    built one base-p digit at a time like _add_table."""
    tab, n = [0], 1
    while n < order:
        tab = [t + n * (-hi % p) for hi in range(p) for t in tab]
        n *= p
    return tab


class Field:
    """Arithmetic context for F_{q^s} on packed-integer elements."""

    def __init__(self, params: FieldParams):
        self.params = params
        self.p = params.p
        self.e = params.e
        self.q = params.q
        self.s = params.s
        self.order = params.order
        if self.order > ORDER_CAP:
            raise ConfigError("q^s exceeds the supported cap 2^20")
        self.dim = params.e * params.s  # F_p dimension
        Lp = _PrimeLevel(self.p)
        Lq = _ExtLevel(Lp, params.modulus) if self.e > 1 else Lp
        self._level = _ExtLevel(Lq, params.modulus_s) if self.s > 1 else Lq
        self.exp_tab = self.log_tab = None
        self._frob_tabs = None
        self._frob_mats = {}  # k -> a^(q^k) as an F_p-matrix, untabled fields
        self._addtab = self._negtab = None
        self._lanes = None
        # packed element -> its coordinate vector as a list, and that
        # vector's JSON text ("[0, 1]"), each built on first use
        self.coord_rows = _Rows(self._coord_row)
        self.row_texts = _Rows(self._row_text)
        if self.order <= TABLE_MAX:
            self._build_tables()

    # -- table construction --

    def _build_tables(self):
        L = self._level
        n = self.order - 1
        primes = _factor(n)
        g = None
        for cand in range(2, self.order):
            if all(L.pow(cand, n // ell) != 1 for ell in primes):
                g = cand
                break
        if g is None:  # order == 2
            g = 1
        exp = [1] * n
        for i in range(1, n):
            exp[i] = L.mul(exp[i - 1], g)
        log = [0] * self.order
        for i, a in enumerate(exp):
            log[a] = i
        # exp_tab holds the cycle twice, so a sum of two logs indexes it
        # without a reduction mod n
        self.exp_tab, self.log_tab = exp + exp, log
        self._frob_tabs = {}
        q = self.q
        for k in range(1, self.s):
            step = pow(q, k, n) if n > 1 else 0
            tab = [0] * self.order
            for i, a in enumerate(exp):
                tab[a] = exp[(i * step) % n] if n > 1 else a
            self._frob_tabs[k] = tab
        if self.p != 2:
            self._negtab = _neg_table(self.p, self.order)
            if self.order <= 512:
                self._addtab = _add_table(self.p, self.order)

    @property
    def lanes(self):
        """The Kronecker lane layout of this field (built on first use)."""
        if self._lanes is None:
            self._lanes = Lanes(self)
        return self._lanes

    # -- scalar operations --

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self._addtab is not None:
            return self._addtab[a][b]
        return self._level.add(a, b)

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        if self._addtab is not None:
            return self._addtab[a][self._negtab[b]]
        return self._level.sub(a, b)

    def neg(self, a):
        if self.p == 2:
            return a
        if self._negtab is not None:
            return self._negtab[a]
        return self._level.neg(a)

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self.exp_tab is not None:
            return self.exp_tab[self.log_tab[a] + self.log_tab[b]]
        return self._level.mul(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_{q^s}")
        if self.exp_tab is not None:
            return self.exp_tab[self.order - 1 - self.log_tab[a]]
        return self._level.inv(a)

    def pow_int(self, a, n):
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("inverse of 0 in F_{q^s}")
            return 0
        if self.exp_tab is not None:
            return self.exp_tab[(self.log_tab[a] * n) % (self.order - 1)]
        return self._level.pow(a, n % (self.order - 1))

    def frob(self, a, k=1):
        """a -> a^(q^k) for k >= 0; k is reduced mod s."""
        k %= self.s
        if k == 0 or a == 0 or a == 1:
            return a
        if self._frob_tabs is not None:
            return self._frob_tabs[k][a]
        mat = self._frob_mats.get(k)
        if mat is None:
            n = pow(self.q, k, self.order - 1)
            mat = self._frob_mats[k] = _matrix(
                self, self.basis_images(lambda b: self.pow_int(b, n)))
        return mat(a)

    def basis_images(self, f):
        """The images f(p^k), k < dim, of the F_p-basis (the packed
        elements p^k) under an F_p-linear map f of the field; they fix f,
        as f(a) = sum c_k f(p^k) over the coordinates c of a."""
        return [f(self.p ** k) for k in range(self.dim)]

    def int_scalar(self, k):
        """Image of the integer k in the prime field."""
        return k % self.p

    def _coord_row(self, a):
        return list(self.coords(a))

    def _row_text(self, a):
        return json.dumps(self.coord_rows[a])

    def coords(self, a):
        """Flat F_p coordinate vector, ascending basis order."""
        if not 0 <= a < self.order:
            raise InvalidElement("packed element out of range")
        out = []
        for _ in range(self.dim):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def element(self, coords):
        coords = list(coords)
        if len(coords) != self.dim:
            raise InvalidElement(
                "coordinate vector must have length %d" % self.dim)
        if any(not (0 <= c < self.p) for c in coords):
            raise InvalidElement("coordinates must lie in [0, p)")
        a = 0
        for c in reversed(coords):
            a = a * self.p + c
        return a

    def in_base(self, a):
        """Whether a lies in F_q (fixed by the q-power Frobenius)."""
        return self.frob(a, 1) == a

    def root_q_minus_1(self, c):
        """A y with y^(q-1) = c: c itself when q = 2 or c is 0 or 1, else
        the lexicographically smallest root.

        y^(q-1) = frob(y)/y, so by Hilbert 90 a root exists iff the norm
        c^((q^s-1)/(q-1)) to F_q is 1, and then 1/b(a) is one, where
        b(a) = sum_{j<s} c frob(c) ... frob^(j-1)(c) frob^j(a).  b is
        F_q-linear and not identically 0, so it is nonzero at some
        element q^j (packed) of the F_q-basis.  The roots are that one
        times F_q^x, the packed ints 1..q-1."""
        q = self.q
        if q == 2 or c == 0 or c == 1:
            return c
        norm = self.pow_int(c, (self.order - 1) // (q - 1))
        if norm != 1:
            k, unit = 1, norm
            while unit != 1:
                k, unit = k + 1, self.mul(unit, norm)
            raise NoRootInField(
                "no (q-1)-st root in F_{q^s}; residue degree s=%d would "
                "contain one%s" % (self.s * k, over_cap(q, self.s * k)),
                required_s=self.s * k)

        def b(a):
            out, prod = 0, 1
            for j in range(self.s):
                out = self.add(out, self.mul(prod, self.frob(a, j)))
                prod = self.mul(prod, self.frob(c, j))
            return out

        y = self.inv(next(v for v in (b(q ** j) for j in range(self.s)) if v))
        return min((self.mul(y, a) for a in range(1, q)), key=self.coords)


def _matrix(field, images):
    """The F_p-linear map with the given basis images, as a function of
    packed elements.  In characteristic 2 a packed element is its own
    coordinate bit vector, so its image is the XOR of the images at its
    set bits.  Otherwise each image's coordinates ride in one integer,
    one lane each, wide enough to hold a sum of dim products of two
    digits below p; the image is the lanes' sum weighted by the digits
    of the element, each lane reduced mod p."""
    if field.p == 2:
        def apply(a):
            out, k = 0, 0
            while a:
                if a & 1:
                    out ^= images[k]
                a >>= 1
                k += 1
            return out
        return apply
    p, dim = field.p, field.dim
    width = ((p - 1) ** 2 * dim).bit_length()
    mask = (1 << width) - 1
    shifts = [width * j for j in reversed(range(dim))]
    rows = [sum(c << (width * j) for j, c in enumerate(field.coords(v)))
            for v in images]

    def apply(a):
        acc = 0
        for row in rows:
            a, c = divmod(a, p)
            if c:
                acc += c * row
        out = 0
        for sh in shifts:
            out = out * p + (acc >> sh & mask) % p
        return out
    return apply


class _Rows(dict):
    """A table of packed element -> make(element), built on first use.
    The values are shared; callers must not mutate them."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, a):
        row = self[a] = self.make(a)
        return row


# memoryview format of a lane, by its width in bytes
_LANE_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}
# slots joined at a time when packing: bytes.join keeps an 80-byte buffer
# record per part, so one join over a wide window would cost ten times
# the packed bytes
JOIN_RUN = 4096


class Lanes:
    """Kronecker layout of F_{q^s}: how elements ride in one big integer.

    A slot holds one element spread over (2e-1)(2s-1) lanes: its F_p
    coordinate at x^i y^j sits in lane i + (2e-1) j.  The integer product
    of two such slots is then the product of the two elements in
    Z[x, y], unreduced, one coefficient per lane, so a single bigint
    multiply of two rows of slots computes every coordinate product of a
    polynomial product at once.  Lanes are 1, 2, 4 or 8 bytes wide (the
    widths memoryview.cast reads), wide enough that no sum spills into
    the next lane; unpacking reduces each lane mod p and maps the lane
    vector back to a packed element through lookup tables.
    """

    def __init__(self, field):
        e, s = field.e, field.s
        self.field = field
        self.count = (2 * e - 1) * (2 * s - 1)
        # lane of the flat coordinate k = i + e j
        self._lane = [k % e + (2 * e - 1) * (k // e) for k in range(field.dim)]
        # in characteristic 2 with one lookup table, unpacking gathers
        # each slot's bits into one lane (see unpack)
        self._gather = field.p == 2 and 1 < self.count and \
            2 ** self.count <= TABLE_MAX
        self._spread_tabs = {}
        self._tables = None

    def width(self, terms):
        """Lane width in bytes for a product in which no slot sums more
        than `terms` products of elements.  A lane of such a sum is at
        most terms * dim * (p-1)^2, which stays below 2^64 while
        terms < 2^24 (p <= 2^20 in a field of order <= 2^20).  When
        unpacking gathers, a lane must also hold a slot's count bits."""
        f = self.field
        bits = ((f.p - 1) ** 2 * f.dim * terms).bit_length()
        if self._gather:
            bits = max(bits, self.count)
        return next((w for w in (1, 2, 4) if bits <= 8 * w), 8)

    def _spread(self, c, width):
        """Slot bytes of the packed element c."""
        p = self.field.p
        v = 0
        for lane in self._lane:
            c, d = divmod(c, p)
            v |= d << (8 * width * lane)
        return v.to_bytes(self.count * width, "little")

    def pack(self, terms, offset, n, width):
        """The integer whose slot k holds terms[offset + k], for k < n;
        terms at or beyond slot n are left out.  Slot bytes come from a
        table per width on fields of order <= TABLE_MAX, and are joined
        JOIN_RUN slots at a time."""
        order = self.field.order
        tab = self._spread_tabs.get(width)
        if tab is None and order <= TABLE_MAX:
            tab = self._spread_tabs[width] = [self._spread(c, width)
                                              for c in range(order)]
        spread = tab.__getitem__ if tab else partial(self._spread, width=width)
        top = min(n, max(terms) - offset + 1)
        slots = [bytes(self.count * width)] * top
        for e, c in terms.items():
            k = e - offset
            if k < top:
                slots[k] = spread(c)
        if top > JOIN_RUN:
            slots = [b"".join(slots[i:i + JOIN_RUN])
                     for i in range(0, top, JOIN_RUN)]
        return int.from_bytes(b"".join(slots), "little")

    def _lane_tables(self):
        """[(lanes, table)]: the lanes split into runs of at most
        log_p(TABLE_MAX) lanes; a run's lane values mod p, read as base-p
        digits (lowest lane first), index its table of packed elements.
        The element in a slot is the sum of its runs' table entries."""
        if self._tables is None:
            f = self.field
            p, e = f.p, f.e
            x, y = p, p ** e  # the packed elements x and y

            def monomial(lane):
                i, j = lane % (2 * e - 1), lane // (2 * e - 1)
                return f.mul(f.pow_int(x, i) if i else 1,
                             f.pow_int(y, j) if j else 1)

            run = 1
            while p ** (run + 1) <= TABLE_MAX:
                run += 1
            self._tables = []
            for start in range(0, self.count, run):
                lanes = range(start, min(start + run, self.count))
                tab = [0]
                for lane in reversed(lanes):
                    img = monomial(lane)
                    mults = [f.mul(d, img) for d in range(p)]
                    tab = [f.add(t, v) for t in tab for v in mults]
                self._tables.append((lanes, tab))
        return self._tables

    def unpack(self, prod, n, width):
        """The packed elements in slots 0..n-1 of a product of two packed
        integers (zeros included)."""
        f = self.field
        p, count = f.p, self.count
        size = n * count * width
        if self._gather:
            # Keep the low bit of every lane (the lane mod 2); then one
            # multiply moves bit k of each slot to bit k of the slot's top
            # lane, without carries and without touching other top lanes.
            prod &= int.from_bytes((b"\1" + bytes(width - 1)) * (n * count),
                                   "little")
            prod *= sum(1 << ((count - 1 - k) * 8 * width + k)
                        for k in range(count))
        buf = prod.to_bytes(max(size, (prod.bit_length() + 7) // 8), "little")
        lanes = memoryview(buf)[:size].cast(_LANE_FORMAT[width])
        if self._gather:
            (_, tab), = self._lane_tables()
            return list(map(tab.__getitem__, lanes[count - 1::count]))
        digits = list(map(mod, lanes, repeat(p)))
        if count == 1:
            return digits
        out = None
        for run, tab in self._lane_tables():
            idx = digits[run[-1]::count]
            for lane in reversed(run[:-1]):
                idx = map(add, map(mul, idx, repeat(p)), digits[lane::count])
            vals = list(map(tab.__getitem__, idx))
            out = vals if out is None else list(map(f.add, out, vals))
        return out


@lru_cache(maxsize=None)
def _field_for(params):
    return Field(params)


def field_for(params):
    """Shared Field instance for the given FieldParams."""
    if isinstance(params, Field):
        return params
    return _field_for(params)
