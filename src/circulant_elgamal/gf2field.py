"""GF(2^n) arithmetic and polynomial machinery over it.

Base-field elements are plain ints: bit i is the coefficient of t^i, so
the n-bit value fully describes the residue mod the field polynomial.
A polynomial over the field is its packed row: one int holding its
coefficients, lowest degree first, in the slots of the kernel below.

Products over the field run on one kernel, `_Ring`: rows of
F_q[x]/(x^d - 1) packed into one int, multiplied with one carry-less
product and reduced mod the field polynomial by one Barrett step. At
d = 1 it is GF(2^n) itself, which every field multiplies and squares
on, and at d = deg(ab) + 1 its fold never wraps, so it is the plain
product of `Poly` a and b (Kronecker substitution); a row of k terms
squares on 2k - 1 slots the same way. One long-division loop,
`_divider`, keeps the remainder packed and subtracts one kernel product
of the divisor a step; `Poly` division and every reduction mod tau run
on it. Field inverses and the modulus test's gcds run on `_pinvert`,
the binary algorithm over GF(2)[t]. Set-up computes in F_q[x]/tau on
packed rows only: the irreducibility test runs on Berlekamp's Q-matrix,
x^(q^j) mod p by matrix-vector products over F_q whose columns are
kernel rows, and `primitive_poly` keeps an irreducible tau when
x^(N/p) != 1 mod tau for every prime p of N = q^deg(tau) - 1, each
power a product of the Q-matrix's x^(q^j) raised to the base-q digits
of N/p; when the budget cannot factor N completely, it keeps the first
irreducible draw unverified. The circulant ring of `circulant` is the
same kernel at the matrix size d.
"""

from __future__ import annotations

import random
import sys
from collections import OrderedDict
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .numtheory import (
    DEFAULT_BUDGET,
    Factorization,
    _prime_divisors,
    factor,
)

MAX_FIELD_BITS = 128


class ZeroInverse(ZeroDivisionError):
    pass


class SpecMismatch(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# GF(2)[t] on bare ints (bit i <-> t^i)

def _pdeg(a: int) -> int:
    return a.bit_length() - 1


def _pmod(a: int, b: int) -> int:
    db = _pdeg(b)
    da = _pdeg(a)
    while da >= db:
        a ^= b << (da - db)
        da = _pdeg(a)
    return a


def _pdivmod(a: int, b: int) -> tuple[int, int]:
    db = _pdeg(b)
    q = 0
    da = _pdeg(a)
    while da >= db:
        q ^= 1 << (da - db)
        a ^= b << (da - db)
        da = _pdeg(a)
    return q, a


def _pinvert(a: int, m: int) -> int:
    # a^-1 mod m in GF(2)[t], or 0 when gcd(a, m) != 1 (u then ends at 0),
    # by the binary algorithm (Hankerson, Menezes and Vanstone, Alg. 2.49):
    # g1 a = u and g2 a = v mod m, and a swap puts each sum in u, so v stays
    # odd. Halving g1 needs m(0) = 1: every caller's m is odd, or is t at
    # n = 1, where u = a mod t is 0 or 1 and nothing halves.
    u, v, g1, g2 = _pmod(a, m), m, 1, 0
    while u > 1:
        if not u & 1:
            u, g1 = u >> 1, (g1 ^ m if g1 & 1 else g1) >> 1
            continue
        if u.bit_length() < v.bit_length():
            u, v, g1, g2 = v, u, g2, g1
        u, g1 = u ^ v, g1 ^ g2
    return g1 if u == 1 else 0


def _pirreducible(f: int) -> bool:
    """Distinct-degree irreducibility test over GF(2).

    One chain of n squarings gives t^(2^j) mod f for j = 1 .. n; f is
    irreducible when t^(2^n) = t and gcd(t^(2^(n/r)) - t, f) = 1 for
    every prime r dividing n.
    """
    n = _pdeg(f)
    if n <= 0:
        return False
    if f & 1 == 0:
        return f == 0b10  # t divides f
    if f.bit_count() % 2 == 0:
        return f == 0b11  # f(1) = 0: t + 1 divides f
    x = r = _pmod(0b10, f)
    keep = dict.fromkeys(n // p for p in _prime_divisors(n))
    for j in range(1, n + 1):
        r = _pmod(int(format(r, "b"), 4), f)  # bit i to bit 2i squares r
        if j in keep:
            keep[j] = r
    return r == x and all(_pinvert(v ^ x, f) != 0 for v in keep.values())


# ---------------------------------------------------------------------------
# field specification

class FieldSpec:
    """GF(2^n) with a fixed irreducible modulus.

    An element is its int, 0 .. 2^n - 1, and ``check`` is that rule.
    Instances compare equal iff (n, modulus) match. Products and squares
    run on the packed kernel at d = 1, inverses on the binary algorithm of
    `_pinvert`.
    """

    __slots__ = ("n", "modulus", "order", "_ring")

    def __init__(self, n: int, modulus: int):
        if not 1 <= n <= MAX_FIELD_BITS:
            raise ValueError(f"n must be in [1, {MAX_FIELD_BITS}], got {n}")
        # a negative modulus has the right bit length, but _pmod never ends on it
        if modulus < 0 or _pdeg(modulus) != n or not _pirreducible(modulus):
            raise ValueError(
                f"modulus {modulus:#b} is not an irreducible degree-{n} polynomial"
            )
        self.n = n
        self.modulus = modulus
        self.order = (1 << n) - 1
        self._ring = _Ring(self, 1)

    # -- raw int kernels ----------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return self._ring.product(a, b)

    def square(self, a: int) -> int:
        return self._ring.square(a)

    def inv(self, a: int) -> int:
        u = _pinvert(a, self.modulus)
        if not u:
            raise ZeroInverse(f"{a} has no inverse")
        return u

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.square(a)
            e >>= 1
        return r

    def rand(self, rng: random.Random) -> int:
        return rng.getrandbits(self.n)

    def check(self, values: Iterable[int]) -> tuple[int, ...]:
        """The values as a tuple; ValueError unless each is an element."""
        values = tuple(values)
        for x in values:
            if not 0 <= x <= self.order:
                raise ValueError(f"value {x:#x} out of range for GF(2^{self.n})")
        return values

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.n, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(n={self.n}, modulus={self.modulus:#x})"


@lru_cache(maxsize=None)
def field_make(n: int) -> FieldSpec:
    """GF(2^n) with the lexicographically smallest irreducible modulus.

    Candidates have the constant term set, so n=1 yields t+1 (0b11),
    n=3 yields t^3+t+1 (0b1011), n=8 yields 0x11b.
    """
    if not 1 <= n <= MAX_FIELD_BITS:
        raise ValueError(f"n must be in [1, {MAX_FIELD_BITS}], got {n}")
    cand = (1 << n) | 1
    while True:
        if _pirreducible(cand):
            return FieldSpec(n, cand)
        cand += 2


# ---------------------------------------------------------------------------
# polynomials over GF(2^n)

class Poly:
    """Polynomial over a FieldSpec, held as its packed row.

    Coefficient i (an int) multiplies x^i and sits in slot i of ``row``,
    w = 2n - 1 bits wide (`_Ring.width`): the layout of a circulant row,
    so every product, square and division hands the row to the kernel as
    it is. Each slot holds a coefficient below 2^n, so the top set bit
    gives the degree, and the zero polynomial is row 0. Equal and hashed
    by (row, spec); never equal to another class.
    """

    __slots__ = ("row", "spec")

    def __init__(self, row: int, spec: FieldSpec):
        self.row = row
        self.spec = spec

    def __eq__(self, other):
        if other.__class__ is not Poly:
            return NotImplemented
        return self.row == other.row and self.spec == other.spec

    def __hash__(self) -> int:
        return hash((self.row, self.spec))

    @classmethod
    def make(cls, spec: FieldSpec, coeffs: Iterable[int]) -> "Poly":
        # pack reads only the slot width
        return cls(spec._ring.pack(spec.check(coeffs)), spec)

    @classmethod
    def x(cls, spec: FieldSpec) -> "Poly":
        return cls(1 << spec._ring.width, spec)

    @classmethod
    def const(cls, spec: FieldSpec, v: int) -> "Poly":
        return cls.make(spec, (v,))

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficients, lowest degree first, unpacked on each read."""
        w, mask = self.spec._ring.width, self.spec.order
        return tuple(self.row >> k * w & mask for k in range(self.degree + 1))

    @property
    def degree(self) -> int:
        # -1 for the zero polynomial
        return (self.row.bit_length() - 1) // self.spec._ring.width

    def is_zero(self) -> bool:
        return not self.row

    def leading(self) -> int:
        if not self.row:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.row >> self.degree * self.spec._ring.width

    def is_monic(self) -> bool:
        return bool(self.row) and self.leading() == 1

    def _same(self, other: "Poly") -> None:
        if self.spec != other.spec:
            raise SpecMismatch("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._same(other)
        return Poly(self.row ^ other.row, self.spec)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same(other)
        if self.is_zero() or other.is_zero():
            return Poly(0, self.spec)
        # d = deg(ab) + 1, so the x^d - 1 fold never wraps
        ring = _ring(self.spec, self.degree + other.degree + 1)
        return Poly(ring.product(self.row, other.row), self.spec)

    def scale(self, c: int) -> "Poly":
        if self.is_zero():
            return self
        return Poly(_ring(self.spec, self.degree + 1).product(self.row, c), self.spec)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._same(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divider(other)(self.row)
        return Poly(q, self.spec), Poly(r, self.spec)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.spec.inv(self.leading()))

    def evaluate(self, a: int) -> int:
        spec = self.spec
        acc = 0
        for c in reversed(self.coeffs):
            acc = spec.mul(acc, a) ^ c
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c:#x}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + f", GF(2^{self.spec.n}))"


# ---------------------------------------------------------------------------
# packed-row kernel for F_q[x]/(x^d - 1)

class _Ring:
    """Rows of F_q[x]/(x^d - 1) packed into one int (Kronecker substitution).

    Coefficient c_k sits in slot k, bits k*w .. k*w + w - 1, with
    w = 2n - 1: wide enough for the carry-less product of two
    coefficients, so one carry-less product of packed rows forms every
    a_i b_j in slot i + j with no slot spilling into the next. x^d = 1
    folds slot k + d onto slot k, and one Barrett step reduces all d
    slots mod f(t) = t^n + g(t) at once. With mu = t^(2n - 2) div f =
    t^(n - 2) + (lower terms t^i), the quotient of a slot r = H t^n +
    (low part) by f is exactly (H mu) div t^(n - 2): H plus H div
    t^(n - 2 - i) for each lower term. The remainder is the low n bits
    of r + (quotient) g. Each product by a constant is one shift and XOR
    per term of it, and no slot spills, so one routine serves a sparse
    and a dense modulus alike.
    """

    # `power` keeps its KEPT_BASES latest bases and the wide table of each one
    # seen twice, which `_plan` fits in KEPT_BYTES / KEPT_BASES
    KEPT_BASES, KEPT_BYTES = 4, 2 << 20

    def __init__(self, spec: FieldSpec, d: int):
        n = spec.n
        w = 2 * n - 1
        self.spec, self.n, self.d, self.width = spec, n, d, w
        self.row_bits = d * w
        self.row = (1 << self.row_bits) - 1
        self.ones = self.row // ((1 << w) - 1)  # bit 0 of every slot
        self.low = self.ones * ((1 << n) - 1)  # the n low bits of every slot
        self.high = self.ones * ((1 << n - 1) - 1)  # n - 1 low bits, for H
        mu = _pdivmod(1 << 2 * n - 2, spec.modulus)[0]
        self.mu_shifts = tuple(n - 2 - i for i in range(n - 2) if mu >> i & 1)
        self.g_terms = tuple(i for i in range(n) if spec.modulus >> i & 1)
        self.kept = OrderedDict()  # row -> its wide table, [] once seen once

    def pack(self, coeffs: Sequence[int]) -> int:
        r, w = 0, self.width
        for c in reversed(coeffs):
            r = (r << w) | c
        return r

    def unpack(self, r: int) -> list[int]:
        w, mask = self.width, (1 << self.n) - 1
        return [(r >> (k * w)) & mask for k in range(self.d)]

    def reduce(self, r: int) -> int:
        """Packed carry-less product (slots 0 .. 2d - 2) to a packed row."""
        r = (r & self.row) ^ (r >> self.row_bits)
        h = r >> self.n & self.high
        quot = h
        for k in self.mu_shifts:
            quot ^= h >> k
        quot &= self.high
        for i in self.g_terms:
            r ^= quot << i
        return r & self.low

    @staticmethod
    def window(a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Carry-less multiples of a by a nibble k: lo[k] = a k, hi[k] = (a k) << 4."""
        a2, a4, a8 = a << 1, a << 2, a << 3
        a3, a6, a10, a12 = a2 ^ a, a4 ^ a2, a8 ^ a2, a8 ^ a4
        lo = (0, a, a2, a3, a4, a4 ^ a, a6, a6 ^ a,
              a8, a8 ^ a, a10, a10 ^ a, a12, a12 ^ a, a12 ^ a2, a12 ^ a3)
        return lo, tuple([v << 4 for v in lo])

    def mul(self, table: tuple[tuple[int, ...], tuple[int, ...]], b: int) -> int:
        """Product of the row behind ``table`` with b, 8 bits of b a step:
        a byte v of b adds lo[v & 15] ^ hi[v >> 4], shifted to its place."""
        lo, hi = table
        acc = shift = 0
        for byte in b.to_bytes((b.bit_length() + 7) // 8, "little"):
            if byte:
                acc ^= (lo[byte & 15] ^ hi[byte >> 4]) << shift
            shift += 8
        return self.reduce(acc)

    def product(self, a: int, b: int) -> int:
        return self.mul(self.window(a), b)

    def square(self, a: int) -> int:
        # bit i to bit 2i squares every coefficient and doubles every slot
        # index at once (the squaring theorem)
        return self.reduce(int(format(a, "b"), 4))

    def frobenius(self, a: int, j: int) -> int:
        """a^(q^j), q = 2^n: slot k goes to slot k q^j mod d, no reduction.

        Raising to q is additive in characteristic 2 and fixes every
        coefficient of F_q, so it only moves slots, for every d;
        coefficients that land on one slot add (for odd d none do).
        """
        d, w, mask = self.d, self.width, (1 << self.n) - 1
        e = pow(2, self.n * j, d)
        if e == 1 % d:  # the identity map, always so for d = 1
            return a
        r = 0
        for k in range(d):
            r ^= (a >> k * w & mask) << k * e % d * w
        return r

    def power(self, a: int, m: int) -> int:
        """a^m, m >= 1, in one pass over the base-q^t digits of m.

        With sigma(y) = y^q, a^m = prod_i sigma^(ti)(a)^(m_i) for the k
        digits m_i of m in base q^t, and every sigma^j is a free slot map
        (`frobenius`). The digits are taken g at a time: one table holds
        the product of every subset of the first g bases, and block G's
        table is its sigma^(tgG) image; entries are made as they come
        into use. The pass runs over the nt bit positions once, with one
        squaring per position shared by all digits and at most one table
        product per block. With t = ceil(bits / n) and g = 1 this is
        plain square and multiply.

        A base seen for the first time runs `_plan`'s cold pick on a table
        made for this call, and only its row is kept (see `KEPT_BASES`); a
        base seen again runs the wide pick on the one table it keeps, which
        `_plan` bounds. Windows are made per call.
        """
        cold, wide = _plan(self.n, self.d)
        rec = self.kept.pop(a, None)  # None on first sight, [] on the second
        t, g = cold if rec is None else wide
        entries = rec or [None] * (1 << g)  # entries[S], S a subset of bases
        self.kept[a] = [] if rec is None else entries  # now the most recently used
        if len(self.kept) > self.KEPT_BASES:
            self.kept.popitem(last=False)

        span = self.n * t
        digits = [m >> s & (1 << span) - 1 for s in range(0, m.bit_length(), span)]
        k, top = len(digits), max(digits).bit_length()
        frob, wins = self.frobenius, {}

        def entry(S: int) -> int:
            """Product of the bases sigma^(tj)(a) with bit j set in S."""
            e = entries[S]
            if e is None:
                j = S.bit_length() - 1  # the top base times the rest
                rest = S ^ 1 << j
                e = self.mul(window(0, 1 << j), entry(rest)) if rest else frob(a, t * j)
                entries[S] = e
            return e

        def window(G: int, S: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
            """Window of entry S of block G's table, the sigma^(tgG) image."""
            win = wins.get((G, S))
            if win is None:
                win = wins[G, S] = self.window(frob(entry(S), t * g * G))
            return win

        # one column per bit position, with digit i's bit at bit i
        rows = [format(y, f"0{top}b") for y in reversed(digits)]
        square, mul, steps = self.square, self.mul, {}
        blocks = list(enumerate(range(0, k, g)))
        r = None
        for col in map("".join, zip(*rows)):
            ws = steps.get(col)
            if ws is None:
                # one table entry for each block with a bit set here
                bits = int(col, 2)
                ws = steps[col] = [
                    window(G, bits >> i & (1 << g) - 1)
                    for G, i in blocks
                    if bits >> i & (1 << g) - 1
                ]
            if r is None:
                r, ws = ws[0][0][1], ws[1:]  # a window's lo[1] is its row
            else:
                r = square(r)
            for win in ws:
                r = mul(win, r)
        del entry, window  # a reference cycle: free the windows now, not at gc
        return r


@lru_cache(maxsize=64)
def _plan(n: int, d: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Plans (t, g) for `_Ring.power` on the group's n max(d - 1, 1)-bit
    exponents by a model of the kernel's costs: the cold pick and the wide
    pick. Longer exponents run more blocks under the same plan.

    A plan runs squares, table products, windows and slot permutations,
    and builds 2^g - 1 - g subset products. The cold pick (g <= 8) has the
    cheapest run plus build, for a base seen once; the wide pick the
    cheapest run, with 2^g entries in `_Ring.KEPT_BYTES / KEPT_BASES`, for
    a base that comes back and keeps its table: the one bound on what
    `power` keeps. The costs fit the hex-digit kernel's timings (n = 3 ..
    128, d = 3 .. 37, row length L); only their ratios matter.
    """
    L = d * (2 * n - 1)
    red = 0.8 + L / 2500
    sq = 0.7 + red + L / 350
    mul = 1.1 + red + L / 55 + L * L / 170000
    perm, win, step = 0.5 + 0.25 * d, 1.2 + L / 6000, 0.2
    slots = _Ring.KEPT_BYTES // _Ring.KEPT_BASES // (8 + sys.getsizeof((1 << L) - 1))
    widest = max(slots.bit_length() - 1, 1)
    digits, cold, wide = max(d - 1, 1), None, None
    for t in range(1, digits + 1):
        span, k = n * t, -(-digits // t)
        for g in range(1, min(k, max(8, widest)) + 1):
            build = mul * ((1 << g) - 1 - g) + (perm + win) * g
            run = sq * (span - 1)
            for i in range(0, k, g):
                # a block of h digits multiplies at all but 2^-h of the
                # positions; each of its entries in use costs a window and,
                # past the first block, a permutation
                h = min(g, k - i)
                p = 0.5 ** h
                used = ((1 << h) - 1) * (1 - (1 - p) ** span)
                run += (step + mul * (1 - p)) * span + (win + perm * (i > 0)) * used
            if g <= 8 and (cold is None or build + run < cold[0]):
                cold = (build + run, (t, g))
            if g <= widest and (wide is None or run < wide[0]):
                wide = (run, (t, g))
    return cold[1], wide[1]


@lru_cache(maxsize=64)
def _ring(spec: FieldSpec, d: int) -> _Ring:
    return _Ring(spec, d)


def _divider(b: Poly) -> Callable[[int], tuple[int, int]]:
    """Long division by b != 0 on packed rows, the layout of `Poly.row`.

    The returned function maps a row of any length to its packed quotient
    and packed remainder. b's window and lead inverse are made once, and
    each step subtracts one kernel product of b.
    """
    spec, db = b.spec, b.degree
    sub = _ring(spec, db + 1)
    win, w, mask = sub.window(b.row), sub.width, (1 << spec.n) - 1
    lead = b.leading()
    inv_lead = spec.inv(lead) if lead != 1 else None

    def divide(rem: int) -> tuple[int, int]:
        q = 0
        for k in range((rem.bit_length() - 1) // w, db - 1, -1):
            q <<= w
            c = rem >> k * w & mask
            if c:
                f = c if inv_lead is None else spec.mul(c, inv_lead)
                q |= f
                # f b fills the db + 1 slots of sub, so its fold never wraps
                rem ^= sub.mul(win, f) << (k - db) * w
        return q, rem

    return divide


def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Monic g = gcd(a, b) and the Bezout coefficient u of a, with
    u*a = g mod b; b's coefficient is not computed."""
    a._same(b)
    spec = a.spec
    r0, r1 = a, b
    s0, s1 = Poly.const(spec, 1), Poly(0, spec)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 + q * s1
    if r0.is_zero():
        return r0, s0
    c = spec.inv(r0.leading())
    return r0.scale(c), s0.scale(c)


def poly_mod_mul(a: Poly, b: Poly, tau: Poly) -> Poly:
    return (a * b) % tau


def poly_mod_pow(a: Poly, e: int, tau: Poly) -> Poly:
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    r = Poly.const(tau.spec, 1)
    a = a % tau
    while e:
        if e & 1:
            r = poly_mod_mul(r, a, tau)
        a = poly_mod_mul(a, a, tau)
        e >>= 1
    return r


def frobenius(a: Poly, tau: Poly) -> Poly:
    """a^q mod tau, q = 2^n."""
    return poly_mod_pow(a, 1 << tau.spec.n, tau)


@lru_cache(maxsize=1)
def _frobenius_orbit(p: Poly) -> tuple[int, ...]:
    """x^(q^j) mod p for j = 0 .. k, k = deg(p) >= 1, p monic, q = 2^n,
    as rows packed by `_ring(spec, k)`.

    Products and squares run on the kernel at 2k - 1 slots, where the
    fold never wraps, and `_divider(p)` reduces them: x^q is n squarings
    of x, and k - 2 products give the columns (x^q)^i of Berlekamp's
    Q-matrix. In F_q[x]/p, (sum y_i x^i)^q = sum y_i (x^q)^i, so each next
    x^(q^j) is one matrix-vector product over F_q on the packed kernel.
    The last orbit is kept: a draw's primitivity test reads it again.
    """
    spec, k = p.spec, p.degree
    ring, big, div = _ring(spec, k), _ring(spec, 2 * k - 1), _divider(p)
    x = xq = div(Poly.x(spec).row)[1]  # p(0) when k = 1
    for _ in range(spec.n):
        xq = div(big.square(xq))[1]
    cols, win = [1, xq], big.window(xq)
    for _ in range(k - 2):
        cols.append(div(big.mul(win, cols[-1]))[1])
    wins = [ring.window(c) for c in cols[:k]]
    w, mask, mul = ring.width, (1 << spec.n) - 1, ring.mul
    ys = [x, xq]
    for _ in range(1, k):
        # mul reduces each column's product on its own: reduction is linear
        y, nxt = ys[-1], 0
        for i, win in enumerate(wins):
            c = y >> i * w & mask
            if c:
                nxt ^= mul(win, c)
        ys.append(nxt)
    return tuple(ys)


def poly_is_irreducible(p: Poly) -> bool:
    """Distinct-degree test over F_q, q = 2^n, on Berlekamp's Q-matrix.

    p is irreducible when x^(q^k) = x mod p and gcd(x^(q^(k/r)) - x, p)
    = 1 for every prime r dividing k; `_frobenius_orbit` gives the
    x^(q^j), and the gcds take them as `Poly` rows as they are.
    """
    k = p.degree
    if k <= 0:
        return False
    if k == 1:
        return True
    if p.row & p.spec.order == 0:
        return False  # divisible by x
    p = p.monic()
    ys = _frobenius_orbit(p)
    x = ys[0]
    return ys[k] == x and all(
        poly_ext_gcd(Poly(ys[k // r] ^ x, p.spec), p)[0].degree <= 0
        for r in _prime_divisors(k)
    )


def _x_is_primitive(tau: Poly, fact: Factorization) -> bool:
    """Does x generate (F_q[x]/tau)*, tau monic irreducible of degree k
    and ``fact`` the complete factorization of N = q^k - 1?

    It does when x^(N/p) != 1 for every prime p of N (Lidl-Niederreiter,
    ch. 3). With y_j = x^(q^j) (`_frobenius_orbit`), x^e = prod_j
    y_j^(e_j) for the base-q digits e_j of e (von zur Gathen-Shoup
    1992): one pass over the n bit positions of the digits, a squaring
    per position and one product by y_j for each digit e_j with that bit
    set. Every value is a packed row, multiplied and squared on the
    kernel at 2k - 1 slots and reduced by `_divider(tau)`. The primes go
    in ascending order, and the first that rejects stops it.
    """
    spec, k = tau.spec, tau.degree
    n, big, div = spec.n, _ring(spec, 2 * k - 1), _divider(tau)
    wins = [big.window(y) for y in _frobenius_orbit(tau)[:k]]
    for p in fact.primes():
        e, r = fact.n // p, 1
        for b in reversed(range(n)):
            r = div(big.square(r))[1]
            for j, win in enumerate(wins):
                if e >> n * j + b & 1:  # bit b of the base-q digit e_j
                    r = div(big.mul(win, r))[1]
        if r == 1:
            return False
    return True


def primitive_poly(
    degree: int,
    base: FieldSpec,
    rng: random.Random,
    budget: int = DEFAULT_BUDGET,
) -> Poly:
    """Random monic primitive polynomial of the given degree over GF(2^n).

    Each draw is tested for irreducibility, and an irreducible one is
    kept when x generates (F_q[x]/tau)* (`_x_is_primitive`). That needs
    the factorization of q^degree - 1; when the budget cannot finish it
    (`factor(q^degree - 1, budget).complete` is False), the first
    irreducible candidate is returned unverified.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    group = (1 << (base.n * degree)) - 1
    fact = factor(group, budget)
    max_draws = 64 * max(degree, 4)
    for _ in range(max_draws):
        coeffs = [base.rand(rng) for _ in range(degree)] + [1]
        if coeffs[0] == 0:
            coeffs[0] = 1 + rng.randrange(base.order)
        cand = Poly.make(base, coeffs)
        if not poly_is_irreducible(cand):
            continue
        if not fact.complete or _x_is_primitive(cand, fact):
            return cand
    raise BudgetExceeded(
        f"no primitive polynomial of degree {degree} found in {max_draws} draws"
    )


def linear_factor_product(roots: list[Poly], tau: Poly) -> Poly:
    """Expand prod (X - r) for roots in F_q[x]/tau; coefficients must
    collapse into the base field."""
    spec = tau.spec
    prod: list[Poly] = [Poly.const(spec, 1)]
    for r in roots:
        nxt = [Poly(0, spec) for _ in range(len(prod) + 1)]
        for i, c in enumerate(prod):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] + poly_mod_mul(c, r, tau)  # char 2: -r = r
        prod = nxt
    if any(c.degree > 0 for c in prod):
        raise ArithmeticError("product did not collapse into the base field")
    return Poly.make(spec, [c.row for c in prod])  # a constant's row is its value
