"""GF(2^n) arithmetic and polynomial machinery over it.

Base-field elements are plain ints: bit i is the coefficient of t^i, so
the n-bit value fully describes the residue mod the field polynomial.
Polynomials over the field are tuples of such ints, lowest degree first.

Products over the field run on one kernel, `_Ring`: rows of
F_q[x]/(x^d - 1) packed into one int, multiplied with one carry-less
product and reduced mod the field polynomial by one Barrett step. At
d = 1 it is GF(2^n) itself, which every field multiplies and squares
on, and at d = deg(ab) + 1 its fold never wraps, so it is the plain
product of `Poly` a and b (Kronecker substitution); a `Poly` of k
terms squares on 2k - 1 slots the same way. One long-division loop,
`_divider`, keeps the remainder packed and subtracts one kernel product
of the divisor a step; `Poly` division and every reduction mod tau run
on it. Set-up computes in F_q[x]/tau on packed rows only: the
irreducibility test runs on Berlekamp's Q-matrix, x^(q^j) mod p by
matrix-vector products over F_q whose columns are kernel rows, and
`primitive_poly` keeps an irreducible tau when x^(N/p) != 1 mod tau
for every prime p of N = q^deg(tau) - 1, each power a product of the
Q-matrix's x^(q^j) raised to the base-q digits of N/p. The circulant
ring of `circulant` is the same kernel at the matrix size d.
"""

from __future__ import annotations

import random
import sys
from collections import OrderedDict
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

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


class NotInvertible(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# GF(2)[t] on bare ints (bit i <-> t^i)

def _pdeg(a: int) -> int:
    return a.bit_length() - 1


def _pmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


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


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _pinvert(a: int, m: int) -> int:
    # inverse of a mod m in GF(2)[t], m irreducible and a nonzero mod m
    r0, r1 = m, _pmod(a, m)
    s0, s1 = 0, 1
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _pmul(q, s1)
    if r0 != 1:
        raise ZeroInverse(f"0b{a:b} has no inverse mod 0b{m:b}")
    return _pmod(s0, m)


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
    x = r = _pmod(0b10, f)
    keep = dict.fromkeys(n // p for p in _prime_divisors(n))
    for j in range(1, n + 1):
        r = _pmod(int(format(r, "b"), 4), f)  # bit i to bit 2i squares r
        if j in keep:
            keep[j] = r
    return r == x and all(_pdeg(_pgcd(v ^ x, f)) <= 0 for v in keep.values())


# ---------------------------------------------------------------------------
# field specification

class FieldSpec:
    """GF(2^n) with a fixed irreducible modulus.

    Raw arithmetic works on ints; ``element`` wraps them in FieldElement
    for operator syntax. Instances compare equal iff (n, modulus) match.
    Products and squares run on the packed kernel at d = 1, inverses on
    the extended Euclid of `_pinvert`.
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
        if a == 0:
            raise ZeroInverse("0 has no inverse")
        return _pinvert(a, self.modulus)

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

    # -- wrappers ------------------------------------------------------------

    def element(self, bits: int) -> "FieldElement":
        return FieldElement(bits, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

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


class FieldElement:
    """A residue in GF(2^n); bit i of ``bits`` is the coefficient of t^i.

    Equal and hashed by (bits, spec); never equal to another class.
    """

    __slots__ = ("bits", "spec")

    def __init__(self, bits: int, spec: FieldSpec):
        if not 0 <= bits <= spec.order:
            raise ValueError(f"value {bits:#x} out of range for GF(2^{spec.n})")
        self.bits = bits
        self.spec = spec

    def __eq__(self, other):
        if other.__class__ is not FieldElement:
            return NotImplemented
        return self.bits == other.bits and self.spec == other.spec

    def __hash__(self) -> int:
        return hash((self.bits, self.spec))

    def _same(self, other: "FieldElement") -> None:
        if self.spec != other.spec:
            raise SpecMismatch("operands live in different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        return FieldElement(self.bits ^ other.bits, self.spec)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        return FieldElement(self.spec.mul(self.bits, other.bits), self.spec)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        return FieldElement(
            self.spec.mul(self.bits, self.spec.inv(other.bits)), self.spec
        )

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.spec.pow(self.bits, e), self.spec)

    def square(self) -> "FieldElement":
        return FieldElement(self.spec.square(self.bits), self.spec)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec.inv(self.bits), self.spec)

    def is_zero(self) -> bool:
        return self.bits == 0

    def to_hex(self) -> str:
        return format(self.bits, "#x")

    @classmethod
    def from_hex(cls, spec: FieldSpec, text: str) -> "FieldElement":
        s = text.strip().lower()
        if not s.startswith("0x"):
            raise ValueError(f"field element must start with 0x, got {text!r}")
        return cls(int(s, 16), spec)

    def __repr__(self) -> str:
        return f"FieldElement({self.to_hex()}, GF(2^{self.spec.n}))"


# ---------------------------------------------------------------------------
# polynomials over GF(2^n)

class Poly:
    """Polynomial over a FieldSpec; coeffs[i] (an int) multiplies x^i.

    Normalized: no trailing zero coefficients, the zero polynomial is ().
    Equal and hashed by (coeffs, spec); never equal to another class.
    """

    __slots__ = ("coeffs", "spec")

    def __init__(self, coeffs: tuple[int, ...], spec: FieldSpec):
        self.coeffs = coeffs
        self.spec = spec

    def __eq__(self, other):
        if other.__class__ is not Poly:
            return NotImplemented
        return self.coeffs == other.coeffs and self.spec == other.spec

    def __hash__(self) -> int:
        return hash((self.coeffs, self.spec))

    @classmethod
    def make(cls, spec: FieldSpec, coeffs: Iterable[int]) -> "Poly":
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        for v in c:
            if not 0 <= v <= spec.order:
                raise ValueError(f"coefficient {v:#x} out of range")
        return cls(tuple(c), spec)

    @classmethod
    def x(cls, spec: FieldSpec) -> "Poly":
        return cls((0, 1), spec)

    @classmethod
    def const(cls, spec: FieldSpec, v: int) -> "Poly":
        return cls.make(spec, (v,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _same(self, other: "Poly") -> None:
        if self.spec != other.spec:
            raise SpecMismatch("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._same(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] ^= v
        return Poly.make(self.spec, out)

    __sub__ = __add__

    def __mul__(self, other: "Poly") -> "Poly":
        self._same(other)
        if self.is_zero() or other.is_zero():
            return Poly((), self.spec)
        a, b = self.coeffs, other.coeffs
        # d = deg(ab) + 1, so the x^d - 1 fold never wraps
        ring = _ring(self.spec, len(a) + len(b) - 1)
        r = ring.product(ring.pack(a), ring.pack(b))
        return Poly.make(self.spec, ring.unpack(r))

    def scale(self, c: int) -> "Poly":
        fmul = self.spec.mul
        return Poly.make(self.spec, (fmul(c, v) for v in self.coeffs))

    def square(self) -> "Poly":
        if self.is_zero():
            return self
        # the kernel square moves slot i to slot 2i, so 2k - 1 slots never wrap
        ring = _ring(self.spec, 2 * len(self.coeffs) - 1)
        return Poly.make(self.spec, ring.unpack(ring.square(ring.pack(self.coeffs))))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._same(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        spec, a, db = self.spec, self.coeffs, other.degree
        if len(a) - 1 < db:
            return Poly((), spec), self
        ring = _ring(spec, len(a))
        q, rem = _divider(other)(ring.pack(a))
        return Poly.make(spec, q), Poly.make(spec, ring.unpack(rem)[:db])

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

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

    def to_hex(self) -> str:
        return ",".join(format(c, "#x") for c in self.coeffs)

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

    # `power` keeps the subset products of the KEPT_BASES most recently used
    # bases, charged a list slot and a full row each, in KEPT_BYTES
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
        self.kept = OrderedDict()  # row -> [calls, {t: subset products}, bytes]
        self.kept_bytes, self.slot_bytes = 0, 8 + sys.getsizeof(self.row)

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
        """a^(q^j), q = 2^n: slot k moves to slot k q^j mod d, no reduction.

        Every coefficient c satisfies c^q = c in F_q, so raising the row
        to q^j only permutes its slots; d odd makes that a permutation.
        """
        d, w, mask = self.d, self.width, (1 << self.n) - 1
        e = pow(2, self.n * j, d)
        if e == 1 % d:  # the identity permutation, always so for d = 1
            return a
        r = 0
        for k in range(d):
            r |= (a >> k * w & mask) << k * e % d * w
        return r

    def inverse(self, a: int) -> int:
        """a^-1; raises NotInvertible when a is not a unit.

        Odd d: x^d - 1 is squarefree, so the ring is a product of fields
        F_(q^e) with every e dividing L = ord_d(q), and a unit a has
        a^-1 = a^(q^L - 2) = a^(q - 2) delta^(q + ... + q^(L - 1)) with
        delta = a^(q - 1). a^(q - 2) is the square of a^(2^(n - 1) - 1)
        from an Itoh-Tsujii chain, and delta's exponent is a chain of
        free Frobenius permutations. A non-unit gets some other value,
        which the product a a^-1 = 1 then tells from an inverse.
        Even d = 2^s d': b = a^(2^s) lies on the slots that are multiples
        of 2^s, a copy of the ring for d', and a^-1 = b^-1 a^(2^s - 1).
        """
        d, n, prod, square = self.d, self.n, self.product, self.square
        s = (d & -d).bit_length() - 1
        if s:
            # acc = a^(2^i - 1) and b = a^(2^i) for i = 1 .. s
            acc, b = a, square(a)
            for _ in range(s - 1):
                acc, b = prod(acc, b), square(b)
            sub = _ring(self.spec, d >> s)
            inv = sub.inverse(sub.pack(self.unpack(b)[:: 1 << s]))
            out = [0] * d
            out[:: 1 << s] = sub.unpack(inv)
            return prod(self.pack(out), acc)
        # c = a^(2^i - 1), with a^(2^(i + j) - 1) = c^(2^j) a^(2^j - 1)
        c, i = a, 1
        for bit in bin(n - 1)[3:]:
            x = c
            for _ in range(i):
                x = square(x)
            c, i = prod(x, c), 2 * i
            if bit == "1":
                c, i = prod(square(c), a), i + 1
        u = square(c) if n > 1 else 1  # a^(q - 2)
        # e = delta^(1 + q + ... + q^(j - 1)), with sigma^j a free permutation
        delta, frob = prod(u, a), self.frobenius
        e, j = delta, 1
        L = next(k for k in range(1, d + 1) if pow(2, n * k, d) == 1 % d)
        for bit in bin(L - 1)[3:]:
            e, j = prod(e, frob(e, j)), 2 * j
            if bit == "1":
                e, j = prod(delta, frob(e, 1)), j + 1
        inv = prod(u, frob(e, 1)) if L > 1 else u
        if prod(a, inv) != 1:
            raise NotInvertible("the matrix is singular, it has no inverse")
        return inv

    def power(self, a: int, m: int) -> int:
        """a^m, m >= 1, in one pass over the base-q^t digits of m.

        With sigma(y) = y^q, a^m = prod_i sigma^(ti)(a)^(m_i) for the k
        digits m_i of m in base q^t, and every sigma^j is a free slot
        permutation (`frobenius`). The digits are taken g at a time: one
        table holds the product of every subset of the first g bases,
        and block G's table is its sigma^(tgG) image; entries are made
        as they come into use. The pass runs over the nt bit positions
        once, with one squaring per position shared by all digits and at
        most one table product per block. With t = ceil(bits / n) and
        g = 1 this is plain square and multiply.

        A base that comes back finds its subset products kept, by row and
        t (see `KEPT_BASES`), so a power under any g reuses and extends
        them; windows are made per call. Once its calls have paid for
        `_plan`'s wide table, the base is promoted and runs that plan.
        """
        cold, wide, after = _plan(self.n, self.d, m.bit_length())
        calls, tables, size = rec = self.kept.pop(a, None) or [0, {}, 0]
        t, g = wide if calls >= after else cold
        entries = tables.setdefault(t, [None])  # entries[S], S a subset of bases
        entries += [None] * ((1 << g) - len(entries))
        rec[0], rec[2] = calls + 1, self.slot_bytes * sum(map(len, tables.values()))
        self.kept_bytes += rec[2] - size
        self.kept[a] = rec  # now the most recently used
        while len(self.kept) > self.KEPT_BASES or self.kept_bytes > self.KEPT_BYTES:
            self.kept_bytes -= self.kept.popitem(last=False)[1][2]

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


@lru_cache(maxsize=1024)
def _plan(n: int, d: int, bits: int) -> tuple[tuple[int, int], tuple[int, int], float]:
    """Plans (t, g) for `_Ring.power` with a `bits`-bit exponent by a model
    of the kernel's costs: the cold pick, the wide pick, and the calls after
    which a base that comes back is promoted to the wide pick.

    A plan runs squares, table products, windows and slot permutations,
    and builds 2^g - 1 - g subset products. The cold pick (g <= 8) has the
    cheapest run plus build; the wide pick the cheapest run, with 2^g
    entries in `_Ring.KEPT_BYTES / KEPT_BASES`. A returning base's cold
    entries are kept, so it pays the cold run until its calls times the
    run saved reach the wide build (ski rental). The costs fit the
    hex-digit kernel's timings (n = 3 .. 128, d = 3 .. 37, row length L);
    only their ratios matter.
    """
    L = d * (2 * n - 1)
    red = 0.8 + L / 2500
    sq = 0.7 + red + L / 350
    mul = 1.1 + red + L / 55 + L * L / 170000
    perm, win, step = 0.5 + 0.25 * d, 1.2 + L / 6000, 0.2
    slots = _Ring.KEPT_BYTES // _Ring.KEPT_BASES // (8 + sys.getsizeof((1 << L) - 1))
    widest = max(slots.bit_length() - 1, 1)
    cold = wide = None
    for t in range(1, -(-bits // n) + 1):
        span = min(n * t, bits)
        k = -(-bits // span)
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
                cold = (build + run, run, (t, g))
            if g <= widest and (wide is None or run < wide[0]):
                wide = (run, build, (t, g))
    saving = cold[1] - wide[0]
    return cold[2], wide[2], wide[1] / saving if saving > 0 else float("inf")


@lru_cache(maxsize=64)
def _ring(spec: FieldSpec, d: int) -> _Ring:
    return _Ring(spec, d)


def _divider(b: Poly) -> Callable[[int], tuple[list[int], int]]:
    """Long division by b != 0 on rows packed as `_Ring.pack` packs them.

    The returned function maps a row of any length to its quotient's
    coefficients and its packed remainder. b's window and lead inverse
    are made once, and each step subtracts one kernel product of b.
    """
    spec, db = b.spec, b.degree
    sub = _ring(spec, db + 1)
    win, w, mask = sub.window(sub.pack(b.coeffs)), sub.width, (1 << spec.n) - 1
    lead = b.leading()
    inv_lead = spec.inv(lead) if lead != 1 else None

    def divide(rem: int) -> tuple[list[int], int]:
        top = (rem.bit_length() - 1) // w
        q = [0] * max(top - db + 1, 0)
        for k in range(top, db - 1, -1):
            c = rem >> k * w & mask
            if c:
                f = c if inv_lead is None else spec.mul(c, inv_lead)
                q[k - db] = f
                # f b fills the db + 1 slots of sub, so its fold never wraps
                rem ^= sub.mul(win, f) << (k - db) * w
        return q, rem

    return divide


def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Monic g = gcd(a, b) and Bezout pair (u, v) with u*a + v*b = g."""
    a._same(b)
    spec = a.spec
    r0, r1 = a, b
    s0, s1 = Poly.const(spec, 1), Poly((), spec)
    t0, t1 = Poly((), spec), Poly.const(spec, 1)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 + q * s1
        t0, t1 = t1, t0 + q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = spec.inv(r0.leading())
    return r0.scale(c), s0.scale(c), t0.scale(c)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a._same(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


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
        a = a.square() % tau
        e >>= 1
    return r


def frobenius(a: Poly, tau: Poly) -> Poly:
    """a^q mod tau, q = 2^n: n successive squarings."""
    r = a % tau
    for _ in range(tau.spec.n):
        r = r.square() % tau
    return r


def _frobenius_orbit(p: Poly) -> list[int]:
    """x^(q^j) mod p for j = 0 .. k, k = deg(p) >= 1, p monic, q = 2^n,
    as rows packed by `_ring(spec, k)`.

    Products and squares run on the kernel at 2k - 1 slots, where the
    fold never wraps, and `_divider(p)` reduces them: x^q is n squarings
    of x, and k - 2 products give the columns (x^q)^i of Berlekamp's
    Q-matrix. In F_q[x]/p, (sum y_i x^i)^q = sum y_i (x^q)^i, so each next
    x^(q^j) is one matrix-vector product over F_q on the packed kernel.
    """
    spec, k = p.spec, p.degree
    ring, big, div = _ring(spec, k), _ring(spec, 2 * k - 1), _divider(p)
    x = xq = div(ring.pack((0, 1)))[1]  # p(0) when k = 1
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
    return ys


def poly_is_irreducible(p: Poly) -> bool:
    """Distinct-degree test over F_q, q = 2^n, on Berlekamp's Q-matrix.

    p is irreducible when x^(q^k) = x mod p and gcd(x^(q^(k/r)) - x, p)
    = 1 for every prime r dividing k; `_frobenius_orbit` gives the
    x^(q^j), and only the gcds see them as `Poly`.
    """
    k = p.degree
    if k <= 0:
        return False
    if k == 1:
        return True
    if p.coeffs[0] == 0:
        return False  # divisible by x
    p = p.monic()
    ys = _frobenius_orbit(p)
    x, unpack = ys[0], _ring(p.spec, k).unpack
    return ys[k] == x and all(
        poly_gcd(Poly.make(p.spec, unpack(ys[k // r] ^ x)), p).degree <= 0
        for r in _prime_divisors(k)
    )


# Frobenius digits per subset-product table of `_x_is_primitive`
_DIGIT_BLOCK = 4


def _x_is_primitive(tau: Poly, fact: Factorization) -> bool:
    """Does x generate (F_q[x]/tau)*, tau monic irreducible of degree k
    and ``fact`` the complete factorization of N = q^k - 1?

    It does when x^(N/p) != 1 for every prime p of N (Lidl-Niederreiter,
    ch. 3). With y_j = x^(q^j) (`_frobenius_orbit`), x^e = prod_j
    y_j^(e_j) for the base-q digits e_j of e (von zur Gathen-Shoup
    1992): one pass over the n bit positions of the digits, a squaring
    per position and at most one product per block of `_DIGIT_BLOCK`
    digits, from subset-product tables that all primes share. Every
    value is a packed row, multiplied and squared on the kernel at 2k - 1
    slots and reduced by `_divider(tau)`. The primes go in ascending
    order, and the first that rejects stops it.
    """
    spec, k, g = tau.spec, tau.degree, _DIGIT_BLOCK
    n, big, div = spec.n, _ring(spec, 2 * k - 1), _divider(tau)
    ys = _frobenius_orbit(tau)[:k]
    blocks = [ys[i : i + g] for i in range(0, k, g)]
    table = {}  # (G, S): the product of blocks[G][j] over the bits j of S

    def entry(G: int, S: int) -> int:
        r = table.get((G, S))
        if r is None:
            top = S.bit_length() - 1
            r = blocks[G][top]
            if S != 1 << top:
                r = div(big.product(entry(G, S ^ 1 << top), r))[1]
            table[G, S] = r
        return r

    for p in fact.primes():
        e = fact.n // p
        digits = [e >> n * j & (1 << n) - 1 for j in range(k)]
        chunks = [digits[i : i + g] for i in range(0, k, g)]
        r = None
        for b in reversed(range(n)):
            if r is not None:
                r = div(big.square(r))[1]
            for G, chunk in enumerate(chunks):
                S = sum((digit >> b & 1) << j for j, digit in enumerate(chunk))
                if S:
                    r = entry(G, S) if r is None else div(big.product(r, entry(G, S)))[1]
        if r == 1:
            return False
    return True


class PrimitivePoly(NamedTuple):
    poly: Poly
    order_factorization: Factorization
    primitivity_verified: bool


def primitive_poly(
    degree: int,
    base: FieldSpec,
    rng: random.Random,
    budget: int = DEFAULT_BUDGET,
) -> PrimitivePoly:
    """Random monic primitive polynomial of the given degree over GF(2^n).

    Each draw is tested for irreducibility, and an irreducible one is
    kept when x generates (F_q[x]/tau)* (`_x_is_primitive`). That needs
    the factorization of q^degree - 1; when the budget cannot finish it,
    the first irreducible candidate is returned with
    ``primitivity_verified`` False.
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
        if not fact.complete:
            return PrimitivePoly(cand, fact, False)
        if _x_is_primitive(cand, fact):
            return PrimitivePoly(cand, fact, True)
    raise BudgetExceeded(
        f"no primitive polynomial of degree {degree} found in {max_draws} draws"
    )


def linear_factor_product(roots: list[Poly], tau: Poly) -> Poly:
    """Expand prod (X - r) for roots in F_q[x]/tau; coefficients must
    collapse into the base field."""
    spec = tau.spec
    prod: list[Poly] = [Poly.const(spec, 1)]
    for r in roots:
        nxt = [Poly((), spec) for _ in range(len(prod) + 1)]
        for i, c in enumerate(prod):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] + poly_mod_mul(c, r, tau)  # char 2: -r = r
        prod = nxt
    out = []
    for c in prod:
        if c.degree > 0:
            raise ArithmeticError("product did not collapse into the base field")
        out.append(c.coeffs[0] if c.coeffs else 0)
    return Poly.make(spec, out)
