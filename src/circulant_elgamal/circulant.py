"""The commutative ring of d x d circulant matrices over GF(2^n).

A circulant is stored as its first row c_0 .. c_{d-1}; row k is the
first row right-rotated k times, so entry (k, j) = c_{(j-k) mod d}.
The map to the representer polynomial c_0 + c_1 x + ... + c_{d-1}
x^{d-1} is a ring isomorphism onto F_q[x]/(x^d - 1), which is what the
multiplication and inversion routines below actually compute.

Products, squares, powers, inverses and matrix-vector products run on
the row packed into one int, one (2n - 1)-bit slot per coefficient: a
product is one carry-less multiply of packed rows, a fold of slot k + d
onto slot k (x^d = 1) and one Barrett reduction of all slots mod the
field polynomial; a square spreads bit i to bit 2i, which squares every
coefficient and doubles every slot index at once. Raising to q = 2^n
only permutes the slots (c^q = c in F_q), so a power splits its
exponent into base-q^t digits and runs one shared squaring chain for
all of them, and an inverse is a power q^L - 2 whose q-power part is a
chain of such permutations (Itoh-Tsujii).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .gf2field import (
    ExtensionSpec,
    FieldElement,
    FieldSpec,
    Poly,
    SpecMismatch,
    _pdivmod,
    frobenius,
    linear_factor_product,
)
from .numtheory import DNotPrime, NotAUnit, is_primitive_mod


class DimensionMismatch(ValueError):
    pass


class EvenD(ValueError):
    pass


class NotInvertible(ArithmeticError):
    pass


class PhiReducible(ValueError):
    pass


@dataclass
class OpCounter:
    """Cost telemetry for exponentiation.

    A full circulant product is booked as one general multiplication
    and d^2 base-field multiplications (the convolution cost); a
    circulant squaring is booked as one squaring, never as mults.
    `power` books the paper's model of binary square and multiply on m,
    bit_length(m) - 1 squarings and popcount(m) - 1 products, not the
    schedule it runs.
    """

    general_mults: int = 0
    field_mults: int = 0
    squarings: int = 0

    def count_mul(self, d: int) -> None:
        self.general_mults += 1
        self.field_mults += d * d

    def count_square(self) -> None:
        self.squarings += 1

    def count_power(self, m: int, d: int) -> None:
        mults = bin(m).count("1") - 1
        self.squarings += m.bit_length() - 1
        self.general_mults += mults
        self.field_mults += d * d * mults


@dataclass(frozen=True)
class Circulant:
    """First row of a d x d circulant matrix; equality is row-wise."""

    coeffs: tuple[FieldElement, ...]
    spec: FieldSpec

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a circulant needs at least one coefficient")
        for c in self.coeffs:
            if c.spec != self.spec:
                raise SpecMismatch("coefficient from a different field")

    @property
    def d(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_bits(cls, spec: FieldSpec, bits: Iterable[int]) -> "Circulant":
        return cls(tuple(FieldElement(b, spec) for b in bits), spec)

    def bits(self) -> list[int]:
        return [c.bits for c in self.coeffs]

    @classmethod
    def identity(cls, spec: FieldSpec, d: int) -> "Circulant":
        return cls.from_bits(spec, [1] + [0] * (d - 1))

    @classmethod
    def shift(cls, spec: FieldSpec, d: int) -> "Circulant":
        """circ(0,1,0,...,0), the cyclic shift matrix (polynomial x)."""
        if d < 2:
            raise ValueError("shift needs d >= 2")
        return cls.from_bits(spec, [0, 1] + [0] * (d - 2))

    @classmethod
    def random(cls, spec: FieldSpec, d: int, rng: random.Random) -> "Circulant":
        return cls.from_bits(spec, [spec.rand(rng) for _ in range(d)])

    def is_identity(self) -> bool:
        return self.coeffs[0].bits == 1 and all(
            c.bits == 0 for c in self.coeffs[1:]
        )

    def to_hex(self) -> str:
        return ",".join(c.to_hex() for c in self.coeffs)

    @classmethod
    def from_hex(cls, spec: FieldSpec, text: str) -> "Circulant":
        parts = [p for p in text.strip().split(",")]
        return cls(tuple(FieldElement.from_hex(spec, p) for p in parts), spec)

    def __mul__(self, other: "Circulant") -> "Circulant":
        return mul(self, other)

    def __pow__(self, m: int) -> "Circulant":
        return power(self, m)


def _check_pair(a: Circulant, b: Circulant) -> None:
    if a.d != b.d:
        raise DimensionMismatch(f"sizes differ: {a.d} vs {b.d}")
    if a.spec != b.spec:
        raise DimensionMismatch("circulants over different fields")


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
    def window(a: int) -> dict[str, int]:
        """Carry-less multiples a * k, 0 < k < 16, keyed by the hex digit of k."""
        a2, a4, a8 = a << 1, a << 2, a << 3
        a3, a6, a10, a12 = a2 ^ a, a4 ^ a2, a8 ^ a2, a8 ^ a4
        return {
            "1": a, "2": a2, "3": a3, "4": a4, "5": a4 ^ a, "6": a6, "7": a6 ^ a,
            "8": a8, "9": a8 ^ a, "a": a10, "b": a10 ^ a, "c": a12, "d": a12 ^ a,
            "e": a12 ^ a2, "f": a12 ^ a3,
        }

    def mul(self, table: dict[str, int], b: int) -> int:
        """Product of the row behind ``table`` with b, 4 bits of b a step."""
        acc = shift = 0
        for digit in format(b, "x")[::-1]:
            if digit != "0":
                acc ^= table[digit] << shift
            shift += 4
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
        """
        t, g = _plan(self.n, self.d, m.bit_length())
        span = self.n * t
        digits = [m >> s & (1 << span) - 1 for s in range(0, m.bit_length(), span)]
        k, top = len(digits), max(digits).bit_length()
        # entries[S]: product of the bases sigma^(tj)(a) with bit j set in S
        entries, wins = {}, {}
        for j in range(g):
            entries[1 << j] = base = self.frobenius(a, t * j)
            wins[0, 1 << j] = self.window(base)

        def window(G: int, S: int) -> dict[str, int]:
            """Window of entry S of block G's table, the sigma^(tgG) image."""
            win = wins.get((G, S))
            if win is None:
                low = 0  # the set bits of S below j: one more base a step
                for j in range(S.bit_length()):
                    if S >> j & 1:
                        up = low | 1 << j
                        if low and up not in entries:
                            entries[up] = self.mul(wins[0, 1 << j], entries[low])
                        low = up
                win = wins[G, S] = self.window(self.frobenius(entries[S], t * g * G))
            return win

        # spread bit b of every digit to bit b 2^e, 2^e >= k (bit i to 2i,
        # e times), so that x >> b 2^e holds the k digits' bits at b
        e = (k - 1).bit_length()
        x = 0
        for i, y in enumerate(digits):
            for _ in range(e):
                y = int(format(y, "b"), 4)
            x |= y << i
        square, mul, steps = self.square, self.mul, {}
        mask, blocks = (1 << k) - 1, list(enumerate(range(0, k, g)))
        r = None
        for shift in range((top - 1) << e, -1, -1 << e):
            bits = x >> shift & mask
            ws = steps.get(bits)
            if ws is None:
                # one table entry for each block with a bit set here
                ws = steps[bits] = [
                    window(G, bits >> i & (1 << g) - 1)
                    for G, i in blocks
                    if bits >> i & (1 << g) - 1
                ]
            if r is None:
                r, ws = ws[0]["1"], ws[1:]  # a window maps digit 1 to its row
            else:
                r = square(r)
            for win in ws:
                r = mul(win, r)
        return r


@lru_cache(maxsize=1024)
def _plan(n: int, d: int, bits: int) -> tuple[int, int]:
    """(t, g) for `_Ring.power` with a `bits`-bit exponent: the cheapest
    by a model of the kernel's costs.

    The costs of a square, a product, a slot permutation and a window,
    and the pass's bookkeeping per position and block, are fits of the
    kernel's timings over n = 3 .. 128 and d = 3 .. 37, as functions of
    n, d and the packed row's bit length L; only their ratios matter.
    """
    L = d * (2 * n - 1)
    red = 0.8 + L / 2500
    sq = 0.7 + red + L / 350
    mul = 1.1 + red + L / 55 + L * L / 170000
    perm, win, step = 0.5 + 0.25 * d, 1.2 + L / 6000, 0.2
    best = None
    for t in range(1, -(-bits // n) + 1):
        span = min(n * t, bits)
        k = -(-bits // span)
        for g in range(1, min(k, 8) + 1):
            cost = sq * (span - 1) + mul * ((1 << g) - 1 - g) + (perm + win) * g
            for i in range(0, k, g):
                # a block of h digits multiplies at all but 2^-h of the
                # positions; each of its entries in use costs a window and,
                # past the first block, a permutation
                h = min(g, k - i)
                p = 0.5 ** h
                used = ((1 << h) - 1) * (1 - (1 - p) ** span)
                cost += (step + mul * (1 - p)) * span + (win + perm * (i > 0)) * used
            if best is None or cost < best[0]:
                best = (cost, t, g)
    return best[1], best[2]


@lru_cache(maxsize=64)
def _ring(spec: FieldSpec, d: int) -> _Ring:
    return _Ring(spec, d)


def _check_odd(d: int) -> None:
    if d % 2 == 0:
        raise EvenD(f"squaring permutation needs odd d, got {d}")


def mul(a: Circulant, b: Circulant, counter: OpCounter | None = None) -> Circulant:
    """Cyclic convolution: c_k = sum over i+j = k (mod d) of a_i b_j.

    Books d^2 base-field multiplications on the counter, the paper's
    cost for a convolution.
    """
    _check_pair(a, b)
    ring = _ring(a.spec, a.d)
    r = ring.product(ring.pack(a.bits()), ring.pack(b.bits()))
    if counter is not None:
        counter.count_mul(a.d)
    return Circulant.from_bits(a.spec, ring.unpack(r))


def square(a: Circulant, counter: OpCounter | None = None) -> Circulant:
    """Frobenius squaring: coefficient a_i lands squared at index 2i mod d.

    Needs d odd so that doubling indices is a permutation; booked as one
    squaring and no general multiplications.
    """
    _check_odd(a.d)
    ring = _ring(a.spec, a.d)
    r = ring.square(ring.pack(a.bits()))
    if counter is not None:
        counter.count_square()
    return Circulant.from_bits(a.spec, ring.unpack(r))


def power(a: Circulant, m: int, counter: OpCounter | None = None) -> Circulant:
    """a^m; a^0 is the identity.

    Runs the Frobenius-digit schedule of `_Ring.power`, packing the row
    once and unpacking it once. The counter gets the paper's cost model
    of left-to-right square and multiply, whatever schedule runs:
    bit_length(m) - 1 squarings and popcount(m) - 1 general
    multiplications.
    """
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return Circulant.identity(a.spec, a.d)
    if m > 1:
        _check_odd(a.d)
    ring = _ring(a.spec, a.d)
    r = ring.power(ring.pack(a.bits()), m)
    if counter is not None:
        counter.count_power(m, a.d)
    return Circulant.from_bits(a.spec, ring.unpack(r))


def inverse(a: Circulant) -> Circulant:
    """a^-1 on the packed kernel (`_Ring.inverse`); NotInvertible when
    the matrix is singular."""
    ring = _ring(a.spec, a.d)
    return Circulant.from_bits(a.spec, ring.unpack(ring.inverse(ring.pack(a.bits()))))


def matvec(
    a: Circulant, v: Sequence[FieldElement]
) -> tuple[FieldElement, ...]:
    """Product of the expanded matrix with a column vector.

    Entry k is sum over i of a_i v_{k+i}: the cyclic convolution of the
    reversed row a_0, a_{d-1}, ..., a_1 with v.
    """
    d, spec = a.d, a.spec
    if len(v) != d:
        raise DimensionMismatch(f"vector length {len(v)} != {d}")
    for x in v:
        if x.spec != spec:
            raise DimensionMismatch("vector entry from a different field")
    av = a.bits()
    ring = _ring(spec, d)
    r = ring.product(ring.pack(av[:1] + av[:0:-1]), ring.pack([x.bits for x in v]))
    return tuple(FieldElement(c, spec) for c in ring.unpack(r))


def expand(a: Circulant) -> list[list[FieldElement]]:
    """Full d x d matrix; row k is the first row right-rotated k times."""
    d = a.d
    return [[a.coeffs[(j - k) % d] for j in range(d)] for k in range(d)]


def row_sum(a: Circulant) -> FieldElement:
    """Representer evaluated at 1: an eigenvalue of the matrix."""
    acc = 0
    for c in a.coeffs:
        acc ^= c.bits
    return FieldElement(acc, a.spec)


def det(a: Circulant) -> FieldElement:
    """Determinant of the expanded matrix by Gaussian elimination."""
    d, spec = a.d, a.spec
    av = a.bits()
    rows = [[av[(j - k) % d] for j in range(d)] for k in range(d)]
    fmul, finv = spec.mul, spec.inv
    acc = 1
    for col in range(d):
        piv = next((r for r in range(col, d) if rows[r][col]), None)
        if piv is None:
            return spec.zero
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]  # char 2: no sign flip
        pivot = rows[col][col]
        acc = fmul(acc, pivot)
        inv_p = finv(pivot)
        rc = rows[col]
        for r in range(col + 1, d):
            f = rows[r][col]
            if f:
                fac = fmul(f, inv_p)
                rr = rows[r]
                for c in range(col, d):
                    if rc[c]:
                        rr[c] ^= fmul(fac, rc[c])
    return FieldElement(acc, spec)


# ---------------------------------------------------------------------------
# the characteristic polynomial over the field F_q[x]/Phi

def char_poly_quotient(a: Circulant) -> tuple[Poly, bool]:
    """Product of (x - beta^{q^i}) over the d - 1 Frobenius conjugates.

    When Phi is irreducible this is the characteristic polynomial of the
    matrix divided by its row-sum eigenvalue factor. The boolean reports
    whether the conjugates are pairwise distinct, i.e. whether the
    product is irreducible.
    """
    d, spec = a.d, a.spec
    try:
        primitive = is_primitive_mod(1 << spec.n, d)
    except (DNotPrime, NotAUnit):
        primitive = False
    if not primitive:
        raise PhiReducible(
            f"2^{spec.n} is not primitive mod {d}, so Phi factors and the "
            "conjugate construction does not apply"
        )
    ext = ExtensionSpec(spec, Poly.make(spec, (1,) * d))
    conj = [Poly.make(spec, a.bits()) % ext.modulus]
    for _ in range(d - 2):
        conj.append(frobenius(conj[-1], ext))
    distinct = len({c.coeffs for c in conj}) == d - 1
    return linear_factor_product(conj, ext), distinct
