"""The commutative ring of d x d circulant matrices over GF(2^n).

A circulant is stored as its first row c_0 .. c_{d-1}; row k is the
first row right-rotated k times, so entry (k, j) = c_{(j-k) mod d}.
The map to the representer polynomial c_0 + c_1 x + ... + c_{d-1}
x^{d-1} is a ring isomorphism onto F_q[x]/(x^d - 1), which is what the
multiplication, inversion and CRT routines below actually compute.

Products, squares, powers and matrix-vector products run on the row
packed into one int, one (2n - 1)-bit slot per coefficient: a product
is one carry-less multiply of packed rows, a fold of slot k + d onto
slot k (x^d = 1) and one reduction of all slots mod the field
polynomial; a square spreads bit i to bit 2i, which squares every
coefficient and doubles every slot index at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .gf2field import (
    ExtensionSpec,
    FieldElement,
    FieldSpec,
    Poly,
    SpecMismatch,
    frobenius,
    linear_factor_product,
    poly_ext_gcd,
)
from .numtheory import DNotPrime, is_primitive_mod


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
    """

    general_mults: int = 0
    field_mults: int = 0
    squarings: int = 0

    def count_mul(self, d: int) -> None:
        self.general_mults += 1
        self.field_mults += d * d

    def count_square(self) -> None:
        self.squarings += 1


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

    @classmethod
    def from_poly(cls, p: Poly, d: int) -> "Circulant":
        """Representer polynomial to first row, folding x^d to 1."""
        out = [0] * d
        for i, c in enumerate(p.coeffs):
            out[i % d] ^= c
        return cls.from_bits(p.spec, out)

    def to_poly(self) -> Poly:
        return Poly.make(self.spec, self.bits())

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

_HEX = "0123456789abcdef"


class _Ring:
    """Rows of F_q[x]/(x^d - 1) packed into one int (Kronecker substitution).

    Coefficient c_k sits in slot k, bits k*w .. k*w + w - 1, with
    w = 2n - 1: wide enough for the carry-less product of two
    coefficients, so one carry-less product of packed rows forms every
    a_i b_j in slot i + j with no slot spilling into the next. x^d = 1
    folds slot k + d onto slot k, and each step of the reduction mod
    f(t) = t^n + g(t) clears one high bit of all d slots at once, so
    one routine serves a sparse and a dense modulus alike.
    """

    def __init__(self, spec: FieldSpec, d: int):
        n = spec.n
        w = 2 * n - 1
        self.n, self.d, self.width = n, d, w
        self.row_bits = d * w
        self.row = (1 << self.row_bits) - 1
        self.ones = self.row // ((1 << w) - 1)  # bit 0 of every slot
        # clearing bit b of every slot, b = 2n - 2 .. n, adds f(t) t^(b - n)
        self.columns = tuple(
            (b, spec.modulus << (b - n)) for b in range(2 * n - 2, n - 1, -1)
        )

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
        ones = self.ones
        for b, f in self.columns:
            col = (r >> b) & ones
            if col:
                # one bit per slot, so the integer product is carry-less
                r ^= col * f
        return r

    @staticmethod
    def window(a: int) -> dict[str, int]:
        """Carry-less multiples a * k, k < 16, keyed by the hex digit of k."""
        t = [0, a]
        for k in range(2, 16):
            t.append(t[k >> 1] << 1 if k % 2 == 0 else t[k - 1] ^ a)
        return dict(zip(_HEX, t))

    def mul(self, table: dict[str, int], b: int) -> int:
        """Product of the row behind ``table`` with b, 4 bits of b a step."""
        acc = shift = 0
        for digit in format(b, "x")[::-1]:
            if digit != "0":
                acc ^= table[digit] << shift
            shift += 4
        return self.reduce(acc)

    def square(self, a: int) -> int:
        # bit i to bit 2i squares every coefficient and doubles every slot
        # index at once (the squaring theorem)
        return self.reduce(int(format(a, "b"), 4))


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
    r = ring.mul(ring.window(ring.pack(a.bits())), ring.pack(b.bits()))
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
    """Left-to-right square and multiply; a^0 is the identity.

    Books bit_length(m) - 1 squarings and popcount(m) - 1 general
    multiplications on the counter. The row is packed once and
    unpacked once.
    """
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return Circulant.identity(a.spec, a.d)
    if m > 1:
        _check_odd(a.d)
    ring = _ring(a.spec, a.d)
    r = ring.pack(a.bits())
    table = ring.window(r)
    for i in range(m.bit_length() - 2, -1, -1):
        r = ring.square(r)
        if counter is not None:
            counter.count_square()
        if (m >> i) & 1:
            r = ring.mul(table, r)
            if counter is not None:
                counter.count_mul(a.d)
    return Circulant.from_bits(a.spec, ring.unpack(r))


def inverse(a: Circulant) -> Circulant:
    """Inverse via extended Euclid on (representer, x^d - 1)."""
    d, spec = a.d, a.spec
    xd1 = Poly.make(spec, [1] + [0] * (d - 1) + [1])
    g, u, _ = poly_ext_gcd(a.to_poly(), xd1)
    if g.degree != 0:
        raise NotInvertible(
            f"gcd with x^{d} - 1 has degree {g.degree}, matrix is singular"
        )
    return Circulant.from_poly(u % xd1, d)


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
    r = ring.mul(
        ring.window(ring.pack(av[:1] + av[:0:-1])), ring.pack([x.bits for x in v])
    )
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
# CRT decomposition F_q[x]/(x^d - 1) = F_q[x]/(x - 1) x F_q[x]/Phi

class CrtPair(NamedTuple):
    alpha: FieldElement  # image mod x - 1, the row sum
    beta: Poly  # image mod Phi, degree < d - 1
    ext: ExtensionSpec  # quotient by Phi


def phi_extension(spec: FieldSpec, d: int) -> ExtensionSpec:
    """Quotient by Phi(x) = 1 + x + ... + x^{d-1}."""
    if d % 2 == 0:
        raise EvenD(f"x - 1 and Phi are coprime only for odd d, got {d}")
    if d < 3:
        raise ValueError("CRT decomposition needs d >= 3")
    return ExtensionSpec(spec, Poly.make(spec, (1,) * d))


def crt_split(a: Circulant) -> CrtPair:
    ext = phi_extension(a.spec, a.d)
    return CrtPair(row_sum(a), a.to_poly() % ext.modulus, ext)


def crt_join(pair: CrtPair) -> Circulant:
    """Unique preimage: beta + (alpha + beta(1)) * Phi.

    Works because Phi(1) = d = 1 in characteristic 2 for odd d, so the
    correction term fixes the x - 1 component without moving beta.
    """
    spec = pair.ext.base
    d = pair.ext.degree + 1
    s = pair.alpha.bits ^ pair.beta.evaluate(1)
    psi = pair.beta + pair.ext.modulus.scale(s)
    return Circulant.from_poly(psi, d)


def char_poly_quotient(a: Circulant) -> tuple[Poly, bool]:
    """Product of (x - beta^{q^i}) over the d - 1 Frobenius conjugates.

    When Phi is irreducible this is the characteristic polynomial of the
    matrix divided by its row-sum eigenvalue factor. The boolean reports
    whether the conjugates are pairwise distinct, i.e. whether the
    product is irreducible.
    """
    d, spec = a.d, a.spec
    pair = crt_split(a)
    try:
        primitive = is_primitive_mod(1 << spec.n, d)
    except DNotPrime:
        primitive = False
    if not primitive:
        raise PhiReducible(
            f"2^{spec.n} is not primitive mod {d}, so Phi factors and the "
            "conjugate construction does not apply"
        )
    conj = [pair.beta]
    for _ in range(d - 2):
        conj.append(frobenius(conj[-1], pair.ext))
    distinct = len({c.coeffs for c in conj}) == d - 1
    return linear_factor_product(conj, pair.ext), distinct
