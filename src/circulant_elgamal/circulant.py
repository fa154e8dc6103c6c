"""The commutative ring of d x d circulant matrices over GF(2^n).

A circulant is stored as its first row c_0 .. c_{d-1}; row k is the
first row right-rotated k times, so entry (k, j) = c_{(j-k) mod d}.
The map to the representer polynomial c_0 + c_1 x + ... + c_{d-1}
x^{d-1} is a ring isomorphism onto F_q[x]/(x^d - 1), which is what the
multiplication and inversion routines below actually compute.

The row is packed into one int, the form the kernel `gf2field._Ring`
at size d computes on, so products, squares, powers, inverses and
matrix-vector products hand it to the kernel as it is: one carry-less
product per ring product, squares by spreading bits, Frobenius-digit
powers and Itoh-Tsujii inversion. This module holds the `Circulant`
type and its operations on that kernel, the operation counter of the
paper's cost model, the determinant as a resultant, and the
characteristic-polynomial quotient over F_q[x]/Phi, kept as a test oracle.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .gf2field import (
    FieldElement,
    FieldSpec,
    NotInvertible,
    Poly,
    SpecMismatch,
    _ring,
    frobenius,
    linear_factor_product,
)
from .numtheory import primitive_cell


class DimensionMismatch(ValueError):
    pass


class EvenD(ValueError):
    pass


class PhiReducible(ValueError):
    pass


class OpCounter:
    """Cost telemetry for exponentiation.

    A full circulant product is booked as one general multiplication
    and d^2 base-field multiplications (the convolution cost); a
    circulant squaring is booked as one squaring, never as mults.
    `power` books the paper's model of binary square and multiply on m,
    bit_length(m) - 1 squarings and popcount(m) - 1 products, not the
    schedule it runs.
    """

    def __init__(self):
        self.general_mults = 0
        self.field_mults = 0
        self.squarings = 0

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


class Circulant:
    """A d x d circulant matrix; ``row`` is its first row packed by `_ring(spec, d)`.

    Equal and hashed by (row, d, spec), as rows of different d can pack to
    the same int; never equal to another class.
    """

    __slots__ = ("spec", "d", "row")

    def __init__(self, coeffs: tuple[FieldElement, ...], spec: FieldSpec):
        if not coeffs:
            raise ValueError("a circulant needs at least one coefficient")
        for c in coeffs:
            if c.spec != spec:
                raise SpecMismatch("coefficient from a different field")
        self.spec, self.d = spec, len(coeffs)
        self.row = _ring(spec, self.d).pack([c.bits for c in coeffs])

    @classmethod
    def _of(cls, spec: FieldSpec, d: int, row: int) -> "Circulant":
        """Unchecked: ``row`` is a reduced packed row of `_ring(spec, d)`."""
        a = object.__new__(cls)
        a.spec, a.d, a.row = spec, d, row
        return a

    def __eq__(self, other):
        if other.__class__ is not Circulant:
            return NotImplemented
        return self.row == other.row and self.d == other.d and self.spec == other.spec

    def __hash__(self) -> int:
        return hash((self.row, self.d, self.spec))

    def __repr__(self) -> str:
        return f"Circulant(coeffs={self.coeffs!r}, spec={self.spec!r})"

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        """The row as field elements, built afresh on each read."""
        return tuple(FieldElement(b, self.spec) for b in self.bits())

    @classmethod
    def from_bits(cls, spec: FieldSpec, bits: Iterable[int]) -> "Circulant":
        return cls(tuple(FieldElement(b, spec) for b in bits), spec)

    def bits(self) -> list[int]:
        return _ring(self.spec, self.d).unpack(self.row)

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
        return self.row == 1

    def to_hex(self) -> str:
        return ",".join(format(b, "#x") for b in self.bits())

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


def _check_odd(d: int) -> None:
    if d % 2 == 0:
        raise EvenD(f"squaring permutation needs odd d, got {d}")


def mul(a: Circulant, b: Circulant, counter: OpCounter | None = None) -> Circulant:
    """Cyclic convolution: c_k = sum over i+j = k (mod d) of a_i b_j.

    Books d^2 base-field multiplications on the counter, the paper's
    cost for a convolution.
    """
    _check_pair(a, b)
    if counter is not None:
        counter.count_mul(a.d)
    return Circulant._of(a.spec, a.d, _ring(a.spec, a.d).product(a.row, b.row))


def square(a: Circulant, counter: OpCounter | None = None) -> Circulant:
    """Frobenius squaring: coefficient a_i lands squared at index 2i mod d.

    Needs d odd so that doubling indices is a permutation; booked as one
    squaring and no general multiplications.
    """
    _check_odd(a.d)
    if counter is not None:
        counter.count_square()
    return Circulant._of(a.spec, a.d, _ring(a.spec, a.d).square(a.row))


def power(a: Circulant, m: int, counter: OpCounter | None = None) -> Circulant:
    """a^m; a^0 is the identity.

    Runs the Frobenius-digit schedule of `_Ring.power` on the packed
    row, which also keys the tables the ring keeps for a base that comes
    back. The counter gets the paper's cost model of left-to-right
    square and multiply, whatever schedule runs: bit_length(m) - 1
    squarings and popcount(m) - 1 general multiplications.
    """
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return Circulant._of(a.spec, a.d, 1)
    if m > 1:
        _check_odd(a.d)
    if counter is not None:
        counter.count_power(m, a.d)
    return Circulant._of(a.spec, a.d, _ring(a.spec, a.d).power(a.row, m))


def inverse(a: Circulant) -> Circulant:
    """a^-1 on the packed kernel (`_Ring.inverse`); NotInvertible when
    the matrix is singular."""
    return Circulant._of(a.spec, a.d, _ring(a.spec, a.d).inverse(a.row))


def matvec(
    a: Circulant, v: Sequence[FieldElement]
) -> tuple[FieldElement, ...]:
    """Product of the expanded matrix with a column vector.

    Entry k is sum over i of a_i v_{k+i}, which is entry -k of the
    cyclic convolution of a with the reversed vector v_0, v_{d-1}, ...,
    v_1.
    """
    d, spec = a.d, a.spec
    if len(v) != d:
        raise DimensionMismatch(f"vector length {len(v)} != {d}")
    for x in v:
        if x.spec != spec:
            raise DimensionMismatch("vector entry from a different field")
    vb, ring = [x.bits for x in v], _ring(spec, d)
    r = ring.unpack(ring.product(a.row, ring.pack(vb[:1] + vb[:0:-1])))
    return tuple(FieldElement(c, spec) for c in r[:1] + r[:0:-1])


def row_sum(a: Circulant) -> FieldElement:
    """Representer evaluated at 1: an eigenvalue of the matrix."""
    acc = 0
    for c in a.bits():
        acc ^= c
    return FieldElement(acc, a.spec)


def det(a: Circulant) -> FieldElement:
    """Determinant of the expanded matrix: Res(x^d - 1, a(x)), the product
    of a(zeta) over the roots of x^d - 1, for every d. Euclid, with no
    signs in characteristic 2: Res(f, h) = lc(h)^(deg f - deg r) Res(h, r)
    for r = f mod h, and Res(f, c) = c^(deg f) for a constant c."""
    spec = a.spec
    f = Poly.make(spec, [1] + [0] * (a.d - 1) + [1])
    h = Poly.make(spec, a.bits())
    acc = 1
    while h.degree > 0:
        r = f % h
        acc = spec.mul(acc, spec.pow(h.leading(), f.degree - r.degree))
        f, h = h, r
    c = h.coeffs[0] if h.coeffs else 0  # 0 once a remainder vanished
    return FieldElement(spec.mul(acc, spec.pow(c, f.degree)), spec)


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
    if not primitive_cell(spec.n, d):
        raise PhiReducible(
            f"2^{spec.n} is not primitive mod {d}, so Phi factors and the "
            "conjugate construction does not apply"
        )
    phi = Poly.make(spec, (1,) * d)
    conj = [Poly.make(spec, a.bits()) % phi]
    for _ in range(d - 2):
        conj.append(frobenius(conj[-1], phi))
    distinct = len({c.coeffs for c in conj}) == d - 1
    return linear_factor_product(conj, phi), distinct
