"""The commutative ring of d x d circulant matrices over GF(2^n).

A circulant is stored as its first row c_0 .. c_{d-1}; row k is the
first row right-rotated k times, so entry (k, j) = c_{(j-k) mod d}.
The map to the representer polynomial c_0 + c_1 x + ... + c_{d-1}
x^{d-1} is a ring isomorphism onto F_q[x]/(x^d - 1), which is what the
multiplication and inversion routines below actually compute.

The row is packed into one int, the form the kernel `gf2field._Ring`
at size d computes on, so products, squares, powers and matrix-vector
products hand it to the kernel as it is: one carry-less product per
ring product, squares by spreading bits and Frobenius-digit powers.
The same row is a `Poly`, so the inverse is extended Euclid against
x^d - 1 and the determinant a resultant by Euclid. This module holds
the `Circulant` type and its operations, `power_cost`, the paper's
cost model of a power, and the characteristic-polynomial quotient over
F_q[x]/Phi, kept as a test oracle.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .gf2field import (
    FieldElement,
    FieldSpec,
    Poly,
    SpecMismatch,
    _ring,
    frobenius,
    linear_factor_product,
    poly_ext_gcd,
)
from .numtheory import primitive_cell


class DimensionMismatch(ValueError):
    pass


class PhiReducible(ValueError):
    pass


class NotInvertible(ArithmeticError):
    pass


def power_cost(m: int, d: int) -> tuple[int, int, int]:
    """The paper's cost of a^m for a d x d circulant, as (squarings,
    general multiplications, field multiplications).

    Left-to-right binary square and multiply: bit_length(m) - 1 free
    squarings and popcount(m) - 1 products of d^2 field multiplications
    each (the convolution cost), each count floored at 0. A model of m,
    not of the schedule `power` runs.
    """
    mults = max(m.bit_count() - 1, 0)
    return max(m.bit_length() - 1, 0), mults, d * d * mults


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

    def __mul__(self, other: "Circulant") -> "Circulant":
        return mul(self, other)

    def __pow__(self, m: int) -> "Circulant":
        return power(self, m)


def _check_pair(a: Circulant, b: Circulant) -> None:
    if a.d != b.d:
        raise DimensionMismatch(f"sizes differ: {a.d} vs {b.d}")
    if a.spec != b.spec:
        raise DimensionMismatch("circulants over different fields")


def mul(a: Circulant, b: Circulant) -> Circulant:
    """Cyclic convolution: c_k = sum over i+j = k (mod d) of a_i b_j."""
    _check_pair(a, b)
    return Circulant._of(a.spec, a.d, _ring(a.spec, a.d).product(a.row, b.row))


def square(a: Circulant) -> Circulant:
    """Frobenius squaring: coefficient a_i lands squared at index 2i mod d,
    and coefficients that land on one index add.
    """
    return Circulant._of(a.spec, a.d, _ring(a.spec, a.d).square(a.row))


def power(a: Circulant, m: int) -> Circulant:
    """a^m; a^0 is the identity.

    Runs the Frobenius-digit schedule of `_Ring.power` on the packed
    row, for every d, which also keys the tables the ring keeps for a
    base that comes back. `power_cost(m, d)` is the paper's price of it.
    """
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return Circulant._of(a.spec, a.d, 1)
    return Circulant._of(a.spec, a.d, _ring(a.spec, a.d).power(a.row, m))


def inverse(a: Circulant) -> Circulant:
    """a^-1: the Bezout coefficient u of u a + v (x^d + 1) = 1, from
    extended Euclid on packed rows, for every d (v is not computed);
    NotInvertible when the gcd is not 1, that is when the matrix is singular."""
    spec = a.spec
    f = Poly(1 << _ring(spec, a.d).row_bits | 1, spec)  # x^d + 1 in slots d and 0
    g, u = poly_ext_gcd(Poly(a.row, spec), f)
    if g.row != 1:
        raise NotInvertible("the matrix is singular, it has no inverse")
    return Circulant._of(spec, a.d, u.row)  # deg u < d - deg g = d


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
    for r = f mod h, and Res(f, c) = c^(deg f) for a constant c, on
    packed rows: h starts as a's row as it is."""
    spec = a.spec
    f = Poly(1 << _ring(spec, a.d).row_bits | 1, spec)  # x^d + 1 in slots d and 0
    h = Poly(a.row, spec)
    acc = 1
    while h.degree > 0:
        r = f % h
        acc = spec.mul(acc, spec.pow(h.leading(), f.degree - r.degree))
        f, h = h, r
    c = h.row  # a constant's row is its value, 0 once a remainder vanished
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
    phi = Poly(_ring(spec, d).ones, spec)  # 1 + x + ... + x^(d - 1)
    conj = [Poly(a.row, spec) % phi]
    for _ in range(d - 2):
        conj.append(frobenius(conj[-1], phi))
    distinct = len({c.row for c in conj}) == d - 1
    return linear_factor_product(conj, phi), distinct
