"""GF(2^n) arithmetic and polynomial machinery over it.

Base-field elements are plain ints: bit i is the coefficient of t^i, so
the n-bit value fully describes the residue mod the field polynomial.
Small fields (n <= 16) get exp/log tables; larger ones use carry-less
multiplication on ints. Polynomials over the field are tuples of such
ints, lowest degree first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .numtheory import (
    DEFAULT_BUDGET,
    Factorization,
    IncompleteFactorization,
    NotAUnit,
    factor,
)

MAX_FIELD_BITS = 128
_TABLE_MAX = 16


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


def _prime_divisors(k: int) -> list[int]:
    divs, p = [], 2
    while p * p <= k:
        if k % p == 0:
            divs.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        divs.append(k)
    return divs


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
        r = _pmod(_pmul(r, r), f)
        if j in keep:
            keep[j] = r
    return r == x and all(_pdeg(_pgcd(v ^ x, f)) <= 0 for v in keep.values())


# per-byte bit spreading table for fast squaring (bit i -> bit 2i)
_SPREAD8 = tuple(
    sum(((b >> i) & 1) << (2 * i) for i in range(8)) for b in range(256)
)


def _pspread(a: int) -> int:
    out = 0
    shift = 0
    while a:
        out |= _SPREAD8[a & 0xFF] << shift
        a >>= 8
        shift += 16
    return out


# ---------------------------------------------------------------------------
# field specification

class FieldSpec:
    """GF(2^n) with a fixed irreducible modulus.

    Raw arithmetic works on ints; ``element`` wraps them in FieldElement
    for operator syntax. Instances compare equal iff (n, modulus) match.
    """

    __slots__ = ("n", "modulus", "order", "_exp", "_log")

    def __init__(self, n: int, modulus: int):
        if not 1 <= n <= MAX_FIELD_BITS:
            raise ValueError(f"n must be in [1, {MAX_FIELD_BITS}], got {n}")
        if _pdeg(modulus) != n or not _pirreducible(modulus):
            raise ValueError(
                f"modulus 0b{modulus:b} is not an irreducible degree-{n} polynomial"
            )
        self.n = n
        self.modulus = modulus
        self.order = (1 << n) - 1
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if n <= _TABLE_MAX:
            self._build_tables()

    def _build_tables(self) -> None:
        order = self.order
        if order == 1:
            self._exp = [1, 1]
            self._log = [0, 0]
            return
        for g in range(2, order + 1):
            exp = [0] * (2 * order)
            log = [0] * (order + 1)
            cur = 1
            ok = True
            for i in range(order):
                exp[i] = cur
                log[cur] = i
                cur = self._raw_mul(cur, g)
                if cur == 1 and i + 1 < order:
                    ok = False
                    break
            if ok and cur == 1:
                for i in range(order):
                    exp[order + i] = exp[i]
                self._exp = exp
                self._log = log
                return
        raise AssertionError("no generator found, modulus cannot be irreducible")

    def _reduce(self, v: int) -> int:
        n, m = self.n, self.modulus
        d = v.bit_length() - 1
        while d >= n:
            v ^= m << (d - n)
            d = v.bit_length() - 1
        return v

    def _raw_mul(self, a: int, b: int) -> int:
        return self._reduce(_pmul(a, b))

    # -- raw int kernels ----------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._raw_mul(a, b)

    def square(self, a: int) -> int:
        if self._exp is not None:
            if a == 0:
                return 0
            return self._exp[2 * self._log[a]]
        return self._reduce(_pspread(a))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no inverse")
        if self._exp is not None:
            return self._exp[self.order - self._log[a]]
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


@dataclass(frozen=True)
class FieldElement:
    """A residue in GF(2^n); bit i of ``bits`` is the coefficient of t^i."""

    bits: int
    spec: FieldSpec

    def __post_init__(self):
        if not 0 <= self.bits <= self.spec.order:
            raise ValueError(f"value {self.bits:#x} out of range for GF(2^{self.spec.n})")

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

@dataclass(frozen=True)
class Poly:
    """Polynomial over a FieldSpec; coeffs[i] (an int) multiplies x^i.

    Normalized: no trailing zero coefficients, the zero polynomial is ().
    """

    coeffs: tuple[int, ...]
    spec: FieldSpec

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
        fmul = self.spec.mul
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] ^= fmul(ai, bj)
        return Poly.make(self.spec, out)

    def scale(self, c: int) -> "Poly":
        fmul = self.spec.mul
        return Poly.make(self.spec, (fmul(c, v) for v in self.coeffs))

    def square(self) -> "Poly":
        # char 2: coefficients square, exponents double
        sq = self.spec.square
        out = [0] * (2 * len(self.coeffs) - 1) if self.coeffs else []
        for i, v in enumerate(self.coeffs):
            out[2 * i] = sq(v)
        return Poly.make(self.spec, out)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._same(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        fmul, finv = spec.mul, spec.inv
        db = other.degree
        inv_lead = finv(other.leading())
        rem = list(self.coeffs)
        if len(rem) - 1 < db:
            return Poly((), spec), self
        q = [0] * (len(rem) - db)
        bc = other.coeffs
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            f = fmul(c, inv_lead)
            q[k - db] = f
            for j in range(db + 1):
                rem[k - db + j] ^= fmul(f, bc[j])
        return Poly.make(spec, q), Poly.make(spec, rem)

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


class ExtensionSpec(NamedTuple):
    """Quotient F_q[x]/(modulus); a field when the modulus is irreducible.

    Construction does not force irreducibility: CRT plumbing works in the
    plain quotient ring too. Field-only operations check on their own.
    """

    base: FieldSpec
    modulus: Poly

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def reduce(self, a: Poly) -> Poly:
        return a % self.modulus

    @property
    def one(self) -> Poly:
        return Poly.const(self.base, 1)


def poly_mod_mul(a: Poly, b: Poly, ext: ExtensionSpec) -> Poly:
    if a.spec != ext.base or b.spec != ext.base:
        raise SpecMismatch("polynomial/extension field mismatch")
    return (a * b) % ext.modulus


def poly_mod_square(a: Poly, ext: ExtensionSpec) -> Poly:
    return a.square() % ext.modulus


def poly_mod_pow(a: Poly, e: int, ext: ExtensionSpec) -> Poly:
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    r = Poly.const(ext.base, 1)
    a = a % ext.modulus
    while e:
        if e & 1:
            r = poly_mod_mul(r, a, ext)
        a = poly_mod_square(a, ext)
        e >>= 1
    return r


def frobenius(a: Poly, ext: ExtensionSpec) -> Poly:
    """a^q in the quotient, q = 2^n: n successive squarings."""
    r = a % ext.modulus
    for _ in range(ext.base.n):
        r = poly_mod_square(r, ext)
    return r


def poly_is_irreducible(p: Poly) -> bool:
    """Distinct-degree test over F_q, q = 2^n.

    One chain of kn squarings gives x^(q^j) mod p for j = 1 .. k; p is
    irreducible when x^(q^k) = x and gcd(x^(q^(k/r)) - x, p) = 1 for
    every prime r dividing k.
    """
    k = p.degree
    if k <= 0:
        return False
    if k == 1:
        return True
    if p.coeffs[0] == 0:
        return False  # divisible by x
    ext = ExtensionSpec(p.spec, p.monic())
    x = y = Poly.x(p.spec) % ext.modulus
    keep = dict.fromkeys(k // r for r in _prime_divisors(k))
    for j in range(1, k + 1):
        for _ in range(p.spec.n):
            y = poly_mod_square(y, ext)
        if j in keep:
            keep[j] = y
    return y == x and all(
        poly_gcd(v + x, ext.modulus).degree <= 0 for v in keep.values()
    )


def poly_order(a: Poly, ext: ExtensionSpec, fact: Factorization) -> int:
    """Multiplicative order of a unit in the quotient field.

    ``fact`` must completely factor a multiple of the order (usually
    q^degree - 1).
    """
    if not fact.complete:
        raise IncompleteFactorization(
            f"need a complete factorization, cofactor {fact.cofactor} remains"
        )
    a = a % ext.modulus
    if a.is_zero():
        raise NotAUnit("0 has no multiplicative order")
    order = fact.n
    one = Poly.const(ext.base, 1)
    if poly_mod_pow(a, order, ext) != one:
        raise NotAUnit("element order does not divide the claimed group order")
    for p in fact.factors:
        while order % p == 0 and poly_mod_pow(a, order // p, ext) == one:
            order //= p
    return order


def field_order(spec: FieldSpec, bits: int, fact: Factorization) -> int:
    """Multiplicative order of a nonzero base-field element.

    ``fact`` must be the complete factorization of a multiple of the
    order, normally q - 1.
    """
    if bits == 0:
        raise NotAUnit("0 has no multiplicative order")
    if not fact.complete:
        raise IncompleteFactorization(
            f"need a complete factorization, cofactor {fact.cofactor} remains"
        )
    t = fact.n
    if spec.pow(bits, t) != 1:
        raise NotAUnit("element order does not divide the claimed group order")
    for p in fact.factors:
        while t % p == 0 and spec.pow(bits, t // p) == 1:
            t //= p
    return t


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

    Primitivity needs the factorization of q^degree - 1; when the budget
    cannot finish it, the first irreducible candidate is returned with
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
        ext = ExtensionSpec(base, cand)
        if poly_order(Poly.x(base), ext, fact) == group:
            return PrimitivePoly(cand, fact, True)
    raise BudgetExceeded(
        f"no primitive polynomial of degree {degree} found in {max_draws} draws"
    )


def linear_factor_product(roots: list[Poly], ext: ExtensionSpec) -> Poly:
    """Expand prod (X - r) for roots in the quotient; coefficients must
    collapse into the base field."""
    spec = ext.base
    prod: list[Poly] = [Poly.const(spec, 1)]
    for r in roots:
        nxt = [Poly((), spec) for _ in range(len(prod) + 1)]
        for i, c in enumerate(prod):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] + poly_mod_mul(c, r, ext)  # char 2: -r = r
        prod = nxt
    out = []
    for c in prod:
        if c.degree > 0:
            raise ArithmeticError("product did not collapse into the base field")
        out.append(c.coeffs[0] if c.coeffs else 0)
    return Poly.make(spec, out)
