"""Binary field towers: base fields, polynomials and extensions.

Oracles: sympy polynomial arithmetic mod 2 for GF(2) questions, naive
convolution for products, brute-force enumeration at tiny sizes.
"""

import random

import pytest
import sympy
from sympy.abc import t

from circulant_elgamal.gf2field import (
    BudgetExceeded,
    ExtensionSpec,
    FieldElement,
    FieldSpec,
    Poly,
    SpecMismatch,
    ZeroInverse,
    field_make,
    field_order,
    frobenius,
    linear_factor_product,
    min_poly_over_base,
    poly_ext_gcd,
    poly_gcd,
    poly_is_irreducible,
    poly_mod_inv,
    poly_mod_mul,
    poly_mod_pow,
    poly_order,
    primitive_poly,
)
from circulant_elgamal.numtheory import factor


def bits_to_sympy(v: int):
    return sympy.Poly([int(b) for b in bin(v)[2:]], t, modulus=2)


def test_field_make_modulus_pins():
    assert field_make(1).modulus == 0b11
    assert field_make(3).modulus == 0b1011
    assert field_make(8).modulus == 0x11B


def test_field_make_modulus_minimal_irreducible():
    # lexicographically smallest irreducible of each degree, checked by
    # exhaustive scan with sympy as the irreducibility oracle
    for n in (2, 3, 4, 5, 6, 8):
        spec = field_make(n)
        assert bits_to_sympy(spec.modulus).is_irreducible
        for cand in range(1 << n, spec.modulus):
            if cand.bit_length() == n + 1:
                assert not bits_to_sympy(cand).is_irreducible


def test_field_mul_known_values():
    f8 = field_make(8)
    assert f8.mul(0x53, 0xCA) == 0x01  # classic inverse pair mod 0x11b
    f3 = field_make(3)
    assert f3.mul(0b010, 0b100) == 0b011  # t * t^2 = t + 1


def test_field_mul_matches_sympy():
    rng = random.Random(11)
    for n in (3, 8, 11, 16, 20):
        spec = field_make(n)
        mod = bits_to_sympy(spec.modulus)
        for _ in range(60):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            want = (bits_to_sympy(a) * bits_to_sympy(b)) % mod
            coeffs = [c % 2 for c in want.all_coeffs()]
            assert spec.mul(a, b) == int("".join(map(str, coeffs)) or "0", 2)


def test_field_axioms_sampled():
    rng = random.Random(12)
    for n in (1, 3, 8, 16, 24):
        spec = field_make(n)
        for _ in range(300):
            a, b, c = (rng.getrandbits(n) for _ in range(3))
            assert spec.mul(a, b) == spec.mul(b, a)
            assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
            assert spec.mul(a, spec.add(b, c)) == spec.add(
                spec.mul(a, b), spec.mul(a, c)
            )
            assert spec.add(a, a) == 0
            assert spec.square(a) == spec.mul(a, a)
            if a:
                assert spec.mul(a, spec.inv(a)) == 1
                assert spec.pow(a, spec.order) == 1
    assert field_make(8).inv(1) == 1


def test_field_pow_agrees_with_repeated_mul():
    spec = field_make(5)
    rng = random.Random(13)
    for _ in range(50):
        a = rng.getrandbits(5)
        acc = 1
        for e in range(10):
            assert spec.pow(a, e) == acc
            acc = spec.mul(acc, a)


def test_field_element_wrappers():
    spec = field_make(8)
    a = FieldElement(0x53, spec)
    b = FieldElement(0xCA, spec)
    assert (a * b).bits == 1
    assert (a + a).bits == 0
    assert (a / a).bits == 1
    assert a.inverse() * a == spec.one
    assert (a ** 3) == a * a * a
    assert a.square() == a * a
    assert not a.is_zero() and spec.zero.is_zero()
    assert FieldElement.from_hex(spec, a.to_hex()) == a
    with pytest.raises(ZeroInverse):
        spec.zero.inverse()
    other = field_make(3)
    with pytest.raises(SpecMismatch):
        _ = a + FieldElement(1, other)


def test_field_element_rejects_out_of_range_bits():
    spec = field_make(3)
    with pytest.raises(ValueError):
        FieldElement(8, spec)


def test_fieldspec_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        FieldSpec(2, 0b101)  # t^2 + 1 = (t+1)^2
    with pytest.raises(ValueError):
        FieldSpec(3, 0b1011 ^ 0b1000 ^ 0b10000)  # degree mismatch


def poly_mul_naive(a: Poly, b: Poly) -> Poly:
    spec = a.spec
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] ^= spec.mul(x, y)
    return Poly.make(spec, out)


def test_poly_algebra_random():
    rng = random.Random(14)
    spec = field_make(3)
    for _ in range(200):
        a = Poly.make(spec, [rng.getrandbits(3) for _ in range(rng.randrange(1, 7))])
        b = Poly.make(spec, [rng.getrandbits(3) for _ in range(rng.randrange(1, 7))])
        assert a * b == poly_mul_naive(a, b)
        assert a + b == b + a
        assert (a + b) + a == b  # characteristic 2
        assert a.square() == a * a
        if not b.is_zero():
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree
            assert a // b == q and a % b == r


def test_poly_basics():
    spec = field_make(2)
    p = Poly.make(spec, [1, 0, 3, 0])  # trailing zeros trimmed
    assert p.degree == 2
    assert p.coeffs[-1] == 3
    assert Poly.make(spec, [0, 0]).is_zero()
    assert Poly.x(spec).degree == 1
    assert Poly.const(spec, 2).degree == 0
    assert p.monic().is_monic()
    # Horner evaluation against direct powers
    for a in range(4):
        direct = 1 ^ spec.mul(3, spec.mul(a, a))
        assert p.evaluate(a) == direct
    with pytest.raises(ZeroDivisionError):
        divmod(p, Poly.make(spec, [0]))


def test_poly_ext_gcd_known_and_random():
    spec = field_make(1)
    x2m1 = Poly.make(spec, [1, 0, 1])  # x^2 - 1 = x^2 + 1
    xm1 = Poly.make(spec, [1, 1])
    g, u, v = poly_ext_gcd(x2m1, xm1)
    assert g == xm1
    g, u, v = poly_ext_gcd(Poly.x(spec), Poly.make(spec, [1, 1]))
    assert g == Poly.const(spec, 1)
    assert u * Poly.x(spec) + v * Poly.make(spec, [1, 1]) == g
    p = Poly.make(spec, [1, 1, 0, 1])
    g, u, v = poly_ext_gcd(p, Poly.make(spec, [0]))
    assert g == p.monic() and u == Poly.const(spec, 1) and v.is_zero()

    rng = random.Random(15)
    s3 = field_make(3)
    for _ in range(100):
        a = Poly.make(s3, [rng.getrandbits(3) for _ in range(rng.randrange(1, 6))])
        b = Poly.make(s3, [rng.getrandbits(3) for _ in range(rng.randrange(1, 6))])
        if a.is_zero() and b.is_zero():
            continue
        g, u, v = poly_ext_gcd(a, b)
        assert u * a + v * b == g
        assert g.is_monic()
        if not a.is_zero():
            assert (a % g).is_zero()
        if not b.is_zero():
            assert (b % g).is_zero()
        assert poly_gcd(a, b) == g


def test_poly_is_irreducible_known():
    s1 = field_make(1)
    assert poly_is_irreducible(Poly.make(s1, [1, 1, 1]))
    assert not poly_is_irreducible(Poly.make(s1, [1, 0, 1]))  # (x+1)^2
    # Phi for d=11 over GF(2^3) is irreducible since 2^3 is primitive mod 11
    s3 = field_make(3)
    assert poly_is_irreducible(Poly.make(s3, [1] * 11))


def test_poly_is_irreducible_counts():
    # monic irreducible counts: degree 3 over GF(2) -> 2, degree 2 over
    # GF(4) -> (16 - 4) / 2 = 6
    s1 = field_make(1)
    cubics = [
        Poly.make(s1, [c0, c1, c2, 1])
        for c0 in range(2)
        for c1 in range(2)
        for c2 in range(2)
    ]
    assert sum(poly_is_irreducible(p) for p in cubics) == 2
    s2 = field_make(2)
    quads = [
        Poly.make(s2, [c0, c1, 1]) for c0 in range(4) for c1 in range(4)
    ]
    assert sum(poly_is_irreducible(p) for p in quads) == 6


def test_poly_is_irreducible_matches_sympy():
    rng = random.Random(16)
    s1 = field_make(1)
    for _ in range(100):
        deg = rng.randrange(1, 9)
        coeffs = [rng.getrandbits(1) for _ in range(deg)] + [1]
        p = Poly.make(s1, coeffs)
        sp = sympy.Poly(list(reversed(coeffs)), t, modulus=2)
        assert poly_is_irreducible(p) == sp.is_irreducible


def test_extension_arithmetic():
    s1 = field_make(1)
    phi3 = Poly.make(s1, [1, 1, 1])
    ext = ExtensionSpec(s1, phi3)
    x = Poly.x(s1)
    assert poly_mod_mul(x, x, ext) == Poly.make(s1, [1, 1])  # x^2 = x + 1
    p = Poly.make(s1, [1, 1])
    assert poly_mod_mul(ext.one, p, ext) == p
    assert poly_mod_mul(Poly.make(s1, [0]), p, ext).is_zero()
    assert frobenius(x, ext) == Poly.make(s1, [1, 1])
    assert poly_mod_inv(x, ext) == poly_mod_pow(x, 2, ext)  # x^3 = 1
    got = frobenius(Poly.const(s1, 1), ext)
    assert got == Poly.const(s1, 1)


def test_frobenius_full_orbit_and_homomorphism():
    s3 = field_make(3)
    phi = Poly.make(s3, [1] * 11)
    ext = ExtensionSpec(s3, phi)
    rng = random.Random(17)
    for _ in range(20):
        a = Poly.make(s3, [rng.getrandbits(3) for _ in range(10)])
        b = Poly.make(s3, [rng.getrandbits(3) for _ in range(10)])
        fa = frobenius(a, ext)
        fb = frobenius(b, ext)
        assert frobenius(a + b, ext) == fa + fb
        assert frobenius(poly_mod_mul(a, b, ext), ext) == poly_mod_mul(fa, fb, ext)
        cur = a
        for _ in range(10):  # d - 1 = 10 applications close the orbit
            cur = frobenius(cur, ext)
        assert cur == a


def test_poly_order_known():
    s1 = field_make(1)
    x = Poly.x(s1)
    prim = ExtensionSpec(s1, Poly.make(s1, [1, 1, 0, 0, 1]))  # x^4+x+1
    assert poly_order(x, prim, factor(15)) == 15
    nonprim = ExtensionSpec(s1, Poly.make(s1, [1, 1, 1, 1, 1]))
    assert poly_order(x, nonprim, factor(15)) == 5


def test_field_order_examples():
    spec = field_make(4)
    qm1 = factor(15)
    assert field_order(spec, 1, qm1) == 1
    for a in range(2, 16):
        k = field_order(spec, a, qm1)
        assert spec.pow(a, k) == 1
        for p in (3, 5):
            if k % p == 0:
                assert spec.pow(a, k // p) != 1
    orders = {field_order(spec, a, qm1) for a in range(1, 16)}
    assert max(orders) == 15  # generators exist


def test_primitive_poly_verified_path():
    s1 = field_make(1)
    rng = random.Random(18)
    for degree in (2, 4, 6):
        got = primitive_poly(degree, s1, rng)
        assert got.primitivity_verified
        assert got.poly.degree == degree and got.poly.is_monic()
        assert poly_is_irreducible(got.poly)
        ext = ExtensionSpec(s1, got.poly)
        group = (1 << degree) - 1
        assert poly_order(Poly.x(s1), ext, factor(group)) == group
    # degree 2 over GF(2) has exactly one irreducible candidate
    got = primitive_poly(2, s1, random.Random(0))
    assert got.poly == Poly.make(s1, [1, 1, 1])


def test_primitive_poly_unverified_under_budget():
    spec = field_make(47)
    got = primitive_poly(10, spec, random.Random(19), budget=1 << 10)
    assert not got.primitivity_verified
    assert not got.order_factorization.complete
    assert poly_is_irreducible(got.poly)


def test_primitive_poly_deterministic():
    s3 = field_make(3)
    a = primitive_poly(4, s3, random.Random(20))
    b = primitive_poly(4, s3, random.Random(20))
    assert a.poly == b.poly


def test_min_poly_over_base():
    s1 = field_make(1)
    f = Poly.make(s1, [1, 1, 0, 0, 1])
    ext = ExtensionSpec(s1, f)
    assert min_poly_over_base(Poly.x(s1), ext) == f
    one = Poly.const(s1, 1)
    assert min_poly_over_base(one, ext) == Poly.make(s1, [1, 1])


def test_linear_factor_product_conjugate_closure():
    s3 = field_make(3)
    phi = Poly.make(s3, [1] * 11)
    ext = ExtensionSpec(s3, phi)
    rng = random.Random(21)
    beta = Poly.make(s3, [rng.getrandbits(3) for _ in range(10)])
    roots = [beta]
    for _ in range(9):
        roots.append(frobenius(roots[-1], ext))
    g = linear_factor_product(roots, ext)
    assert g.degree == 10 and g.is_monic()
    # evaluating g at beta must vanish: compose in the extension
    acc = Poly.make(s3, [0])
    power_of_beta = ext.one
    for c in g.coeffs:
        acc = acc + power_of_beta.scale(c)
        power_of_beta = poly_mod_mul(power_of_beta, beta, ext)
    assert ext.reduce(acc).is_zero()


def test_linear_factor_product_rejects_open_sets():
    s3 = field_make(3)
    phi = Poly.make(s3, [1] * 11)
    ext = ExtensionSpec(s3, phi)
    beta = Poly.make(s3, [3, 1])
    with pytest.raises(ArithmeticError):
        # two arbitrary roots almost surely do not form a Frobenius
        # orbit, so the product cannot collapse to base coefficients
        linear_factor_product([beta, beta + ext.one], ext)


def test_budget_exceeded_is_runtime_error():
    assert issubclass(BudgetExceeded, RuntimeError)
