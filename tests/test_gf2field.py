"""Binary field towers: base fields, polynomials and extensions.

Oracles: sympy polynomial arithmetic mod 2 for GF(2) questions, naive
convolution for products, brute-force enumeration at tiny sizes. Field
products and squares, and `Poly` products, all run on the packed
kernel; they are checked against bit-by-bit multiplication and
division, and against the schoolbook double loop.
"""

import functools
import hashlib
import operator
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.abc import t
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcd

from circulant_elgamal import fileio, gf2field
from circulant_elgamal.circulant import Circulant
from circulant_elgamal.gf2field import (
    BudgetExceeded,
    FieldSpec,
    Poly,
    ZeroInverse,
    _frobenius_orbit,
    _pinvert,
    _pirreducible,
    _ring,
    _x_is_primitive,
    field_make,
    frobenius,
    linear_factor_product,
    poly_ext_gcd,
    poly_is_irreducible,
    poly_mod_mul,
    poly_mod_pow,
    primitive_poly,
)
from circulant_elgamal.numtheory import element_order, factor
from oracles import field_ops, mulmod, pinvert_ref


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


def test_field_int_methods():
    # a field element is its int: 0x53 and 0xCA are inverses mod 0x11b
    spec = field_make(8)
    a, b = 0x53, 0xCA
    assert spec.mul(a, b) == 1 and spec.inv(a) == b
    assert spec.add(a, a) == 0
    assert spec.mul(a, spec.inv(a)) == 1
    assert spec.pow(a, 3) == spec.mul(spec.mul(a, a), a)
    assert spec.pow(a, -1) == b
    assert spec.square(a) == spec.mul(a, a)
    assert fileio.parse_entries(fileio.hex_line([a]), spec, 1, "a") == (a,)
    with pytest.raises(ZeroInverse):
        spec.inv(0)


def test_field_element_rejects_out_of_range_bits():
    spec = field_make(3)
    assert spec.check(iter(range(8))) == tuple(range(8))
    for bits in (8, -1):
        with pytest.raises(ValueError, match="out of range for GF"):
            spec.check([1, bits])
        with pytest.raises(ValueError, match="out of range for GF"):
            Poly.make(spec, [1, bits])


def test_values_compare_and_hash_by_value_and_spec():
    spec, other = field_make(8), field_make(3)
    p, q = Poly.make(spec, (1, 0, 2, 0)), Poly.make(spec, (1, 0, 2))
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != Poly.make(spec, (1, 0, 3)) and p != Poly.make(other, (1, 0, 2))
    assert p != ((1, 0, 2), spec) and p.__eq__(p.coeffs) is NotImplemented
    assert repr(p) == "Poly(0x1*x^0 + 0x2*x^2, GF(2^8))"
    with pytest.raises(ValueError):
        Poly.make(other, (8,))


def test_fieldspec_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        FieldSpec(2, 0b101)  # t^2 + 1 = (t+1)^2
    with pytest.raises(ValueError):
        FieldSpec(3, 0b1011 ^ 0b1000 ^ 0b10000)  # degree mismatch


def test_fieldspec_rejects_negative_modulus():
    # -m has m's bit length, and reducing by it never ended: a hang at
    # (2, -7), (4, -19), (5, -33), (6, -65), (6, -87) and (6, -117)
    with pytest.raises(ValueError, match="-0b11 is not"):
        FieldSpec(1, -3)
    for n in range(1, 7):
        for m in range(1 << n, 2 << n):
            with pytest.raises(ValueError):
                FieldSpec(n, -m)


# largest irreducible polynomial of each degree: t^n + g(t), deg g = n - 1
DENSE_MODULI = {
    17: 0x3FFEF,
    29: 0x3FFFFFE9,
    43: 0xFFFFFFFFFCB,
    47: 0xFFFFFFFFFFFD,
    64: 0x1FFFFFFFFFFFFFFBB,
    89: 0x3FFFFFFFFFFFFFFFFFFFFDF,
    128: 0x1FFFFFFFFFFFFFFFFFFFFFFFFFFFFFF5F,
}


@pytest.mark.parametrize("dense", (False, True))
@pytest.mark.parametrize("n", sorted(DENSE_MODULI))
def test_field_mul_square_match_bitwise_reduction(n, dense):
    # products and squares run on the kernel at d = 1, sampled at large n
    spec = FieldSpec(n, DENSE_MODULI[n]) if dense else field_make(n)
    m, rng = spec.modulus, random.Random(n)
    vals = [0, 1, spec.order, 1 << n - 1] + [spec.rand(rng) for _ in range(36)]
    for a in vals:
        assert spec.square(a) == mulmod(a, a, m)
        for b in vals:
            assert spec.mul(a, b) == mulmod(a, b, m)


@pytest.mark.parametrize("n", range(1, 9))
def test_field_tables_match_kernel(n):
    # the kernel at d = 1 and Euclid's inverse against the oracle's tables
    # from bitwise multiply and reduce, on every pair, for the default
    # modulus and the largest irreducible one
    dense = (2 << n) - 1
    while not _pirreducible(dense):
        dense -= 2
    for spec in (field_make(n), FieldSpec(n, dense)):
        fmul, finv = field_ops(spec)
        for a in range(1 << n):
            assert spec.square(a) == fmul(a, a)
            for b in range(1 << n):
                assert spec.mul(a, b) == fmul(a, b)
            if a:
                assert spec.inv(a) == finv(a) and spec.mul(a, spec.inv(a)) == 1
        with pytest.raises(ZeroInverse, match="^0 has no inverse$"):
            spec.inv(0)


def test_pinvert_zero_exactly_off_coprime():
    # every a < 2^7 against every m of degree 1 to 6, reducible ones too:
    # the reference Euclid's inverse is 0 exactly when sympy's gcd of a and
    # m over GF(2) is not 1 (on dense coefficient lists, leading
    # coefficient first). The library's binary algorithm halves by t, so it
    # gives the same answer on every m with a constant term and on m = t,
    # the moduli the library passes
    dense = [[int(b) for b in f"{v:b}"] for v in range(1 << 7)]
    for m in range(2, 1 << 7):
        for a in range(1 << 7):
            u = pinvert_ref(a, m)
            coprime = a != 0 and gf_gcd(dense[a], dense[m], 2, ZZ) == [1]
            assert (u != 0) == coprime, (a, m)
            if coprime:
                assert mulmod(a, u, m) == 1, (a, m)
            if m & 1 or m == 0b10:
                assert _pinvert(a, m) == u, (a, m)


def test_field_inv_matches_reference_euclid():
    # the binary algorithm against the quotient Euclid it replaced, for
    # every n on the default modulus and, where the table has one, the
    # dense modulus; the samples hold 1, 2^n - 1 and t^(n - 1)
    rng = random.Random(44)
    for n in range(1, 129):
        specs = [field_make(n)]
        if n in DENSE_MODULI:
            specs.append(FieldSpec(n, DENSE_MODULI[n]))
        for spec in specs:
            vals = [1, spec.order, 1 << n - 1]
            vals += [spec.rand(rng) or 1 for _ in range(8)]
            for a in vals:
                u = spec.inv(a)
                assert u == pinvert_ref(a, spec.modulus), (n, spec.modulus, a)
                assert spec.mul(a, u) == 1, (n, spec.modulus, a)


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
        if not b.is_zero():
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree
            assert divmod(a, b) == (q, r) and a % b == r


@st.composite
def poly_pair(draw):
    # lengths 0 .. 40, 0 being the zero polynomial
    spec = field_make(draw(st.sampled_from((1, 2, 3, 11, 16, 17, 47))))
    coeffs = st.lists(st.integers(0, spec.order), max_size=40)
    return Poly.make(spec, draw(coeffs)), Poly.make(spec, draw(coeffs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(poly_pair())
def test_poly_mul_matches_schoolbook(pair):
    a, b = pair
    assert a * b == poly_mul_naive(a, b) == b * a


def poly_divmod_naive(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Schoolbook long division, one field product per divisor coefficient,
    on `field_ops`, not on the kernel that `divmod` runs on."""
    spec, db = a.spec, b.degree
    mul, inv = field_ops(spec)
    inv_lead = inv(b.leading())
    rem = list(a.coeffs)
    if len(rem) - 1 < db:
        return Poly(0, spec), a
    q = [0] * (len(rem) - db)
    for k in range(len(rem) - 1, db - 1, -1):
        f = mul(rem[k], inv_lead)
        q[k - db] = f
        for j in range(db + 1):
            rem[k - db + j] ^= mul(f, b.coeffs[j])
    return Poly.make(spec, q), Poly.make(spec, rem)


F16, F47 = field_make(16), field_make(47)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(poly_pair())
@example((Poly(0, F47), Poly.make(F47, [5, 0, 7])))  # zero dividend
@example((Poly.make(F47, [1, 2]), Poly.make(F47, [3, 4, 9])))  # shorter dividend
@example((Poly.make(F16, range(1, 30)), Poly.make(F16, [7, 0, 0, 0xBEEF])))  # non-monic
@example((Poly.make(F47, [1, 1, 0, 1]), Poly(0, F47)))  # division by zero
def test_poly_divmod_matches_long_division(pair):
    a, b = pair
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
    else:
        q, r = divmod(a, b)
        assert (q, r) == poly_divmod_naive(a, b)
        assert q * b + r == a and r.degree < b.degree


@pytest.mark.parametrize("n,d", [(1, 5), (3, 11), (8, 7), (47, 11)])
def test_poly_row_is_circulant_row(n, d):
    # a Poly holds its packed row in the layout of a circulant row
    spec, rng = field_make(n), random.Random(n * 100 + d)
    for _ in range(20):
        c = Circulant.random(spec, d, rng)
        p = Poly.make(spec, c.bits())
        assert p.row == c.row
        assert list(p.coeffs) == c.bits()[: p.degree + 1]
    zero = Poly(0, spec)
    assert zero.degree == -1 and zero.coeffs == () and zero.is_zero()


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


def check_ext_gcd(a, b):
    """g divides a and b and u a = g mod b, which pins g as the gcd, since
    every common divisor of a and b then divides g."""
    g, u = poly_ext_gcd(a, b)
    assert g.is_monic()
    assert (a % g).is_zero() and (b % g).is_zero()
    assert ((u * a + g) % b).is_zero()
    if b.degree >= 1:
        assert u.degree < b.degree
    return g, u


def test_poly_ext_gcd_known_and_random():
    spec = field_make(1)
    x2m1 = Poly.make(spec, [1, 0, 1])  # x^2 - 1 = x^2 + 1
    xm1 = Poly.make(spec, [1, 1])
    g, u = check_ext_gcd(x2m1, xm1)
    assert g == xm1
    g, u = check_ext_gcd(Poly.x(spec), xm1)
    assert g == Poly.const(spec, 1) and u == Poly.const(spec, 1)
    p = Poly.make(spec, [1, 1, 0, 1])
    g, u = poly_ext_gcd(p, Poly.make(spec, [0]))
    assert g == p.monic() and u == Poly.const(spec, 1)
    s3 = field_make(3)
    p = Poly.make(s3, [1, 2, 5])
    g, u = poly_ext_gcd(p, Poly.make(s3, [0]))
    assert g == p.monic() and u == Poly.const(s3, s3.inv(5))

    rng = random.Random(15)
    for _ in range(100):
        a = Poly.make(s3, [rng.getrandbits(3) for _ in range(rng.randrange(1, 6))])
        b = Poly.make(s3, [rng.getrandbits(3) for _ in range(rng.randrange(1, 6))])
        if a.is_zero() and b.is_zero():
            continue
        if b.is_zero():
            g, u = poly_ext_gcd(a, b)
            assert g == a.monic() and u == Poly.const(s3, s3.inv(a.leading()))
        else:
            check_ext_gcd(a, b)


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


def irreducible_reference(p):
    """The distinct-degree test with a fresh squaring chain per check."""
    k, n, tau = p.degree, p.spec.n, p.monic()
    x = Poly.x(p.spec) % tau

    def x_q_power(j):
        r = x
        for _ in range(j * n):
            r = poly_mod_mul(r, r, tau)
        return r

    def gcd(a, b):
        while not b.is_zero():
            a, b = b, a % b
        return a

    if p.coeffs[0] == 0 or x_q_power(k) != x:
        return k == 1
    return all(
        gcd(x_q_power(k // r) + x, tau).degree == 0
        for r in sympy.primefactors(k)
    )


@pytest.mark.parametrize(
    "spec", [field_make(n) for n in (1, 2, 3, 11, 47)] + [FieldSpec(11, 0xFFB)], ids=repr
)
def test_frobenius_orbit_matches_squaring_and_long_division(spec):
    # every packed row x^(q^j) mod p against n j squarings of x, each one
    # a schoolbook square and division on field_ops; random monic p,
    # mostly reducible, some with p(0) = 0
    rng = random.Random(spec.modulus)
    for k in (1, 2, 3, 5, 10):
        p = Poly.make(spec, [spec.rand(rng) for _ in range(k)] + [1])
        unpack = _ring(spec, k).unpack
        got = [Poly.make(spec, unpack(y)) for y in _frobenius_orbit(p)]
        want = [poly_divmod_naive(Poly.x(spec), p)[1]]
        for _ in range(k):
            y = want[-1]
            for _ in range(spec.n):
                y = poly_divmod_naive(poly_mul_naive(y, y), p)[1]
            want.append(y)
        assert got == want, (k, p)


@pytest.mark.parametrize("n", (2, 3, 4, 8, 17, 47))
def test_poly_is_irreducible_matches_reference(n):
    # random monic polynomials, and products of two, which are reducible;
    # fewer draws above the table fields, where the reference is slow
    spec = field_make(n)
    rng = random.Random(n)

    def monic(deg):
        return Poly.make(spec, [spec.rand(rng) for _ in range(deg)] + [1])

    seen = set()
    for _ in range(60 if n <= 8 else 24):
        p = monic(rng.randrange(1, 9))
        got = poly_is_irreducible(p)
        assert got == irreducible_reference(p)
        seen.add(got)
        q = monic(rng.randrange(1, 5)) * monic(rng.randrange(1, 5))
        assert not poly_is_irreducible(q) and not irreducible_reference(q)
    assert seen == {True, False}


@pytest.mark.parametrize("n", (1, 2, 3, 17, 47))
def test_poly_is_irreducible_gcd_rejections(n):
    # squarefree products of irreducibles whose degrees divide k and are
    # below k: x^(q^k) = x mod p, so only the gcds can reject them
    spec, rng = field_make(n), random.Random(100 + n)
    x = Poly.x(spec)

    def irreducibles(deg, count):
        found = set()
        for _ in range(300):
            c = [spec.rand(rng) for _ in range(deg)] + [1]
            c[0] = c[0] or 1
            p = Poly.make(spec, c)
            if p not in found and irreducible_reference(p):
                found.add(p)
                if len(found) == count:
                    return list(found)
        return None  # the field has too few of them

    tried = 0
    recipes = ((1, 1), (1, 1, 2), (2, 2), (3, 3), (2, 2, 2), (1, 2, 3), (4, 4), (3, 3, 3))
    for degrees in recipes:
        factors = []
        for deg in sorted(set(degrees)):
            got = irreducibles(deg, degrees.count(deg))
            if got is None:
                break
            factors += got
        else:
            p = functools.reduce(operator.mul, factors)
            assert poly_mod_pow(x, (1 << n) ** p.degree, p) == x
            assert not poly_is_irreducible(p), degrees
            tried += 1
    assert tried == (3 if n == 1 else 8)  # GF(2) has one quadratic, two cubics


def test_binary_irreducibility_exhaustive():
    # every polynomial over GF(2) of degree <= 9 against sympy
    for f in range(1, 1 << 10):
        assert _pirreducible(f) == (
            f.bit_length() > 1 and bits_to_sympy(f).is_irreducible
        ), bin(f)


# SHA-256 of the moduli field_make picks for n = 1 .. 128, one hex line
# each; any shortcut in the irreducibility test that moves one changes it
FIELD_MODULI_SHA256 = "39fff5a63c10fc379a8724552e7226651691ef1848469cda48398ab3ba13cf47"


def test_field_make_moduli_pinned():
    moduli = "\n".join(f"{field_make(n).modulus:x}" for n in range(1, 129))
    assert hashlib.sha256(moduli.encode()).hexdigest() == FIELD_MODULI_SHA256


def test_extension_arithmetic():
    s1 = field_make(1)
    phi3 = Poly.make(s1, [1, 1, 1])
    x = Poly.x(s1)
    assert poly_mod_mul(x, x, phi3) == Poly.make(s1, [1, 1])  # x^2 = x + 1
    p = Poly.make(s1, [1, 1])
    assert poly_mod_mul(Poly.const(s1, 1), p, phi3) == p
    assert poly_mod_mul(Poly.make(s1, [0]), p, phi3).is_zero()
    assert frobenius(x, phi3) == Poly.make(s1, [1, 1])
    with pytest.raises(ValueError):
        poly_mod_pow(x, -1, phi3)
    got = frobenius(Poly.const(s1, 1), phi3)
    assert got == Poly.const(s1, 1)


def test_frobenius_full_orbit_and_homomorphism():
    s3 = field_make(3)
    phi = Poly.make(s3, [1] * 11)
    rng = random.Random(17)
    for _ in range(20):
        a = Poly.make(s3, [rng.getrandbits(3) for _ in range(10)])
        b = Poly.make(s3, [rng.getrandbits(3) for _ in range(10)])
        fa = frobenius(a, phi)
        fb = frobenius(b, phi)
        assert frobenius(a + b, phi) == fa + fb
        assert frobenius(poly_mod_mul(a, b, phi), phi) == poly_mod_mul(fa, fb, phi)
        cur = a
        for _ in range(10):  # d - 1 = 10 applications close the orbit
            cur = frobenius(cur, phi)
        assert cur == a


def _poly_order(a, tau, fact):
    one = Poly.const(tau.spec, 1)
    return element_order(
        fact, a, lambda u, e: poly_mod_pow(u, e, tau), one.__eq__
    ).n


def _field_order(spec, a, fact):
    return element_order(fact, a, spec.pow, lambda x: x == 1).n


def test_poly_order_known():
    s1 = field_make(1)
    x = Poly.x(s1)
    prim = Poly.make(s1, [1, 1, 0, 0, 1])  # x^4+x+1
    assert _poly_order(x, prim, factor(15)) == 15
    nonprim = Poly.make(s1, [1, 1, 1, 1, 1])
    assert _poly_order(x, nonprim, factor(15)) == 5


def test_field_order_examples():
    spec = field_make(4)
    qm1 = factor(15)
    assert _field_order(spec, 1, qm1) == 1
    for a in range(2, 16):
        k = _field_order(spec, a, qm1)
        assert spec.pow(a, k) == 1
        for p in (3, 5):
            if k % p == 0:
                assert spec.pow(a, k // p) != 1
    orders = {_field_order(spec, a, qm1) for a in range(1, 16)}
    assert max(orders) == 15  # generators exist


def test_primitive_poly_verified_path():
    s1 = field_make(1)
    rng = random.Random(18)
    for degree in (2, 4, 6):
        got = primitive_poly(degree, s1, rng)
        group = (1 << degree) - 1
        assert factor(group).complete
        assert got.degree == degree and got.is_monic()
        assert poly_is_irreducible(got)
        assert _poly_order(Poly.x(s1), got, factor(group)) == group
    # degree 2 over GF(2) has exactly one irreducible candidate
    got = primitive_poly(2, s1, random.Random(0))
    assert got == Poly.make(s1, [1, 1, 1])


def test_primitive_poly_unverified_under_budget():
    spec = field_make(47)
    got = primitive_poly(10, spec, random.Random(19), budget=1 << 10)
    assert not factor((1 << 470) - 1, 1 << 10).complete
    assert poly_is_irreducible(got)


def test_primitive_poly_deterministic():
    s3 = field_make(3)
    a = primitive_poly(4, s3, random.Random(20))
    b = primitive_poly(4, s3, random.Random(20))
    assert a == b


@pytest.mark.parametrize(
    "n, degrees",
    [(1, (1, 2, 4, 6, 10, 12)), (3, (1, 2, 4, 10)), (11, (1, 2, 5)), (17, (1, 2, 3))],
)
def test_x_is_primitive_matches_order_oracle(n, degrees):
    # random irreducible tau, and for each prime p of N = q^k - 1 the
    # minimal polynomial of g^p, g the x of a primitive tau: x mod it has
    # order N/p, so p is the one prime that rejects it
    spec, rng = field_make(n), random.Random(300 + n)
    x = Poly.x(spec)
    verdicts, single = set(), 0
    for k in degrees:
        N = (1 << n * k) - 1
        fact = factor(N)
        assert fact.complete
        taus = []
        for _ in range(400):
            c = [spec.rand(rng) for _ in range(k)] + [1]
            c[0] = c[0] or 1
            tau = Poly.make(spec, c)
            if poly_is_irreducible(tau):
                taus.append(tau)
                if len(taus) == 6:
                    break
        prim = primitive_poly(k, spec, rng)
        assert _poly_order(x, prim, fact) == N
        for p in fact.primes():
            tau = min_poly_over_base(poly_mod_pow(x, p, prim), prim)
            if tau.degree == k:
                taus.append(tau)
                single += 1
        for tau in taus:
            order = _poly_order(x, tau, fact)
            assert _x_is_primitive(tau, fact) == (order == N), (k, tau)
            verdicts.add(order == N)
    assert verdicts == {True, False} and single >= len(degrees)


# seeds whose runs see reducible draws and rejected irreducible ones
@pytest.mark.parametrize("n, degree, seed", [(1, 10, 7), (3, 10, 5), (2, 4, 1)])
def test_primitive_poly_tests_each_draw_once(monkeypatch, n, degree, seed):
    # the tracer's draw_yield divides results by the irreducibility tests
    # under primitive_poly, so each draw must be tested exactly once, and
    # the first candidate that passes both tests is the result; each draw
    # builds one Frobenius orbit, which its primitivity test reads again
    spec = field_make(n)
    tested, verdicts = [], []
    irreducible, primitive = gf2field.poly_is_irreducible, gf2field._x_is_primitive

    def count_irreducible(p):
        tested.append(p)
        return irreducible(p)

    def count_primitive(tau, fact):
        verdicts.append(primitive(tau, fact))
        return verdicts[-1]

    monkeypatch.setattr(gf2field, "poly_is_irreducible", count_irreducible)
    monkeypatch.setattr(gf2field, "_x_is_primitive", count_primitive)
    _frobenius_orbit.cache_clear()
    got = primitive_poly(degree, spec, random.Random(seed))
    orbits = _frobenius_orbit.cache_info()
    replay = random.Random(seed)
    for cand in tested:
        c = [spec.rand(replay) for _ in range(degree)] + [1]
        if c[0] == 0:
            c[0] = 1 + replay.randrange(spec.order)
        assert cand == Poly.make(spec, c)
    assert factor((1 << n * degree) - 1).complete and got == tested[-1]
    assert verdicts == [False] * (len(verdicts) - 1) + [True]
    assert len(verdicts) == sum(map(irreducible, tested))
    assert len(tested) > len(verdicts) > 1
    assert (orbits.misses, orbits.hits) == (len(tested), len(verdicts))


def min_poly_over_base(a: Poly, tau: Poly) -> Poly:
    """Minimal polynomial over F_q of an element of the field F_q[x]/tau.

    Built from the library's `frobenius` and `linear_factor_product`,
    which the test below checks through it. The orbit of a has at most
    deg(tau) conjugates, so a broken `frobenius` fails here, not hangs.
    """
    conj = [a % tau]
    for _ in range(tau.degree):
        nxt = frobenius(conj[-1], tau)
        if nxt == conj[0]:
            return linear_factor_product(conj, tau)
        conj.append(nxt)
    raise AssertionError(f"the orbit of {a} is not closed after deg(tau) steps")


def test_min_poly_over_base():
    s1 = field_make(1)
    f = Poly.make(s1, [1, 1, 0, 0, 1])
    assert min_poly_over_base(Poly.x(s1), f) == f
    one = Poly.const(s1, 1)
    assert min_poly_over_base(one, f) == Poly.make(s1, [1, 1])


def test_linear_factor_product_conjugate_closure():
    s3 = field_make(3)
    phi = Poly.make(s3, [1] * 11)
    rng = random.Random(21)
    beta = Poly.make(s3, [rng.getrandbits(3) for _ in range(10)])
    roots = [beta]
    for _ in range(9):
        roots.append(frobenius(roots[-1], phi))
    g = linear_factor_product(roots, phi)
    assert g.degree == 10 and g.is_monic()
    # evaluating g at beta must vanish: compose in the extension
    acc = Poly.make(s3, [0])
    power_of_beta = Poly.const(s3, 1)
    for c in g.coeffs:
        acc = acc + power_of_beta.scale(c)
        power_of_beta = poly_mod_mul(power_of_beta, beta, phi)
    assert (acc % phi).is_zero()


def test_linear_factor_product_rejects_open_sets():
    s3 = field_make(3)
    phi = Poly.make(s3, [1] * 11)
    beta = Poly.make(s3, [3, 1])
    with pytest.raises(ArithmeticError):
        # two arbitrary roots almost surely do not form a Frobenius
        # orbit, so the product cannot collapse to base coefficients
        linear_factor_product([beta, beta + Poly.const(s3, 1)], phi)


def test_budget_exceeded_is_runtime_error():
    assert issubclass(BudgetExceeded, RuntimeError)
