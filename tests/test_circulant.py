"""Circulant ring arithmetic: convolution products, squaring permutation,
operation counting, the idempotent split by Phi, and the
characteristic-polynomial quotient.

The expanded d x d matrix is the oracle for everything the first-row
representation claims.
"""

import random

import pytest

from circulant_elgamal.circulant import (
    Circulant,
    DimensionMismatch,
    EvenD,
    NotInvertible,
    OpCounter,
    PhiReducible,
    char_poly_quotient,
    det,
    inverse,
    matvec,
    mul,
    power,
    row_sum,
    square,
)
from circulant_elgamal.gf2field import (
    FieldElement,
    Poly,
    SpecMismatch,
    field_make,
    poly_mod_mul,
)

from oracles import expand, field_ops


def C(spec, *bits):
    return Circulant.from_bits(spec, bits)


def test_mul_known_values():
    s1 = field_make(1)
    assert mul(C(s1, 1, 1, 0), C(s1, 1, 0, 1)) == C(s1, 0, 1, 1)
    rng = random.Random(1)
    s3 = field_make(3)
    for _ in range(30):
        b = Circulant.random(s3, 7, rng)
        assert mul(Circulant.identity(s3, 7), b) == b
        a = Circulant.random(s3, 7, rng)
        assert mul(a, b) == mul(b, a)


def test_mul_matches_schoolbook_polynomials():
    # ring isomorphism with F_q[x]/(x^d - 1): convolve then fold
    rng = random.Random(2)
    for n, d in ((1, 3), (3, 11), (8, 5)):
        spec = field_make(n)
        for _ in range(100):
            a = Circulant.random(spec, d, rng)
            b = Circulant.random(spec, d, rng)
            prod = [0] * (2 * d)
            av, bv = a.bits(), b.bits()
            for i in range(d):
                for j in range(d):
                    prod[i + j] ^= spec.mul(av[i], bv[j])
            folded = [prod[k] ^ prod[k + d] for k in range(d)]
            assert mul(a, b).bits() == folded


def test_mul_matches_expanded_matrix_product():
    rng = random.Random(3)
    spec = field_make(3)
    for _ in range(20):
        a = Circulant.random(spec, 5, rng)
        b = Circulant.random(spec, 5, rng)
        ea, eb = expand(a), expand(b)
        want = [
            [
                sum(
                    (ea[i][k] * eb[k][j] for k in range(5)),
                    start=spec.zero,
                )
                for j in range(5)
            ]
            for i in range(5)
        ]
        assert expand(mul(a, b)) == want


def test_expand_shape():
    spec = field_make(3)
    a = C(spec, 1, 2, 3, 4, 5)
    rows = expand(a)
    for k in range(5):
        for j in range(5):
            assert rows[k][j].bits == a.bits()[(j - k) % 5]
    # each row is the previous row rotated right
    for k in range(1, 5):
        assert rows[k] == rows[k - 1][-1:] + rows[k - 1][:-1]


def test_square_known_values():
    s1 = field_make(1)
    assert square(C(s1, 1, 1, 0, 0, 0)) == C(s1, 1, 0, 1, 0, 0)
    i5 = Circulant.identity(s1, 5)
    assert square(i5) == i5


def test_square_equals_mul_and_permutation():
    rng = random.Random(4)
    for n, d in ((1, 3), (3, 5), (8, 11)):
        spec = field_make(n)
        for _ in range(100):
            a = Circulant.random(spec, d, rng)
            sq = square(a)
            assert sq == mul(a, a)
            av = a.bits()
            for i in range(d):
                assert sq.bits()[2 * i % d] == spec.square(av[i])


def test_square_rejects_even_d():
    spec = field_make(1)
    with pytest.raises(EvenD):
        square(C(spec, 1, 1, 0, 1))


def test_circulant_compares_and_hashes_by_row_and_spec():
    spec, other = field_make(3), field_make(4)
    a, b = C(spec, 1, 2), C(spec, 1, 2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != C(spec, 1, 3) and a != C(spec, 1, 2, 0) and a != C(other, 1, 2)
    assert a != (a.coeffs, spec) and a.__eq__(a.coeffs) is NotImplemented
    assert repr(a) == (
        "Circulant(coeffs=(FieldElement(0x1, GF(2^3)), FieldElement(0x2, GF(2^3))),"
        " spec=FieldSpec(n=3, modulus=0xb))"
    )
    with pytest.raises(ValueError):
        Circulant((), spec)
    with pytest.raises(SpecMismatch):
        Circulant((FieldElement(1, spec), FieldElement(1, other)), spec)
    with pytest.raises(SpecMismatch):
        Circulant((FieldElement(1, other),), spec)
    with pytest.raises(ValueError):
        C(spec, 1, 8)
    # the kernel's results are values like the ones the constructor checks
    s3, rng = field_make(3), random.Random(40)
    u = Circulant.random(s3, 7, rng)
    while det(u).is_zero():
        u = Circulant.random(s3, 7, rng)
    one = Circulant.identity(s3, 7)
    for made, built in ((power(u, 0), one), (mul(u, one), u), (inverse(inverse(u)), u)):
        assert made == built and hash(made) == hash(built) and len({made, built}) == 1
    assert power(u, 0) != C(s3, 1, 0, 0) and power(u, 0) != Circulant.identity(other, 7)
    assert C(s3, 0, 0, 0) != C(s3, 0, 0, 0, 0, 0)


def test_op_counter_posts():
    spec = field_make(3)
    rng = random.Random(5)
    a = Circulant.random(spec, 11, rng)
    b = Circulant.random(spec, 11, rng)
    c = OpCounter()
    mul(a, b, c)
    assert (c.general_mults, c.field_mults, c.squarings) == (1, 121, 0)
    c = OpCounter()
    square(a, c)
    assert (c.general_mults, c.field_mults, c.squarings) == (0, 0, 1)
    # the counter is a cost model: d^2 base multiplications per product
    c = OpCounter()
    for _ in range(7):
        mul(a, b, c)
    assert c.field_mults == 7 * 121 == 121 * c.general_mults


def test_power_exponent_laws_and_counts():
    spec = field_make(3)
    rng = random.Random(6)
    a = Circulant.random(spec, 5, rng)
    c = OpCounter()
    assert power(a, 1, c) == a
    assert c.general_mults == 0 and c.squarings == 0
    assert power(a, 0).is_identity()
    for k in (1, 2, 5):
        c = OpCounter()
        power(a, 1 << k, c)
        assert c.squarings == k and c.general_mults == 0
    for m in (3, 7, 19, 100):
        c = OpCounter()
        power(a, m, c)
        assert c.squarings == m.bit_length() - 1
        assert c.general_mults == m.bit_count() - 1
    for _ in range(20):
        i, j = rng.randrange(50), rng.randrange(50)
        assert power(a, i + j) == mul(power(a, i), power(a, j))


def test_inverse_known_values():
    s1 = field_make(1)
    assert inverse(C(s1, 0, 1, 0)) == C(s1, 0, 0, 1)
    i3 = Circulant.identity(s1, 3)
    assert inverse(i3) == i3
    with pytest.raises(NotInvertible):
        inverse(C(s1, 1, 1, 0))


def test_inverse_random_roundtrip():
    rng = random.Random(7)
    spec = field_make(8)
    done = 0
    while done < 50:
        a = Circulant.random(spec, 11, rng)
        try:
            b = inverse(a)
        except NotInvertible:
            assert det(a).is_zero()
            continue
        assert mul(a, b).is_identity()
        done += 1


def test_inverse_agrees_with_gaussian_singularity():
    # NotInvertible exactly when the expanded matrix is singular
    rng = random.Random(8)
    spec = field_make(1)  # singular draws are common over GF(2)
    for _ in range(300):
        a = Circulant.random(spec, 7, rng)
        try:
            inverse(a)
            invertible = True
        except NotInvertible:
            invertible = False
        assert invertible == (_gaussian_det(a) != 0)


def test_matvec_known_values():
    spec = field_make(3)
    v = tuple(FieldElement(x, spec) for x in (3, 5, 6))
    ident = Circulant.identity(spec, 3)
    assert matvec(ident, v) == v
    shift = C(spec, 0, 1, 0)
    assert matvec(shift, v) == (v[1], v[2], v[0])


def test_matvec_matches_expanded_matrix():
    rng = random.Random(9)
    spec = field_make(3)
    for _ in range(50):
        a = Circulant.random(spec, 7, rng)
        b = Circulant.random(spec, 7, rng)
        v = tuple(FieldElement(rng.getrandbits(3), spec) for _ in range(7))
        rows = expand(a)
        want = tuple(
            sum((rows[k][j] * v[j] for j in range(7)), start=spec.zero)
            for k in range(7)
        )
        assert matvec(a, v) == want
        assert matvec(mul(a, b), v) == matvec(a, matvec(b, v))
    with pytest.raises(DimensionMismatch):
        matvec(a, v[:3])


def test_row_sum():
    s1 = field_make(1)
    assert row_sum(C(s1, 1, 1, 0)).bits == 0
    assert row_sum(Circulant.identity(s1, 3)).bits == 1
    rng = random.Random(10)
    spec = field_make(8)
    for _ in range(30):
        a = Circulant.random(spec, 5, rng)
        b = Circulant.random(spec, 5, rng)
        assert row_sum(mul(a, b)) == row_sum(a) * row_sum(b)
        m = rng.randrange(1, 200)
        assert row_sum(power(a, m)) == row_sum(a) ** m


def test_det():
    s1 = field_make(1)
    assert det(Circulant.identity(s1, 4)).bits == 1
    assert det(C(s1, 0, 1, 0)).bits == 1
    rng = random.Random(11)
    spec = field_make(3)
    for _ in range(30):
        a = Circulant.random(spec, 5, rng)
        b = Circulant.random(spec, 5, rng)
        assert det(mul(a, b)) == det(a) * det(b)


def _gaussian_det(a: Circulant) -> int:
    """det of the expanded matrix by Gaussian elimination (the oracle)."""
    d, (fmul, finv) = a.d, field_ops(a.spec)
    rows = [[c.bits for c in r] for r in expand(a)]
    acc = 1
    for col in range(d):
        piv = next((r for r in range(col, d) if rows[r][col]), None)
        if piv is None:
            return 0
        rows[col], rows[piv] = rows[piv], rows[col]  # char 2: no sign flip
        pivot = rows[col][col]
        acc = fmul(acc, pivot)
        inv_p = finv(pivot)
        for r in range(col + 1, d):
            f = rows[r][col]
            if f:
                fac = fmul(f, inv_p)
                rows[r] = [x ^ fmul(fac, y) for x, y in zip(rows[r], rows[col])]
    return acc


@pytest.mark.parametrize("n", [1, 3, 11, 17, 47])
def test_det_matches_gaussian_elimination(n):
    # the resultant against elimination on every d, even d and singular
    # rows included; zeros forced into some rows make singular ones common
    spec = field_make(n)
    rng = random.Random(1000 + n)
    for d in range(1, 18):
        rows = [[0] * d, [1] * d]
        for i in range(8):
            row = [spec.rand(rng) for _ in range(d)]
            if i % 2:
                for j in rng.sample(range(d), rng.randrange(d + 1)):
                    row[j] = 0
            rows.append(row)
        for row in rows:
            a = Circulant.from_bits(spec, row)
            assert det(a).bits == _gaussian_det(a), (d, row)


def test_idempotent_split():
    # for odd d, Phi = 1 + x + ... + x^(d-1) is idempotent, so R = Phi R x
    # (1 + Phi) R: A Phi = A(1) Phi, and A (1 + Phi) = A mod Phi
    spec, d = field_make(3), 11
    phi = Poly.make(spec, (1,) * d)
    phi_row = Circulant.from_bits(spec, phi.coeffs)
    one_plus_phi = Circulant.from_bits(spec, [0] + [1] * (d - 1))
    assert mul(phi_row, phi_row) == phi_row
    rng = random.Random(12)
    for _ in range(100):
        a = Circulant.random(spec, d, rng)
        assert mul(a, phi_row) == Circulant.from_bits(spec, [row_sum(a).bits] * d)
        got = Poly.make(spec, mul(a, one_plus_phi).bits()) % phi
        assert got == Poly.make(spec, a.bits()) % phi


def test_char_poly_quotient_identity():
    spec = field_make(3)
    g, irred = char_poly_quotient(Circulant.identity(spec, 11))
    assert not irred
    xm1 = Poly.make(spec, [1, 1])
    want = Poly.const(spec, 1)
    for _ in range(10):
        want = want * xm1
    assert g == want  # (x - 1)^(d-1)


def test_char_poly_quotient_constructed_minimal_polynomial():
    # pick a beta in F_2[x]/Phi_5 whose minimal polynomial is x^4+x+1;
    # the quotient must then be exactly that polynomial
    s1 = field_make(1)
    phi = Poly.make(s1, [1] * 5)
    target = Poly.make(s1, [1, 1, 0, 0, 1])
    beta = None
    for bits in range(2, 16):
        # target is irreducible, so it is the minimal polynomial of each
        # of its roots outside F_2
        p = Poly.make(s1, [(bits >> i) & 1 for i in range(4)])
        value = Poly.make(s1, [0])
        for c in reversed(target.coeffs):
            value = poly_mod_mul(value, p, phi) + Poly.const(s1, c)
        if value.is_zero():
            beta = p
            break
    assert beta is not None
    # the row that is 1 mod (x - 1) and beta mod Phi: beta + (1 + beta(1)) Phi
    s = 1 ^ beta.evaluate(1)
    coeffs = list(beta.coeffs) + [0] * (4 - len(beta.coeffs))
    a = Circulant.from_bits(s1, [c ^ s for c in coeffs] + [s])
    g, irred = char_poly_quotient(a)
    assert irred and g == target


def test_char_poly_quotient_coefficients_in_base_field():
    # implicitly checked by the Poly return type; re-verify through the
    # Frobenius invariance of the product for random matrices
    rng = random.Random(15)
    spec = field_make(3)
    for _ in range(100):
        a = Circulant.random(spec, 11, rng)
        g, _ = char_poly_quotient(a)
        assert g.spec == spec and g.degree == 10 and g.is_monic()


def test_char_poly_quotient_needs_primitive_cell():
    with pytest.raises(PhiReducible):
        char_poly_quotient(Circulant.identity(field_make(4), 5))
    with pytest.raises(PhiReducible):
        char_poly_quotient(Circulant.identity(field_make(1), 9))


def test_hex_roundtrip_and_shape_errors():
    spec = field_make(8)
    rng = random.Random(16)
    a = Circulant.random(spec, 11, rng)
    assert Circulant.from_hex(spec, a.to_hex()) == a
    with pytest.raises(DimensionMismatch):
        mul(a, Circulant.random(spec, 5, rng))
    with pytest.raises(DimensionMismatch):
        mul(a, Circulant.random(field_make(3), 11, rng))


def test_operator_sugar():
    spec = field_make(3)
    rng = random.Random(17)
    a = Circulant.random(spec, 5, rng)
    b = Circulant.random(spec, 5, rng)
    assert a * b == mul(a, b)
    assert a ** 13 == power(a, 13)
