"""The packed-row ring kernel against the plain convolution.

`mul`, `square`, `power` and `matvec` run on rows packed into one int;
the oracle here is the textbook cyclic convolution over the field's own
multiplication, plus the expanded matrix for `matvec`. Fields come in
two kinds: the default modulus of `field_make` (sparse g) and the
largest irreducible modulus of each degree (g of degree n - 1 and
nearly full weight), as a loaded parameter file may carry.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_elgamal.circulant import (
    Circulant,
    EvenD,
    OpCounter,
    expand,
    matvec,
    mul,
    power,
    square,
)
from circulant_elgamal.gf2field import FieldElement, FieldSpec, field_make

NS = (1, 2, 11, 16, 17, 47, 128)
ODD_DS = (1, 3, 11, 37)

# largest irreducible polynomial of each degree: t^n + g(t), deg g = n - 1
DENSE_MODULI = {
    2: 0x7,
    11: 0xFFB,
    16: 0x1FFED,
    17: 0x3FFEF,
    47: 0xFFFFFFFFFFFD,
    128: 0x1FFFFFFFFFFFFFFFFFFFFFFFFFFFFFF5F,
}


@functools.lru_cache(maxsize=None)
def field(n: int, dense: bool) -> FieldSpec:
    return FieldSpec(n, DENSE_MODULI[n]) if dense else field_make(n)


SPECS = [(n, False) for n in NS] + [(n, True) for n in DENSE_MODULI]


# ---------------------------------------------------------------------------
# oracle

def convolve(av, bv, spec):
    d = len(av)
    out = [0] * d
    for i in range(d):
        for j in range(d):
            out[(i + j) % d] ^= spec.mul(av[i], bv[j])
    return out


def convolve_power(av, m, spec):
    r = [1] + [0] * (len(av) - 1)
    for bit in bin(m)[2:]:
        r = convolve(r, r, spec)
        if bit == "1":
            r = convolve(r, av, spec)
    return r


def expanded_matvec(a, v):
    rows = expand(a)
    return tuple(
        sum((rows[k][j] * v[j] for j in range(a.d)), start=a.spec.zero)
        for k in range(a.d)
    )


# ---------------------------------------------------------------------------
# fixed cases: every field and dimension, including all-ones rows, whose
# products fill every high bit of every slot

def rows(spec, d, rng):
    top = spec.order
    yield [top] * d
    yield [top] + [0] * (d - 1)
    yield [0] * (d - 1) + [top]
    yield [spec.rand(rng) for _ in range(d)]


@pytest.mark.parametrize("n,dense", SPECS)
@pytest.mark.parametrize("d", (1, 2, 3, 11, 37))
def test_mul_matches_convolution(n, dense, d):
    spec = field(n, dense)
    rng = random.Random(n * 1000 + d)
    for av in rows(spec, d, rng):
        bv = [spec.rand(rng) for _ in range(d)]
        a, b = Circulant.from_bits(spec, av), Circulant.from_bits(spec, bv)
        assert mul(a, b).bits() == convolve(av, bv, spec)
        assert mul(a, a).bits() == convolve(av, av, spec)


@pytest.mark.parametrize("n,dense", SPECS)
@pytest.mark.parametrize("d", ODD_DS)
def test_square_power_matvec_match_convolution(n, dense, d):
    spec = field(n, dense)
    rng = random.Random(n * 1000 + d + 1)
    for av in rows(spec, d, rng):
        a = Circulant.from_bits(spec, av)
        assert square(a).bits() == convolve(av, av, spec)
        m = rng.getrandbits(5) | 1 << 5
        assert power(a, m).bits() == convolve_power(av, m, spec)
        v = tuple(FieldElement(spec.rand(rng), spec) for _ in range(d))
        want = expanded_matvec(a, v)
        assert matvec(a, v) == want
        rev = av[:1] + av[:0:-1]
        assert [x.bits for x in want] == convolve(rev, [x.bits for x in v], spec)


@pytest.mark.parametrize("n,d", ((3, 11), (11, 11), (5, 19), (17, 3)))
def test_power_full_length_exponent(n, d):
    # an exponent as long as the group order, n(d - 1) bits
    spec = field_make(n)
    rng = random.Random(n * d)
    av = [spec.rand(rng) for _ in range(d)]
    m = rng.getrandbits(n * (d - 1)) | 1 << (n * (d - 1) - 1)
    a = Circulant.from_bits(spec, av)
    assert power(a, m).bits() == convolve_power(av, m, spec)


# ---------------------------------------------------------------------------
# property tests

@st.composite
def ring_case(draw, ds=ODD_DS):
    n, dense = draw(st.sampled_from(SPECS))
    d = draw(st.sampled_from(ds))
    spec = field(n, dense)
    coeff = st.integers(0, spec.order)
    row = st.lists(coeff, min_size=d, max_size=d)
    return spec, draw(row), draw(row)


PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPS
@given(ring_case(ds=(1, 2, 3, 11, 37)))
def test_mul_property(case):
    spec, av, bv = case
    got = mul(Circulant.from_bits(spec, av), Circulant.from_bits(spec, bv))
    assert got.bits() == convolve(av, bv, spec)


@PROPS
@given(ring_case())
def test_square_property(case):
    spec, av, _ = case
    assert square(Circulant.from_bits(spec, av)).bits() == convolve(av, av, spec)


@PROPS
@given(ring_case(), st.integers(0, 1 << 8))
def test_power_property_and_counts(case, m):
    spec, av, _ = case
    d = len(av)
    counter = OpCounter()
    got = power(Circulant.from_bits(spec, av), m, counter)
    assert got.bits() == convolve_power(av, m, spec)
    # the paper's cost model: squarings free, d^2 field mults a product
    mults = max(m.bit_count() - 1, 0)
    assert counter.squarings == max(m.bit_length() - 1, 0)
    assert counter.general_mults == mults
    assert counter.field_mults == d * d * mults


@PROPS
@given(ring_case())
def test_matvec_property(case):
    spec, av, vv = case
    a = Circulant.from_bits(spec, av)
    v = tuple(FieldElement(x, spec) for x in vv)
    assert matvec(a, v) == expanded_matvec(a, v)


# ---------------------------------------------------------------------------
# errors

def test_even_d_still_rejected():
    spec = field_make(47)
    a = Circulant.from_bits(spec, [3, 5])
    with pytest.raises(EvenD):
        square(a)
    with pytest.raises(EvenD):
        power(a, 2)
    assert power(a, 1) == a
    assert power(a, 0).is_identity()
    with pytest.raises(ValueError):
        power(a, -1)
