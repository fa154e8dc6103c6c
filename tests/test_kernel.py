"""The packed-row ring kernel against the plain convolution.

`mul`, `square`, `power`, `matvec` and `inverse` run on rows packed
into one int; the oracle here is the textbook cyclic convolution over
the field's own multiplication, plus the expanded matrix for `matvec`;
`inverse` must raise exactly on the rows whose expanded matrix Gaussian
elimination finds singular, and give a a^-1 = 1 on the rest. The
Barrett reduction is checked slot by slot against polynomial division
for every irreducible modulus of small degree. Long exponents
are checked against binary square and multiply over the kernel's own
`square` and `mul`, which the convolution checks, and q-power
exponents against the slot map of the squaring theorem, on odd d and
on even d, where slots meet and their coefficients add. The
subset products `power` keeps across calls are checked the same way, on
interleaved calls with bases that are evicted and come back; so is the
rule that a base runs the cold plan when it is first seen and the wide
table it keeps from its second call on, and that table's size against
its share of the kept bytes, over n = 1 .. 128 and d = 1 .. 79. Fields
come in two kinds: the default modulus of `field_make` (sparse g) and
the largest irreducible modulus of each degree (g of degree n - 1 and
nearly full weight), as a loaded parameter file may carry.
"""

import functools
import hashlib
import random
import sys

import pytest
import sympy
import sympy.abc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circulant_elgamal import fileio
from circulant_elgamal.circulant import (
    Circulant,
    NotInvertible,
    det,
    inverse,
    matvec,
    mul,
    power,
    power_cost,
    square,
)
from circulant_elgamal.gf2field import (
    FieldSpec,
    _Ring,
    _pdivmod,
    _plan,
    field_make,
)

from oracles import dot, expand, gaussian_det

NS = (1, 2, 11, 16, 17, 47, 128)
ODD_DS = (1, 3, 11, 37)
EVEN_DS = (2, 4, 12)  # the Frobenius map x -> x^q sends several slots to one

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


def ladder(a, m):
    """a^m by left-to-right binary square and multiply on `square`, `mul`."""
    r = Circulant.identity(a.spec, a.d)
    for bit in bin(m)[2:]:
        r = square(r)
        if bit == "1":
            r = mul(r, a)
    return r


def expanded_matvec(a, v):
    return tuple(dot(a.spec, row, v) for row in expand(a))


# ---------------------------------------------------------------------------
# fixed cases: every field and dimension, including all-ones rows, whose
# products fill every high bit of every slot, and the zero row

def rows(spec, d, rng):
    top = spec.order
    yield [0] * d
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
        a, b = Circulant(spec, av), Circulant(spec, bv)
        assert mul(a, b).bits() == convolve(av, bv, spec)
        assert mul(a, a).bits() == convolve(av, av, spec)
        # the fixed row as the multiplier the kernel reads a byte at a time:
        # empty (zero), one coefficient (as `Poly.__divmod__` passes it),
        # only the top slot set
        assert mul(b, a).bits() == convolve(bv, av, spec)


@pytest.mark.parametrize("n,dense", SPECS)
@pytest.mark.parametrize("d", ODD_DS + EVEN_DS)
def test_square_power_matvec_match_convolution(n, dense, d):
    spec = field(n, dense)
    rng = random.Random(n * 1000 + d + 1)
    for av in rows(spec, d, rng):
        a = Circulant(spec, av)
        assert square(a).bits() == convolve(av, av, spec)
        m = rng.getrandbits(5) | 1 << 5
        assert power(a, m).bits() == convolve_power(av, m, spec)
        v = tuple(spec.rand(rng) for _ in range(d))
        want = expanded_matvec(a, v)
        assert matvec(a, v) == want
        rev = av[:1] + av[:0:-1]
        assert list(want) == convolve(rev, list(v), spec)


@pytest.mark.parametrize("n,d", ((3, 11), (11, 11), (5, 19), (17, 3)))
def test_power_full_length_exponent(n, d):
    # an exponent as long as the group order, n(d - 1) bits
    spec = field_make(n)
    rng = random.Random(n * d)
    av = [spec.rand(rng) for _ in range(d)]
    m = rng.getrandbits(n * (d - 1)) | 1 << (n * (d - 1) - 1)
    a = Circulant(spec, av)
    assert power(a, m).bits() == convolve_power(av, m, spec)


INVERSE_DS = (1, 2, 3, 4, 7, 9, 11, 12, 15, 37)


@pytest.mark.parametrize("n,dense", SPECS)
@pytest.mark.parametrize("d", INVERSE_DS)
def test_inverse_matches_euclid(n, dense, d):
    # d = 7, 9, 15 at n = 1 (and d = 7 at n = 16) have q not primitive
    # mod d, so x^d - 1 has several factors of one degree; even d are
    # not squarefree. Multiples of x + 1, and all-ones rows for d > 1,
    # are singular.
    spec = field(n, dense)
    rng = random.Random(n * 100 + d)
    x1 = Circulant(spec, [1, 1] + [0] * (d - 2)) if d > 1 else None
    cases = list(rows(spec, d, rng)) + [[spec.rand(rng) for _ in range(d)]]
    if x1 is not None:
        cases.append(mul(Circulant(spec, cases[-1]), x1).bits())
    # Gaussian elimination on the expanded matrix decides singularity,
    # and an inverse is unique, so a a^-1 = 1 pins its value
    singular = 0
    for av in cases:
        a = Circulant(spec, av)
        if gaussian_det(a) == 0:
            singular += 1
            with pytest.raises(NotInvertible):
                inverse(a)
        else:
            assert mul(a, inverse(a)).is_identity()
    assert singular >= min(d, 2)


def irreducible_moduli(top):
    for n in range(1, top + 1):
        for f in range(1 << n, 1 << n + 1):
            bits = [int(b) for b in bin(f)[2:]]
            if sympy.Poly(bits, sympy.abc.t, modulus=2).is_irreducible:
                yield f


@pytest.mark.parametrize("f", list(irreducible_moduli(6)))
def test_reduce_is_division_slot_by_slot(f):
    # every slot value of degree <= 2n - 2, once in a low slot and once
    # in a high slot that the x^d = 1 fold moves down
    n = f.bit_length() - 1
    values = range(1 << 2 * n - 1)
    ring = _Ring(FieldSpec(n, f), len(values))
    want = [_pdivmod(v, f)[1] for v in values]
    r = ring.pack(list(values))
    assert ring.unpack(ring.reduce(r)) == want
    assert ring.unpack(ring.reduce(r << ring.row_bits)) == want


# ---------------------------------------------------------------------------
# property tests

@st.composite
def ring_case(draw, ds=ODD_DS + EVEN_DS):
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
    got = mul(Circulant(spec, av), Circulant(spec, bv))
    assert got.bits() == convolve(av, bv, spec)


@PROPS
@given(ring_case())
def test_square_property(case):
    spec, av, _ = case
    assert square(Circulant(spec, av)).bits() == convolve(av, av, spec)


@st.composite
def power_case(draw):
    # exponents up to q^(d + 1), past the group order and past the point
    # where the digits' Frobenius images wrap round
    spec, av, _ = draw(ring_case())
    return spec, av, draw(st.integers(0, (1 << spec.n * (len(av) + 1)) - 1))


@PROPS
@given(power_case())
def test_power_property_and_counts(case):
    spec, av, m = case
    d = len(av)
    a = Circulant(spec, av)
    got = power(a, m)
    assert got == ladder(a, m)
    if m <= 1 << 8:
        assert got.bits() == convolve_power(av, m, spec)
    # the paper's cost model: squarings free, d^2 field mults a product
    mults = max(m.bit_count() - 1, 0)
    assert power_cost(m, d) == (max(m.bit_length() - 1, 0), mults, d * d * mults)


@PROPS
@given(ring_case())
def test_matvec_property(case):
    spec, av, vv = case
    a = Circulant(spec, av)
    assert matvec(a, vv) == expanded_matvec(a, vv)


@st.composite
def inverse_case(draw):
    # coefficients often 0 or 1, so that singular rows come up
    n, dense = draw(st.sampled_from(SPECS))
    d = draw(st.sampled_from((1, 2, 3, 4, 7, 9, 11, 12)))
    spec = field(n, dense)
    coeff = st.one_of(st.sampled_from((0, 1)), st.integers(0, spec.order))
    return spec, draw(st.lists(coeff, min_size=d, max_size=d))


@PROPS
@given(inverse_case())
def test_inverse_property(case):
    spec, av = case
    a = Circulant(spec, av)
    if not det(a):
        with pytest.raises(NotInvertible):
            inverse(a)
    else:
        assert mul(a, inverse(a)).is_identity()


# ---------------------------------------------------------------------------
# the tables `power` keeps across calls

def plain_power(ring, a, m):
    """a^m by left-to-right binary square and multiply on `product`, `square`."""
    r = 1  # the identity row: 1 in slot 0
    for bit in bin(m)[2:]:
        r = ring.square(r)
        if bit == "1":
            r = ring.product(r, a)
    return r


# two rings that read one packed int as two different rows
KEPT_CELLS = ((3, 11), (5, 11))


@st.composite
def kept_table_calls(draw):
    """Interleaved (ring, base, exponent) calls on the two rings.

    More bases than a ring keeps, so bases are evicted and come back;
    every exponent length up to q^(d + 1), so one base meets several
    plans; and each base int is read on both rings.
    """
    pool = draw(st.lists(st.integers(0, (1 << 100) - 1), min_size=6, max_size=7))
    calls = []
    for _ in range(draw(st.integers(10, 40))):
        r = draw(st.integers(0, 1))
        n, d = KEPT_CELLS[r]
        bits = draw(st.integers(1, n * (d + 1)))
        m = draw(st.integers(1 << bits - 1, (1 << bits) - 1))
        calls.append((r, draw(st.sampled_from(pool)), m))
    return calls


def scripted_calls():
    """One base on the (3,11) ring at 14, 16, 9 and 25 bits: cold once, then
    wide on the table it keeps, under exponents shorter than the ring's
    plan. Four other bases evict it, it comes back cold and then wide, and
    its int then runs on the (5,11) ring, cold and then wide.
    """
    bases = [random.Random(i).getrandbits(100) for i in range(5)]

    def exp(bits):
        return random.Random(bits).getrandbits(bits) | 1 << bits - 1

    calls = [(0, bases[0], exp(b)) for b in (14, 16, 9, 25)]
    calls += [(0, a, exp(14)) for a in bases[1:]]
    calls += [(0, bases[0], exp(14)), (0, bases[0], exp(9))]
    return calls + [(1, bases[0], exp(9)), (1, bases[0], exp(26))]


def kept_bytes_hold(ring):
    """At most KEPT_BASES bases are kept, each with no table or the wide
    table of 2^g slots, which `_plan` fits in a base's share of the bytes
    (`test_plan_wide_table_fits_its_share`)."""
    wide = 1 << _plan(ring.n, ring.d)[1][1]
    assert all(len(entries) in (0, wide) for entries in ring.kept.values())
    assert len(ring.kept) <= ring.KEPT_BASES


def promoted(ring, a):
    """Whether base a is kept with `_plan`'s wide table of 2^g slots."""
    return a in ring.kept and len(ring.kept[a]) == 1 << _plan(ring.n, ring.d)[1][1]


@PROPS
@given(kept_table_calls())
@example(scripted_calls())
def test_power_kept_tables_match_plain_power(calls):
    rings = [_Ring(field_make(n), d) for n, d in KEPT_CELLS]
    row = rings[0].low & rings[1].low  # a valid row on both rings
    for r, a, m in calls:
        ring = rings[r]
        a &= row
        assert ring.power(a, m) == plain_power(ring, a, m)
        kept_bytes_hold(ring)


@pytest.mark.parametrize("n,d", KEPT_CELLS)
def test_power_promoted_bases_match_plain_power(n, d):
    # two hot bases and four that come now and then, so the hot ones are
    # promoted under several exponent lengths, and at times evicted and
    # back; every exponent length up to q^(d + 1)
    ring = _Ring(field_make(n), d)
    rng = random.Random(n * d)
    pool = [ring.pack([rng.getrandbits(n) for _ in range(d)]) for _ in range(6)]
    runs = returns = 0
    seen = set()
    for _ in range(700):
        a = pool[rng.randrange(2)] if rng.random() < 0.85 else rng.choice(pool[2:])
        returns += a in seen and a not in ring.kept
        seen.add(a)
        bits = rng.randint(1, n * (d + 1))
        m = rng.getrandbits(bits) | 1 << bits - 1
        assert ring.power(a, m) == plain_power(ring, a, m)
        kept_bytes_hold(ring)
        runs += promoted(ring, a)
    assert runs > 200 and returns > 10


def test_power_keeps_the_recently_used_bases():
    # an encrypt-decrypt loop: two fixed bases, then a fresh one each
    # round; the fixed bases are promoted on their second call and stay so
    ring = _Ring(field_make(3), 11)
    rng = random.Random(12)
    fixed = [ring.pack([rng.getrandbits(3) for _ in range(11)]) for _ in range(2)]
    for i in range(100):
        fresh = ring.pack([rng.getrandbits(3) for _ in range(11)])
        for a in fixed + [fresh]:
            m = rng.getrandbits(30) | 1 << 29
            assert ring.power(a, m) == plain_power(ring, a, m)
        assert set(ring.kept) >= set(fixed)
        # round i's call was a fixed base's (i + 1)-th: wide from the second
        assert all(promoted(ring, a) == (i >= 1) for a in fixed)
        assert ring.kept[fresh] == []


@pytest.mark.parametrize("n,d", ((3, 11), (5, 19), (47, 11), (11, 1)))
def test_power_promotes_a_base_on_its_second_call(n, d):
    ring = _Ring(field_make(n), d)
    (_, cg), (t, g) = _plan(n, d)
    rng = random.Random(n + d)
    bits = n * max(d - 1, 1)
    a, *others = [ring.pack([rng.getrandbits(n) for _ in range(d)]) for _ in range(5)]

    def check(base, m):
        assert ring.power(base, m) == plain_power(ring, base, m)
        kept_bytes_hold(ring)

    # first sight: the cold pick on a table for this call; only the row stays
    check(a, rng.getrandbits(bits) | 1 << bits - 1)
    assert ring.kept[a] == []
    # second sight: the wide pick, on a kept table of 2^g slots whose
    # entry 2^j is sigma^(tj)(a), and past the cold table's 2^cg slots
    # when g > cg; exponents longer than n(d - 1) bits run more blocks
    for m in (rng.getrandbits(bits) | 1 << bits - 1, rng.getrandbits(3 * bits + 5) | 1):
        check(a, m)
        entries = ring.kept[a]
        assert len(entries) == 1 << g
        for j in range(g):
            assert entries[1 << j] in (None, ring.frobenius(a, t * j))
        assert g == cg or any(e is not None for e in entries[1 << cg :])
    # evicted by KEPT_BASES others, a starts cold again
    for b in others[: ring.KEPT_BASES]:
        check(b, rng.getrandbits(bits) | 1)
    assert a not in ring.kept
    check(a, rng.getrandbits(bits) | 1 << bits - 1)
    assert ring.kept[a] == []


def q_order(n, d):
    """ord_d(q), q = 2^n: sigma^j is the identity exactly when ord_d(q) | j."""
    j = 1
    while pow(2, n * j, d) != 1 % d:
        j += 1
    return j


@pytest.mark.parametrize("n,dense", SPECS)
@pytest.mark.parametrize("d", ODD_DS + EVEN_DS)
def test_power_q_powers_are_slot_permutations(n, dense, d):
    # a^(q^j) moves c_i to index i q^j mod d: the squaring theorem; at
    # even d several c_i land on one index and add
    spec = field(n, dense)
    q = 1 << n
    av = [spec.rand(random.Random(7 * n + d)) for _ in range(d)]
    a = Circulant(spec, av)
    for j in range(d + 2):
        want = [0] * d
        for i, c in enumerate(av):
            want[i * pow(q, j, d) % d] ^= c
        assert power(a, q ** j).bits() == want


@pytest.mark.parametrize("n,dense", [(n, dense) for n, dense in SPECS if n <= 17])
@pytest.mark.parametrize("d", ODD_DS)
def test_power_past_frobenius_wrap(n, dense, d):
    # sigma^ord is the identity, so from q^ord on the digits' bases repeat;
    # odd d only, since at even d no sigma^j with j >= 1 is the identity
    spec = field(n, dense)
    rng = random.Random(11 * n + d)
    a = Circulant(spec, [spec.rand(rng) for _ in range(d)])
    big = (1 << n) ** q_order(n, d)
    assert ladder(a, big) == a
    for m in (big, big - 1, big + 1, 3 * big + rng.getrandbits(n * d), big * big + 5):
        assert power(a, m) == ladder(a, m)


@pytest.mark.parametrize("n,dense", SPECS)
def test_power_d1_is_field_power(n, dense):
    spec = field(n, dense)
    rng = random.Random(n)
    c = spec.rand(rng)
    a = Circulant(spec, [c])
    q = 1 << n
    for m in (0, 1, 2, q - 1, q, rng.getrandbits(5 * n), rng.getrandbits(300)):
        assert power(a, m).bits() == [spec.pow(c, m)]


NORTH_STAR = (
    (3, 11), (7, 11), (5, 13), (19, 11), (47, 11), (89, 13), (29, 37), (43, 29)
)


def test_power_pinned_at_north_star_cells():
    # computed by the plain square-and-multiply `power` the kernel had
    # before the Frobenius-digit schedule
    h = hashlib.sha256()
    for n, d in NORTH_STAR:
        spec = field_make(n)
        rng = random.Random(n * d)
        a = Circulant(spec, [spec.rand(rng) for _ in range(d)])
        m = rng.getrandbits(n * (d - 1)) | 1 << (n * (d - 1) - 1)
        h.update(fileio.hex_line(power(a, m).bits()).encode() + b"\n")
    assert h.hexdigest() == (
        "4d212b0b4523cc0d496e0209a53eb2c020dd4ee9622231684f392e46934a6dbb"
    )


@pytest.mark.parametrize("n,d", NORTH_STAR)
def test_plan_promotes_once_the_wide_table_pays(n, d):
    # the table a base runs from its second call on is wider than the cold
    # pick's, and within a base's share of the bytes
    cold, (t, g) = _plan(n, d)
    slot = 8 + sys.getsizeof((1 << d * (2 * n - 1)) - 1)
    assert (1 << g) * slot <= _Ring.KEPT_BYTES // _Ring.KEPT_BASES
    assert g > cold[1]


def test_plan_wide_table_fits_its_share():
    # the wide table, 2^g slots of a list slot and a full row each, is the
    # only table `_Ring.power` keeps, and KEPT_BASES of them fit in
    # KEPT_BYTES at every cell up to n = 128 and d = 79
    share = _Ring.KEPT_BYTES // _Ring.KEPT_BASES
    for n in range(1, 129):
        spec = field_make(n)
        for d in range(1, 80):
            ring = _Ring(spec, d)
            g = _plan(n, d)[1][1]
            assert (8 + sys.getsizeof(ring.row)) << g <= share, (n, d)


# ---------------------------------------------------------------------------
# errors

def test_even_d_square_and_power():
    spec = field_make(47)
    for row in ([3, 5], [3, 5, 7, 11]):
        a = Circulant(spec, row)
        assert square(a) == mul(a, a)
        assert power(a, 2) == mul(a, a)
        assert power(a, 1) == a
        assert power(a, 0).is_identity()
        with pytest.raises(ValueError):
            power(a, -1)
