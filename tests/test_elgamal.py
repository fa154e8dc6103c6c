"""Matrix ElGamal: key generation, encrypt/decrypt roundtrips, the
Diffie-Hellman shared value, the decryption-oracle reduction, byte
encoding, and the key/ciphertext file formats.
"""

import random
import secrets

import pytest

from circulant_elgamal import fileio
from circulant_elgamal.circulant import (
    Circulant,
    DimensionMismatch,
    NotInvertible,
    det,
    inverse,
    matvec,
    power,
    row_sum,
)
from circulant_elgamal.elgamal import (
    Ciphertext,
    OracleInconsistent,
    PrivateKey,
    PublicKey,
    decode_blocks,
    decrypt,
    encode_bytes,
    encrypt,
    keygen,
    load_ciphertexts,
    load_private,
    load_public,
    oracle_reduction,
    save_ciphertexts,
    save_private,
    save_public,
)
from circulant_elgamal.gf2field import _ring, field_make
from circulant_elgamal.keygen import ParamSet, _rng, generate
from circulant_elgamal.numtheory import primitive_cell
from oracles import decode_blocks_ref, encode_bytes_ref


def rand_vector(spec, d, rng):
    return tuple(rng.getrandbits(spec.n) for _ in range(d))


def test_roundtrip_many(params311):
    rng = random.Random(30)
    for trial in range(20):
        priv, pub = keygen(params311, seed=rng.randrange(1 << 32))
        v = rand_vector(params311.spec, 11, rng)
        ct = encrypt(pub, v, seed=rng.randrange(1 << 32))
        assert decrypt(priv, ct) == v


def test_roundtrip_small_field(params15):
    rng = random.Random(31)
    for _ in range(20):
        priv, pub = keygen(params15, seed=rng.randrange(1 << 32))
        v = rand_vector(params15.spec, 5, rng)
        assert decrypt(priv, encrypt(pub, v, seed=rng.randrange(1 << 32))) == v


def test_keygen_determinism_and_range(params311):
    p1, q1 = keygen(params311, seed=5)
    p2, q2 = keygen(params311, seed=5)
    assert p1.m == p2.m and q1.Am == q2.Am
    assert q1.A == params311.A
    assert power(params311.A, p1.m) == q1.Am
    seen = set()
    for seed in range(50):
        priv, _ = keygen(params311, seed=seed)
        assert 2 <= priv.m < 1 << 30
        seen.add(priv.m)
    assert len(seen) > 40  # distinct seeds give distinct secrets


def test_keygen_rejects_tiny_group():
    # n(d - 1) = 1 leaves [2, 2^(n(d-1))) empty
    spec = field_make(1)
    ps = ParamSet(spec, 2, Circulant.identity(spec, 2))
    with pytest.raises(ValueError):
        keygen(ps, seed=0)


@pytest.mark.parametrize("n, d", [(1, 5), (5, 3)])
def test_no_key_or_block_mask_is_the_identity(n, d):
    # ord(A) is small here, so about one draw in ord(A) is a multiple of
    # it: keygen redraws such an m, which would publish A^m = I, and
    # encrypt such an r, whose mask would leave the block in the clear
    params = generate(n, d, seed=1)
    rng = random.Random(41)
    for seed in range(200):
        priv, pub = keygen(params, seed=seed)
        assert not pub.Am.is_identity()
        for _ in range(2):
            ct = encrypt(pub, rand_vector(params.spec, d, rng), seed=rng)
            assert not power(ct.Ar, priv.m).is_identity()


def test_identity_base_is_refused(params311):
    spec = params311.spec
    one = Circulant.identity(spec, 11)
    with pytest.raises(ValueError, match="^A is the identity"):
        keygen(ParamSet(spec, 11, one), seed=0)
    v = rand_vector(spec, 11, random.Random(0))
    with pytest.raises(ValueError, match=r"^A\^m is the identity"):
        encrypt(PublicKey(params311.A, one), v, seed=1)


def test_encrypt_checks_block_length(params311):
    _, pub = keygen(params311, seed=1)
    with pytest.raises(DimensionMismatch):
        encrypt(pub, rand_vector(params311.spec, 5, random.Random(0)), seed=2)


def test_encrypt_determinism(params311):
    _, pub = keygen(params311, seed=1)
    v = rand_vector(params311.spec, 11, random.Random(32))
    c1 = encrypt(pub, v, seed=9)
    c2 = encrypt(pub, v, seed=9)
    c3 = encrypt(pub, v, seed=10)
    assert c1 == c2
    assert c1 != c3  # fresh randomness moves the ciphertext


def test_encrypt_cold_equals_warm(params311):
    # the power tables a ring keeps for A and A^m change no ciphertext
    priv, pub = keygen(params311, seed=1)
    spec = params311.spec
    v = rand_vector(spec, 11, random.Random(33))
    _ring.cache_clear()
    cold = encrypt(pub, v, seed=random.Random(34))
    warm_up = random.Random(35)
    for _ in range(10):
        encrypt(pub, rand_vector(spec, 11, warm_up), seed=warm_up)
    ring = _ring(spec, 11)
    assert set(ring.kept) >= {pub.A.row, pub.Am.row}
    warm = encrypt(pub, v, seed=random.Random(34))
    assert warm == cold
    assert decrypt(priv, warm) == v


def test_zero_vector_encrypts_to_zero_mask(params311):
    _, pub = keygen(params311, seed=1)
    zero = (0,) * 11
    ct = encrypt(pub, zero, seed=3)
    assert ct.w == zero
    assert not ct.Ar.is_identity()


def test_wrong_key_garbles(params311):
    priv, pub = keygen(params311, seed=4)
    v = rand_vector(params311.spec, 11, random.Random(33))
    ct = encrypt(pub, v, seed=5)
    wrong = PrivateKey(priv.m + 1, priv.params)
    assert decrypt(wrong, ct) != v


def test_scaling_malleability(params311):
    # decryption is linear in w, so scaling w scales the plaintext
    priv, pub = keygen(params311, seed=6)
    spec = params311.spec
    v = rand_vector(spec, 11, random.Random(34))
    ct = encrypt(pub, v, seed=7)
    scaled = Ciphertext(ct.Ar, tuple(spec.mul(0x6, e) for e in ct.w))
    assert decrypt(priv, scaled) == tuple(spec.mul(0x6, e) for e in v)


def rand_unit(spec, d, rng):
    while True:
        a = Circulant.random(spec, d, rng)
        if det(a):
            return a


def bare_key(m, spec, d):
    # decrypt reads only m from the private key
    return PrivateKey(m, ParamSet(spec, d, Circulant.identity(spec, d)))


@pytest.mark.parametrize("n, d", [(3, 11), (5, 19), (47, 11)])
def test_decrypt_by_one_power_applies_the_inverse_mask(n, d):
    # on a primitive cell decrypt raises A^r to -m mod N, N = q^(d-1) - 1;
    # the definition inverts A^{mr}
    spec, rng = field_make(n), random.Random(40 + n * d)
    assert primitive_cell(n, d)
    big_n = (1 << n * (d - 1)) - 1
    for _ in range(2):
        ar, w = rand_unit(spec, d, rng), rand_vector(spec, d, rng)
        for m in (0, 1, 2, big_n - 1, big_n, big_n + 1, rng.randrange(big_n)):
            want = matvec(inverse(power(ar, m)), w)
            assert decrypt(bare_key(m, spec, d), Ciphertext(ar, w)) == want


@pytest.mark.parametrize("n, d", [(1, 7), (2, 13), (5, 8), (3, 4)])
def test_roundtrip_off_the_primitive_cells(n, d):
    # q is not primitive mod d, so decrypt inverts A^{mr}; at even d the
    # powers' Frobenius maps send several slots to one
    spec, rng = field_make(n), random.Random(50 + n * d)
    assert not primitive_cell(n, d)
    ps = ParamSet(spec, d, rand_unit(spec, d, rng))
    for _ in range(10):
        priv, pub = keygen(ps, seed=rng.randrange(1 << 32))
        v = rand_vector(spec, d, rng)
        assert decrypt(priv, encrypt(pub, v, seed=rng.randrange(1 << 32))) == v


# x^3 + x + 1 divides x^7 - 1, so it is singular though its row sum is 1
# and its entries differ: only the inverse tells it at (1,7)
@pytest.mark.parametrize(
    "n, d, extra",
    [(3, 11, []), (1, 7, [[1, 1, 0, 1, 0, 0, 0]])],
    ids=["primitive", "fallback"],
)
def test_decrypt_rejects_singular_ar_and_negative_m(n, d, extra):
    spec, rng = field_make(n), random.Random(60 + n * d)
    w = rand_vector(spec, d, rng)
    top = spec.order
    # all zero, all equal (a multiple of Phi), and row sum 0 but not all equal
    for bits in [[0] * d, [top] * d, [1, 1] + [0] * (d - 2)] + extra:
        ct = Ciphertext(Circulant(spec, bits), w)
        with pytest.raises(NotInvertible, match="singular"):
            decrypt(bare_key(5, spec, d), ct)
    ct = Ciphertext(rand_unit(spec, d, rng), w)
    with pytest.raises(ValueError, match="exponent must be nonnegative"):
        decrypt(bare_key(-1, spec, d), ct)


def dh_shared(a: Circulant, my_exp: int, other_pub: Circulant) -> Circulant:
    """other_pub^my_exp; both parties of an exchange land on A^{ab}."""
    return power(other_pub, my_exp)


def test_dh_shared(params311):
    a = params311.A
    assert dh_shared(a, 1, a) == a
    rng = random.Random(35)
    for _ in range(5):
        x = rng.randrange(2, 1 << 20)
        y = rng.randrange(2, 1 << 20)
        pub_x, pub_y = power(a, x), power(a, y)
        s1 = dh_shared(a, x, pub_y)
        s2 = dh_shared(a, y, pub_x)
        assert s1 == s2 == power(a, x * y)
        assert det(s1) == 1 and row_sum(s1) == 1


def test_oracle_reduction_recovers_shared_value(params311):
    a = params311.A
    rng = random.Random(36)
    for _ in range(5):
        x = rng.randrange(2, 1 << 16)
        y = rng.randrange(2, 1 << 16)
        priv = PrivateKey(x, params311)
        calls = 0

        def oracle(ct):
            nonlocal calls
            calls += 1
            return decrypt(priv, ct)

        got = oracle_reduction(oracle, a, power(a, x), power(a, y))
        assert got == power(a, x * y)
        assert calls == a.d


def test_oracle_reduction_trivial_exponents(params311):
    a = params311.A
    priv = PrivateKey(1, params311)
    got = oracle_reduction(lambda ct: decrypt(priv, ct), a, a, a)
    assert got == a


def test_oracle_reduction_rejects_liars(params311):
    a = params311.A
    spec = params311.spec
    d = a.d
    zero = (0,) * d
    with pytest.raises(OracleInconsistent):
        oracle_reduction(lambda ct: zero, a, a, a)  # singular assembly
    e1 = tuple(int(i == 1) for i in range(d))
    with pytest.raises(OracleInconsistent):
        oracle_reduction(lambda ct: e1, a, a, a)  # not circulant
    with pytest.raises(OracleInconsistent):
        oracle_reduction(lambda ct: zero[:3], a, a, a)  # wrong size
    for bad in (spec.order + 1, -1):  # the identity's columns, one entry not in GF(2^3)
        with pytest.raises(OracleInconsistent, match="outside A's field"):
            oracle_reduction(lambda ct: ct.w[:-1] + (bad,), a, a, a)


# ---------------------------------------------------------------------------
# byte encoding

def test_encode_decode_roundtrip_all_lengths():
    for n, d in ((3, 11), (8, 11), (1, 5)):
        spec = field_make(n)
        rng = random.Random(37)
        for length in range(0, 101, 7):
            data = rng.randbytes(length)
            blocks = encode_bytes(data, spec, d)
            assert all(len(b) == d for b in blocks)
            assert len(blocks) >= 1
            assert decode_blocks(blocks, spec, length) == data


def test_encode_empty_is_one_zero_block():
    spec = field_make(3)
    blocks = encode_bytes(b"", spec, 11)
    assert blocks == [(0,) * 11]
    assert decode_blocks(blocks, spec, 0) == b""


def test_decode_masks_padding_bits():
    spec = field_make(8)
    blocks = encode_bytes(b"ab", spec, 5)
    noisy = [tuple(e or 0xFF for e in blocks[0])]
    assert decode_blocks(noisy, spec, 2) == b"ab"
    # an entry wider than n bits would carry into the next unit: 0x161
    # would read as b"ac"
    for bad in (0x161, -1):
        with pytest.raises(ValueError, match="out of range for GF"):
            decode_blocks([(bad,) + blocks[0][1:]], spec, 2)


@pytest.mark.parametrize(
    "n, d", ((3, 11), (8, 11), (1, 5), (47, 11), (11, 11), (5, 19), (128, 3), (2, 13))
)
def test_codec_matches_the_unit_by_unit_reference(n, d):
    spec = field_make(n)
    mask = (1 << n) - 1
    rng = random.Random(n * d)
    for length in (*range(130), 1000, 4097):
        data = rng.randbytes(length)
        blocks = encode_bytes(data, spec, d)
        assert blocks == encode_bytes_ref(data, spec, d)
        # the same units with every padding bit set
        count = len(blocks)
        padding = (1 << n * d * count) - (1 << 8 * length)
        full = int.from_bytes(data, "little") | padding
        noisy = [
            tuple(full >> n * (j * d + k) & mask for k in range(d))
            for j in range(count)
        ]
        assert noisy != blocks or 8 * length == n * d * count
        assert decode_blocks(noisy, spec, length) == data
        assert decode_blocks_ref(noisy, spec, length) == data


def test_codec_round_trips_a_mebibyte_at_47_11():
    spec = field_make(47)
    data = random.Random(41).randbytes(1 << 20)
    blocks = encode_bytes(data, spec, 11)
    assert len(blocks) == (8 << 20) // 517 + 1
    assert decode_blocks(blocks, spec, len(data)) == data


def test_bytes_pipeline_hello(params311):
    priv, pub = keygen(params311, seed=8)
    data = b"hello world"
    blocks = encode_bytes(data, params311.spec, 11)
    cts = [encrypt(pub, b, seed=100 + i) for i, b in enumerate(blocks)]
    back = [decrypt(priv, ct) for ct in cts]
    assert decode_blocks(back, params311.spec, len(data)) == data


# ---------------------------------------------------------------------------
# key and ciphertext files

def test_private_key_file_roundtrip(tmp_path, params311):
    priv, _ = keygen(params311, seed=9)
    path = tmp_path / "k.priv"
    save_private(priv, path)
    back = load_private(path)
    assert back.m == priv.m
    assert back.params.A == params311.A
    assert back.params.spec == params311.spec


def test_public_key_file_roundtrip(tmp_path, params311):
    _, pub = keygen(params311, seed=9)
    path = tmp_path / "k.pub"
    save_public(pub, path)
    back = load_public(path)
    assert back == pub


def test_ciphertext_file_roundtrip_raw(tmp_path, params311):
    _, pub = keygen(params311, seed=9)
    spec = params311.spec
    v = rand_vector(spec, 11, random.Random(38))
    ct = encrypt(pub, v, seed=11)
    path = tmp_path / "m.ct"
    save_ciphertexts(path, spec, 11, [ct], None)
    spec2, d2, blocks, length = load_ciphertexts(path)
    assert (spec2, d2, length) == (spec, 11, None)
    assert blocks == [ct]
    assert "encoding = raw" in path.read_text()


def test_ciphertext_file_roundtrip_bytes(tmp_path, params311):
    priv, pub = keygen(params311, seed=9)
    spec = params311.spec
    data = b"\x00\x01\xfe padding \xff"
    cts = [
        encrypt(pub, b, seed=200 + i)
        for i, b in enumerate(encode_bytes(data, spec, 11))
    ]
    path = tmp_path / "m.ct"
    save_ciphertexts(path, spec, 11, cts, len(data))
    _, _, blocks, length = load_ciphertexts(path)
    assert length == len(data)
    plain = [decrypt(priv, ct) for ct in blocks]
    assert decode_blocks(plain, spec, length) == data


def test_ciphertext_file_rejections(tmp_path, params311):
    _, pub = keygen(params311, seed=9)
    spec = params311.spec
    ct = encrypt(pub, rand_vector(spec, 11, random.Random(39)), seed=12)
    path = tmp_path / "m.ct"
    save_ciphertexts(path, spec, 11, [ct], None)
    good = path.read_text()

    path.write_text(good.replace("encoding = raw", "encoding = base64"))
    with pytest.raises(fileio.FileFormatError, match="unknown encoding"):
        load_ciphertexts(path)

    lines = good.splitlines()
    w_idx = next(i for i, l in enumerate(lines) if l.startswith("w ="))
    lines[w_idx] = lines[w_idx].rsplit(",", 1)[0]  # drop one w entry
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.FileFormatError):
        load_ciphertexts(path)

    path.write_text(good.replace("Ar = 0x", "Ar = 0xzz", 1))
    with pytest.raises(fileio.FileFormatError) as info:
        load_ciphertexts(path)
    assert str(info.value).startswith(f"{path}: Ar: invalid literal for int()")

    path.write_text(good.replace("w = 0x", "w = ", 1))
    with pytest.raises(fileio.FileFormatError) as info:
        load_ciphertexts(path)
    assert str(info.value).startswith(f"{path}: w: field element must start with 0x")

    path.write_text(good.replace("blocks = 1", "blocks = 2"))  # truncated
    with pytest.raises(fileio.FileFormatError):
        load_ciphertexts(path)

    path.write_text(good + "trailing = junk\n")
    with pytest.raises(fileio.FileFormatError):
        load_ciphertexts(path)


def test_unseeded_rng_is_system_random():
    assert isinstance(_rng(None), secrets.SystemRandom)
    assert type(_rng(5)) is random.Random
    assert _rng(5).getrandbits(64) == random.Random(5).getrandbits(64)
    rng = random.Random(1)
    assert _rng(rng) is rng
