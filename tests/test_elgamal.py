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
    det,
    power,
    row_sum,
)
from circulant_elgamal.elgamal import (
    _rng,
    Ciphertext,
    OracleInconsistent,
    PrivateKey,
    decode_blocks,
    decrypt,
    dh_shared,
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
from circulant_elgamal.gf2field import FieldElement, field_make
from circulant_elgamal.keygen import OrderInfo, ParamSet


def rand_vector(spec, d, rng):
    return tuple(FieldElement(rng.getrandbits(spec.n), spec) for _ in range(d))


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
        assert 2 <= priv.m < params311.exponent_bound()
        seen.add(priv.m)
    assert len(seen) > 40  # distinct seeds give distinct secrets


def test_keygen_rejects_tiny_group():
    spec = field_make(1)
    ps = ParamSet(
        spec, 3, Circulant.identity(spec, 3), order_info=OrderInfo(2, True)
    )
    with pytest.raises(ValueError):
        keygen(ps, seed=0)


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


def test_zero_vector_encrypts_to_zero_mask(params311):
    _, pub = keygen(params311, seed=1)
    zero = tuple(params311.spec.zero for _ in range(11))
    ct = encrypt(pub, zero, seed=3)
    assert all(e.is_zero() for e in ct.w)
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
    c = FieldElement(0x6, spec)
    scaled = Ciphertext(ct.Ar, tuple(c * e for e in ct.w))
    assert decrypt(priv, scaled) == tuple(c * e for e in v)


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
        assert det(s1).bits == 1 and row_sum(s1).bits == 1


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
    zero = tuple(spec.zero for _ in range(d))
    with pytest.raises(OracleInconsistent):
        oracle_reduction(lambda ct: zero, a, a, a)  # singular assembly
    e1 = tuple(spec.one if i == 1 else spec.zero for i in range(d))
    with pytest.raises(OracleInconsistent):
        oracle_reduction(lambda ct: e1, a, a, a)  # not circulant
    with pytest.raises(OracleInconsistent):
        oracle_reduction(lambda ct: zero[:3], a, a, a)  # wrong size


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
    assert blocks == [tuple(spec.zero for _ in range(11))]
    assert decode_blocks(blocks, spec, 0) == b""


def test_decode_masks_padding_bits():
    spec = field_make(8)
    blocks = encode_bytes(b"ab", spec, 5)
    noisy = [tuple(FieldElement(0xFF, spec) if e.is_zero() else e for e in blocks[0])]
    assert decode_blocks(noisy, spec, 2) == b"ab"


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
