"""ElGamal encryption over the circulant group.

Keys are (m, (A, A^m)); a message block is a vector of d field
elements v, encrypted as (A^r, A^{mr} v) for fresh random r. Also here:
the decryption-oracle reduction showing that d chosen-ciphertext
queries against such an oracle recover the Diffie-Hellman secret A^{ab}.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Sequence

from . import fileio
from .circulant import (
    Circulant,
    DimensionMismatch,
    NotInvertible,
    SpecMismatch,
    inverse,
    matvec,
    power,
)
from .gf2field import FieldElement, FieldSpec
from .keygen import ParamSet, _field_header, _read_field_header, _read_row


class OracleInconsistent(ArithmeticError):
    pass


class PrivateKey(NamedTuple):
    m: int
    params: ParamSet


class PublicKey(NamedTuple):
    A: Circulant
    Am: Circulant  # A^m


class Ciphertext(NamedTuple):
    Ar: Circulant  # A^r
    w: tuple[FieldElement, ...]  # A^{mr} v


def _rng(seed: int | random.Random | None) -> random.Random:
    """The caller's generator, a seeded one, or the OS CSPRNG when unseeded.

    random.SystemRandom is the class `secrets` exports; importing it from
    `random` keeps hashlib and OpenSSL out of every CLI process.
    """
    if isinstance(seed, random.Random):
        return seed
    return random.SystemRandom() if seed is None else random.Random(seed)


def keygen(
    params: ParamSet, seed: int | random.Random | None = None
) -> tuple[PrivateKey, PublicKey]:
    """Draw m uniformly from [2, L) and publish (A, A^m)."""
    rng = _rng(seed)
    bound = params.exponent_bound()
    if bound <= 2:
        raise ValueError("group too small to hold a secret exponent")
    m = rng.randrange(2, bound)
    return PrivateKey(m, params), PublicKey(params.A, power(params.A, m))


def encrypt(
    pub: PublicKey,
    v: Sequence[FieldElement],
    seed: int | random.Random | None = None,
) -> Ciphertext:
    """Fresh r per call; the order surrogate 2^{n(d-1)} bounds it."""
    a = pub.A
    if len(v) != a.d:
        raise DimensionMismatch(f"message block has {len(v)} entries, need {a.d}")
    rng = _rng(seed)
    r = rng.randrange(2, 1 << (a.spec.n * (a.d - 1)))
    return Ciphertext(power(a, r), matvec(power(pub.Am, r), v))


def decrypt(priv: PrivateKey, ct: Ciphertext) -> tuple[FieldElement, ...]:
    """Rebuild A^{mr} from A^r, invert it, apply to w."""
    mask = power(ct.Ar, priv.m)
    return matvec(inverse(mask), ct.w)


def oracle_reduction(
    decrypt_oracle: Callable[[Ciphertext], Sequence[FieldElement]],
    a: Circulant,
    g: Circulant,
    h: Circulant,
) -> Circulant:
    """Recover A^{ab} from a decryption oracle for the key (A, g=A^a).

    Feeds the oracle exactly d ciphertexts (h, e_i) where h = A^b and
    e_i is the i-th unit vector; each answer is a column of A^{-ab}.
    The assembled matrix must be circulant, over A's field and
    invertible, otherwise the oracle lied.
    """
    d, spec = a.d, a.spec
    columns = []
    for i in range(d):
        probe = tuple(
            spec.one if j == i else spec.zero for j in range(d)
        )
        answer = tuple(decrypt_oracle(Ciphertext(h, probe)))
        if len(answer) != d:
            raise OracleInconsistent("oracle returned a wrong-size vector")
        columns.append(answer)
    # entry (k, i) of A^{-ab} is answer_i[k] and must equal c_{(i-k) mod d}
    first_row = tuple(columns[j][0] for j in range(d))
    for i in range(d):
        for k in range(d):
            if columns[i][k] != first_row[(i - k) % d]:
                raise OracleInconsistent("assembled matrix is not circulant")
    try:
        return inverse(Circulant(first_row, spec))
    except SpecMismatch:
        raise OracleInconsistent("oracle answered in another field") from None
    except NotInvertible:
        raise OracleInconsistent("assembled matrix is singular") from None


# ---------------------------------------------------------------------------
# byte-stream encoding: n-bit units, little-endian, zero padded

def encode_bytes(
    data: bytes, spec: FieldSpec, d: int
) -> list[tuple[FieldElement, ...]]:
    """Chunk a byte string into blocks of d field elements."""
    n = spec.n
    total = int.from_bytes(data, "little")
    n_elems = (8 * len(data) + n - 1) // n
    mask = (1 << n) - 1
    elems = [
        FieldElement((total >> (n * i)) & mask, spec) for i in range(n_elems)
    ]
    while len(elems) % d != 0 or not elems:
        elems.append(spec.zero)
    return [tuple(elems[i : i + d]) for i in range(0, len(elems), d)]


def decode_blocks(
    blocks: Sequence[Sequence[FieldElement]], spec: FieldSpec, length: int
) -> bytes:
    """Inverse of encode_bytes given the original byte length."""
    n = spec.n
    total = 0
    i = 0
    for block in blocks:
        for e in block:
            total |= e.bits << (n * i)
            i += 1
    total &= (1 << (8 * length)) - 1
    return total.to_bytes(length, "little")


# ---------------------------------------------------------------------------
# key and ciphertext files

def save_private(priv: PrivateKey, path) -> None:
    ps = priv.params
    fileio.write_kv(
        path,
        _field_header(ps.spec, ps.d)
        + [("m", str(priv.m)), ("A", ps.A.to_hex())],
    )


def load_private(path) -> PrivateKey:
    r = fileio.KvReader(path)
    spec, d = _read_field_header(r)
    m = r.expect_int("m")
    a = _read_row(r, "A", spec, d)
    r.done()
    return PrivateKey(m, ParamSet(spec, d, a))


def save_public(pub: PublicKey, path) -> None:
    a = pub.A
    fileio.write_kv(
        path,
        _field_header(a.spec, a.d)
        + [("A", a.to_hex()), ("Am", pub.Am.to_hex())],
    )


def load_public(path) -> PublicKey:
    r = fileio.KvReader(path)
    spec, d = _read_field_header(r)
    a = _read_row(r, "A", spec, d)
    am = _read_row(r, "Am", spec, d)
    r.done()
    return PublicKey(a, am)


def save_ciphertexts(
    path,
    spec: FieldSpec,
    d: int,
    blocks: Sequence[Ciphertext],
    length: int | None,
) -> None:
    """length None marks a raw single-vector message (no byte padding)."""
    pairs = _field_header(spec, d)
    pairs.append(("encoding", "bytes" if length is not None else "raw"))
    if length is not None:
        pairs.append(("length", str(length)))
    pairs.append(("blocks", str(len(blocks))))
    for ct in blocks:
        pairs.append(("Ar", ct.Ar.to_hex()))
        pairs.append(("w", ",".join(e.to_hex() for e in ct.w)))
    fileio.write_kv(path, pairs)


def load_ciphertexts(
    path,
) -> tuple[FieldSpec, int, list[Ciphertext], int | None]:
    r = fileio.KvReader(path)
    spec, d = _read_field_header(r)
    encoding = r.expect("encoding")
    if encoding not in ("raw", "bytes"):
        raise fileio.FileFormatError(f"{path}: unknown encoding {encoding!r}")
    length = r.expect_int("length") if encoding == "bytes" else None
    count = r.expect_int("blocks")
    if count < 1:
        raise fileio.FileFormatError(f"{path}: blocks must be positive, got {count}")
    blocks = []
    for _ in range(count):
        ar = _read_row(r, "Ar", spec, d)
        w = tuple(
            FieldElement.from_hex(spec, part)
            for part in r.expect("w").split(",")
        )
        if len(w) != d:
            raise fileio.FileFormatError(f"{path}: w has {len(w)} entries")
        blocks.append(Ciphertext(ar, w))
    r.done()
    if length is not None:
        # the count encode_bytes gives, so decode_blocks never builds a
        # mask wider than the blocks
        units = (8 * length + spec.n - 1) // spec.n
        if length < 0 or count != max(1, (units + d - 1) // d):
            raise fileio.FileFormatError(
                f"{path}: {count} blocks cannot hold {length} bytes"
            )
    return spec, d, blocks, length
