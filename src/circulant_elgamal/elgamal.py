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
    row_sum,
)
from .gf2field import FieldElement, FieldSpec
from .keygen import ParamSet
from .numtheory import primitive_cell


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


def _group_exponent(a: Circulant) -> int:
    """N = 2^(n(d-1)) - 1 for A's cell: secret exponents are drawn from
    [2, N] and decrypt reduces them mod N."""
    return (1 << a.spec.n * (a.d - 1)) - 1


def _exponent(seed: int | random.Random | None, a: Circulant) -> int:
    """A secret exponent drawn uniformly from [2, N] (`_group_exponent`)."""
    top = _group_exponent(a)
    if top < 2:
        raise ValueError("group too small to hold a secret exponent")
    return _rng(seed).randrange(2, top + 1)


def keygen(
    params: ParamSet, seed: int | random.Random | None = None
) -> tuple[PrivateKey, PublicKey]:
    """Draw m uniformly from [2, 2^(n(d-1))) and publish (A, A^m).

    Only m mod ord(A) matters. On every cell `generate` accepts, ord(A)
    divides N = 2^(n(d-1)) - 1 (`decrypt`), so that residue is uniform
    but for 1, one draw short. The rule reads no order, so the CLI draws
    the same m from a params file for one seed. Elsewhere ord(A) need
    not divide N (A = circ(3, 5, 0, 1) at (2^3, 4) has order 28, N =
    511), and the bound only sets the range.
    """
    m = _exponent(seed, params.A)
    return PrivateKey(m, params), PublicKey(params.A, power(params.A, m))


def encrypt(
    pub: PublicKey,
    v: Sequence[FieldElement],
    seed: int | random.Random | None = None,
) -> Ciphertext:
    """Fresh r per call, drawn by keygen's rule for keygen's reason:
    uniformly from [2, 2^(n(d-1))), so on a cell `generate` accepts r
    mod ord(A) is uniform but for 1; elsewhere the bound sets the range."""
    a = pub.A
    if len(v) != a.d:
        raise DimensionMismatch(f"message block has {len(v)} entries, need {a.d}")
    r = _exponent(seed, a)
    return Ciphertext(power(a, r), matvec(power(pub.Am, r), v))


def decrypt(priv: PrivateKey, ct: Ciphertext) -> tuple[FieldElement, ...]:
    """Apply A^{-mr} to w. On a primitive cell R = F_q x F_(q^(d-1)), so
    every unit u has u^N = 1 for N = q^(d-1) - 1, and A^{-mr} is the one
    power (A^r)^(-m mod N); A^r is a unit there exactly when its row sum
    is nonzero and its entries are not all equal. Other cells invert A^{mr}."""
    ar, m = ct.Ar, priv.m
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if not primitive_cell(ar.spec.n, ar.d):
        return matvec(inverse(power(ar, m)), ct.w)
    if row_sum(ar).is_zero() or len(set(ar.bits())) == 1:
        raise NotInvertible("A^r is singular, so A^{mr} has no inverse")
    return matvec(power(ar, -m % _group_exponent(ar)), ct.w)


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

def _block_count(length: int, n: int, d: int) -> int:
    """Blocks of d n-bit units that hold `length` bytes; at least one."""
    return max(1, (8 * length + n * d - 1) // (n * d))


def encode_bytes(
    data: bytes, spec: FieldSpec, d: int
) -> list[tuple[FieldElement, ...]]:
    """Chunk a byte string into blocks of d field elements.

    The message is written out once in base 2, where int <-> str runs in
    linear time, and cut from its low end into blocks of n d bits.
    """
    n = spec.n
    width, mask = n * d, (1 << n) - 1
    count = _block_count(len(data), n, d)
    text = format(int.from_bytes(data, "little"), f"0{width * count}b")
    rows = (int(text[end - width : end], 2) for end in range(len(text), 0, -width))
    return [
        tuple(FieldElement(row >> k & mask, spec) for k in range(0, width, n))
        for row in rows
    ]


def decode_blocks(
    blocks: Sequence[Sequence[FieldElement]], spec: FieldSpec, length: int
) -> bytes:
    """Inverse of encode_bytes given the original byte length."""
    n = spec.n
    text = "".join(
        format(sum(e.bits << (n * k) for k, e in enumerate(b)), f"0{n * len(b)}b")
        for b in reversed(blocks) if b
    )
    total = int(text or "0", 2) & ((1 << (8 * length)) - 1)
    return total.to_bytes(length, "little")


# ---------------------------------------------------------------------------
# key and ciphertext files

def save_private(priv: PrivateKey, path) -> None:
    ps = priv.params
    fileio.write_kv(
        path, ps.spec, ps.d, [("m", str(priv.m)), ("A", fileio.hex_line(ps.A.bits()))]
    )


def load_private(path) -> PrivateKey:
    r = fileio.KvReader(path)
    m = r.expect_int("m")
    if m < 0:
        raise fileio.FileFormatError(f"{path}: m must be nonnegative")
    a = Circulant(r.entries("A"), r.spec)
    r.done()
    return PrivateKey(m, ParamSet(r.spec, r.d, a))


def save_public(pub: PublicKey, path) -> None:
    a = pub.A
    rows = [("A", fileio.hex_line(a.bits())), ("Am", fileio.hex_line(pub.Am.bits()))]
    fileio.write_kv(path, a.spec, a.d, rows)


def load_public(path) -> PublicKey:
    r = fileio.KvReader(path)
    a = Circulant(r.entries("A"), r.spec)
    am = Circulant(r.entries("Am"), r.spec)
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
    pairs = [("encoding", "bytes" if length is not None else "raw")]
    if length is not None:
        pairs.append(("length", str(length)))
    pairs.append(("blocks", str(len(blocks))))
    for ct in blocks:
        pairs.append(("Ar", fileio.hex_line(ct.Ar.bits())))
        pairs.append(("w", fileio.hex_line(e.bits for e in ct.w)))
    fileio.write_kv(path, spec, d, pairs)


def load_ciphertexts(
    path,
) -> tuple[FieldSpec, int, list[Ciphertext], int | None]:
    r = fileio.KvReader(path)
    spec, d = r.spec, r.d
    encoding = r.expect("encoding")
    if encoding not in ("raw", "bytes"):
        raise fileio.FileFormatError(f"{path}: unknown encoding {encoding!r}")
    length = r.expect_int("length") if encoding == "bytes" else None
    count = r.expect_int("blocks")
    if count < 1:
        raise fileio.FileFormatError(f"{path}: blocks must be positive, got {count}")
    blocks = []
    for _ in range(count):
        ar = Circulant(r.entries("Ar"), spec)
        blocks.append(Ciphertext(ar, r.entries("w")))
    r.done()
    if length is not None:
        # the count encode_bytes gives, so decode_blocks never builds a
        # mask wider than the blocks
        if length < 0 or count != _block_count(length, spec.n, d):
            raise fileio.FileFormatError(
                f"{path}: {count} blocks cannot hold {length} bytes"
            )
    return spec, d, blocks, length
