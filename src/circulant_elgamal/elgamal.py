"""ElGamal encryption over the circulant group.

Keys are (m, (A, A^m)); a message block is a vector v of d field
elements, each an int below 2^n, encrypted as (A^r, A^{mr} v) for fresh
random r. Also here: the decryption-oracle reduction showing that d
chosen-ciphertext queries against such an oracle recover the
Diffie-Hellman secret A^{ab}.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Sequence

from . import fileio
from .circulant import (
    Circulant,
    DimensionMismatch,
    NotInvertible,
    inverse,
    matvec,
    power,
    row_sum,
)
from .gf2field import FieldSpec
from .keygen import ParamSet, _rng
from .numtheory import cell_exponent, primitive_cell


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
    w: tuple[int, ...]  # A^{mr} v


def _exponent(
    seed: int | random.Random | None, base: Circulant, name: str
) -> tuple[int, Circulant]:
    """(e, base^e), e uniform in [2, `cell_exponent`] and redrawn while
    base^e = I. That range holds 2 and 3, so only base = I, refused by its
    ``name``, has no such e."""
    top = cell_exponent(base.spec.n, base.d)
    if top < 2:
        raise ValueError("group too small to hold a secret exponent")
    if base.is_identity():
        raise ValueError(f"{name} is the identity matrix, so every power of it is")
    rng = _rng(seed)
    while True:
        e = rng.randrange(2, top + 1)
        p = power(base, e)
        if not p.is_identity():
            return e, p


def keygen(
    params: ParamSet, seed: int | random.Random | None = None
) -> tuple[PrivateKey, PublicKey]:
    """Draw m uniformly from [2, 2^(n(d-1))), redrawn while A^m = I, and
    publish (A, A^m); ValueError when A = I.

    Only m mod ord(A) matters. On every cell `generate` accepts, ord(A)
    divides N = 2^(n(d-1)) - 1 (`decrypt`), so that residue is uniform
    but for 0, which is redrawn, and 1, one draw short. The rule reads no
    order, so the CLI draws the same m from a params file for one seed.
    Elsewhere ord(A) need not divide N (A = circ(3, 5, 0, 1) at (2^3, 4)
    has order 28, N = 511), and the bound only sets the range.
    """
    m, am = _exponent(seed, params.A, "A")
    return PrivateKey(m, params), PublicKey(params.A, am)


def encrypt(
    pub: PublicKey,
    v: Sequence[int],
    seed: int | random.Random | None = None,
) -> Ciphertext:
    """Fresh r per call, drawn by keygen's rule for keygen's reason, and
    redrawn while the mask (A^m)^r = I would leave v in the clear;
    ValueError when A^m = I."""
    a = pub.A
    if len(v) != a.d:
        raise DimensionMismatch(f"message block has {len(v)} entries, need {a.d}")
    r, mask = _exponent(seed, pub.Am, "A^m")
    return Ciphertext(power(a, r), matvec(mask, v))


def decrypt(priv: PrivateKey, ct: Ciphertext) -> tuple[int, ...]:
    """Apply A^{-mr} to w. On a primitive cell every unit u has u^N = 1
    (`cell_exponent`), so A^{-mr} is the one power (A^r)^(-m mod N); A^r
    is a unit there exactly when its row sum is nonzero and its entries
    are not all equal. Other cells invert A^{mr}."""
    ar, m = ct.Ar, priv.m
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if not primitive_cell(ar.spec.n, ar.d):
        return matvec(inverse(power(ar, m)), ct.w)
    if not row_sum(ar) or len(set(ar.bits())) == 1:
        raise NotInvertible("A^r is singular, so A^{mr} has no inverse")
    return matvec(power(ar, -m % cell_exponent(ar.spec.n, ar.d)), ct.w)


def oracle_reduction(
    decrypt_oracle: Callable[[Ciphertext], Sequence[int]],
    a: Circulant,
    g: Circulant,
    h: Circulant,
) -> Circulant:
    """Recover A^{ab} from a decryption oracle for the key (A, g=A^a).

    Feeds the oracle exactly d ciphertexts (h, e_i) where h = A^b and
    e_i is the i-th unit vector; each answer is a column of A^{-ab}.
    The answers must be elements of A's field (`FieldSpec.check`), and
    the assembled matrix circulant and invertible, otherwise the oracle
    lied.
    """
    d, spec = a.d, a.spec
    columns = []
    for i in range(d):
        probe = tuple(int(j == i) for j in range(d))
        try:
            answer = spec.check(decrypt_oracle(Ciphertext(h, probe)))
        except ValueError:
            raise OracleInconsistent("oracle answered outside A's field") from None
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
        return inverse(Circulant(spec, first_row))
    except NotInvertible:
        raise OracleInconsistent("assembled matrix is singular") from None


# ---------------------------------------------------------------------------
# byte-stream encoding: n-bit units, little-endian, zero padded

def _block_count(length: int, n: int, d: int) -> int:
    """Blocks of d n-bit units that hold `length` bytes; at least one."""
    return max(1, (8 * length + n * d - 1) // (n * d))


def encode_bytes(data: bytes, spec: FieldSpec, d: int) -> list[tuple[int, ...]]:
    """Chunk a byte string into blocks of d field elements.

    The message is written out once in base 2, where int <-> str runs in
    linear time, and cut from its low end into blocks of n d bits.
    """
    n = spec.n
    width, mask = n * d, (1 << n) - 1
    count = _block_count(len(data), n, d)
    text = format(int.from_bytes(data, "little"), f"0{width * count}b")
    rows = (int(text[end - width : end], 2) for end in range(len(text), 0, -width))
    return [tuple(row >> k & mask for k in range(0, width, n)) for row in rows]


def decode_blocks(
    blocks: Sequence[Sequence[int]], spec: FieldSpec, length: int
) -> bytes:
    """Inverse of encode_bytes given the original byte length; each
    entry must be a field element (`FieldSpec.check`), as a wider int
    would carry into the next unit."""
    n = spec.n
    text = "".join(
        format(sum(e << n * k for k, e in enumerate(spec.check(b))), f"0{n * len(b)}b")
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
    a = Circulant(r.spec, r.entries("A"))
    r.done()
    return PrivateKey(m, ParamSet(r.spec, r.d, a))


def save_public(pub: PublicKey, path) -> None:
    a = pub.A
    rows = [("A", fileio.hex_line(a.bits())), ("Am", fileio.hex_line(pub.Am.bits()))]
    fileio.write_kv(path, a.spec, a.d, rows)


def load_public(path) -> PublicKey:
    r = fileio.KvReader(path)
    a = Circulant(r.spec, r.entries("A"))
    am = Circulant(r.spec, r.entries("Am"))
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
        pairs.append(("w", fileio.hex_line(ct.w)))
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
        ar = Circulant(spec, r.entries("Ar"))
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
