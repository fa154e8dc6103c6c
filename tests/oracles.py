"""Oracles that several test modules share, kept out of the library."""

import math
import random
from functools import lru_cache

from circulant_elgamal.circulant import Circulant
from circulant_elgamal.gf2field import FieldSpec
from circulant_elgamal.numtheory import Factorization


def C(spec, *bits):
    """The circulant whose first row is `bits`."""
    return Circulant(spec, bits)


def expand(a: Circulant):
    """Full d x d matrix of ints; row k is the first row right-rotated k
    times."""
    d, c = a.d, a.bits()
    return [[c[(j - k) % d] for j in range(d)] for k in range(d)]


def dot(spec: FieldSpec, xs, ys) -> int:
    """sum of x y over GF(2^n), by the field's own products."""
    acc = 0
    for x, y in zip(xs, ys):
        acc ^= spec.mul(x, y)
    return acc


def mulmod(a: int, b: int, m: int) -> int:
    """a b mod m in GF(2)[t] (bit i <-> t^i), by shift-and-add and then
    long division."""
    r = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            r ^= a << i
    dm = m.bit_length() - 1
    while r.bit_length() > dm:
        r ^= m << (r.bit_length() - 1 - dm)
    return r


def pinvert_ref(a: int, m: int) -> int:
    """a^-1 mod m in GF(2)[t], or 0 when gcd(a, m) != 1, by the extended
    Euclid on long-division quotients that `gf2field._pinvert` ran before
    the binary algorithm; any m of degree >= 1, even ones too."""
    r0, r1 = m, mulmod(a, 1, m)  # a mod m
    s0, s1 = 0, 1
    while r1:
        q, r = 0, r0
        while r.bit_length() >= r1.bit_length():
            shift = r.bit_length() - r1.bit_length()
            q ^= 1 << shift
            r ^= r1 << shift
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ mulmod(q, s1, m)
    return s0 if r0 == 1 else 0


@lru_cache(maxsize=None)
def field_ops(spec: FieldSpec):
    """(mul, inv) of GF(2^n) by `mulmod` and by Fermat, a^(2^n - 2), not
    by the kernel and the Euclid they check; for n <= 8 both read tables
    built once."""
    m = spec.modulus
    if spec.n > 8:

        def inv(a):
            # a^(2^n - 2) = a^2 a^4 ... a^(2^(n-1))
            r, s = 1, a
            for _ in range(spec.n - 1):
                s = mulmod(s, s, m)
                r = mulmod(r, s, m)
            return r

        return (lambda a, b: mulmod(a, b, m)), inv
    table = []
    for a in range(1 << spec.n):
        row = [0]  # a b for b < 2^i; a (t^i + b) = a t^i + a b doubles it
        for i in range(spec.n):
            at = mulmod(a, 1 << i, m)
            row += [at ^ v for v in row]
        table.append(row)
    inverse = [0] + [row.index(1) for row in table[1:]]
    return (lambda a, b: table[a][b]), inverse.__getitem__


def gaussian_det(a: Circulant) -> int:
    """det of the expanded matrix by Gaussian elimination."""
    d, (fmul, finv) = a.d, field_ops(a.spec)
    rows = expand(a)
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


def encode_bytes_ref(data: bytes, spec: FieldSpec, d: int):
    """The byte codec unit by unit from one integer: unit i is bits
    n i .. n i + n - 1 of the message read little-endian, zero padded to
    at least one block of d units; quadratic in the length."""
    n = spec.n
    total = int.from_bytes(data, "little")
    mask = (1 << n) - 1
    count = max(1, (8 * len(data) + n * d - 1) // (n * d))
    elems = [(total >> (n * i)) & mask for i in range(d * count)]
    return [tuple(elems[i : i + d]) for i in range(0, len(elems), d)]


def decode_blocks_ref(blocks, spec: FieldSpec, length: int) -> bytes:
    """Inverse of encode_bytes_ref: the units OR-ed in one at a time."""
    n = spec.n
    total = 0
    i = 0
    for block in blocks:
        for e in block:
            total |= e << (n * i)
            i += 1
    total &= (1 << (8 * length)) - 1
    return total.to_bytes(length, "little")


def element_order_scan(fact: Factorization, g, power, is_one) -> Factorization:
    """ord(g), factored, one prime at a time (Handbook of Applied
    Cryptography, Alg. 4.79), with the arguments of `element_order`.

    g^N = 1 is assumed, N = fact.n. A proven prime p^e of N that does not
    divide the cofactor contributes p^(e - k), k <= e the largest with
    g^(N/p^k) = 1: a full power of g for every step."""
    n, order = fact.n, {}
    for p, e in sorted(fact.factors.items()):
        if fact.cofactor % p == 0:
            continue
        k = 0
        while k < e and is_one(power(g, n // p ** (k + 1))):
            k += 1
        if k < e:
            order[p] = e - k
    return Factorization(math.prod(p ** e for p, e in order.items()), order)


def rho_brent_ref(n: int, budget: int) -> tuple[int | None, int]:
    """Brent rho as `numtheory._rho_brent` ran before it checked the
    budget ahead of each round: (factor_or_None, f_evaluations_used).

    A round's r-step advance starts whenever the budget is not yet
    spent, so the last one can use it up with no gcd after it, and
    ``used`` reaches about 1.5 times the budget on a leftover rho cannot
    split.
    """
    used = 0
    c = 1
    while used < budget:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            used += r
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                steps = min(128, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                used += steps
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                used += 1
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g, used
        c += 1
    return None, used


# the witnesses 2 .. 37 decide primality below psi_12, about 2^78.1
_PRIME_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461


def _strong_round(n: int, a: int, d: int, s: int) -> bool:
    # one Miller-Rabin round; True means "probably prime for this witness"
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_mr64_ref(n: int) -> bool:
    """Miller-Rabin as `numtheory.is_prime` ran before its base-3 round
    and BPSW: the twelve witnesses below psi_12, and from there on 64
    rounds with witnesses drawn from a generator seeded by n."""
    if n < 2:
        return False
    for p in _PRIME_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _PSI_12:
        return all(_strong_round(n, a, d, s) for a in _PRIME_WITNESSES)
    rng = random.Random(n & 0xFFFFFFFFFFFFFFFF)
    for _ in range(64):
        a = rng.randrange(2, n - 1)
        if not _strong_round(n, a, d, s):
            return False
    return True
