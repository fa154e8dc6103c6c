"""Oracles that several test modules share, kept out of the library."""

from functools import lru_cache

from circulant_elgamal.circulant import Circulant
from circulant_elgamal.gf2field import FieldSpec, _pinvert, _pmod, _pmul


def C(spec, *bits):
    """The circulant whose first row is `bits`."""
    return Circulant.from_bits(spec, bits)


def expand(a: Circulant):
    """Full d x d matrix; row k is the first row right-rotated k times."""
    d, c = a.d, a.coeffs
    return [[c[(j - k) % d] for j in range(d)] for k in range(d)]


@lru_cache(maxsize=None)
def field_ops(spec: FieldSpec):
    """(mul, inv) of GF(2^n) by bitwise multiply and reduce and by Euclid,
    not by the kernel they check; for n <= 8 both read tables built once."""
    m = spec.modulus
    if spec.n > 8:
        return (lambda a, b: _pmod(_pmul(a, b), m)), (lambda a: _pinvert(a, m))
    table = []
    for a in range(1 << spec.n):
        row = [0]  # a b for b < 2^i; a (t^i + b) = a t^i + a b doubles it
        for i in range(spec.n):
            at = _pmod(a << i, m)
            row += [at ^ v for v in row]
        table.append(row)
    inverse = [0] + [row.index(1) for row in table[1:]]
    return (lambda a, b: table[a][b]), inverse.__getitem__


def gaussian_det(a: Circulant) -> int:
    """det of the expanded matrix by Gaussian elimination."""
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
