"""Oracles that several test modules share, kept out of the library."""

from circulant_elgamal.circulant import Circulant


def expand(a: Circulant):
    """Full d x d matrix; row k is the first row right-rotated k times."""
    d, c = a.d, a.coeffs
    return [[c[(j - k) % d] for j in range(d)] for k in range(d)]
