"""Integer-side number theory: primality, factoring, element orders, CRT.

Everything operates on plain Python ints. Factoring is budgeted so callers
can bound work on large inputs: trial division runs below a fixed bound,
then Brent-cycle Pollard rho consumes the remaining budget, counted in
f-evaluations. Every number the library factors is 2^N - 1, the product
of the cyclotomic pieces Phi_k(2) over the divisors k of N (Brillhart et
al., *Factorizations of b^n +- 1*); each piece is factored on its own, so
the result is a full scan below the bound of each Phi_k(2), then rho on
the composite leftovers, whose every step squares a piece rather than the
whole of 2^N - 1. A Factorization records what was proven and whether
the job finished. `element_order` turns one into an element's order,
given a test for g^e = 1; an incomplete one gives a certified divisor of
it.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache
from typing import Callable, NamedTuple

DEFAULT_BUDGET = 1 << 26  # rho f-evaluations per factor() call
TRIAL_DIVISION_BOUND = 10 ** 6

# Below 2^64 these witnesses decide primality deterministically.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 1 << 64
_MR_ROUNDS = 64


class IncompleteFactorization(ValueError):
    pass


class NotAUnit(ValueError):
    pass


class DNotPrime(ValueError):
    pass


class NotCoprime(ValueError):
    pass


def _mr_round(n: int, a: int, d: int, s: int) -> bool:
    # one Miller-Rabin round; True means "probably prime for this witness"
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic witness set below 2^64; above that, 64 rounds with
    witnesses drawn from a generator seeded by n, so results are
    reproducible.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_BOUND:
        return all(_mr_round(n, a, d, s) for a in _MR_WITNESSES)
    rng = random.Random(n & 0xFFFFFFFFFFFFFFFF)
    for _ in range(_MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        if not _mr_round(n, a, d, s):
            return False
    return True


class Factorization(NamedTuple):
    """Partial or complete factorization of ``n``.

    factors maps proven primes to multiplicities; cofactor is the
    unfactored remainder (1 when the factorization is complete).
    """

    n: int
    factors: dict[int, int]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def primes(self) -> list[int]:
        return sorted(self.factors)

    def check(self) -> bool:
        prod = self.cofactor
        for p, e in self.factors.items():
            prod *= p ** e
        return prod == self.n


@lru_cache(maxsize=None)
def _small_primes() -> bytearray:
    """Primality flags below the trial bound: entry i is 1 exactly when i
    is prime (sieve of Eratosthenes)."""
    bound = TRIAL_DIVISION_BOUND
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound, i)))
    return sieve


def _rho_brent(n: int, budget: int) -> tuple[int | None, int]:
    """Find one nontrivial factor of odd composite n, or give up.

    Brent's cycle variant with gcd batched over 128 accumulated
    differences. Returns (factor_or_None, f_evaluations_used).
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
            # batch collapsed; replay single steps from the saved point
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                used += 1
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g, used
        c += 1  # cycle found only trivial gcd, retry with a new constant
    return None, used


def _pieces(n: int) -> list[tuple[int, int, list[int]]]:
    """(piece, step, first) for each piece of n that trial division takes
    on its own: divide out the primes ``first``, then walk the primes
    1 + j step, j >= 1.

    For n = 2^N - 1 the pieces are Phi_k(2) for the divisors k >= 2 of N,
    by exact division: Phi_k(2) = (2^k - 1) / prod_(e | k, e < k) Phi_e(2).
    A prime divides Phi_k(2) either because it divides k (the intrinsic
    primes), or because ord_p(2) = k; then k | p - 1, and p is odd, so
    p = 1 mod 2k for odd k. Any other n is one piece: 2, then the odd
    numbers.
    """
    if n & (n + 1):
        return [(n, 2, [2])]
    big_n = n.bit_length()
    divisors = [k for k in range(1, big_n + 1) if big_n % k == 0]
    phi: dict[int, int] = {}
    for k in divisors:
        below = math.prod(phi[e] for e in phi if k % e == 0)
        phi[k] = ((1 << k) - 1) // below
    return [
        (phi[k], k if k % 2 == 0 else 2 * k, _prime_divisors(k))
        for k in divisors[1:]
    ]


@lru_cache(maxsize=512)
def factor(n: int, budget: int = DEFAULT_BUDGET) -> Factorization:
    """Factor n >= 1 within a work budget.

    Trial division below 10^6 first, then budgeted Brent rho on what
    remains. Composite leftovers end up multiplied into ``cofactor``.

    For n = 2^N - 1 each piece Phi_k(2), k | N, is factored on its own
    (see ``_pieces``): its intrinsic primes go first, then one walk over
    the primes that can divide it, stopping once p^2 exceeds what is left,
    so the result is the one a scan of every prime below 10^6 of each
    Phi_k(2) gives. (A walk never needs the bound 2^k that every such
    prime lies below: Phi_k(2) divides 2^k - 1, so its square root is
    smaller.) Rho then takes the composite leftovers of all pieces,
    smallest first, on the one budget. Any other n is scanned whole, 2
    and then the odd numbers.
    """
    if n < 1:
        raise ValueError("factor() wants n >= 1")
    found: dict[int, int] = {}
    sieve = _small_primes()
    left = []
    for m, step, first in _pieces(n):
        # every prime of m is in ``first`` or on the walk, and ``first``
        # lies below the walk, so p^2 > m leaves 1 or a prime
        stop = min(TRIAL_DIVISION_BOUND, math.isqrt(m) + 1)
        walk = itertools.compress(
            range(1 + step, stop, step), sieve[1 + step : stop : step]
        )
        for p in itertools.chain(first, walk):
            if p * p > m:
                break
            while m % p == 0:
                found[p] = found.get(p, 0) + 1
                m //= p
        if m > 1:
            left.append(m)
    left.sort(reverse=True)  # rho takes the smallest first, from the end
    cofactor = 1
    remaining = budget
    while left:
        m = left.pop()
        if m < TRIAL_DIVISION_BOUND ** 2 or is_prime(m):
            # below the trial bound squared anything surviving is prime
            found[m] = found.get(m, 0) + 1
            continue
        f, used = _rho_brent(m, remaining)
        remaining -= used
        if f is None:
            cofactor *= m
            continue
        # both parts lie below every leftover still waiting: still sorted
        left += sorted((f, m // f), reverse=True)
    return Factorization(n, found, cofactor)


def element_order(
    fact: Factorization, is_one: Callable[[int], bool]
) -> Factorization:
    """ord(g), factored, from a factorization of a multiple N = fact.n.

    ``is_one(e)`` says whether g^e = 1; the caller has checked g^N = 1.
    A proven prime p^e of N contributes p^(e - k), k <= e the largest
    with g^(N/p^k) = 1 (Handbook of Applied Cryptography, Alg. 4.79).
    Primes dividing the cofactor, whose multiplicity is unknown, are
    left out, so an incomplete ``fact`` gives a certified divisor.
    """
    n, order = fact.n, {}
    for p, e in sorted(fact.factors.items()):
        if fact.cofactor % p == 0:
            continue
        k = 0
        while k < e and is_one(n // p ** (k + 1)):
            k += 1
        if k < e:
            order[p] = e - k
    return Factorization(math.prod(p ** e for p, e in order.items()), order)


def _prime_divisors(k: int) -> list[int]:
    divs, p = [], 2
    while p * p <= k:
        if k % p == 0:
            divs.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        divs.append(k)
    return divs


def is_primitive_mod(q: int, d: int) -> bool:
    """Is q a generator of (Z/dZ)* for prime d?

    It is when q^((d - 1)/p) != 1 mod d for every prime p dividing d - 1.
    """
    if not is_prime(d):
        raise DNotPrime(f"d must be prime, got {d}")
    r = q % d
    if r == 0:
        raise NotAUnit(f"{q} is divisible by {d}")
    return all(pow(r, (d - 1) // p, d) != 1 for p in _prime_divisors(d - 1))


def primitive_cell(n: int, d: int) -> bool:
    """Is 2^n a generator of (Z/dZ)*? False, not an error, on a d that
    is not prime or divides 2^n."""
    try:
        return is_primitive_mod(1 << n, d)
    except (DNotPrime, NotAUnit):
        return False


def integer_crt(residues: list[int], moduli: list[int]) -> int:
    """Chinese remainder lift for pairwise coprime moduli."""
    if len(residues) != len(moduli) or not moduli:
        raise ValueError("residues and moduli must be equal-length, nonempty")
    if min(moduli) < 1:
        raise ValueError("moduli must be >= 1")
    x = residues[0] % moduli[0]
    m = moduli[0]
    for r, mi in zip(residues[1:], moduli[1:]):
        if math.gcd(m, mi) != 1:
            raise NotCoprime(f"moduli are not pairwise coprime (gcd with {mi} > 1)")
        t = (r - x) * pow(m, -1, mi) % mi
        x += m * t
        m *= mi
    return x % m
