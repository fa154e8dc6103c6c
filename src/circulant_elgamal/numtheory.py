"""Integer-side number theory: primality, factoring, element orders.

Everything operates on plain Python ints. Factoring is budgeted so callers
can bound work on large inputs: trial division runs below a fixed bound,
then Brent-cycle Pollard rho consumes the remaining budget, in the unit
stated at ``DEFAULT_BUDGET``. Every number the library factors is
2^N - 1, the product of the cyclotomic pieces Phi_k(2) over the divisors
k of N (Brillhart et al., *Factorizations of b^n +- 1*); each piece is
factored on its own, so the result is a full scan below the bound of each
Phi_k(2), then rho on the composite leftovers: every step works modulo
a leftover of one piece rather than the whole of 2^N - 1, and raises it
to a power e that divides p - 1 for each of its primes p. A
Factorization records what was proven and whether the job finished.
`element_order` turns one into an element's order, given the element,
its group's power map and a test for the identity, by one long power and
a product tree of short ones; an incomplete factorization gives a
certified divisor of it. Primality: twelve Miller-Rabin witnesses below
psi_12 (about 2^78.1), then a base-3 round and BPSW (Baillie and
Wagstaff, *Math. Comp.* 35, 1980).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, NamedTuple, TypeVar

# The factoring budget per factor() call, in modular multiplications of
# rho's map y -> y^e + c: a step costs e.bit_length() - 2 + e.bit_count()
# of them, 1 for y^2 + c. Rho takes a gcd after each batch of
# ceil(RHO_BATCH / cost) steps, charges only steps a gcd reads, and checks
# the budget before each batch, so a call overdraws by less than one
# batch and the replay of a batch whose gcd is n (see `_rho_brent`).
DEFAULT_BUDGET = 1 << 26
RHO_BATCH = 128
TRIAL_DIVISION_BOUND = 10 ** 6

# Below psi_12 these witnesses decide primality deterministically: it is
# the least strong pseudoprime to all twelve (Sorenson and Webster, Math.
# Comp. 86, 2017), 399165290221 * 798330580441, about 2^78.1.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 318665857834031151167461

T = TypeVar("T")


class IncompleteFactorization(ValueError):
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


def _jacobi(a: int, n: int) -> int:
    # the Jacobi symbol (a/n) of odd n > 0, by quadratic reciprocity
    a, j = a % n, 1
    while a:
        t = (a & -a).bit_length() - 1
        a >>= t  # (2/n) = -1 exactly when n = 3 or 5 mod 8
        if t % 2 and n % 8 in (3, 5):
            j = -j
        if a % 4 == 3 and n % 4 == 3:
            j = -j
        a, n = n % a, a
    return j if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n, Selfridge's method A: D
    is the first of 5, -7, 9, -11, ... with Jacobi(D/n) = -1, P = 1 and
    Q = (1 - D) / 4. A square has no such D, so it is rejected first."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and D % n:
            return False  # gcd(D, n) is a proper divisor
        D = 2 - D if D < 0 else -2 - D
    q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = k 2^s, k odd
    # (U_k, V_k, Q^k) mod n, reading k from its top bit: index j -> 2j
    # doubles, 2j -> 2j + 1 is U' = (U + V) / 2 and V' = (D U + V) / 2
    u, v, qk = 1, 1, q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = u + v, D * u + v, qk * q % n
            # n is odd, so adding it to an odd value halves that mod n
            u, v = (u + n * (u & 1)) // 2 % n, (v + n * (v & 1)) // 2 % n
    for _ in range(s):  # V_(k 2^r) = 0 for some r < s, or U_k = 0
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return u == 0


def is_prime(n: int) -> bool:
    """Miller-Rabin on twelve witnesses that decide it below psi_12 (see
    ``_MR_DETERMINISTIC_BOUND``); from there on, a strong round to base 3
    and then BPSW, no known composite passing. Base 3 goes first because
    every composite leftover m of 2^N - 1 that `factor` tests is a strong
    base-2 pseudoprime: each prime p of a leftover of Phi_k(2) has
    ord_p(2) = k, so k divides m - 1 and all the orders share one 2-adic
    valuation."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    if n < _MR_DETERMINISTIC_BOUND:
        return all(_mr_round(n, a, d, s) for a in _MR_WITNESSES)
    return _mr_round(n, 3, d, s) and _mr_round(n, 2, d, s) and _strong_lucas(n)


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
    """Primality flags for the odd numbers below the trial bound: entry i
    is 1 exactly when 2i + 1 is prime (sieve of Eratosthenes). Every walk
    in `factor` takes even steps from 1, so it reads odd numbers only."""
    half = TRIAL_DIVISION_BOUND // 2
    sieve = bytearray([1]) * half
    sieve[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(TRIAL_DIVISION_BOUND) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            # the odd multiples p^2, p^2 + 2p, ... sit at p^2 // 2 + j p
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, half, p)))
    return sieve


def _rho_brent(n: int, budget: int, e: int = 2) -> tuple[int | None, int]:
    """Find one nontrivial factor of odd composite n, or give up.

    Brent's cycle variant on y -> y^e + c mod n, one gcd per batch of
    accumulated differences (see ``DEFAULT_BUDGET`` for the unit and the
    batch). Returns (factor_or_None, units_used). When e divides
    p - 1, the map takes only (p - 1)/e + 1 values mod p, so the walk
    meets itself about sqrt(e) times sooner (Brent and Pollard, *Math.
    Comp.* 36, 1981). On a leftover of 2^N - 1, 2^e = 1, so the first
    walk (y = 2, c = 1) stands still, collapses its first batch and
    retries with c = 2 after three steps.

    Brent compares every term after a round's r-step advance with x
    (BIT 20, 1980), so the advance alone finds nothing: a round starts
    only when the budget leaves room for a gcd after its advance, and
    every step charged is one a gcd can read. The budget is checked
    before each batch, so ``used`` exceeds it by less than one batch,
    plus the replay of that batch when its gcd is n itself.
    """
    cost = e.bit_length() - 2 + e.bit_count()
    batch = -(-RHO_BATCH // cost)
    used = 0
    c = 1
    while used < budget:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            if used + r * cost >= budget:
                # the advance would spend the rest, and no gcd would follow
                return None, used
            x = y
            for _ in range(r):
                y = pow(y, e, n) + c
            used += r * cost
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                steps = min(batch, r - k)
                for _ in range(steps):
                    y = pow(y, e, n) + c
                    q = q * (x - y) % n
                used += steps * cost
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            # batch collapsed; replay single steps from the saved point
            g = 1
            while g == 1:
                ys = pow(ys, e, n) + c
                used += cost
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
    smallest first, on the call's one budget (see ``DEFAULT_BUDGET``);
    what one leftover leaves unspent passes to the next. A leftover of
    Phi_k(2) walks y -> y^e + c with e its piece's step, which divides
    p - 1 for each of its primes p, and both parts of a split keep that
    e. Any other n is scanned whole, 2 and then the odd numbers, and rho
    walks y -> y^2 + c.
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
        half = step // 2  # the walk's odd number 1 + j step is entry j half
        walk = itertools.compress(
            range(1 + step, stop, step), sieve[half : stop // 2 : half]
        )
        for p in itertools.chain(first, walk):
            if p * p > m:
                break
            while m % p == 0:
                found[p] = found.get(p, 0) + 1
                m //= p
        if m > 1:
            left.append((m, step))
    left.sort(reverse=True)  # rho takes the smallest first, from the end
    cofactor = 1
    remaining = budget
    while left:
        m, e = left.pop()
        if m < TRIAL_DIVISION_BOUND ** 2 or is_prime(m):
            # below the trial bound squared anything surviving is prime
            found[m] = found.get(m, 0) + 1
            continue
        f, used = _rho_brent(m, remaining, e)
        remaining -= used
        if f is None:
            cofactor *= m
            continue
        # both parts lie below every leftover still waiting: still sorted
        left += sorted(((f, e), (m // f, e)), reverse=True)
    return Factorization(n, found, cofactor)


def element_order(
    fact: Factorization,
    g: T,
    power: Callable[[T, int], T],
    is_one: Callable[[T], bool],
) -> Factorization:
    """ord(g), factored, from a factorization of a multiple N = fact.n.

    ``power(x, e)`` is x^e in g's group and ``is_one(x)`` tests for its
    identity. Only proven primes that do not divide the cofactor count,
    as only their multiplicity in N is known. With M the product of their
    p^e, one long power gives c = g^(N/M); a product tree (Sutherland,
    *Order Computations in Generic Groups*, 2007, ch. 7) splits the
    primes in halves and raises c by the other half's part of M on each
    side, so each leaf holds g^(N/p^e) after log2(#primes) levels of
    short powers. p's part of ord(g) is p^k, k the number of powers by p
    that take the leaf to 1, so an incomplete ``fact`` gives a certified
    divisor. ArithmeticError when g^N != 1: a leaf that reaches p^e, or
    the root g^N when no prime counts, is not 1.
    """
    certified = [(p, e) for p, e in sorted(fact.factors.items()) if fact.cofactor % p]
    order: dict[int, int] = {}

    def part(primes) -> int:
        return math.prod(p ** e for p, e in primes)

    def descend(c: T, primes: list[tuple[int, int]]) -> None:
        if len(primes) > 1:
            half = len(primes) // 2
            descend(power(c, part(primes[half:])), primes[:half])
            descend(power(c, part(primes[:half])), primes[half:])
            return
        p, e = primes[0] if primes else (1, 0)  # no prime: c = g^N
        k = 0
        while not is_one(c):
            if k == e:
                raise ArithmeticError(f"g^N != 1 for N = {fact.n}")
            c, k = power(c, p), k + 1
        if k:
            order[p] = k

    descend(power(g, fact.n // part(certified)), certified)
    return Factorization(part(order.items()), order)


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


def primitive_cell(n: int, d: int) -> bool:
    """Is (2^n, d) a cell of the scheme: d prime and 2^n a generator of
    (Z/dZ)*? It is when 2^n mod d != 0 and 2^(n(d-1)/p) != 1 mod d for
    every prime p dividing d - 1. False, not an error, on any other d."""
    if not is_prime(d):
        return False
    r = pow(2, n, d)
    return r != 0 and all(pow(r, (d - 1) // p, d) != 1 for p in _prime_divisors(d - 1))


def cell_exponent(n: int, d: int) -> int:
    """N = 2^(n(d-1)) - 1. On a primitive cell F_q[x]/(x^d - 1), q = 2^n,
    is F_q x F_(q^(d-1)), so every unit u has u^N = 1."""
    return (1 << n * (d - 1)) - 1
