"""Integer number theory, cross-checked against brute force and sympy.

Element orders are checked on the three groups the library asks about:
units of F_(2^n), x mod an irreducible tau, and units of the circulant
ring."""

import functools
import itertools
import math
import random

import pytest
import sympy

from circulant_elgamal.circulant import Circulant, det
from circulant_elgamal.gf2field import (
    Poly,
    _ring,
    field_make,
    poly_is_irreducible,
    poly_mod_mul,
    poly_mod_pow,
)
from circulant_elgamal.numtheory import (
    DNotPrime,
    Factorization,
    InvalidModulus,
    NotAUnit,
    NotCoprime,
    _small_primes,
    element_order,
    factor,
    integer_crt,
    is_prime,
    is_primitive_mod,
    mod_pow,
)
from circulant_elgamal.security import load_reference_security

BIG_PRIME = 7993364465170792998716337691033251350895453313


def test_mod_pow_known_values():
    assert mod_pow(2, 10, 1000) == 24
    for x in (0, 1, 5, 123):
        assert mod_pow(x, 0, 7) == 1
    assert mod_pow(2, 1068, BIG_PRIME) == 1


def test_mod_pow_rejects_bad_arguments():
    with pytest.raises(InvalidModulus):
        mod_pow(2, 3, 0)
    with pytest.raises(ValueError):
        mod_pow(2, -1, 7)


def test_mod_pow_matches_builtin():
    rng = random.Random(1)
    for _ in range(300):
        b = rng.randrange(0, 1 << 40)
        e = rng.randrange(0, 1 << 20)
        m = rng.randrange(1, 1 << 30)
        assert mod_pow(b, e, m) == pow(b, e, m)


def test_is_prime_known_values():
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(2)
    assert is_prime(331)
    assert not is_prime(561)  # Carmichael number
    assert is_prime(BIG_PRIME)


def test_is_prime_matches_sympy():
    rng = random.Random(2)
    for _ in range(400):
        n = rng.randrange(2, 1 << 48)
        assert is_prime(n) == sympy.isprime(n)
    # straddle the deterministic-witness boundary at 2^64
    for n in range((1 << 64) - 64, (1 << 64) + 64):
        assert is_prime(n) == sympy.isprime(n)


@functools.lru_cache(maxsize=None)
def _primes_below_bound():
    return tuple(sympy.primerange(2, 10 ** 6))


def test_small_primes_match_sympy():
    sieve = _small_primes()
    flagged = tuple(itertools.compress(range(len(sieve)), sieve))
    assert len(sieve) == 10 ** 6 and flagged == _primes_below_bound()


def test_factor_known_values():
    f = factor(15)
    assert f.factors == {3: 1, 5: 1}
    assert f.complete
    f = factor((1 << 30) - 1)
    assert f.factors == {3: 2, 7: 1, 11: 1, 31: 1, 151: 1, 331: 1}
    assert f.complete and f.check()


def test_factor_budget_exhaustion_reports_cofactor():
    # 2^1068 - 1 is far beyond a tiny rho budget; what is proven must
    # still multiply back to n and the leftover must be flagged
    f = factor((1 << 1068) - 1, 1 << 12)
    assert not f.complete
    assert f.cofactor > 1
    assert f.check()
    for p in f.factors:
        assert is_prime(p)


def test_factor_splits_semiprime_beyond_trial_division():
    # 32- and 33-bit primes: trial division cannot reach them and rho
    # needs about sqrt(p) ~ 2^16 steps, so Brent's doubling cycle length
    # has to work for this to split under the budget
    p, q = 2147483659, 6442450967
    assert is_prime(p) and is_prime(q)
    f = factor(p * q, 1 << 16)
    assert f.complete
    assert f.factors == {p: 1, q: 1}


def test_factor_matches_sympy():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randrange(2, 10 ** 12)
        f = factor(n)
        assert f.complete and f.check()
        assert f.factors == sympy.factorint(n)


def test_factor_reassembly_property():
    rng = random.Random(4)
    for _ in range(2000):
        n = rng.randrange(1, 1 << 32)
        f = factor(n)
        assert f.check()
        if f.complete:
            prod = 1
            for p, e in f.factors.items():
                assert is_prime(p)
                prod *= p ** e
            assert prod == n


@functools.lru_cache(maxsize=None)
def _prime_blocks():
    """The primes below 10^6 in ascending runs of 512, with their products."""
    primes = _primes_below_bound()
    blocks = [primes[i : i + 512] for i in range(0, len(primes), 512)]
    return [(block, math.prod(block)) for block in blocks]


def _full_scan(n):
    """factor()'s trial division before it walked only the primes that can
    divide 2^N - 1: every prime below 10^6 in ascending order, stopping
    once p^2 exceeds what is left. Returns (primes found, what is left).

    A run of primes that ends at or below the square root of what is left
    and shares no factor with it is passed over whole, as the loop would
    neither divide nor stop inside it; that keeps the oracle fast."""
    found, m = {}, n
    for block, product in _prime_blocks():
        if block[-1] ** 2 <= m and math.gcd(m, product) == 1:
            continue
        for p in block:
            if p * p > m:
                return found, m
            while m % p == 0:
                found[p] = found.get(p, 0) + 1
                m //= p
    return found, m


# one f-evaluation: rho never splits what trial division leaves, so the
# result shows exactly what trial division found
NO_RHO = 1


def _factor_by_full_scan(n):
    found, m = _full_scan(n)
    if m > 1 and (m < 10 ** 12 or sympy.isprime(m)):
        # what the scan leaves has no prime factor below 10^6, so below
        # 10^12 it is prime
        found[m] = found.get(m, 0) + 1
        m = 1
    return Factorization(n, found, m)


def _mersenne_exponents():
    table2 = {row.n * (row.d - 1) for row in load_reference_security()}
    return sorted(set(range(1, 301)) | table2 | {470, 1068})


def test_factor_matches_full_scan_on_mersenne_numbers():
    exponents = _mersenne_exponents()
    assert len(exponents) > 300 + 40
    for big_n in exponents:
        n = (1 << big_n) - 1
        assert factor(n, NO_RHO) == _factor_by_full_scan(n), big_n


def test_factor_matches_full_scan_on_other_numbers():
    rng = random.Random(14)
    numbers = [rng.getrandbits(rng.randrange(5, 121)) for _ in range(50)]
    near = (999959, 999961, 999979, 999983)  # the largest primes below 10^6
    above = (1000003, 1000033)
    numbers += [p * p for p in near] + [p * p * q for p in near for q in above]
    numbers = [n for n in numbers if n & (n + 1)]  # not 2^N - 1
    assert len(numbers) > 55
    for n in numbers:
        assert factor(n, NO_RHO) == _factor_by_full_scan(n), n


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)


def test_factorization_helpers():
    f = Factorization(24, {2: 3, 3: 1}, 1)
    assert f == Factorization(24, {3: 1, 2: 3}) == factor(24)
    assert f != Factorization(24, {2: 3}, 3)
    assert f.complete and f.check()
    assert f.primes() == [2, 3]
    assert not Factorization(24, {2: 3}, 3).complete
    assert not Factorization(24, {2: 2}, 1).check()


# ---------------------------------------------------------------------------
# element orders, against brute force in F_(2^n), F_2[x]/tau and the
# circulant rings


def _brute_order(g, mul, one, bound):
    """Least t >= 1 with g^t = one, for g in a group whose order divides
    ``bound``; a broken product fails past it instead of looping."""
    t, cur = 1, g
    while cur != one:
        assert t < bound, f"no order up to {bound}"
        cur, t = mul(cur, g), t + 1
    return t


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def _field_units(n):
    """(N, is_one, brute-force order) for every unit of F_(2^n)."""
    spec = field_make(n)
    big_n = (1 << n) - 1
    for a in range(1, big_n + 1):
        is_one = lambda e, a=a: spec.pow(a, e) == 1  # noqa: E731
        yield big_n, is_one, _brute_order(a, spec.mul, 1, big_n)


def _x_mod_irreducibles(max_degree):
    """(N, is_one, brute-force order) of x mod each irreducible tau over GF(2)."""
    s1 = field_make(1)
    x = Poly.x(s1)
    for k in range(1, max_degree + 1):
        for low in range(1, 1 << k, 2):  # tau(0) != 0, so x is a unit
            tau = Poly.make(s1, [(low >> i) & 1 for i in range(k)] + [1])
            if not poly_is_irreducible(tau):
                continue
            one, big_n = Poly.const(s1, 1), (1 << k) - 1
            g = x % tau
            brute = _brute_order(g, lambda u, v: poly_mod_mul(u, v, tau), one, big_n)

            def is_one(e, tau=tau, one=one):
                return poly_mod_pow(x, e, tau) == one

            yield big_n, is_one, brute


def _circulant_units(n, d, count, seed):
    """(N, is_one, brute-force order) of random units of F_q[x]/(x^d - 1);
    N = q^(d-1) - 1, a multiple of every unit's order for odd prime d."""
    spec = field_make(n)
    ring = _ring(spec, d)
    one = ring.pack([1] + [0] * (d - 1))
    rng = random.Random(seed)
    done = 0
    while done < count:
        unit = Circulant.random(spec, d, rng)
        if det(unit).is_zero():
            continue
        a = unit.row
        is_one = lambda e, a=a: ring.power(a, e) == one  # noqa: E731
        big_n = (1 << n * (d - 1)) - 1
        yield big_n, is_one, _brute_order(a, ring.product, one, big_n)
        done += 1


def _all_cases():
    yield from (c for n in range(1, 7) for c in _field_units(n))
    yield from _x_mod_irreducibles(6)
    for n, d in ((1, 5), (2, 5), (1, 7)):
        yield from _circulant_units(n, d, 40, 100 * n + d)


def test_element_order_matches_brute_force():
    seen = set()
    for big_n, is_one, brute in _all_cases():
        got = element_order(factor(big_n), is_one)
        assert got.n == brute and got.complete and got.check()
        assert all(got.factors.values())  # no prime of exponent 0
        seen.add((big_n, brute))
    # orders with p^2, p^1 and p^0 of 3^2 | 63 all occur, and the (2,5) ring
    assert {(63, 9), (63, 21), (63, 7), (255, 15)} <= seen


def test_element_order_of_the_trivial_group():
    # q = 2: factor(1) is complete with no primes, so every order is 1
    assert element_order(factor(1), lambda e: False) == Factorization(1, {})


def _one_prime_in_the_cofactor(fact):
    """Each way to move one prime of a complete factorization into the
    cofactor: all its copies, or (multiplicity >= 2) one copy."""
    for p, e in fact.factors.items():
        rest = {r: f for r, f in fact.factors.items() if r != p}
        yield p, Factorization(fact.n, rest, p ** e)
        if e > 1:
            yield p, Factorization(fact.n, {**rest, p: e - 1}, p)


def test_element_order_incomplete_certifies_the_other_primes():
    cases = list(_all_cases())
    spec = field_make(12)  # 4095 = 3^2 5 7 13; order by scanning divisors
    divisors = [t for t in range(1, 4096) if 4095 % t == 0]
    for a in range(1, 4096, 7):
        is_one = lambda e, a=a: spec.pow(a, e) == 1  # noqa: E731
        cases.append((4095, is_one, next(t for t in divisors if is_one(t))))
    for big_n, is_one, brute in cases:
        for p, fact in _one_prime_in_the_cofactor(factor(big_n)):
            assert fact.check() and not fact.complete
            got = element_order(fact, is_one)
            assert p not in got.factors
            assert got.check() and brute % got.n == 0
            for r in fact.factors:
                if r != p:
                    assert got.factors.get(r, 0) == _valuation(brute, r)


def test_is_primitive_mod_table_anchors():
    assert is_primitive_mod(1 << 47, 11)
    assert not is_primitive_mod(1 << 55, 11)
    assert is_primitive_mod(2, 3)


def test_is_primitive_mod_depends_only_on_residue():
    rng = random.Random(6)
    for _ in range(60):
        d = rng.choice([3, 5, 7, 11, 13, 19, 29, 37])
        q = rng.randrange(1, 1 << 60)
        if q % d == 0:
            continue
        assert is_primitive_mod(q, d) == is_primitive_mod(q % d, d)


def test_is_primitive_mod_brute_force():
    for d in (3, 5, 7, 11, 13):
        for q in range(1, d):
            generates = len({pow(q, k, d) for k in range(1, d)}) == d - 1
            assert is_primitive_mod(q, d) == generates


def test_is_primitive_mod_rejects_bad_inputs():
    with pytest.raises(DNotPrime):
        is_primitive_mod(2, 9)
    with pytest.raises(NotAUnit):
        is_primitive_mod(22, 11)


def test_integer_crt_known_values():
    assert integer_crt([1], [7]) == 1
    assert integer_crt([2, 3], [3, 5]) == 8
    assert integer_crt([0, 0], [4, 9]) == 0


def test_integer_crt_random_roundtrip():
    rng = random.Random(7)
    pool = [4, 9, 25, 7, 11, 13, 17]
    for _ in range(200):
        k = rng.randrange(1, len(pool) + 1)
        moduli = rng.sample(pool, k)
        prod = math.prod(moduli)
        x = rng.randrange(prod)
        got = integer_crt([x % m for m in moduli], moduli)
        assert got == x


def test_integer_crt_rejects_bad_inputs():
    with pytest.raises(NotCoprime):
        integer_crt([1, 2], [6, 4])
    with pytest.raises(ValueError):
        integer_crt([1, 2], [3])
    with pytest.raises(ValueError):
        integer_crt([], [])
