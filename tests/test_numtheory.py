"""Integer number theory, cross-checked against brute force and sympy."""

import math
import random

import pytest
import sympy

from circulant_elgamal.numtheory import (
    DNotPrime,
    Factorization,
    InvalidModulus,
    NotAUnit,
    NotCoprime,
    _small_primes,
    factor,
    integer_crt,
    is_prime,
    is_primitive_mod,
    mod_pow,
)

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


def test_small_primes_match_sympy():
    assert _small_primes() == tuple(sympy.primerange(2, 10 ** 6))


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


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)


def test_factorization_helpers():
    f = Factorization(24, {2: 3, 3: 1}, 1)
    assert f.complete and f.check()
    assert f.primes() == [2, 3]
    assert not Factorization(24, {2: 3}, 3).complete
    assert not Factorization(24, {2: 2}, 1).check()


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
