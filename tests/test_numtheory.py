"""Integer number theory, cross-checked against brute force and sympy.

Element orders are checked on the three groups the library asks about:
units of F_(2^n), x mod an irreducible tau, and units of the circulant
ring."""

import functools
import itertools
import math
import random
from unittest import mock

import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp

from circulant_elgamal import numtheory
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
    Factorization,
    _small_primes,
    cell_exponent,
    element_order,
    factor,
    is_prime,
    primitive_cell,
)
from circulant_elgamal.security import load_reference_security
from oracles import element_order_scan, is_prime_mr64_ref, rho_brent_ref

BIG_PRIME = 7993364465170792998716337691033251350895453313


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
    # straddle 2^64
    for n in range((1 << 64) - 64, (1 << 64) + 64):
        assert is_prime(n) == sympy.isprime(n)


# the least strong pseudoprime to the twelve witnesses 2 .. 37
PSI_12 = 318665857834031151167461


def test_is_prime_deterministic_up_to_psi_12():
    assert PSI_12 == 399165290221 * 798330580441
    # psi_12 itself is the first number past the twelve witnesses; the
    # Lucas step rejects it (see test_is_prime_rejects_psi_12_by_lucas)
    assert not is_prime(PSI_12)
    assert is_prime(sympy.prevprime(PSI_12))
    rng = random.Random(15)
    odd = [rng.randrange(1 << 64, PSI_12) | 1 for _ in range(3000)]
    assert sum(map(sympy.isprime, odd)) > 30  # primes are tested, not only composites
    for n in odd:
        assert is_prime(n) == sympy.isprime(n), n


@functools.lru_cache(maxsize=None)
def _primes_below_bound():
    return tuple(sympy.primerange(2, 10 ** 6))


def test_small_primes_match_sympy():
    sieve = _small_primes()  # entry i flags the odd number 2i + 1
    flagged = (2,) + tuple(itertools.compress(range(1, 10 ** 6, 2), sieve))
    assert len(sieve) == 10 ** 6 // 2 and flagged == _primes_below_bound()


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
    """A scan of every prime below 10^6 in ascending order, stopping once
    p^2 exceeds what is left. Returns (primes found, what is left).

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


# less than one step of any rho walk: rho never splits what trial
# division leaves, so the result shows exactly what trial division found
NO_RHO = 1


def _factor_by_full_scan(n):
    found, m = _full_scan(n)
    if m > 1 and (m < 10 ** 12 or sympy.isprime(m)):
        # what the scan leaves has no prime factor below 10^6, so below
        # 10^12 it is prime
        found[m] = found.get(m, 0) + 1
        m = 1
    return Factorization(n, found, m)


def _table2_exponents():
    return sorted({row.n * (row.d - 1) for row in load_reference_security()})


def _mersenne_exponents():
    return sorted(set(range(1, 301)) | set(_table2_exponents()) | {470, 1068})


@functools.lru_cache(maxsize=None)
def _piece_by_full_scan(k):
    """The full scan of Phi_k(2); the pieces recur across exponents."""
    return _factor_by_full_scan(int(sympy.cyclotomic_poly(k, polys=True).eval(2)))


def _factor_by_full_scan_of_pieces(big_n):
    """The full scan of each piece Phi_k(2), k | N, of 2^N - 1, merged:
    proven primes add up, leftovers multiply into the cofactor."""
    n = (1 << big_n) - 1
    pieces = [_piece_by_full_scan(k) for k in sympy.divisors(big_n)]
    assert math.prod(piece.n for piece in pieces) == n
    found, cofactor = {}, 1
    for piece in pieces:
        for p, e in piece.factors.items():
            found[p] = found.get(p, 0) + e
        cofactor *= piece.cofactor
    return Factorization(n, found, cofactor)


def _below_bound(fact):
    return {p: e for p, e in fact.factors.items() if p < 10 ** 6}


def test_factor_matches_full_scan_on_mersenne_numbers():
    # factor() scans each cyclotomic piece on its own, so it proves at
    # least what a scan of the whole number proves: the same primes below
    # 10^6, and a piece's prime leftover as a prime
    exponents = _mersenne_exponents()
    assert len(exponents) > 300 + 40
    for big_n in exponents:
        n = (1 << big_n) - 1
        got = factor(n, NO_RHO)
        assert got == _factor_by_full_scan_of_pieces(big_n), big_n
        assert _below_bound(got) == _below_bound(_factor_by_full_scan(n)), big_n


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


TABLE2_BUDGET = 1 << 14  # the table2-factor benchmark's
PAPER_BUDGET = 1 << 12  # the paper-crypto set-up's
PAPER_CELLS = ((47, 11), (89, 13), (29, 37), (43, 29))
# the 48 rows at TABLE2_BUDGET left this many cofactor bits under the
# y^2 + c walk alone
TABLE2_COFACTOR_BITS_SQUARED = 25956


def _step_cost(e):
    """Budget units one step of the walk y -> y^e + c costs."""
    return e.bit_length() - 2 + e.bit_count()


def _batch_units(e):
    """One gcd batch of the y^e + c walk, in budget units: rho checks the
    budget before each batch, so it overdraws by less than this."""
    return -(-numtheory.RHO_BATCH // _step_cost(e)) * _step_cost(e)


BATCH_SLACK = _batch_units(2) - 1


def _rho_leftovers(exponents):
    """The distinct composites that trial division leaves of 2^N - 1 and
    `factor` hands to rho, over the given N."""
    real, seen = numtheory._rho_brent, set()

    def spy(n, budget, e=2):
        seen.add(n)
        return real(n, budget, e)

    factor.cache_clear()
    with mock.patch.object(numtheory, "_rho_brent", spy):
        for big_n in exponents:
            factor((1 << big_n) - 1, NO_RHO)
    factor.cache_clear()
    return sorted(seen)


def test_rho_brent_matches_reference_within_the_budget():
    # every gcd the reference computes is still computed on the same
    # terms: the same factor, or None, and the same evaluations when a
    # factor turns up; giving up, rho no longer counts a last advance
    # that no gcd reads, so it stays within one batch of the budget
    table2 = _rho_leftovers(_table2_exponents())
    mersenne = _rho_leftovers(range(1, 260))
    rng = random.Random(31)
    drawn = rng.sample(table2, 12) + rng.sample(mersenne, 12)
    (m470,) = [m for m in table2 if m.bit_length() == 184 and (1 << 470) % m == 1]
    # the small composites collapse a batch to gcd n and replay it, and
    # 25, 35 and 143 also find only a trivial gcd and retry with a new c
    for m in drawn + [m470, 25, 35, 49, 143]:
        for budget in (1, 2, 3, 64, 1000, PAPER_BUDGET, TABLE2_BUDGET):
            f, used = numtheory._rho_brent(m, budget)
            f_ref, used_ref = rho_brent_ref(m, budget)
            assert f == f_ref, (m, budget)
            assert used == used_ref if f else used <= used_ref, (m, budget)
            assert used <= budget + BATCH_SLACK, (m, budget, used)
    # the defect: the reference's last advance took a round of 2^13 steps
    assert rho_brent_ref(m470, TABLE2_BUDGET) == (None, 24574)
    assert numtheory._rho_brent(m470, TABLE2_BUDGET) == (None, 16382)


def test_rho_power_walk_splits_what_the_square_walk_does_not():
    # the 54-bit leftover of 2^71 - 1: its primes are 1 mod 142, so
    # y -> y^142 + c takes only (p - 1)/142 + 1 values mod each, and the
    # walk closes within the table2-factor budget, where y^2 + c (and its
    # reference) does not
    m = 10334355636337793
    assert (1 << 71) - 1 == 228479 * m
    p, q = sorted(sympy.factorint(m))
    assert m == p * q and p % 142 == q % 142 == 1
    assert numtheory._pieces((1 << 71) - 1) == [((1 << 71) - 1, 142, [71])]
    f, used = numtheory._rho_brent(m, TABLE2_BUDGET, 142)
    assert f in (p, q) and used <= TABLE2_BUDGET
    assert numtheory._rho_brent(m, TABLE2_BUDGET) == (None, 16382)
    assert rho_brent_ref(m, TABLE2_BUDGET)[0] is None
    assert factor((1 << 71) - 1, TABLE2_BUDGET).factors == {228479: 1, p: 1, q: 1}


def _rho_stepwise(n, e):
    """Brent's walk y -> y^e + c mod n as `_rho_brent` takes it, rounds of
    an r-step advance and r compared steps, but with a gcd after every
    step and no budget: the first gcd above 1 ends the walk, and n itself
    moves on to the next c."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (pow(y, e, n) + c) % n
            for _ in range(r):
                y = (pow(y, e, n) + c) % n
                g = math.gcd(x - y, n)
                if g > 1:
                    break
            r *= 2
        if g < n:
            return g


@pytest.mark.parametrize("e", [4, 6, 22, 142, 1602])
def test_rho_power_walk_replays_and_retries_as_a_stepwise_walk(e):
    # a batched gcd that reads n replays the batch one step at a time, and
    # a walk that closes on n itself retries with the next c; on a
    # semiprime or a prime square either way finds the factor that a gcd
    # after every step finds first (at e = 142, 35 and 143 replay a batch,
    # and 25 and 221 retry)
    for n in (15, 21, 25, 35, 49, 143, 221, 323, 899, 10403, 1022117):
        f, used = numtheory._rho_brent(n, 1 << 20, e)
        assert f == _rho_stepwise(n, e), (n, e)
        assert used % _step_cost(e) == 0


@pytest.mark.parametrize("big_n", [71, 470, 630, 1068])
def test_rho_power_walk_stands_still_first_on_a_mersenne_leftover(big_n):
    # 2^e = 1 modulo a leftover of 2^N - 1, so the first walk (y = 2,
    # c = 1) maps 2 to 2: its first batch collapses, the replay's one step
    # reads n too, and rho moves on to c = 2 after three steps; a budget
    # one unit over them leaves no room for the next round's advance
    real, walks = numtheory._rho_brent, {}

    def spy(n, budget, e=2):
        walks[n] = e
        return real(n, budget, e)

    factor.cache_clear()
    with mock.patch.object(numtheory, "_rho_brent", spy):
        factor((1 << big_n) - 1, NO_RHO)
    factor.cache_clear()
    assert walks and all(e > 2 and pow(2, e, m) == 1 for m, e in walks.items())
    for m, e in walks.items():
        cost = _step_cost(e)
        assert numtheory._rho_brent(m, 3 * cost + 1, e) == (None, 3 * cost)
        assert numtheory._rho_brent(m, 3 * cost, e) == (None, 3 * cost)


def _run_factor_jobs():
    """(factors in the order found, cofactor) of 2^N - 1 for the 48
    Table-2 rows at the benchmark's budget, and for the paper cells at
    the set-up's budget and at 2^16."""
    jobs = [(big_n, TABLE2_BUDGET) for big_n in _table2_exponents()]
    jobs += [
        (n * (d - 1), budget)
        for n, d in PAPER_CELLS
        for budget in (PAPER_BUDGET, 1 << 16)
    ]
    factor.cache_clear()
    facts = [numtheory.factor((1 << big_n) - 1, budget) for big_n, budget in jobs]
    factor.cache_clear()
    return [(list(f.factors.items()), f.cofactor) for f in facts]


@functools.lru_cache(maxsize=None)
def _traced_factor_jobs():
    """`_run_factor_jobs()`, every number it asks `is_prime` about, rho's
    answer to each (leftover, budget, e) it tried, and for each job its
    budget and the (allowance, e, used) of each of its rho calls."""
    asked, rho, jobs = set(), {}, []
    real_is_prime, real_rho = numtheory.is_prime, numtheory._rho_brent

    def spy_is_prime(n):
        asked.add(n)
        return real_is_prime(n)

    def spy_rho(n, budget, e=2):
        rho[n, budget, e] = real_rho(n, budget, e)
        jobs[-1][1].append((budget, e, rho[n, budget, e][1]))
        return rho[n, budget, e]

    def spy_factor(n, budget):
        jobs.append((budget, []))
        return factor(n, budget)

    with mock.patch.object(numtheory, "is_prime", spy_is_prime):
        with mock.patch.object(numtheory, "_rho_brent", spy_rho):
            with mock.patch.object(numtheory, "factor", spy_factor):
                got = _run_factor_jobs()
    assert len(got) == len(jobs) == 48 + 8
    return got, sorted(asked), rho, jobs


def test_factor_matches_reference_rho():
    # with rho held to the y^2 + c walk, unspent evaluations pass to the
    # next leftover, where the reference overdrew the budget; on the
    # Table-2 rows and the paper cells that finds nothing new, and nothing
    # is found in another order
    real_rho = numtheory._rho_brent

    def squared(n, budget, e=2):
        return real_rho(n, budget)

    def reference(n, budget, e=2):
        return rho_brent_ref(n, budget)

    with mock.patch.object(numtheory, "_rho_brent", squared):
        got = _run_factor_jobs()
    with mock.patch.object(numtheory, "_rho_brent", reference):
        assert _run_factor_jobs() == got


def test_factor_jobs_spend_at_most_one_batch_over():
    # each rho call spends at most its allowance and one batch of its
    # walk; the allowance is what the job's earlier calls left, so the
    # job as a whole spends at most its budget and one batch
    _, _, _, jobs = _traced_factor_jobs()
    assert sum(len(calls) for _, calls in jobs) > 100
    for budget, calls in jobs:
        left = budget
        for allowance, e, used in calls:
            assert allowance == left
            assert used < max(allowance, 0) + _batch_units(e), (allowance, e, used)
            left -= used
        spent = budget - left
        slack = max((_batch_units(e) for _, e, _ in calls), default=0)
        assert spent < budget + slack, (budget, calls)


def test_table2_rows_leave_fewer_cofactor_bits_with_proven_factors():
    # the y^e + c walk leaves no more of the 48 rows unfactored than the
    # y^2 + c walk did, and sympy accepts every factor of every job as prime
    got, _, _, _ = _traced_factor_jobs()
    table2 = got[: len(_table2_exponents())]
    assert len(table2) == 48
    bits = sum(cofactor.bit_length() for _, cofactor in table2 if cofactor > 1)
    assert bits <= TABLE2_COFACTOR_BITS_SQUARED
    assert sum(cofactor == 1 for _, cofactor in table2) >= 1
    for factors, _ in got:
        for p, _ in factors:
            assert sympy.isprime(p), p


def test_factor_matches_reference_primality():
    # what factor finds depends only on what is_prime and rho answer;
    # rho's answers are replayed from the traced run, so this run costs
    # little and any change comes from the primality oracle alone (a
    # leftover or budget the traced run never tried still runs rho)
    got, _, rho, _ = _traced_factor_jobs()
    real_rho = numtheory._rho_brent

    def replay(n, budget, e=2):
        key = n, budget, e
        return rho[key] if key in rho else real_rho(n, budget, e)

    with mock.patch.object(numtheory, "_rho_brent", replay):
        with mock.patch.object(numtheory, "is_prime", is_prime_mr64_ref):
            assert _run_factor_jobs() == got


def _strong_base(n, a):
    """One strong (Miller-Rabin) round of odd n to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    return numtheory._mr_round(n, a, (n - 1) >> s, s)


def _random_prime(rng, bits):
    """The first prime that sympy accepts at or after a random odd number
    of the given bits, skipping those with a prime factor below 1 000."""
    small = math.prod(sympy.primerange(3, 1000))
    n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
    while math.gcd(n, small) != 1 or not sympy.isprime(n):
        n += 2
    return n


def test_is_prime_matches_reference_and_sympy_above_psi_12():
    # factor's every primality question on the Table-2 rows and the paper
    # cells, and random odd numbers and primes of 80-1 024 bits; the 64
    # reference rounds keep the random draw small
    _, asked, _, _ = _traced_factor_jobs()
    rng = random.Random(32)
    sizes = [rng.randrange(80, 1025) for _ in range(150)]
    odd = [rng.randrange(1 << (b - 1), 1 << b) | 1 for b in sizes]
    for n in asked + odd:
        want = sympy.isprime(n)
        assert is_prime(n) == is_prime_mr64_ref(n) == want, n
        if n > PSI_12 and not want and n in asked:
            # why base 3 goes first: each composite leftover of a piece
            # Phi_k(2) is a strong base-2 pseudoprime, and base 3 rejects it
            assert _strong_base(n, 2) and not _strong_base(n, 3), n
    assert sum(n > PSI_12 and not sympy.isprime(n) for n in asked) > 100
    # Miller-Rabin never rejects a prime, so the reference reads true on
    # each of these; sympy proves they are primes
    for bits in rng.sample(range(80, 1025), 6):
        assert is_prime(_random_prime(rng, bits))


# the ten strong Lucas pseudoprimes with Selfridge's parameters below
# 60 000 (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
)


def test_strong_lucas_matches_sympy():
    for n in range(1, 20000, 2):
        assert numtheory._strong_lucas(n) == is_strong_lucas_prp(n), n
    for n in STRONG_LUCAS_PSEUDOPRIMES:
        assert numtheory._strong_lucas(n) and not sympy.isprime(n), n


def test_is_prime_rejects_psi_12_by_lucas():
    # psi_12 passes bases 3 and 2, so only the Lucas step stands between
    # it and a wrong answer
    assert _strong_base(PSI_12, 3) and _strong_base(PSI_12, 2)
    assert not numtheory._strong_lucas(PSI_12)
    assert not is_prime(PSI_12)


def test_is_prime_rejects_carmichael_numbers_above_psi_12():
    # Chernick's (6k + 1)(12k + 1)(18k + 1) is a Carmichael number when
    # all three factors are prime: a Fermat liar to every coprime base
    for k in (6265100, 6265206, 6265461):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        assert all(map(sympy.isprime, factors))
        n = math.prod(factors)
        assert n > PSI_12 and not is_prime(n), k


def test_base_3_rejects_a_leftover_that_base_2_passes():
    # the 184-bit leftover of 2^470 - 1 that rho cannot split at the
    # paper-crypto set-up's budget: a strong base-2 pseudoprime, so a
    # BPSW that started with base 2 would pay a Lucas test to reject it
    m = 12655447047150655978480214687038028503217661982582733791
    assert m.bit_length() == 184 and (1 << 470) % m == 1
    assert factor((1 << 470) - 1, PAPER_BUDGET).cofactor % m == 0
    assert not sympy.isprime(m)
    assert _strong_base(m, 2) and not _strong_base(m, 3)
    assert not is_prime(m)


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


def _is_one(x):
    return x == 1


def _field_units(n):
    """(N, g, power, is_one, brute-force order) for every unit g of F_(2^n)."""
    spec = field_make(n)
    big_n = (1 << n) - 1
    for a in range(1, big_n + 1):
        yield big_n, a, spec.pow, _is_one, _brute_order(a, spec.mul, 1, big_n)


def _x_mod_irreducibles(max_degree):
    """(N, g, power, is_one, brute-force order) of g = x mod each
    irreducible tau over GF(2)."""
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

            def power(u, e, tau=tau):
                return poly_mod_pow(u, e, tau)

            yield big_n, g, power, one.__eq__, brute


def _circulant_units(n, d, count, seed):
    """(N, g, power, is_one, brute-force order) of random units g of
    F_q[x]/(x^d - 1); N = q^(d-1) - 1, a multiple of every unit's order
    for odd prime d."""
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
        big_n = (1 << n * (d - 1)) - 1
        yield big_n, a, ring.power, one.__eq__, _brute_order(
            a, ring.product, one, big_n
        )
        done += 1


def _all_cases():
    yield from (c for n in range(1, 7) for c in _field_units(n))
    yield from _x_mod_irreducibles(6)
    for n, d in ((1, 5), (2, 5), (1, 7)):
        yield from _circulant_units(n, d, 40, 100 * n + d)


def test_element_order_matches_brute_force():
    seen = set()
    for big_n, *group, brute in _all_cases():
        got = element_order(factor(big_n), *group)
        assert got.n == brute and got.complete and got.check()
        assert all(got.factors.values())  # no prime of exponent 0
        seen.add((big_n, brute))
    # orders with p^2, p^1 and p^0 of 3^2 | 63 all occur, and the (2,5) ring
    assert {(63, 9), (63, 21), (63, 7), (255, 15)} <= seen


def test_element_order_of_the_trivial_group():
    # q = 2: factor(1) is complete with no primes, so every order is 1
    got = element_order(factor(1), 1, field_make(1).pow, _is_one)
    assert got == Factorization(1, {})


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
        brute = next(t for t in divisors if spec.pow(a, t) == 1)
        cases.append((4095, a, spec.pow, _is_one, brute))
    for big_n, *group, brute in cases:
        for p, fact in _one_prime_in_the_cofactor(factor(big_n)):
            assert fact.check() and not fact.complete
            got = element_order(fact, *group)
            assert p not in got.factors
            assert got.check() and brute % got.n == 0
            for r in fact.factors:
                if r != p:
                    assert got.factors.get(r, 0) == _valuation(brute, r)


def test_element_order_tree_matches_the_scan():
    # the product tree gives what a full power per step gives, on complete
    # factorizations and on each one with a prime moved into the cofactor
    for big_n, *group, _ in _all_cases():
        fact = factor(big_n)
        for f in [fact] + [f for _, f in _one_prime_in_the_cofactor(fact)]:
            assert element_order(f, *group) == element_order_scan(f, *group)


def test_element_order_rejects_g_outside_the_multiple():
    spec = field_make(4)
    g = 0b10  # t generates F_16*: ord = 15, and g^5 != 1
    # leaf path: the certified 5 reaches 5^1 without the identity
    with pytest.raises(ArithmeticError):
        element_order(factor(5), g, spec.pow, _is_one)
    # root path: no prime is certified, and g^N is checked on its own
    uncertified = Factorization(5, {}, 5)
    with pytest.raises(ArithmeticError):
        element_order(uncertified, g, spec.pow, _is_one)
    g3 = spec.pow(g, 3)  # order 5: g3^5 = 1, so nothing to certify
    assert element_order(uncertified, g3, spec.pow, _is_one) == Factorization(1, {})


def test_element_order_power_work_at_the_paper_cell():
    # (47, 11): 2^470 - 1 has eight certified primes under this budget.
    # One long power at the root and short ones below it stay within two
    # powers of N's size; the per-prime scan, with its g^N check, makes
    # nine.
    spec, d = field_make(47), 11
    fact = factor((1 << 470) - 1, 1 << 12)
    assert not fact.complete and len(fact.factors) > 2
    ring, rng = _ring(spec, d), random.Random(16)
    unit = Circulant.random(spec, d, rng)
    while det(unit).is_zero():
        unit = Circulant.random(spec, d, rng)
    bits = []

    def power(x, e):
        bits.append(e.bit_length())
        return ring.power(x, e)

    got = element_order(fact, unit.row, power, _is_one)
    assert 0 < sum(bits) <= 2 * 470
    assert got == element_order_scan(fact, unit.row, ring.power, _is_one)


def test_primitive_cell_table_anchors():
    assert primitive_cell(47, 11)
    assert not primitive_cell(55, 11)
    assert primitive_cell(1, 3)


def test_primitive_cell_brute_force():
    # 2^n generates (Z/dZ)* when its nonzero powers take all d - 1 units
    for n in range(1, 13):
        for d in range(61):
            powers = {pow(2, n * k, d) for k in range(1, d)} - {0}
            generates = sympy.isprime(d) and len(powers) == d - 1
            assert primitive_cell(n, d) == generates, (n, d)


@pytest.mark.parametrize("d", [0, 1, 2, 9])
def test_primitive_cell_false_off_the_cells(d):
    # d not prime, or d = 2 dividing 2^n: False, not an error
    for n in range(1, 9):
        assert primitive_cell(n, d) is False


def test_cell_exponent():
    assert cell_exponent(47, 11) == (1 << 470) - 1
    assert cell_exponent(3, 1) == 0
