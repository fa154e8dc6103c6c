"""Discrete-log attacks: baby-step giant-step, Pohlig-Hellman, the group
order behind them, and the full circulant solver.

Everything runs in groups of circulants. At (1,5) the ring is F_2 x
GF(16), and 1 + x + x^2 generates a cyclic group of order 15, small
enough that exhaustive search is the oracle; at (3,3) it is F_8 x F_64,
and x + 2x^2 has order 63 = 3^2 * 7, which gives Pohlig-Hellman a
prime-power leaf of order 9. Pollard rho runs on these groups with the
cutoff lowered, and on the large leaves of the seed-1 desk keys, where
baby-step giant-step is its oracle.
"""

import functools
import operator
import random
import tracemalloc

import pytest
import sympy

from circulant_elgamal import dlp, generate
from circulant_elgamal.circulant import Circulant, det, mul, power, row_sum
from circulant_elgamal.dlp import (
    BSGS_MAX_ORDER,
    NotFound,
    bsgs,
    pohlig_hellman,
    reduce_to_field,
    rho,
    solve_circulant_dlp,
)
from circulant_elgamal.elgamal import keygen
from circulant_elgamal.gf2field import Poly, _Ring, field_make
from circulant_elgamal.numtheory import (
    Factorization,
    IncompleteFactorization,
    cell_exponent,
    factor,
)

S1, S3 = field_make(1), field_make(3)
G15 = Circulant(S1, [1, 1, 1, 0, 0])  # order 15 at (1,5)
G63 = Circulant(S3, [0, 1, 2])  # order 63 at (3,3)


@pytest.mark.parametrize("g, order", [(G15, 15), (G63, 63)])
def test_generators_have_the_stated_order(g, order):
    assert power(g, order).is_identity()
    for p in factor(order).factors:
        assert not power(g, order // p).is_identity()


# ---------------------------------------------------------------------------
# baby-step giant-step

def test_bsgs_knowns():
    g = G15
    assert bsgs(g, Circulant.identity(S1, 5), 15) == 0
    assert bsgs(g, g, 15) == 1
    assert bsgs(g, power(g, 7), 15) == 7


def test_bsgs_exhaustive_gf16():
    for x in range(15):
        assert bsgs(G15, power(G15, x), 15) == x


def test_bsgs_returns_least_exponent():
    h = power(G15, 3)  # order 5
    # x = 2 solves, and so do 7 and 12; the least must come back
    assert bsgs(h, power(h, 2), 15) == 2
    # order 3 < 4 baby steps: a repeated row must keep its first j
    h = power(G15, 5)
    assert bsgs(h, Circulant.identity(S1, 5), 15) == 0
    assert bsgs(h, h, 15) == 1


def test_bsgs_not_found():
    h = power(G15, 3)  # order-5 subgroup
    with pytest.raises(NotFound):
        bsgs(h, G15, 5)  # generator is outside the subgroup
    with pytest.raises(NotFound):
        bsgs(G15, power(G15, 6), 5)  # the least exponent is past the bound


def test_bsgs_raises_nothing_to_a_power(monkeypatch):
    # the giant step is the inverse of the base^m the baby steps end on
    target = power(G63, 50)
    calls = []
    real = _Ring.power
    monkeypatch.setattr(_Ring, "power", lambda *a: calls.append(a) or real(*a))
    assert bsgs(G63, target, 63) == 50
    assert calls == []


@pytest.mark.parametrize("n, d", [(2, 4), (3, 6), (5, 8)])
def test_bsgs_at_even_d_matches_a_scan(n, d):
    # x^d - 1 has repeated factors at even d; every power of a random
    # unit, found by scanning them, comes back as its least exponent
    spec, rng = field_make(n), random.Random(70 + n * d)
    g = Circulant.random(spec, d, rng)
    while not det(g):
        g = Circulant.random(spec, d, rng)
    powers = [Circulant.identity(spec, d)]
    while not (nxt := mul(powers[-1], g)).is_identity():
        powers.append(nxt)
    order = len(powers)
    for x, target in enumerate(powers):
        assert bsgs(g, target, order) == x
        assert power(g, x) == target


def test_bsgs_bounds():
    g = G15
    with pytest.raises(ValueError):
        bsgs(g, g, 0)
    with pytest.raises(ValueError):
        bsgs(g, g, BSGS_MAX_ORDER + 1)


# ---------------------------------------------------------------------------
# Pollard rho

def test_rho_knowns_and_scan():
    assert rho(G15, Circulant.identity(S1, 5), 15) == 0
    assert rho(G15, G15, 15) == 1
    for x in range(15):
        assert rho(G15, power(G15, x), 15) == x
    for h, order in [(power(G63, 7), 9), (power(G63, 9), 7)]:
        for x in range(order):
            assert rho(h, power(h, x), order) == x


def test_rho_not_found():
    with pytest.raises(NotFound):
        rho(power(G15, 3), G15, 5)  # the generator is outside the subgroup


def test_rho_bounds():
    with pytest.raises(ValueError):
        rho(G15, G15, 0)
    with pytest.raises(ValueError):
        rho(G15, G15, BSGS_MAX_ORDER + 1)


@functools.lru_cache(maxsize=None)
def desk_leaf(n: int, d: int, p: int) -> Circulant:
    """A^(ord(A)/p) for the seed-1 parameters at (n, d): of order p."""
    params = generate(n, d, seed=1)
    order = params.order_info.order
    assert order % p == 0 and order % (p * p)
    return power(params.A, order // p)


@pytest.mark.parametrize("n, d, p", [(11, 11, 48912491), (5, 19, 18837001)])
def test_rho_matches_bsgs_on_desk_leaves(n, d, p):
    g = desk_leaf(n, d, p)
    rng = random.Random(p)
    for _ in range(5):
        target = power(g, rng.randrange(p))
        x = rho(g, target, p)
        assert x == bsgs(g, target, p)
        assert power(g, x) == target


def test_rho_repeats_its_work(monkeypatch):
    # the walk is a pure function of its inputs: the same products each run
    g = desk_leaf(5, 19, 18837001)
    target = power(g, 1234567)
    calls = []
    real = _Ring.mul
    monkeypatch.setattr(_Ring, "mul", lambda *a: calls.append(1) or real(*a))
    counts = []
    for _ in range(2):
        calls.clear()
        assert rho(g, target, 18837001) == 1234567
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_solve_memory_stays_small():
    # the (11,11) key's leaf of order 48 912 491 needs a 6 994-row table by
    # baby-step giant-step (about 0.9 MB); rho keeps about a hundred rows
    params = generate(11, 11, seed=1)
    priv, pub = keygen(params, seed=1)
    factor(cell_exponent(11, 11))
    tracemalloc.start()
    try:
        m = solve_circulant_dlp(pub.A, pub.Am)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == priv.m % params.order_info.order
    assert peak < 256 << 10, peak


# ---------------------------------------------------------------------------
# Pohlig-Hellman

def test_pohlig_hellman_exhaustive_gf16():
    f15 = factor(15)
    for x in range(15):
        assert pohlig_hellman(G15, power(G15, x), f15) == x
    one = Circulant.identity(S1, 5)
    assert pohlig_hellman(one, one, factor(1)) == 0  # the trivial group


def test_pohlig_hellman_prime_power_branch():
    f63 = factor(63)  # 3^2 * 7: the leaf of order 9 is a prime power
    rng = random.Random(40)
    for _ in range(10):
        x = rng.randrange(63)
        assert pohlig_hellman(G63, power(G63, x), f63) == x
    # a single prime power, or a single prime: one residue, no CRT step
    for h, order in [(power(G63, 7), 9), (power(G63, 9), 7)]:
        for x in range(order):
            assert pohlig_hellman(h, power(h, x), factor(order)) == x


def spy_leaves(monkeypatch) -> dict[str, list[int]]:
    """The leaf orders Pohlig-Hellman hands to `bsgs` and to `rho`."""
    orders = {"bsgs": [], "rho": []}
    for name, real in [("bsgs", dlp.bsgs), ("rho", dlp.rho)]:
        def spy(g, h, o, name=name, real=real):
            orders[name].append(o)
            return real(g, h, o)
        monkeypatch.setattr(dlp, name, spy)
    return orders


@pytest.mark.parametrize(
    "cutoff, by_bsgs, by_rho",
    [(dlp.RHO_CUTOFF, [7, 9], []), (8, [7], [9])],
    ids=["default_cutoff", "cutoff_8"],
)
def test_pohlig_hellman_one_leaf_solve_per_prime_power(monkeypatch, cutoff, by_bsgs, by_rho):
    orders = spy_leaves(monkeypatch)
    monkeypatch.setattr(dlp, "RHO_CUTOFF", cutoff)
    assert pohlig_hellman(G63, power(G63, 41), factor(63)) == 41
    assert sorted(orders["bsgs"]) == by_bsgs and orders["rho"] == by_rho


def test_pohlig_hellman_through_rho(monkeypatch):
    # with the cutoff at 1 every leaf of G15 and G63 (3, 5, 7, 9) is rho's
    orders = spy_leaves(monkeypatch)
    monkeypatch.setattr(dlp, "RHO_CUTOFF", 1)
    test_pohlig_hellman_exhaustive_gf16()
    test_pohlig_hellman_prime_power_branch()
    assert orders["bsgs"] == [] and set(orders["rho"]) == {3, 5, 7, 9}


def test_pohlig_hellman_refuses_incomplete():
    fake = Factorization(15, {3: 1}, cofactor=5)
    assert not fake.complete
    with pytest.raises(IncompleteFactorization):
        pohlig_hellman(G15, G15, fake)


def test_pohlig_hellman_not_found():
    h = power(G63, 7)  # order 9
    with pytest.raises(NotFound):
        pohlig_hellman(h, G63, factor(9))
    one = Circulant.identity(S3, 3)
    with pytest.raises(NotFound):
        pohlig_hellman(one, G63, factor(1))  # no leaf to catch it


def test_pohlig_hellman_desk_bound():
    p = int(sympy.nextprime(BSGS_MAX_ORDER))
    with pytest.raises(ValueError):
        pohlig_hellman(G15, G15, Factorization(p, {p: 1}))
    # the bound holds on the prime power: p^2 > 2^48 for p > 2^24
    p = int(sympy.nextprime(1 << 24))
    with pytest.raises(ValueError):
        pohlig_hellman(G15, G15, Factorization(p * p, {p: 2}))


# ---------------------------------------------------------------------------
# the group order

def test_reduce_to_field_trivia(params311):
    a = params311.A
    order = reduce_to_field(a, a)
    assert order == reduce_to_field(a, Circulant.identity(params311.spec, 11))
    assert order.n == params311.order_info.order
    # the all-ones row is singular, so it lies outside the unit group
    ones = Circulant(params311.spec, [1] * 11)
    with pytest.raises(NotFound):
        reduce_to_field(ones, ones)
    # 2A has row sum 2, of order 7 in F_8, and ord(A) is prime to 7
    spec = params311.spec
    scaled = Circulant(spec, [spec.mul(0x2, c) for c in a.bits()])
    with pytest.raises(NotFound):
        reduce_to_field(a, scaled)


def test_reduce_to_field_group_order_is_exact(params311):
    # the order must be ord(A), not just a multiple, and fully factored
    a = params311.A
    order = reduce_to_field(a, a)
    assert order.complete and order.check()
    assert order.n == params311.order_info.order == 153391689
    assert power(a, order.n).is_identity()
    for p in order.factors:
        assert not power(a, order.n // p).is_identity()


def test_reduce_to_field_incomplete_budget(params4711_toy_budget):
    # 2^470 - 1 stays incomplete at budget 2^10; S^11 = 1 proves ord(S) =
    # 11 all the same, but A^D != 1 leaves a generated A's order unproven
    s = Circulant.shift(field_make(47), 11)
    assert reduce_to_field(s, s, budget=1 << 10) == Factorization(11, {11: 1})
    a = params4711_toy_budget.A
    with pytest.raises(IncompleteFactorization):
        reduce_to_field(a, a, budget=1 << 10)


# ---------------------------------------------------------------------------
# the full solver

@pytest.mark.parametrize("d", [1, 2, 4])
def test_solve_needs_odd_d_from_3(d):
    a = Circulant.identity(S3, d)
    with pytest.raises(ValueError, match="odd d >= 3"):
        solve_circulant_dlp(a, a)


def test_solver_recovers_private_keys(params311):
    for seed in range(20):
        priv, pub = keygen(params311, seed=seed)
        assert solve_circulant_dlp(pub.A, pub.Am) == priv.m % params311.order_info.order
    # seed-1 params at (5,19): ord(A) holds 3^3, a leaf of order 27
    params = generate(5, 19, seed=1)
    assert reduce_to_field(params.A, params.A).factors[3] == 3
    priv, pub = keygen(params, seed=2)
    assert solve_circulant_dlp(pub.A, pub.Am) == priv.m % params.order_info.order


def test_solver_exhaustive_small(params15):
    a = params15.A
    order = params15.order_info.order
    for x in range(order):
        assert solve_circulant_dlp(a, power(a, x)) == x


def test_solver_uses_row_sum_component(params311):
    # scale by a base-field unit so the row sum is no longer 1; the
    # alpha congruence then contributes a factor 7 to the modulus
    spec = params311.spec
    a = Circulant(spec, [spec.mul(0x2, c) for c in params311.A.bits()])
    assert row_sum(a) != 1
    full = (1 << 30) - 1
    rng = random.Random(42)
    for _ in range(5):
        m = rng.randrange(full)
        b = power(a, m)
        assert solve_circulant_dlp(a, b) == m


def test_solver_rejects_targets_outside_group(params311):
    a = params311.A
    spec = params311.spec
    # row sum mismatch: base has row sum 1, target does not
    scaled = Circulant(spec, [spec.mul(0x2, c) for c in a.bits()])
    with pytest.raises(NotFound):
        solve_circulant_dlp(a, scaled)
    # row sum 1 but beta lands outside the index-7 subgroup of <beta_A>
    # the row that is 1 mod (x - 1) and 2 beta mod Phi
    beta = (Poly.make(spec, a.bits()) % Poly.make(spec, (1,) * a.d)).scale(0x2)
    s = 1 ^ functools.reduce(operator.xor, beta.coeffs, 0)  # 1 + beta(1)
    coeffs = list(beta.coeffs) + [0] * (a.d - 1 - len(beta.coeffs))
    outside = Circulant(spec, [c ^ s for c in coeffs] + [s])
    assert row_sum(outside) == 1
    with pytest.raises(NotFound):
        solve_circulant_dlp(a, outside)


def test_solver_refuses_unfactorable_order(params4711_toy_budget):
    s = Circulant.shift(field_make(47), 11)  # of proven order 11
    assert solve_circulant_dlp(s, power(s, 3), budget=1 << 10) == 3
    a = params4711_toy_budget.A
    with pytest.raises(IncompleteFactorization):
        solve_circulant_dlp(a, power(a, 3), budget=1 << 10)
