"""Discrete-log attacks: baby-step giant-step, Pohlig-Hellman, the group
order behind them, and the full circulant solver.

Everything runs in groups of circulants. At (1,5) the ring is F_2 x
GF(16), and 1 + x + x^2 generates a cyclic group of order 15, small
enough that exhaustive search is the oracle; at (3,3) it is F_8 x F_64,
and x + 2x^2 has order 63 = 3^2 * 7, which gives Pohlig-Hellman a
prime-power leaf of order 9.
"""

import random

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
    solve_circulant_dlp,
)
from circulant_elgamal.elgamal import keygen
from circulant_elgamal.gf2field import Poly, _Ring, field_make
from circulant_elgamal.numtheory import Factorization, IncompleteFactorization, factor

S1, S3 = field_make(1), field_make(3)
G15 = Circulant.from_bits(S1, [1, 1, 1, 0, 0])  # order 15 at (1,5)
G63 = Circulant.from_bits(S3, [0, 1, 2])  # order 63 at (3,3)


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
    while det(g).is_zero():
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


def test_pohlig_hellman_one_bsgs_per_prime_power(monkeypatch):
    orders = []
    real = dlp.bsgs
    monkeypatch.setattr(dlp, "bsgs", lambda g, h, o: orders.append(o) or real(g, h, o))
    assert pohlig_hellman(G63, power(G63, 41), factor(63)) == 41
    assert sorted(orders) == [7, 9]


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
    ones = Circulant.from_bits(params311.spec, [1] * 11)
    with pytest.raises(NotFound):
        reduce_to_field(ones, ones)
    # 2A has row sum 2, of order 7 in F_8, and ord(A) is prime to 7
    two = params311.spec.element(0x2)
    scaled = Circulant(tuple(two * c for c in a.coeffs), params311.spec)
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
    t = spec.element(0x2)
    a = Circulant(tuple(t * c for c in params311.A.coeffs), spec)
    assert row_sum(a).bits != 1
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
    t = spec.element(0x2)
    scaled = Circulant(tuple(t * c for c in a.coeffs), spec)
    with pytest.raises(NotFound):
        solve_circulant_dlp(a, scaled)
    # row sum 1 but beta lands outside the index-7 subgroup of <beta_A>
    # the row that is 1 mod (x - 1) and 2 beta mod Phi
    beta = (Poly.make(spec, a.bits()) % Poly.make(spec, (1,) * a.d)).scale(0x2)
    s = 1 ^ beta.evaluate(1)
    coeffs = list(beta.coeffs) + [0] * (a.d - 1 - len(beta.coeffs))
    outside = Circulant.from_bits(spec, [c ^ s for c in coeffs] + [s])
    assert row_sum(outside).bits == 1
    with pytest.raises(NotFound):
        solve_circulant_dlp(a, outside)


def test_solver_refuses_unfactorable_order(params4711_toy_budget):
    s = Circulant.shift(field_make(47), 11)  # of proven order 11
    assert solve_circulant_dlp(s, power(s, 3), budget=1 << 10) == 3
    a = params4711_toy_budget.A
    with pytest.raises(IncompleteFactorization):
        solve_circulant_dlp(a, power(a, 3), budget=1 << 10)
