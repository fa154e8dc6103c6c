"""Desk-scale discrete logarithm attacks on the circulant group.

For odd d the all-ones row Phi = 1 + x + ... + x^(d-1) is an idempotent
of R = F_q[x]/(x^d - 1): x Phi = Phi, so Phi^2 = d Phi = Phi. Hence
R = Phi R x (1 + Phi) R, which is F_q x F_q[x]/Phi, and A = alpha Phi +
beta (1 + Phi) gives A^x = alpha^x Phi + beta^x (1 + Phi). The paper's
reduction to the field F_(q^(d-1)) (and the base field of the row sum)
is therefore already inside the ring: every product of rows carries both
components, and ord(A) divides q^(d-1) - 1. So the attack runs in <A>
itself, on rows packed into the circulant kernel: `element_order` finds
ord(A) by one long power and a product tree of short ones, which also
checks A^(q^(d-1) - 1) = 1; Pohlig-Hellman splits it into prime powers
and solves each one: baby-step giant-step up to `RHO_CUTOFF`, whose
table of sqrt(p^e) rows is small there, and Pollard rho above it, an
r-adding walk (Teske 2001) that stores only distinguished points (van
Oorschot and Wiener 1999), so the attack's memory no longer grows with
the largest prime of ord(A).
"""

from __future__ import annotations

import random
from math import gcd, isqrt

from .circulant import Circulant, _ring, inverse, power
from .keygen import _group_order
from .numtheory import DEFAULT_BUDGET, Factorization, IncompleteFactorization

# Every leaf's desk bound: `bsgs`'s memory, and `rho`'s time, grow as its sqrt
BSGS_MAX_ORDER = 1 << 48
# Pohlig-Hellman solves a prime power above this by `rho`, below by `bsgs`,
# whose table then holds at most 2^10 rows
RHO_CUTOFF = 1 << 20
# `rho`'s multipliers, walks and the golden-ratio multiplier of its row hash
_RHO_R, _RHO_WALKS, _GOLDEN = 20, 16, 0x9E3779B97F4A7C15


class NotFound(LookupError):
    pass


def bsgs(base: Circulant, target: Circulant, order: int) -> int:
    """Least x in [0, order) with base^x = target.

    Table memory is ceil(sqrt(order)) entries, so Pohlig-Hellman calls
    it only on leaves up to `RHO_CUTOFF`; ``order`` is held to the desk
    bound all the same. A packed row is canonical, so it keys the table
    as it is. The baby steps end on base^m, whose inverse is the giant
    step.
    """
    if order <= 0:
        raise ValueError("order must be positive")
    if order > BSGS_MAX_ORDER:
        raise ValueError(f"order {order} exceeds the 2^48 desk bound")
    ring, a, b = _ring(base.spec, base.d), base.row, target.row
    m = isqrt(order - 1) + 1
    step = ring.window(a)
    table: dict[int, int] = {}
    cur = 1
    for j in range(m):
        table.setdefault(cur, j)
        cur = ring.mul(step, cur)
    giant = ring.window(inverse(Circulant._of(base.spec, base.d, cur)).row)
    cur = b
    for i in range(m):  # m^2 >= order, so x = i m + j reaches order - 1
        j = table.get(cur)
        if j is not None:
            x = i * m + j
            if x < order:
                return x
        cur = ring.mul(giant, cur)
    raise NotFound("target is not a power of the base in this subgroup")


def rho(base: Circulant, target: Circulant, order: int) -> int:
    """x in [0, order) with base^x = target, for ``order`` = ord(base).

    Pollard rho in constant memory: an r-adding walk, each step one
    product by the multiplier M_j = base^u_j target^v_j that the row's
    hash picks, which carries the exponents (u, v) of the point
    base^u target^v. Only distinguished points, about 2^-k of them with
    2^k near sqrt(order) / 64, are stored, so a walk keeps about a
    hundred rows; the first one reached twice gives base^(u - u') =
    target^(v' - v), and each of the gcd(v' - v, order) solutions of
    that congruence is tried by one power. The draws come from a
    `random.Random` seeded by the leaf, and every power is a product of
    one shared chain of squarings of base and target, so the walk is a
    pure function of the inputs and a run repeats its work exactly. A
    walk that ends with v = v', a candidate that fails, or a stretch of
    20 2^k steps with no new distinguished point is followed by a fresh
    walk with new draws; NotFound after `_RHO_WALKS` walks, as for a
    target outside <base>.
    """
    if order <= 0:
        raise ValueError("order must be positive")
    if order > BSGS_MAX_ORDER:
        raise ValueError(f"order {order} exceeds the 2^48 desk bound")
    if target.is_identity():
        return 0
    ring = _ring(base.spec, base.d)
    chains = [base.row], [target.row]  # base^(2^i), target^(2^i)
    for _ in range(order.bit_length() - 1):
        for chain in chains:
            chain.append(ring.square(chain[-1]))

    def point(u: int, v: int) -> int:
        """base^u target^v, u and v in [0, order), off the chains."""
        r = 1
        for x, chain in zip((u, v), chains):
            for i in range(x.bit_length()):
                if x >> i & 1:
                    r = ring.product(chain[i], r)
        return r

    draw = random.Random(f"{order} {base.row} {target.row}").randrange
    k = max(order.bit_length() // 2 - 6, 0)
    rare = 1 << 32 - k  # a point is distinguished when its hash is below this
    mul, patience = ring.mul, 20 << k
    for _ in range(_RHO_WALKS):
        (u, v), *steps = [(draw(order), draw(order)) for _ in range(_RHO_R + 1)]
        wins = [ring.window(point(a, b)) for a, b in steps]
        adds = [a | b << 128 for a, b in steps]  # (a, b) packed as a + b 2^128
        cur, uv, seen, quiet = point(u, v), u | v << 128, {}, 0
        while quiet < patience:
            h = hash(cur) * _GOLDEN >> 32 & 0xFFFFFFFF  # an int's hash is unsalted
            if h < rare:
                if cur in seen:
                    break
                seen[cur], quiet = uv, 0
            j = h % _RHO_R
            cur, uv, quiet = mul(wins[j], cur), uv + adds[j], quiet + 1
        else:
            continue  # a cycle with no distinguished point
        # base^(u - u') = target^(v' - v), so x (v' - v) = u - u' mod order
        (v, u), (v2, u2) = divmod(uv, 1 << 128), divmod(seen[cur], 1 << 128)
        g = gcd(v2 - v, order)
        if g == order or (u - u2) % g:
            continue
        period = order // g
        x = (u - u2) // g * pow((v2 - v) // g, -1, period) % period
        for x in range(x, order, period):
            if point(x, 0) == target.row:
                return x
    raise NotFound("target is not a power of the base in this subgroup")


def pohlig_hellman(base: Circulant, target: Circulant, order: Factorization) -> int:
    """Composite-order solve; ``order`` must factor ord(base) exactly.

    For each prime power p^e of n = ord(base), one leaf solve of order
    p^e finds x mod p^e from the leaves base^(n/p^e), of order p^e, and
    target^(n/p^e), two calls of `power`: `bsgs` up to `RHO_CUTOFF`,
    `rho` above it, both held to the 2^48 desk bound. Each residue folds
    into one running CRT, x mod m with m the product of the prime powers
    so far, from x = 0, m = 1 (the answer when ord(base) = 1). The
    answer is canonical in [0, n) and checked: NotFound when base^x is
    not the target.
    """
    if not order.complete:
        raise IncompleteFactorization(
            f"group order has unfactored cofactor {order.cofactor}"
        )
    n, x, m = order.n, 0, 1
    for p, e in sorted(order.factors.items()):
        pe = p**e
        solve = rho if pe > RHO_CUTOFF else bsgs
        r = solve(power(base, n // pe), power(target, n // pe), pe)
        x += m * ((r - x) * pow(m, -1, pe) % pe)
        m *= pe
    if power(base, x) != target:
        raise NotFound("reconstructed exponent does not reproduce the target")
    return x


def reduce_to_field(
    a: Circulant, b: Circulant, budget: int = DEFAULT_BUDGET
) -> Factorization:
    """ord(a) as a complete factorization, once b may lie in <a>.

    ord(a) divides q^(d-1) - 1, the order of the unit group of the field
    the paper reduces the circulant DLP to; `element_order` peels it out
    of the factorization of that number. It is proven when that
    factorization is complete, or when a^D = 1 for the certified divisor
    D it gives (`order_of`'s rule). IncompleteFactorization when neither
    holds; NotFound when a^(q^(d-1) - 1) is not 1 (a lies outside that
    group) or b^ord(a) is not 1 (b is no power of a).
    """
    try:
        fact, order, exact = _group_order(a, budget)
    except ArithmeticError as exc:
        raise NotFound(str(exc)) from None
    if not exact:
        raise IncompleteFactorization(
            f"q^(d-1) - 1 has unfactored cofactor {fact.cofactor}, and a^D != 1 "
            f"for the certified divisor D = {order.n} of ord(a)"
        )
    if not power(b, order.n).is_identity():
        raise NotFound("the target's order does not divide ord(a)")
    return order


def solve_circulant_dlp(
    a: Circulant, b: Circulant, budget: int = DEFAULT_BUDGET
) -> int:
    """m with a^m = b, canonical in [0, ord(a)).

    Pohlig-Hellman in <a>, which checks a^m = b before it returns.
    """
    if a.d % 2 == 0 or a.d < 3:
        raise ValueError(f"the attack needs odd d >= 3, got d = {a.d}")
    return pohlig_hellman(a, b, reduce_to_field(a, b, budget))

