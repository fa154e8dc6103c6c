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
checks A^(q^(d-1) - 1) = 1; Pohlig-Hellman splits it into prime powers,
and one baby-step giant-step solves each.
"""

from __future__ import annotations

from math import isqrt

from .circulant import Circulant, _ring, inverse, power
from .keygen import _group_order
from .numtheory import DEFAULT_BUDGET, Factorization, IncompleteFactorization

BSGS_MAX_ORDER = 1 << 48


class NotFound(LookupError):
    pass


def bsgs(base: Circulant, target: Circulant, order: int) -> int:
    """Least x in [0, order) with base^x = target.

    Table memory is ceil(sqrt(order)) entries, hence the desk bound.
    A packed row is canonical, so it keys the table as it is. The baby
    steps end on base^m, whose inverse is the giant step.
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


def pohlig_hellman(base: Circulant, target: Circulant, order: Factorization) -> int:
    """Composite-order solve; ``order`` must factor ord(base) exactly.

    For each prime power p^e of n = ord(base), one `bsgs` of order p^e
    finds x mod p^e from the leaves base^(n/p^e), of order p^e, and
    target^(n/p^e), two calls of `power`; `bsgs` holds p^e to the 2^48
    desk bound. Each residue folds into one running CRT, x mod m with m
    the product of the prime powers so far, from x = 0, m = 1 (the
    answer when ord(base) = 1). The answer is canonical in [0, n) and
    checked: NotFound when base^x is not the target.
    """
    if not order.complete:
        raise IncompleteFactorization(
            f"group order has unfactored cofactor {order.cofactor}"
        )
    n, x, m = order.n, 0, 1
    for p, e in sorted(order.factors.items()):
        pe = p**e
        r = bsgs(power(base, n // pe), power(target, n // pe), pe)
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

