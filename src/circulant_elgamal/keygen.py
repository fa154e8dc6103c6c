"""Parameter generation and the five-condition validator.

A good public matrix A over GF(2^n) must satisfy: determinant 1,
row-sum 1, d prime, chi_A/(x-1) irreducible, and 2^n primitive mod d.
Together these make A's DLP one in the field with 2^{n(d-1)} elements
(`dlp.reduce_to_field`), but they do not make it hard: they say nothing
of ord(A), and the shift matrix, of order d, passes all five.

The generator below draws a primitive tau and makes A = circ(psi)^(q-1),
psi = 1 mod (x-1) and psi = tau mod Phi. d prime and q primitive mod d
are checked before any draw, the row sum is psi(1)^(q-1) = 1, and det(A)
= N(tau(zeta))^(q-1), a norm to F_q, is 1 unless tau = Phi, where A = Phi
has d - 1 equal conjugates. So a draw is rejected only by the quotient
condition or by the order floor q^(d-3), which rules out small orders;
it applies to an exact order, not to a certified divisor of one.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import fileio
from .circulant import Circulant, _ring, det, power, row_sum
from .gf2field import FieldSpec, Poly, field_make, primitive_poly
from .numtheory import (
    DEFAULT_BUDGET,
    Factorization,
    cell_exponent,
    element_order,
    factor,
    is_prime,
    primitive_cell,
)

MAX_ATTEMPTS = 32


class NotPrimitive(ValueError):
    pass


class RetriesExhausted(RuntimeError):
    pass


class ConditionReport(NamedTuple):
    det_one: bool
    row_sum_one: bool
    d_prime: bool
    quotient_irreducible: bool
    q_primitive: bool

    @property
    def all(self) -> bool:
        return all(self)

    def lines(self) -> list[tuple[str, bool]]:
        return list(zip(self._fields, self))


class OrderInfo(NamedTuple):
    """ord(A), or a certified divisor D of it; exact when D = ord(A) is proven."""

    order: int
    exact: bool


class ParamSet(NamedTuple):
    spec: FieldSpec
    d: int
    A: Circulant
    tau: Poly | None = None
    order_info: OrderInfo | None = None

    @property
    def n(self) -> int:
        return self.spec.n


def _quotient_condition(a: Circulant) -> bool:
    """Does x - 1 divide chi_A, with chi_A/(x - 1) irreducible?

    The roots of chi_A are a(zeta) over the d-th roots of unity zeta,
    and a(zeta)^q = a(zeta^q). For d >= 3 an irreducible quotient has
    no root in F_q, so the root 1 that x - 1 takes out must be the row
    sum a(1), and the quotient's roots are the a(zeta) with zeta != 1.
    One of degree d - 1 over F_q, which an irreducible quotient needs,
    exists only when d is prime and q is primitive mod d. There Phi is
    irreducible, the quotient is the product of the d - 1 conjugates
    A^(q^j) mod Phi, and it is irreducible exactly when they are
    pairwise distinct. Each A^(q^j) is a free slot permutation, and no
    reduction mod Phi is needed: two of them that agree mod Phi differ
    by some f Phi = f(1) Phi = c Phi, both have row sum a(1), and c Phi
    has row sum c d = c, so c = 0. At d = 2, chi_A = (x + a(1))^2, so
    a(1) = 1 leaves x + 1; at d = 1 the quotient is a constant.
    """
    d, spec = a.d, a.spec
    if row_sum(a).bits != 1:
        return False
    if d == 2:
        return True
    if not primitive_cell(spec.n, d):  # so d >= 3 below
        return False
    ring = _ring(spec, d)
    return len({ring.frobenius(a.row, j) for j in range(d - 1)}) == d - 1


def five_conditions(a: Circulant) -> ConditionReport:
    """Evaluate the five security conditions; reports, never raises."""
    return ConditionReport(
        det_one=det(a).bits == 1,
        row_sum_one=row_sum(a).bits == 1,
        d_prime=is_prime(a.d),
        quotient_irreducible=_quotient_condition(a),
        q_primitive=primitive_cell(a.spec.n, a.d),
    )


def _group_order(
    a: Circulant, budget: int
) -> tuple[Factorization, Factorization, bool]:
    """The factorization of N = q^(d-1) - 1; ord(a) factored from it
    (`element_order`), a certified divisor D of ord(a); and whether D =
    ord(a) is proven: by a complete factorization of N, or else by one
    power, a^D = 1. ArithmeticError when a^N != 1.
    """
    fact = factor(cell_exponent(a.spec.n, a.d), budget)
    try:
        order = element_order(fact, a, power, Circulant.is_identity)
    except ArithmeticError:
        raise ArithmeticError(
            "order does not divide q^(d-1) - 1; the matrix is outside the "
            "group these parameters assume"
        ) from None
    return fact, order, fact.complete or power(a, order.n).is_identity()


def order_of(a: Circulant, budget: int = DEFAULT_BUDGET) -> OrderInfo:
    """Multiplicative order of an invertible circulant.

    Works from the factorization of N = q^{d-1} - 1, a multiple of the
    order whenever Phi is irreducible. If the budget cannot finish the
    factorization, the result is the product of the prime powers whose
    exact contribution to the order could be certified, a divisor D of
    the true order (`element_order`). It is still exact when A^D = 1,
    and flagged exact=False only when A^D != 1.
    """
    _, order, exact = _group_order(a, budget)
    return OrderInfo(order.n, exact)


def generate(
    n: int,
    d: int,
    seed: int | random.Random | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ParamSet:
    """Construct a matrix passing all five conditions at (2^n, d).

    Draw a primitive tau of degree d-1; psi is the row with psi = 1
    mod (x-1) and psi = tau mod Phi; A = circ(psi)^(q-1). Four conditions
    hold by construction (module docstring): only the quotient condition,
    which rejects tau = Phi, and the floor q^{d-3} on an exact order
    reject a draw, for a fresh tau, up to MAX_ATTEMPTS times.
    """
    if not primitive_cell(n, d):
        raise NotPrimitive(f"d = {d} is not a prime with 2^{n} primitive mod d")
    spec = field_make(n)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    q = 1 << n
    order_floor = q ** (d - 3)
    for _ in range(MAX_ATTEMPTS):
        tau = primitive_poly(d - 1, spec, rng, budget)
        # tau is monic of degree d - 1, so tau mod Phi = tau + Phi, and
        # psi = (tau + Phi) + tau(1) Phi is 1 mod (x - 1) (Phi(1) = d = 1)
        s = tau.evaluate(1)
        psi = Circulant._of(spec, d, tau.row ^ _ring(spec, d).ones * (1 ^ s))
        a = power(psi, q - 1)
        if not _quotient_condition(a):
            continue
        info = order_of(a, budget)
        if info.exact and info.order < order_floor:
            continue
        return ParamSet(spec, d, a, tau, info)
    raise RetriesExhausted(
        f"no matrix passed validation in {MAX_ATTEMPTS} draws at (2^{n}, {d})"
    )


# ---------------------------------------------------------------------------
# parameter files

def save_params(params: ParamSet, path) -> None:
    fileio.write_kv(
        path, params.spec, params.d, [("A", fileio.hex_line(params.A.bits()))]
    )


def load_params(path) -> ParamSet:
    r = fileio.KvReader(path)
    a = Circulant(r.entries("A"), r.spec)
    r.done()
    return ParamSet(r.spec, r.d, a)
