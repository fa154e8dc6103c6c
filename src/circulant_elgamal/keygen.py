"""Parameter generation and the five-condition validator.

A good public matrix A over GF(2^n) must satisfy: determinant 1,
row-sum 1, d prime, chi_A/(x-1) irreducible, and 2^n primitive mod d.
Together these make the circulant DLP as hard as the DLP of the field
with 2^{n(d-1)} elements and no easier. The generator below constructs
such matrices from a random primitive polynomial tau: it builds the row
psi with psi = 1 mod (x-1) and psi = tau mod Phi, and raises circ(psi)
to det_order, the order of tau(0) in F_q. psi's Phi-component is
tau(zeta), not a root of tau, so tau(0) is not det(psi); but a verified
primitive tau has tau(0) primitive, so det_order = q - 1 and det(A) =
det(psi)^(q-1) = 1.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import fileio
from .circulant import Circulant, _ring, det, power, row_sum
from .gf2field import FieldSpec, Poly, field_make, primitive_poly
from .numtheory import (
    DEFAULT_BUDGET,
    DNotPrime,
    NotAUnit,
    element_order,
    factor,
    is_prime,
    is_primitive_mod,
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
        return (
            self.det_one
            and self.row_sum_one
            and self.d_prime
            and self.quotient_irreducible
            and self.q_primitive
        )

    def lines(self) -> list[tuple[str, bool]]:
        return [
            ("det_one", self.det_one),
            ("row_sum_one", self.row_sum_one),
            ("d_prime", self.d_prime),
            ("quotient_irreducible", self.quotient_irreducible),
            ("q_primitive", self.q_primitive),
        ]


class OrderInfo(NamedTuple):
    order: int  # exact order, or a certified divisor of it
    exact: bool


class ParamSet(NamedTuple):
    spec: FieldSpec
    d: int
    A: Circulant
    tau: Poly | None = None
    det_order: int | None = None
    order_info: OrderInfo | None = None

    @property
    def n(self) -> int:
        return self.spec.n

    def exponent_bound(self) -> int:
        """Exclusive upper bound for secret exponents.

        The exact group order when known, else the 2^{n(d-1)} surrogate
        (the order divides 2^{n(d-1)} - 1, so the surrogate only skews
        the distribution, never correctness).
        """
        if self.order_info is not None and self.order_info.exact:
            return self.order_info.order
        return 1 << (self.spec.n * (self.d - 1))


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


def order_of(a: Circulant, budget: int = DEFAULT_BUDGET) -> OrderInfo:
    """Multiplicative order of an invertible circulant.

    Works from the factorization of N = q^{d-1} - 1, a multiple of the
    order whenever Phi is irreducible. If the budget cannot finish the
    factorization, the result is the product of the prime powers whose
    exact contribution to the order could be certified, a divisor of
    the true order, flagged exact=False (`element_order`).
    """
    big_n = (1 << (a.spec.n * (a.d - 1))) - 1
    fact = factor(big_n, budget)
    if not power(a, big_n).is_identity():
        raise ArithmeticError(
            "order does not divide q^(d-1) - 1; the matrix is outside the "
            "group these parameters assume"
        )
    order = element_order(fact, lambda e: power(a, e).is_identity())
    return OrderInfo(order.n, fact.complete)


def generate(
    n: int,
    d: int,
    seed: int | random.Random | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ParamSet:
    """Construct a matrix passing all five conditions at (2^n, d).

    Draw a primitive tau of degree d-1; det_order is the order of
    tau(0) in the base field, q - 1 when tau is verified primitive; psi
    is the row with psi = 1 mod (x-1) and psi = tau mod Phi; A =
    circ(psi)^det_order, whose determinant det(psi)^det_order is 1 when
    det_order = q - 1. The result is re-validated and, when the
    group order is exactly computable, required to reach q^{d-3};
    failures draw a fresh tau, up to MAX_ATTEMPTS times.
    """
    try:
        if not is_primitive_mod(1 << n, d):
            raise NotPrimitive(f"2^{n} is not primitive mod {d}")
    except (DNotPrime, NotAUnit) as exc:
        raise NotPrimitive(f"bad d={d}: {exc}") from None
    if d % 2 == 0 or d < 3:
        raise NotPrimitive(f"d must be an odd prime >= 3, got {d}")
    spec = field_make(n)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    q = 1 << n
    qm1 = factor(q - 1, budget)
    order_floor = q ** (d - 3)
    for _ in range(MAX_ATTEMPTS):
        tau = primitive_poly(d - 1, spec, rng, budget).poly
        if qm1.complete:
            tau0 = tau.coeffs[0]
            det_order = element_order(qm1, lambda e: spec.pow(tau0, e) == 1).n
        else:
            # q - 1 is always a multiple of the true order; using it
            # keeps det(A) = 1 without the exact factorization
            det_order = q - 1
        # tau is monic of degree d - 1, so tau mod Phi = tau + Phi, and
        # psi = (tau + Phi) + tau(1) Phi is 1 mod (x - 1) (Phi(1) = d = 1)
        s = tau.evaluate(1)
        psi = Circulant.from_bits(spec, [c ^ 1 ^ s for c in tau.coeffs[:-1]] + [s])
        a = power(psi, det_order)
        if not five_conditions(a).all:
            continue
        info = order_of(a, budget)
        if info.exact and info.order < order_floor:
            continue
        return ParamSet(spec, d, a, tau, det_order, info)
    raise RetriesExhausted(
        f"no matrix passed validation in {MAX_ATTEMPTS} draws at (2^{n}, {d})"
    )


# ---------------------------------------------------------------------------
# file headers (params, key and ciphertext files) and parameter files

def _field_header(spec: FieldSpec, d: int) -> list[tuple[str, str]]:
    return [
        ("version", "1"),
        ("n", str(spec.n)),
        ("d", str(d)),
        ("field_poly", format(spec.modulus, "#x")),
    ]


def _read_field_header(r: fileio.KvReader) -> tuple[FieldSpec, int]:
    """The header of a params, key or ciphertext file, checked."""
    fileio.check_version(r)
    n = r.expect_int("n")
    d = r.expect_int("d")
    if d < 1:
        raise fileio.FileFormatError(f"{r.path}: d must be positive, got {d}")
    modulus = r.expect_int("field_poly")
    try:
        spec = FieldSpec(n, modulus)
    except ValueError as exc:
        raise fileio.FileFormatError(f"{r.path}: {exc}") from None
    return spec, d


def _read_row(r: fileio.KvReader, key: str, spec: FieldSpec, d: int) -> Circulant:
    c = Circulant.from_hex(spec, r.expect(key))
    if c.d != d:
        raise fileio.FileFormatError(
            f"{r.path}: {key} has {c.d} entries, expected d = {d}"
        )
    return c


def save_params(params: ParamSet, path) -> None:
    fileio.write_kv(
        path, _field_header(params.spec, params.d) + [("A", params.A.to_hex())]
    )


def load_params(path) -> ParamSet:
    r = fileio.KvReader(path)
    spec, d = _read_field_header(r)
    a = _read_row(r, "A", spec, d)
    r.done()
    return ParamSet(spec, d, a)
