"""Acceptance gate: one test per contract criterion, each printing a
single PASS/FAIL line with the measured numbers.

The shipped reference data carries four errata, and the verifiers
report them as data rather than raising: three of the six quoted log2
values disagree with the primes they describe, and one tabulated
(n, d) pair is not actually primitive. C01 and C03 check those reports
against independent oracles (sympy and exact integer arithmetic) and
pin the errata, so they pass on the shipped data and fail when the
verifier or the data changes what is flagged.
"""

import math
import random
import time
from fractions import Fraction

import sympy

from circulant_elgamal.circulant import (
    Circulant,
    NotInvertible,
    det,
    inverse,
    mul,
    power,
    power_cost,
    square,
)
from circulant_elgamal.dlp import solve_circulant_dlp
from circulant_elgamal.elgamal import (
    PrivateKey,
    decrypt,
    encrypt,
    keygen,
    oracle_reduction,
)
from circulant_elgamal.gf2field import field_make
from circulant_elgamal.keygen import ParamSet, five_conditions, generate, order_of
from circulant_elgamal.numtheory import factor
from circulant_elgamal.security import (
    REFERENCE_D_RANGE,
    REFERENCE_PRIMES,
    estimate,
    load_reference_pairs,
    load_reference_security,
    reference_pairs_diff,
    security_table,
    verify_reference_primes,
)

from oracles import gaussian_det


def report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print("\n" + line)
    return ok


# quoted log2 values the primes do not bear out (see the README)
LOG2_ERRATA = {(39, 29), (97, 11), (29, 37)}


def _log2_within(p: int, quoted: float, tolerance: float | None) -> bool:
    # exact: |log2 p - q| <= t  iff  2^{k(q-t)} <= p^k <= 2^{k(q+t)}, with
    # k clearing the decimal denominators; no tolerance means p > 2^q
    q = Fraction(str(quoted))
    t = Fraction(str(tolerance or 0))
    k = q.denominator * t.denominator
    if tolerance is None:
        return p**k > 2 ** int(k * q)
    return 2 ** int(k * (q - t)) <= p**k <= 2 ** int(k * (q + t))


def test_c01_reference_prime_verification():
    t0 = time.monotonic()
    checks = verify_reference_primes()
    elapsed = time.monotonic() - t0
    assert [c.ref for c in checks] == list(REFERENCE_PRIMES)
    structural = all(
        c.is_prime_ok
        and c.divides_ok
        and c.primitive_ok
        and sympy.isprime(c.ref.p)
        and ((1 << (c.ref.n * (c.ref.d - 1))) - 1) % c.ref.p == 0
        for c in checks
    )
    flagged = {(c.ref.n, c.ref.d) for c in checks if not c.log2_ok}
    exact = {
        (r.n, r.d)
        for r in REFERENCE_PRIMES
        if not _log2_within(r.p, r.quoted_log2, r.tolerance)
    }
    errata = [(c.ref.n, c.ref.d, round(c.log2, 4)) for c in checks if not c.log2_ok]
    ok = structural and flagged == exact == LOG2_ERRATA and elapsed < 60
    assert report(
        "C01 reference-prime verification",
        ok,
        f"primality/divisibility/primitivity all hold; quoted log2 wrong "
        f"for {errata}, as exact arithmetic finds; {elapsed:.1f}s"
        if ok
        else f"structural={structural}; flagged {sorted(flagged)}, "
        f"exact check flags {sorted(exact)}, pinned {sorted(LOG2_ERRATA)}; "
        f"{elapsed:.1f}s",
    )


def test_c02_index_calculus_column():
    rows = load_reference_security()
    bad = [(r.n, r.d) for r in rows if r.n * (r.d - 1) != r.index_bits]
    ok = len(rows) == 48 and not bad
    assert report(
        "C02 index-calculus column",
        ok,
        f"{len(rows)} rows, n*(d-1) exact in every one" if ok else f"mismatches: {bad}",
    )


def test_c03_reference_pair_primitivity():
    diff = reference_pairs_diff()
    listed = set(load_reference_pairs())
    grid = [
        (n, d)
        for n in sorted({n for n, _ in listed})
        for d in sympy.primerange(REFERENCE_D_RANGE.start, REFERENCE_D_RANGE.stop)
    ]
    primitive = {(n, d) for n, d in grid if sympy.n_order(pow(2, n, d), d) == d - 1}
    want_bad = sorted(listed - primitive)
    want_missing = sorted(primitive - listed)
    ok = (
        diff.listed_not_primitive == want_bad == [(85, 11)]
        and diff.unlisted_primitive == want_missing == [(47, 29), (83, 29)]
    )
    assert report(
        "C03 reference-pair primitivity",
        ok,
        f"listed but not primitive: {diff.listed_not_primitive}; "
        f"primitive but unlisted: {diff.unlisted_primitive}; both as sympy finds"
        if ok
        else f"reported {diff}; sympy finds listed-not-primitive {want_bad}, "
        f"primitive-unlisted {want_missing}",
    )


def test_c04_generator_small_cells():
    candidates = [(1, 5), (1, 11), (3, 11), (4, 5), (8, 11), (16, 13)]
    cells = [c for c in candidates if estimate(*c).primitive]
    skipped = [c for c in candidates if c not in cells]
    failures = []
    for n, d in cells:
        floor = (1 << n) ** (d - 3)
        for seed in range(50):
            ps = generate(n, d, seed=seed)
            if not five_conditions(ps.A).all:
                failures.append((n, d, seed, "conditions"))
            big = (1 << (n * (d - 1))) - 1
            if factor(big).complete:
                info = order_of(ps.A)
                if not (info.exact and info.order >= floor):
                    failures.append((n, d, seed, "order"))
    ok = not failures and cells == [(1, 5), (1, 11), (3, 11)]
    assert report(
        "C04 generator validation",
        ok,
        f"50 runs each at {cells} all pass; skipped non-primitive {skipped}"
        if ok
        else f"failures: {failures[:5]}",
    )


def _det_one_matrix(spec, d, rng):
    # force determinant 1 by scalar correction: det(cA) = c^d det(A),
    # and d * 116 = 1 mod 255 makes c = det(A)^-116 cancel it at d = 11
    assert d == 11 and spec.n == 8
    while True:
        a = Circulant.random(spec, d, rng)
        delta = det(a)
        if delta:
            break
    c = spec.pow(delta, -116)
    return Circulant(spec, [spec.mul(c, x) for x in a.bits()])


def test_c05_elgamal_roundtrips():
    spec = field_make(8)
    rng = random.Random(99)
    a = _det_one_matrix(spec, 11, rng)
    assert det(a) == 1
    ps = ParamSet(spec, 11, a)
    bad = 0
    for trial in range(1000):
        priv, pub = keygen(ps, seed=rng.randrange(1 << 48))
        v = tuple(rng.getrandbits(8) for _ in range(11))
        if decrypt(priv, encrypt(pub, v, seed=rng.randrange(1 << 48))) != v:
            bad += 1
    assert report(
        "C05 ElGamal roundtrip",
        bad == 0,
        f"1000 key/message pairs at (8, 11), {bad} failures",
    )


def test_c06_squaring_theorem():
    failures = 0
    for n in (1, 3, 8):
        spec = field_make(n)
        rng = random.Random(100 + n)
        for d in (3, 5, 11):
            for _ in range(1000):
                a = Circulant.random(spec, d, rng)
                if square(a) != mul(a, a):
                    failures += 1
            if power_cost(2, d)[1] != 0:
                failures += 1
    assert report(
        "C06 squaring theorem",
        failures == 0,
        "square = mul with 0 general mults, 1000 draws x 9 cells",
    )


def test_c07_dlp_attack():
    t0 = time.monotonic()
    ps = generate(3, 11, seed=7)
    order = ps.order_info.order
    rng = random.Random(101)
    bad = []
    for _ in range(20):
        m = rng.randrange(1 << 40)
        if solve_circulant_dlp(ps.A, power(ps.A, m)) != m % order:
            bad.append(m)
    small = generate(1, 5, seed=7)
    small_order = small.order_info.order
    for x in range(small_order):
        if solve_circulant_dlp(small.A, power(small.A, x)) != x:
            bad.append(("small", x))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60
    assert report(
        "C07 DLP attack",
        ok,
        f"20 seeded exponents at (3,11) exact mod {order}, exhaustive "
        f"0..{small_order - 1} at (1,5), {elapsed:.1f}s",
    )


def test_c08_oracle_reduction():
    ps = generate(3, 11, seed=7)
    a = ps.A
    rng = random.Random(102)
    bad = 0
    for _ in range(20):
        x = rng.randrange(2, 1 << 24)
        y = rng.randrange(2, 1 << 24)
        priv = PrivateKey(x, ps)
        queries = 0

        def oracle(ct):
            nonlocal queries
            queries += 1
            return decrypt(priv, ct)

        got = oracle_reduction(oracle, a, power(a, x), power(a, y))
        if got != power(a, x * y) or queries != a.d:
            bad += 1
    assert report(
        "C08 oracle reduction",
        bad == 0,
        "20 trials recover A^(ab) in exactly d queries",
    )


def test_c09_cost_formula():
    spec = field_make(3)
    rng = random.Random(103)
    a = Circulant.random(spec, 11, rng)
    total_field = 0
    squaring_errors = 0
    for _ in range(1000):
        m = (1 << 127) | rng.getrandbits(127)
        power(a, m)
        squarings, _, field_mults = power_cost(m, 11)
        total_field += field_mults
        if squarings != 127:
            squaring_errors += 1
    mean = total_field / 1000
    predicted = 11 * 11 / 2 * 128
    ok = abs(mean - predicted) <= 0.05 * predicted and squaring_errors == 0
    assert report(
        "C09 exponentiation cost formula",
        ok,
        f"mean field mults {mean:.1f} vs (d^2/2)log2(m) = {predicted:.0f} "
        f"({abs(mean - predicted) / predicted:.1%} off), squarings always 127",
    )


def test_c10_inversion():
    spec = field_make(8)
    rng = random.Random(104)
    invertible = 0
    singular_seen = 0
    failures = 0
    while invertible < 1000:
        a = Circulant.random(spec, 11, rng)
        singular = gaussian_det(a) == 0
        try:
            b = inverse(a)
        except NotInvertible:
            singular_seen += 1
            if not singular:
                failures += 1
            continue
        if singular or not mul(a, b).is_identity():
            failures += 1
        invertible += 1
    assert report(
        "C10 inversion",
        failures == 0,
        f"1000 invertible circulants at (8,11) verified against Gaussian "
        f"elimination; {singular_seen} singular draws matched NotInvertible",
    )


TABLE2_BUDGET = 1 << 14  # the table2-factor benchmark's


def test_c11_table2_largest_primes():
    # Each Table-2 row against 2^(n(d-1)) - 1 factored under the budget.
    # Whether a quoted q means |log2 p - q| <= 0.5 or floor(log2 p) = q is
    # open, so a largest prime p agrees when either holds: 2^(q - 1/2) <=
    # p < 2^(q + 1). A row is a discrepancy when the factorization does
    # not multiply out, a proven factor is not prime, a proven prime
    # reaches 2^(q + 1), or no prime it proves or leaves in the cofactor
    # can reach 2^(q - 1/2); certified when it is complete and agrees;
    # consistent so far otherwise.
    t0 = time.monotonic()
    certified, consistent, wrong = [], [], []
    for row in load_reference_security():
        n, d, q = row.n, row.d, row.log_largest_prime
        big = (1 << (n * (d - 1))) - 1
        fact = factor(big, TABLE2_BUDGET)
        (rep,) = security_table([n], [d], TABLE2_BUDGET)
        top = max(fact.factors, default=1)
        sound = (
            math.prod(p ** e for p, e in fact.factors.items()) * fact.cofactor == big
            and all(sympy.isprime(p) for p in fact.factors)
            and top < 2 ** (q + 1)
            and max(top, fact.cofactor) ** 2 >= 2 ** (2 * q - 1)
            and rep.largest_prime == max(fact.factors, default=None)
            and rep.largest_prime_exact == fact.complete
        )
        if not sound:
            wrong.append((n, d))
        elif not fact.complete:
            consistent.append((n, d))
        else:
            readings = [
                name
                for name, holds in (
                    ("floor", top.bit_length() - 1 == q),
                    ("+-0.5", _log2_within(top, q, 0.5)),
                )
                if holds
            ]
            certified.append((n, d, "/".join(readings)))
    elapsed = time.monotonic() - t0
    ok = len(certified) + len(consistent) == 48 and not wrong
    assert report(
        "C11 Table-2 largest primes",
        ok,
        f"budget 2^14: {len(certified)} certified {certified}, "
        f"{len(consistent)} consistent so far, {len(wrong)} discrepancies "
        f"{wrong}; {elapsed:.1f}s",
    )
