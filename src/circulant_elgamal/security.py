"""Security estimation and verification of the shipped reference data.

Breaking the scheme at (2^n, d) means solving a discrete logarithm
either generically in the largest prime-order subgroup (square-root
cost) or by index calculus in the field with 2^{n(d-1)} elements. This
module computes both proxies, scans (n, d) grids for the primitivity
condition, and cross-checks the reference tables and the six worked
example primes shipped under data/.
"""

from __future__ import annotations

import math
from importlib.resources import files
from typing import Iterable, NamedTuple

from .numtheory import DEFAULT_BUDGET, cell_exponent, factor, is_prime, primitive_cell


def index_calculus_bits(n: int, d: int) -> int:
    """Bit size n(d-1) of the field the circulant DLP reduces to."""
    return n * (d - 1)


def generic_bits(p: int) -> float:
    """Square-root attack cost for a prime-order-p subgroup, in bits."""
    if p < 2:
        raise ValueError("need p >= 2")
    return math.log2(p) / 2


def regime_check(n: int, d: int) -> bool:
    """True when d > n^2, where index calculus goes exponential in the
    paper's 2011 model. The circulant DLP reduces to one in F_(2^(n(d-1))),
    and the DLP in fixed small characteristic is now quasi-polynomial
    (Joux 2013; Barbulescu-Gaudry-Joux-Thome 2014; Kleinjung-Wesolowski
    2022), so True is that model's verdict, not a present-day claim."""
    return d > n * n


def scan_primitive_pairs(
    n_range: Iterable[int], d_range: Iterable[int]
) -> list[tuple[int, list[int]]]:
    """For each n, the prime d values with 2^n primitive mod d."""
    ds = list(d_range)
    return [(n, [d for d in ds if primitive_cell(n, d)]) for n in n_range]


class SecurityReport(NamedTuple):
    n: int
    d: int
    primitive: bool
    index_calculus_bits: int
    regime_exponential: bool
    largest_prime: int | None = None  # exact, or best lower bound found
    largest_prime_exact: bool = False
    generic_bits: float | None = None
    cofactor_bits: int | None = None  # of what is left unfactored; 0 when exact


def estimate(n: int, d: int) -> SecurityReport:
    """Cheap per-cell report; no factoring. `index_calculus_bits` and
    `regime_exponential` are the paper's 2011 model (`regime_check`)."""
    return SecurityReport(
        n=n,
        d=d,
        primitive=primitive_cell(n, d),
        index_calculus_bits=index_calculus_bits(n, d),
        regime_exponential=regime_check(n, d),
    )


def security_table(
    n_range: Iterable[int],
    d_range: Iterable[int],
    budget: int = DEFAULT_BUDGET,
) -> list[SecurityReport]:
    """Reports for every primitive (n, d) cell, sorted by n then d.

    The largest-prime column comes from factoring 2^{n(d-1)} - 1 under
    the budget; when the factorization does not complete, the largest
    prime found so far is reported as a lower bound with exact=False,
    and cofactor_bits is the size of the unfactored rest.
    """
    out = []
    for n, ds in scan_primitive_pairs(sorted(set(n_range)), d_range):
        for d in ds:
            fact = factor(cell_exponent(n, d), budget)
            largest = max(fact.factors) if fact.factors else None
            out.append(
                estimate(n, d)._replace(
                    largest_prime=largest,
                    largest_prime_exact=fact.complete,
                    generic_bits=generic_bits(largest) if largest else None,
                    cofactor_bits=fact.cofactor_bits,
                )
            )
    return out


TSV_HEADER = (
    "n\td\tprimitive\tindex_bits\tlargest_prime\texact\tgeneric_bits\tcofactor_bits"
)


def render_tsv(reports: Iterable[SecurityReport]) -> str:
    """Uniform TSV for both table flavors; '-' marks absent values."""
    lines = [TSV_HEADER]
    for r in reports:
        lines.append(
            "\t".join(
                [
                    str(r.n),
                    str(r.d),
                    "true" if r.primitive else "false",
                    str(r.index_calculus_bits),
                    "-" if r.largest_prime is None else str(r.largest_prime),
                    "-"
                    if r.largest_prime is None
                    else ("true" if r.largest_prime_exact else "false"),
                    "-"
                    if r.generic_bits is None
                    else f"{r.generic_bits:.2f}",
                    "-" if r.cofactor_bits is None else str(r.cofactor_bits),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shipped reference tables

class ReferenceRow(NamedTuple):
    n: int
    d: int
    log_largest_prime: int
    index_bits: int


def _data_text(name: str) -> str:
    return (
        files("circulant_elgamal").joinpath("data").joinpath(name).read_text()
    )


def _data_rows(name: str, header: str) -> list[tuple[int, ...]]:
    first, *rows = _data_text(name).strip().splitlines()
    if first != header:
        raise ValueError(f"{name}: header {first!r}, expected {header!r}")
    return [tuple(int(x) for x in ln.split("\t")) for ln in rows]


def load_reference_pairs() -> list[tuple[int, int]]:
    """(n, d) pairs the reference tabulates as passing all conditions."""
    return _data_rows("table1.tsv", "n\td")


def load_reference_security() -> list[ReferenceRow]:
    header = "n\td\tlog_largest_prime\tindex_bits"
    return [ReferenceRow(*row) for row in _data_rows("table2.tsv", header)]


class PairsDiff(NamedTuple):
    listed_not_primitive: list[tuple[int, int]]
    unlisted_primitive: list[tuple[int, int]]


REFERENCE_D_RANGE = range(11, 51)


def reference_pairs_diff() -> PairsDiff:
    """Compare the tabulated pairs against computed primitivity.

    Only n values present in the reference are scanned (it shows a
    sample of its full range). Disagreements either way are reported
    as discrepancies; they are data for the caller, not failures.
    """
    by_n: dict[int, set[int]] = {}
    for n, d in load_reference_pairs():
        by_n.setdefault(n, set()).add(d)
    bad_listed, missing = [], []
    for n, primitive_ds in scan_primitive_pairs(sorted(by_n), REFERENCE_D_RANGE):
        listed_ds = by_n[n]
        bad_listed.extend((n, d) for d in sorted(listed_ds.difference(primitive_ds)))
        missing.extend((n, d) for d in primitive_ds if d not in listed_ds)
    return PairsDiff(bad_listed, missing)


def verify_reference_security_bits() -> list[tuple[ReferenceRow, bool]]:
    """Check the index-calculus column of every reference row."""
    return [
        (row, index_calculus_bits(row.n, row.d) == row.index_bits)
        for row in load_reference_security()
    ]


# ---------------------------------------------------------------------------
# the six worked-example primes

class ReferencePrime(NamedTuple):
    n: int
    d: int
    p: int
    quoted_log2: float
    tolerance: float | None  # None: quoted value is a strict lower bound


REFERENCE_PRIMES = (
    ReferencePrime(
        89, 13, 7993364465170792998716337691033251350895453313, 152.5, 0.1
    ),
    ReferencePrime(
        39, 29, 3194753987813988499397428643895659569, 120.0, 0.5
    ),
    ReferencePrime(
        45, 29, 15169173997557864184867895400813639018421, 120.0, None
    ),
    ReferencePrime(
        97,
        11,
        5099684339280531431303325210885366883096347229374376914106957559915561,
        231.0,
        0.5,
    ),
    ReferencePrime(
        43,
        29,
        15971330269144846039246876225999124906492824909441141855981389550399714935349,
        253.0,
        0.5,
    ),
    ReferencePrime(
        29, 37, 328017025014102923449988663752960080886511412965881, 167.0, 0.5
    ),
)


class PrimeCheck(NamedTuple):
    ref: ReferencePrime
    is_prime_ok: bool
    divides_ok: bool
    primitive_ok: bool
    log2: float
    log2_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.is_prime_ok
            and self.divides_ok
            and self.primitive_ok
            and self.log2_ok
        )


def verify_reference_primes() -> list[PrimeCheck]:
    """Recheck each worked-example prime; reports, never raises.

    Per prime: primality, divisibility of 2^{n(d-1)} - 1, primitivity
    of 2^n mod d, and agreement of log2 with the quoted value under its
    tolerance (or lower bound).
    """
    out = []
    for ref in REFERENCE_PRIMES:
        bits = index_calculus_bits(ref.n, ref.d)
        log2 = math.log2(ref.p)
        if ref.tolerance is None:
            log2_ok = log2 > ref.quoted_log2
        else:
            log2_ok = abs(log2 - ref.quoted_log2) <= ref.tolerance
        out.append(
            PrimeCheck(
                ref=ref,
                is_prime_ok=is_prime(ref.p),
                divides_ok=pow(2, bits, ref.p) == 1,
                primitive_ok=primitive_cell(ref.n, ref.d),
                log2=log2,
                log2_ok=log2_ok,
            )
        )
    return out
