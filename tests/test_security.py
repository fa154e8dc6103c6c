"""Security estimation and reference-data verification.

The shipped tables are treated as claims to recheck, not as truth:
the tests pin both the agreements and the known discrepancies.
"""

import math
from unittest import mock

import pytest
import sympy

from circulant_elgamal import security
from circulant_elgamal.numtheory import factor
from circulant_elgamal.security import (
    REFERENCE_D_RANGE,
    REFERENCE_PRIMES,
    TSV_HEADER,
    SecurityReport,
    estimate,
    generic_bits,
    index_calculus_bits,
    load_reference_pairs,
    load_reference_security,
    reference_pairs_diff,
    regime_check,
    render_tsv,
    scan_primitive_pairs,
    security_table,
    verify_reference_primes,
    verify_reference_security_bits,
)


def test_index_calculus_bits():
    assert index_calculus_bits(47, 11) == 470
    assert index_calculus_bits(89, 13) == 1068
    assert index_calculus_bits(1, 5) == 4


def test_generic_bits():
    assert generic_bits(2) == 0.5
    assert abs(generic_bits(331) - 4.19) < 0.005
    assert abs(generic_bits(7) - math.log2(7) / 2) < 1e-12
    with pytest.raises(ValueError):
        generic_bits(1)


def test_regime_check():
    assert not regime_check(47, 11)
    assert regime_check(1, 5)
    assert regime_check(3, 11)
    assert not regime_check(4, 16)


def test_estimate():
    r = estimate(47, 11)
    assert r == SecurityReport(47, 11, True, 470, False)
    assert estimate(85, 11).primitive is False
    assert estimate(4, 5).primitive is False  # 16 = 1 mod 5


def test_scan_primitive_pairs():
    got = scan_primitive_pairs([41, 85], REFERENCE_D_RANGE)
    assert got == [(41, [11, 13, 19, 29, 37]), (85, [13, 19, 29, 37])]
    # composite d never appears even if 2^n has full order mod d
    assert scan_primitive_pairs([1], range(3, 10)) == [(1, [3, 5])]


def test_scan_agrees_with_sympy():
    for n, ds in scan_primitive_pairs([3, 7, 10], range(3, 30)):
        q = 1 << n
        for d in (p for p in range(3, 30) if sympy.isprime(p)):
            want = q % d != 0 and sympy.n_order(q, d) == d - 1
            assert (d in ds) == want, (n, d)


def test_security_table_small_cells():
    rows = security_table(range(3, 4), range(3, 12))
    cells = {(r.n, r.d): r for r in rows}
    assert set(cells) == {(3, 3), (3, 5), (3, 11)}  # 8 = 1 mod 7
    assert cells[3, 3].largest_prime == 7
    assert cells[3, 5].largest_prime == 13
    assert cells[3, 11].largest_prime == 331
    for r in rows:
        assert r.largest_prime_exact
        assert r.largest_prime == max(sympy.factorint((1 << r.index_calculus_bits) - 1))
        assert r.generic_bits == generic_bits(r.largest_prime)


def test_security_table_orders_and_dedups_n():
    # an unsorted n_range with a repeat gives each n once, ascending, and
    # a row for every primitive cell and no other
    rows = security_table([5, 3, 5], range(2, 20))
    assert [(r.n, r.d) for r in rows] == [
        (3, 3), (3, 5), (3, 11), (5, 3), (5, 5), (5, 13), (5, 19)
    ]
    assert all(r.primitive for r in rows)


def test_security_table_incomplete_budget():
    (r,) = security_table(range(89, 90), range(13, 14), budget=1 << 8)
    assert r.primitive and r.index_calculus_bits == 1068
    assert not r.largest_prime_exact  # 2^1068 - 1 will not factor here
    assert r.largest_prime is not None
    assert sympy.isprime(r.largest_prime)
    assert pow(2, 1068, r.largest_prime) == 1


def test_table2_row_63_11_certified():
    # the one Table-2 row that the table2-factor benchmark's budget, 2^14,
    # factors completely: its largest prime is certified
    (row,) = [r for r in load_reference_security() if (r.n, r.d) == (63, 11)]
    assert row.log_largest_prime == 123
    n = (1 << 630) - 1
    f = factor(n, 1 << 14)
    assert f.complete
    assert math.prod(p ** e for p, e in f.factors.items()) == n
    assert all(sympy.isprime(p) for p in f.factors)
    assert max(f.factors).bit_length() - 1 == row.log_largest_prime
    (r,) = security_table([63], [11], 1 << 14)
    assert r.largest_prime == max(f.factors) and r.largest_prime_exact


def test_render_tsv_golden():
    text = render_tsv(security_table(range(3, 4), range(3, 6)))
    assert text.splitlines() == [
        TSV_HEADER,
        "3\t3\ttrue\t6\t7\ttrue\t1.40",
        "3\t5\ttrue\t12\t13\ttrue\t1.85",
    ]
    assert TSV_HEADER == "n\td\tprimitive\tindex_bits\tlargest_prime\texact\tgeneric_bits"


def test_render_tsv_placeholders():
    text = render_tsv([estimate(47, 11)])
    assert text.splitlines()[1] == "47\t11\ttrue\t470\t-\t-\t-"


# ---------------------------------------------------------------------------
# shipped reference data

def test_reference_pairs_fixture_shape():
    pairs = load_reference_pairs()
    assert len(pairs) == 83
    assert pairs[0] == (41, 11) and pairs[-1] == (95, 37)
    assert all(d in REFERENCE_D_RANGE for _, d in pairs)


def test_reference_security_fixture_shape():
    rows = load_reference_security()
    assert len(rows) == 48
    assert rows[0] == (47, 11, 115, 470)
    assert rows[-1] == (89, 19, 323, 1602)


def test_reference_tables_reject_a_wrong_header():
    # a check that raises, not an assert, so python -O keeps it
    with mock.patch.object(security, "_data_text", return_value="n\tq\n41\t11\n"):
        with pytest.raises(ValueError, match="table1.tsv"):
            load_reference_pairs()
        with pytest.raises(ValueError, match="table2.tsv"):
            load_reference_security()


def test_reference_pairs_diff_pins_discrepancies():
    diff = reference_pairs_diff()
    assert diff.listed_not_primitive == [(85, 11)]
    assert diff.unlisted_primitive == [(47, 29), (83, 29)]


def test_reference_security_bits_all_consistent():
    checks = verify_reference_security_bits()
    assert len(checks) == 48
    assert all(ok for _, ok in checks)


def test_reference_primes_verification():
    checks = verify_reference_primes()
    assert len(checks) == len(REFERENCE_PRIMES) == 6
    for c in checks:
        assert c.is_prime_ok, (c.ref.n, c.ref.d)
        assert c.divides_ok, (c.ref.n, c.ref.d)
        assert c.primitive_ok, (c.ref.n, c.ref.d)
        assert abs(c.log2 - math.log2(c.ref.p)) < 1e-9
    by_cell = {(c.ref.n, c.ref.d): c for c in checks}
    assert by_cell[89, 13].log2_ok  # 152.4856 within 0.1 of 152.5
    assert by_cell[45, 29].log2_ok  # lower bound 120 cleared at 133.5
    assert by_cell[43, 29].log2_ok  # 253.14 within 0.5 of 253
    assert not by_cell[39, 29].log2_ok  # actual 121.27 vs quoted 120
    assert not by_cell[97, 11].log2_ok  # actual 231.56 vs quoted 231
    assert not by_cell[29, 37].log2_ok  # actual 167.81 vs quoted 167
    assert [c.passed for c in checks].count(True) == 3


def test_reference_primes_match_sympy():
    for ref in REFERENCE_PRIMES:
        assert sympy.isprime(ref.p)
        assert ((1 << index_calculus_bits(ref.n, ref.d)) - 1) % ref.p == 0
