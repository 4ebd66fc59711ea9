"""Dynamics tests: successor tables, orbit structure, and the three counts,
checked against naive repeated-multiplication oracles and closed forms."""

from dataclasses import asdict, astuple
from itertools import permutations
from math import gcd

import pytest
from polyoracle import elements, naive_add, naive_mul
from residueoracle import degree, residue_counts
from scanoracle import COUNTS

from perimod.claims import verify_all
from perimod.cli import main
from perimod.dynamics import (
    CountReport,
    DegreeBase,
    DegreeSpec,
    Interpretation,
    PowerMapSpec,
    count_report,
    counting_function,
    orbit_decomposition,
    residue_count_table,
    _count_table,
    _power_table,
    _successor_table,
)
from perimod.errors import DomainError, ResourceError, UsageError
from perimod.rings import FpPoly, RingSpec, enumerate_monic_irreducibles, primes_in_range

P = DegreeBase.P
PM1 = DegreeBase.P_MINUS_1
ROOTS = Interpretation.ROOTS_LE2
FIXED = Interpretation.FIXED
EXACT2 = Interpretation.EXACT2


def zp(p):
    return RingSpec(p)


def fq(p, coeffs):
    return RingSpec(p, FpPoly.make(p, coeffs))


def naive_apply(map_spec, z):
    """z^d + c by literal repeated multiplication with d = base^ell expanded."""
    d = map_spec.degree.base_value(map_spec.ring.p) ** map_spec.degree.ell
    ring, acc = map_spec.ring, 1
    for _ in range(d):
        acc = naive_mul(ring, acc, z)
    return naive_add(ring, acc, map_spec.c)


def successor(map_spec):
    """The map's successor table, as every count and orbit reads it."""
    return _successor_table(map_spec, _power_table(map_spec))


def brute_counts(map_spec):
    """(fixed, le2, exact2) via naive_apply only."""
    fixed = le2 = exact2 = 0
    for z in elements(map_spec.ring):
        fz = naive_apply(map_spec, z)
        ffz = naive_apply(map_spec, fz)
        if fz == z:
            fixed += 1
        if ffz == z:
            le2 += 1
            if fz != z:
                exact2 += 1
    return fixed, le2, exact2


# ---------------------------------------------------------------------------
# degree and map construction


def test_degree_spec_validation():
    with pytest.raises(DomainError):
        DegreeSpec(P, 0)
    ring = zp(3)
    message = r"^family \(p-1\)\^1 needs p >= 5, got p = 3$"
    with pytest.raises(DomainError, match=message):
        PowerMapSpec(ring, DegreeSpec(PM1, 1), ring.element(0))
    with pytest.raises(DomainError, match=message):
        residue_count_table(3, DegreeSpec(PM1, 1), ROOTS)


def test_map_rejects_a_coefficient_outside_the_ring():
    # c is an index 0 <= c < q; anything else, a polynomial included, is refused
    for ring, bad in (
        (zp(5), (-1, 5, 6, 2.0, "1", FpPoly.make(5, [2]))),
        (zp(7), (-1, 7, 8, "1")),
        (fq(3, [1, 0, 1]), (-1, 9, 10, "1", FpPoly(3, (0, 1)))),
        (fq(3, [1, 2, 0, 1]), (-1, 27, 28, "1")),
    ):
        for c in bad:
            with pytest.raises(UsageError, match="out of range for"):
                PowerMapSpec(ring, DegreeSpec(P, 1), c)
        assert PowerMapSpec(ring, DegreeSpec(P, 1), ring.cardinality_q - 1).c == ring.cardinality_q - 1


# ---------------------------------------------------------------------------
# successor tables


def test_successor_table_examples():
    z5 = zp(5)
    m = PowerMapSpec(z5, DegreeSpec(PM1, 1), z5.element(4))
    assert successor(m)[4] == 0  # 256 + 4 = 0 mod 5
    z3 = zp(3)
    m = PowerMapSpec(z3, DegreeSpec(P, 1), z3.element(0))
    assert successor(m)[2] == 2
    f9 = fq(3, [1, 0, 1])
    m = PowerMapSpec(f9, DegreeSpec(P, 1), f9.element(0))
    t = f9.element(FpPoly(3, (0, 1)))
    assert f9.render(successor(m)[t]) == "0,2"  # t^3 = -t = 2t


def test_successor_table_matches_naive_repeated_multiplication():
    cases = []
    for p in (3, 5, 7):
        for ell in (1, 2, 3):
            cases.append((zp(p), DegreeSpec(P, ell)))
    for ell in (1, 2):
        cases.append((zp(5), DegreeSpec(PM1, ell)))
        cases.append((zp(7), DegreeSpec(PM1, ell)))
    cases.append((fq(3, [1, 0, 1]), DegreeSpec(P, 2)))
    cases.append((fq(3, [1, 0, 1]), DegreeSpec(P, 3)))
    cases.append((fq(3, [1, 2, 0, 1]), DegreeSpec(P, 1)))
    cases.append((fq(5, [2, 0, 1]), DegreeSpec(PM1, 1)))
    cases.append((fq(5, [2, 0, 1]), DegreeSpec(PM1, 3)))
    for ring, degree in cases:
        elems = elements(ring)
        for c in elems[:: max(1, len(elems) // 6)]:
            m = PowerMapSpec(ring, degree, c)
            assert successor(m) == [naive_apply(m, z) for z in elems]


# ---------------------------------------------------------------------------
# orbit decomposition


def test_orbit_examples():
    z5 = zp(5)
    od = orbit_decomposition(PowerMapSpec(z5, DegreeSpec(PM1, 1), z5.element(4)))
    assert od.cycles == ((2, 0),)
    assert od.tail_node_count == 3

    z3 = zp(3)
    od = orbit_decomposition(PowerMapSpec(z3, DegreeSpec(P, 1), z3.element(0)))
    assert od.cycles == ((1, 0), (1, 1), (1, 2))
    assert od.tail_node_count == 0

    f9 = fq(3, [1, 0, 1])
    od = orbit_decomposition(PowerMapSpec(f9, DegreeSpec(P, 1), f9.element(0)))
    lengths = sorted(length for length, _ in od.cycles)
    assert lengths == [1, 1, 1, 2, 2, 2]
    assert od.tail_node_count == 0


def test_orbit_cycle_representatives_lie_on_cycles():
    for ring, degree, c in [
        (zp(7), DegreeSpec(PM1, 2), 3),
        (zp(11), DegreeSpec(P, 2), 5),
        (fq(3, [1, 0, 1]), DegreeSpec(P, 1), 4),
    ]:
        m = PowerMapSpec(ring, degree, ring.element(c))
        od = orbit_decomposition(m)
        total = 0
        for length, rep in od.cycles:
            total += length
            orbit = [rep]
            for _ in range(length):
                orbit.append(naive_apply(m, orbit[-1]))
            assert orbit[-1] == rep and rep not in orbit[1:-1]
        assert total + od.tail_node_count == ring.cardinality_q


# ---------------------------------------------------------------------------
# counts


def test_count_examples():
    z3 = zp(3)
    z5 = zp(5)
    m_id = PowerMapSpec(z3, DegreeSpec(P, 1), z3.element(0))
    m1 = PowerMapSpec(z5, DegreeSpec(PM1, 1), z5.element(1))
    m4 = PowerMapSpec(z5, DegreeSpec(PM1, 1), z5.element(4))
    f9 = fq(3, [1, 0, 1])
    m_frob = PowerMapSpec(f9, DegreeSpec(P, 1), f9.element(0))

    assert count_report(m_id) == CountReport(fixed=3, period_le2_roots=3, exact2=0)
    assert count_report(m1) == CountReport(fixed=1, period_le2_roots=1, exact2=0)
    # roots {0, 4}; claimed value would be 1
    assert count_report(m4) == CountReport(fixed=0, period_le2_roots=2, exact2=2)
    assert count_report(m_frob).exact2 == 6


def test_counting_function_dispatch():
    z3 = zp(3)
    z5 = zp(5)
    assert counting_function(DegreeSpec(P, 1), ROOTS, z3, z3.element(1)) == 0
    assert counting_function(DegreeSpec(PM1, 1), ROOTS, z5, z5.element(0)) == 2
    assert counting_function(DegreeSpec(P, 1), EXACT2, z3, z3.element(0)) == 0
    assert counting_function(DegreeSpec(P, 1), ROOTS, z3, z3.element(0)) == 3


def test_count_report_agrees_with_counting_function_by_name():
    # count_report fills CountReport positionally in Interpretation order, so
    # reordering either the enum or the fields must fail here
    for p in (3, 5, 7):
        quotients = [
            RingSpec(p, pi) for m in (1, 2) for pi in enumerate_monic_irreducibles(p, m)
        ]
        for ring in [zp(p), *quotients]:
            for base in (P, PM1):
                if p < base.min_prime:
                    continue
                for ell in (1, 2):
                    family = DegreeSpec(base, ell)
                    for c in elements(ring):
                        expected = {
                            "fixed": counting_function(family, FIXED, ring, c),
                            "period_le2_roots": counting_function(family, ROOTS, ring, c),
                            "exact2": counting_function(family, EXACT2, ring, c),
                        }
                        assert asdict(count_report(PowerMapSpec(ring, family, c))) == expected


def test_count_table_agrees_with_scan_in_every_call_order():
    # the first request for a map fills both of its slots, whatever it asks
    # for; each map takes one of the 24 orders of the three interpretations
    # and count_report (None), so a slot that only one first request fills
    # correctly fails here.  permutations lists the orders in four blocks
    # of six by first request, and (c + ell) % 4 picks the block, so the
    # maps of every prime field, Z/3 included, start with each request.  Every quotient field of degree <= 3, except
    # that F_5 and F_7 each get two of their 40 and 112 cubic fields: all of
    # them take about 90 s on a 2-vCPU host.
    orders = list(permutations([*Interpretation, None]))
    _count_table.cache_clear()
    for p in (3, 5, 7):
        quotients = [
            RingSpec(p, pi)
            for m in (1, 2, 3)
            for pi in enumerate_monic_irreducibles(p, m)[: 2 if p**m > 100 else None]
        ]
        for ring in [zp(p), *quotients]:
            for base in (P, PM1):
                if p < base.min_prime:
                    continue
                for ell in (1, 2, 3):
                    family = DegreeSpec(base, ell)
                    for c in elements(ring):
                        spec = PowerMapSpec(ring, family, c)
                        succ = _successor_table(spec, _power_table(spec))
                        expected = {i: COUNTS[i.value](succ) for i in Interpretation}
                        for interp in orders[6 * ((c + ell) % 4) + c % 6]:
                            if interp is None:
                                computed = astuple(count_report(spec))
                                assert computed == tuple(expected.values()), (ring.describe(), family, c)
                            else:
                                assert counting_function(family, interp, ring, c) == expected[interp], (
                                    ring.describe(), family, c, interp
                                )


# unwrapped, so a test can build its oracle's successor table unseen by the
# scans fixture
translation_table = RingSpec.translation_table


@pytest.fixture
def scans(monkeypatch):
    """The (ring, c) of every successor table built from here on, with the
    count tables cleared: RingSpec.translation_table is called once per
    scan, by _successor_table."""
    seen = []

    def counted(ring, c):
        seen.append((ring, c))
        return translation_table(ring, c)

    monkeypatch.setattr(RingSpec, "translation_table", counted)
    _count_table.cache_clear()
    return seen


def test_count_report_builds_one_successor_table(scans):
    # count_report fills the map's count slots from one successor table;
    # a second report, or any counting_function, on the same map reads them
    ring = fq(3, [1, 0, 1])
    family = DegreeSpec(P, 2)
    c = ring.element(FpPoly(3, (0, 1)))
    report = count_report(PowerMapSpec(ring, family, c))
    assert len(scans) == 1
    scans.clear()
    assert count_report(PowerMapSpec(ring, family, c)) == report
    assert [counting_function(family, i, ring, c) for i in Interpretation] == list(astuple(report))
    assert scans == []


def test_verify_scans_each_map_once(scans):
    # 14352 cells per default pass cover 8756 maps, but only 887 up to an
    # isomorphism between fields of one order that fixes F_p (the constant-c
    # maps of every field of order p^m share their counts); the cold pass
    # scans each of those once and the warm passes scan none
    cells = []
    for interp in (ROOTS, EXACT2, FIXED):
        scans.clear()
        cells.append(len(verify_all(13, 2, 2, interp).cells))
        assert len(scans) == (887 if interp is ROOTS else 0)
    assert cells == [14352] * 3


def test_constant_coefficients_are_scanned_once_per_field_order(scans):
    # F_p[t]/(pi) is F_{p^m} for every pi of degree m, by an isomorphism that
    # fixes F_p, and Z/p is F_p[t]/(t): so a constant c is scanned once per
    # (p, m, e, c), whichever field of order p^m asks first, while c = t is
    # scanned in every field.  The fields of each order are visited in
    # reverse enumeration order; F_5 and F_7 keep two of their cubic fields,
    # as in the call-order test.
    requested, scanned, t_fields = set(), [], set()
    for p in (3, 5, 7):
        for m in (1, 2, 3):
            pis = enumerate_monic_irreducibles(p, m)[-2 if p**m > 100 else 0 :]
            fields = [RingSpec(p, pi) for pi in pis]
            for ring in reversed([zp(p), *fields] if m == 1 else fields):
                cs = [ring.element(c) for c in range(p)]
                if m >= 2:
                    cs.append(ring.element(FpPoly(p, (0, 1))))
                    t_fields.add(ring)
                for base in (P, PM1):
                    if p < base.min_prime:
                        continue
                    for ell in (1, 2, 3):
                        for c in cs:
                            spec = PowerMapSpec(ring, DegreeSpec(base, ell), c)
                            addc = translation_table(ring, c)
                            succ = [addc[w] for w in _power_table(spec)]
                            key = ((p, m) if c < p else ring, spec.exponent, c)
                            before = len(scans)
                            report = astuple(count_report(spec))
                            assert report == tuple(COUNTS[i.value](succ) for i in Interpretation), (
                                ring.describe(), spec.degree, c
                            )
                            requested.add(key)
                            scanned += [key] * (len(scans) - before)
    assert len(scanned) == len(set(scanned)) and set(scanned) == requested
    assert {owner for owner, _, _ in scanned if isinstance(owner, RingSpec)} == t_fields


def test_counts_match_naive_oracle_everywhere():
    cases = [
        (zp(5), DegreeSpec(PM1, 1)),
        (zp(5), DegreeSpec(PM1, 2)),
        (zp(7), DegreeSpec(P, 2)),
        (fq(3, [1, 0, 1]), DegreeSpec(P, 1)),
        (fq(3, [1, 0, 1]), DegreeSpec(P, 2)),
        (fq(5, [2, 0, 1]), DegreeSpec(PM1, 1)),
    ]
    for ring, degree in cases:
        for c in elements(ring):
            m = PowerMapSpec(ring, degree, c)
            assert astuple(count_report(m)) == brute_counts(m)


def test_conservation_parity_and_orbit_consistency():
    for ring, degree in [
        (zp(5), DegreeSpec(PM1, 1)),
        (zp(7), DegreeSpec(PM1, 3)),
        (zp(11), DegreeSpec(P, 2)),
        (fq(3, [1, 0, 1]), DegreeSpec(P, 1)),
        (fq(3, [2, 2, 1]), DegreeSpec(P, 2)),
    ]:
        for c in elements(ring):
            m = PowerMapSpec(ring, degree, c)
            report = count_report(m)
            assert report.period_le2_roots == report.fixed + report.exact2
            assert report.exact2 % 2 == 0
            od = orbit_decomposition(m)
            assert report.fixed == sum(1 for length, _ in od.cycles if length == 1)
            assert report.exact2 == 2 * sum(1 for length, _ in od.cycles if length == 2)
            assert sum(length for length, _ in od.cycles) + od.tail_node_count == ring.cardinality_q


def test_frobenius_closed_forms():
    for p in (3, 5):
        for ell in (1, 2):
            for m in (1, 2, 3):
                for pi in enumerate_monic_irreducibles(p, m):
                    ring = RingSpec(p, pi)
                    spec = PowerMapSpec(ring, DegreeSpec(P, ell), 0)
                    fixed, le2 = p ** gcd(ell, m), p ** gcd(2 * ell, m)
                    assert count_report(spec) == CountReport(fixed, le2, le2 - fixed)


def test_units_closed_forms():
    for p in (5, 7, 11, 13):
        ring = zp(p)
        for ell in (1, 2, 3):
            degree = DegreeSpec(PM1, ell)
            for c in range(p):
                le2 = counting_function(degree, ROOTS, ring, ring.element(c))
                exact2 = counting_function(degree, EXACT2, ring, ring.element(c))
                assert le2 == (2 if c in (0, p - 1) else 1)
                assert exact2 == (2 if c == p - 1 else 0)


def test_identity_degeneration():
    for p in (3, 5, 7, 11, 13):
        ring = zp(p)
        for ell in (1, 2, 5):
            od = orbit_decomposition(PowerMapSpec(ring, DegreeSpec(P, ell), 0))
            assert [length for length, _ in od.cycles] == [1] * p
            assert od.tail_node_count == 0


def test_budget_guard(monkeypatch):
    ring = zp(11)
    m = PowerMapSpec(ring, DegreeSpec(P, 1), 0)
    monkeypatch.setenv("PERIMOD_BUDGET", "10")
    with pytest.raises(ResourceError):
        count_report(m)


def test_budget_guard_refuses_a_cached_count(monkeypatch):
    ring = zp(11)
    family = DegreeSpec(P, 1)
    assert counting_function(family, ROOTS, ring, 0) == 11
    monkeypatch.setenv("PERIMOD_BUDGET", "10")
    for interp in Interpretation:
        with pytest.raises(ResourceError):
            counting_function(family, interp, ring, 0)


def test_refused_scan_keeps_its_message(monkeypatch, capsys, tmp_path):
    # the message is formatted only on refusal, with the same text as ever;
    # a malformed budget is still a usage error once the counts are cached
    ring = RingSpec(13, FpPoly.make(13, [2, 0, 1]))
    family = DegreeSpec(P, 1)
    message = "scanning F_13[t]/(2,0,1) needs 169 elements, budget is 10"
    verify = ["verify", "--p-max", "13", "--m-max", "2", "--ell-max", "1", "--interpretation", "roots",
              "--output", str(tmp_path / "verify.csv")]
    count = ["count", "--ring", "fpt", "--p", "13", "--pi", "2,0,1", "--family", "p", "--c", "0"]
    assert main(verify) == 0
    assert counting_function(family, ROOTS, ring, 0) == 169  # z^13 is the Frobenius of F_169
    monkeypatch.setenv("PERIMOD_BUDGET", "10")
    with pytest.raises(ResourceError) as err:
        counting_function(family, ROOTS, ring, 0)
    assert str(err.value) == message
    capsys.readouterr()
    assert main(count) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    monkeypatch.setenv("PERIMOD_BUDGET", "ten")
    for argv in (verify, count):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: PERIMOD_BUDGET must be an integer, got 'ten'\n"


# ---------------------------------------------------------------------------
# residue profiles (the stats fast path) against the per-map scans and the
# residue-by-residue bucket oracle


def test_residue_count_table_matches_scans():
    for p in (3, 5, 7, 11, 13):
        ring = zp(p)
        for base in (P, PM1):
            if base is PM1 and p < 5:
                continue
            for ell in (1, 2, 3):
                family = DegreeSpec(base, ell)
                for interp in (FIXED, ROOTS, EXACT2):
                    table = residue_count_table(p, family, interp)
                    assert len(table) == p
                    for c in range(p):
                        assert table[c] == counting_function(family, interp, ring, ring.element(c))


def test_residue_profile_matches_bucket_oracle():
    for p in primes_in_range(3, 300):
        for base in (P, PM1):
            if p < base.min_prime:
                continue
            for ell in (1, 2, 3):
                family = DegreeSpec(base, ell)
                assert family.reduced_exponent_for(p, p) in (1, p - 1)
                expected = residue_counts(p, degree(base.value, ell, p))
                for interp in (FIXED, ROOTS, EXACT2):
                    profile = residue_count_table(p, family, interp)
                    assert list(profile) == list(expected[interp.value]), (p, family, interp)


def test_residue_profile_indexes_residues_only():
    profile = residue_count_table(7, DegreeSpec(PM1, 1), ROOTS)
    assert (profile[0], profile[3], profile[6]) == (profile.at_zero, profile.generic, profile.at_minus_one)
    for r in (-1, 7):
        with pytest.raises(IndexError):
            profile[r]


def test_residue_count_table_rejects_bad_modulus():
    with pytest.raises(UsageError):
        residue_count_table(4, DegreeSpec(P, 1), ROOTS)
    with pytest.raises(DomainError):
        residue_count_table(3, DegreeSpec(PM1, 1), ROOTS)
