"""Dynamics tests: successor tables, orbit structure, and the three counts,
checked against naive repeated-multiplication oracles and closed forms."""

from dataclasses import asdict, astuple
from itertools import permutations
from math import gcd

import pytest
from polyoracle import elements, naive_add, naive_mul
from residueoracle import degree, residue_counts
from scanoracle import COUNTS

from perimod import claims, dynamics
from perimod.claims import verify_all
from perimod.cli import main
from perimod.dynamics import (
    CountReport,
    DegreeBase,
    DegreeSpec,
    Interpretation,
    count_report,
    counting_function,
    orbit_decomposition,
    residue_count_table,
    _count_table,
)
from perimod.errors import DomainError, ResourceError, UsageError
from perimod.rings import RingSpec, enumerate_monic_irreducibles, pow_index_table, primes_in_range
from perimod.stats import AvgCondition, PredicateKind, density, partial_average

P = DegreeBase.P
PM1 = DegreeBase.P_MINUS_1
ROOTS = Interpretation.ROOTS_LE2
FIXED = Interpretation.FIXED
EXACT2 = Interpretation.EXACT2


def zp(p):
    return RingSpec(p)


def fq(p, coeffs):
    return RingSpec(p, tuple(coeffs))


def naive_apply(family, ring, c, z):
    """z^d + c by literal repeated multiplication with d = base^ell expanded."""
    acc = 1
    for _ in range(degree(family.base.value, family.ell, ring.p)):
        acc = naive_mul(ring, acc, z)
    return naive_add(ring, acc, c)


# unwrapped, so a test can build its oracle's successor table unseen by the
# scans fixture
translation_table = RingSpec.translation_table


def successor(family, ring, c):
    """The map's successor table, as every count and orbit reads it: its
    power table, then the translation by c."""
    addc = translation_table(ring, c)
    return [addc[w] for w in pow_index_table(ring, family.exponent(ring.p, ring.cardinality_q))]


def brute_counts(family, ring, c):
    """(fixed, le2, exact2) via naive_apply only."""
    fixed = le2 = exact2 = 0
    for z in elements(ring):
        fz = naive_apply(family, ring, c, z)
        ffz = naive_apply(family, ring, c, fz)
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
    with pytest.raises(DomainError, match=r"^ell must be >= 1, got 0$"):
        DegreeSpec(P, 0)
    with pytest.raises(DomainError, match=r"^family \(p-1\)\^1 needs p >= 5, got p = 3$"):
        residue_count_table(3, DegreeSpec(PM1, 1), ROOTS)


def test_degree_spec_refuses_a_base_or_ell_of_the_wrong_type():
    # refused when built, not by a TypeError or AttributeError at the first count
    for base, ell, message in (
        ("p", 1, "base must be a DegreeBase, got 'p'"),
        (None, 1, "base must be a DegreeBase, got None"),
        (P, 2.0, "ell must be an int, got 2.0"),
        (PM1, "1", "ell must be an int, got '1'"),
        (P, True, "ell must be an int, got True"),
    ):
        with pytest.raises(UsageError) as err:
            DegreeSpec(base, ell)
        assert str(err.value) == message


def assert_refused_alike(family, ring, c, warm, error, message):
    """counting_function in every interpretation, count_report and
    orbit_decomposition each raise error, with exactly message, for the map
    (family, ring, c), each right after its own valid calls on the maps in
    warm."""
    entry_points = [lambda f, r, c, i=i: counting_function(f, i, r, c) for i in Interpretation]
    for entry_point in (*entry_points, count_report, orbit_decomposition):
        for ok in warm:
            entry_point(*ok)
        with pytest.raises(error) as err:
            entry_point(family, ring, c)
        assert type(err.value) is error and str(err.value) == message


def test_entry_points_refuse_a_map_alike():
    # the three entry points share one check, and a warm call on the same
    # ring and family skips none of it: c is an index 0 <= c < q, and a
    # polynomial or a bool is refused
    for ring, bad in (
        (zp(5), (-1, 5, 6, 2.0, "1", True, False, (2,))),
        (zp(7), (-1, 7, 8, 2.0, "1", True, False, (2,))),
        (fq(3, [1, 0, 1]), (-1, 9, 10, 2.0, "1", True, False, (0, 1))),
        (fq(3, [1, 2, 0, 1]), (-1, 27, 28, 2.0, "1", True, False, (0, 1))),
    ):
        for family in (DegreeSpec(P, 1), DegreeSpec(PM1, 2)):
            if ring.p < family.min_prime:
                continue
            warm = [(family, ring, 0), (family, ring, ring.cardinality_q - 1)]
            for c in bad:
                message = f"index {c!r} out of range for {ring.describe()}"
                assert_refused_alike(family, ring, c, warm, UsageError, message)
    # (p-1)^1 has no valid call on Z/3: warm Z/3 under p^1 and (p-1)^1 on Z/5
    z3, unit = zp(3), DegreeSpec(PM1, 1)
    message = "family (p-1)^1 needs p >= 5, got p = 3"
    assert_refused_alike(unit, z3, 0, [(DegreeSpec(P, 1), z3, 0), (unit, zp(5), 0)], DomainError, message)


# ---------------------------------------------------------------------------
# successor tables


def test_successor_table_examples():
    z5 = zp(5)
    assert successor(DegreeSpec(PM1, 1), z5, z5.element(4))[4] == 0  # 256 + 4 = 0 mod 5
    z3 = zp(3)
    assert successor(DegreeSpec(P, 1), z3, z3.element(0))[2] == 2
    f9 = fq(3, [1, 0, 1])
    t = f9.element((0, 1))
    assert f9.render(successor(DegreeSpec(P, 1), f9, f9.element(0))[t]) == "0,2"  # t^3 = -t = 2t


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
            m = (degree, ring, c)
            assert successor(*m) == [naive_apply(*m, z) for z in elems]


# ---------------------------------------------------------------------------
# orbit decomposition


def test_orbit_examples():
    z5 = zp(5)
    od = orbit_decomposition(DegreeSpec(PM1, 1), z5, z5.element(4))
    assert od.cycles == ((2, 0),)
    assert od.tail_node_count == 3

    z3 = zp(3)
    od = orbit_decomposition(DegreeSpec(P, 1), z3, z3.element(0))
    assert od.cycles == ((1, 0), (1, 1), (1, 2))
    assert od.tail_node_count == 0

    f9 = fq(3, [1, 0, 1])
    od = orbit_decomposition(DegreeSpec(P, 1), f9, f9.element(0))
    lengths = sorted(length for length, _ in od.cycles)
    assert lengths == [1, 1, 1, 2, 2, 2]
    assert od.tail_node_count == 0


def test_orbit_cycle_representatives_lie_on_cycles():
    for ring, degree, c in [
        (zp(7), DegreeSpec(PM1, 2), 3),
        (zp(11), DegreeSpec(P, 2), 5),
        (fq(3, [1, 0, 1]), DegreeSpec(P, 1), 4),
    ]:
        m = (degree, ring, ring.element(c))
        od = orbit_decomposition(*m)
        total = 0
        for length, rep in od.cycles:
            total += length
            orbit = [rep]
            for _ in range(length):
                orbit.append(naive_apply(*m, orbit[-1]))
            assert orbit[-1] == rep and rep not in orbit[1:-1]
        assert total + od.tail_node_count == ring.cardinality_q


# ---------------------------------------------------------------------------
# counts


def test_count_examples():
    z3 = zp(3)
    z5 = zp(5)
    m_id = (DegreeSpec(P, 1), z3, z3.element(0))
    m1 = (DegreeSpec(PM1, 1), z5, z5.element(1))
    m4 = (DegreeSpec(PM1, 1), z5, z5.element(4))
    f9 = fq(3, [1, 0, 1])
    m_frob = (DegreeSpec(P, 1), f9, f9.element(0))

    assert count_report(*m_id) == CountReport(fixed=3, period_le2_roots=3, exact2=0)
    assert count_report(*m1) == CountReport(fixed=1, period_le2_roots=1, exact2=0)
    # roots {0, 4}; claimed value would be 1
    assert count_report(*m4) == CountReport(fixed=0, period_le2_roots=2, exact2=2)
    assert count_report(*m_frob).exact2 == 6


def test_counting_function_dispatch():
    z3 = zp(3)
    z5 = zp(5)
    assert counting_function(DegreeSpec(P, 1), ROOTS, z3, z3.element(1)) == 0
    assert counting_function(DegreeSpec(PM1, 1), ROOTS, z5, z5.element(0)) == 2
    assert counting_function(DegreeSpec(P, 1), EXACT2, z3, z3.element(0)) == 0
    assert counting_function(DegreeSpec(P, 1), ROOTS, z3, z3.element(0)) == 3


def test_only_an_interpretation_names_a_count():
    # a member's value, or None, is not an Interpretation: every count refuses
    # it, a cold and a warm count_table alike, rather than reading it as exact2
    ring, family = zp(5), DegreeSpec(P, 1)
    for bad in ("roots", "exact2", None):
        _count_table.cache_clear()
        for call in (
            lambda: counting_function(family, bad, ring, 0),  # cold
            lambda: counting_function(family, bad, ring, 0),  # warm
            lambda: residue_count_table(5, family, bad),
            lambda: partial_average(family, AvgCondition.P_DIVIDES_C, bad, (105,)),
            lambda: density(family, PredicateKind.COUNT_EQUALS, bad, 20, 3),
        ):
            with pytest.raises(UsageError) as err:
                call()
            assert str(err.value) == f"interpretation must be an Interpretation, got {bad!r}"
    assert counting_function(family, ROOTS, ring, 0) == 5
    assert partial_average(family, AvgCondition.P_DIVIDES_C, ROOTS, (105,)).points[-1].ratio == 5


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
                        assert asdict(count_report(family, ring, c)) == expected


def test_count_table_agrees_with_scan_in_every_call_order():
    # the first request for a map stores both of its counts, whatever it asks
    # for; each map takes one of the 24 orders of the three interpretations
    # and count_report (None), so a count that only one first request stores
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
                        succ = successor(family, ring, c)
                        expected = {i: COUNTS[i.value](succ) for i in Interpretation}
                        for interp in orders[6 * ((c + ell) % 4) + c % 6]:
                            if interp is None:
                                computed = astuple(count_report(family, ring, c))
                                assert computed == tuple(expected.values()), (ring.describe(), family, c)
                            else:
                                assert counting_function(family, interp, ring, c) == expected[interp], (
                                    ring.describe(), family, c, interp
                                )


@pytest.fixture
def scans(monkeypatch):
    """The (ring, c) of every successor table built from here on, with the
    count tables cleared: RingSpec.translation_table is called once per
    scan, by _count."""
    seen = []

    def counted(ring, c):
        seen.append((ring, c))
        return translation_table(ring, c)

    monkeypatch.setattr(RingSpec, "translation_table", counted)
    _count_table.cache_clear()
    return seen


def test_count_report_builds_one_successor_table(scans):
    # count_report stores the map's counts from one successor table;
    # a second report, or any counting_function, on the same map reads them
    ring = fq(3, [1, 0, 1])
    family = DegreeSpec(P, 2)
    c = ring.element((0, 1))
    report = count_report(family, ring, c)
    assert len(scans) == 1
    scans.clear()
    assert count_report(family, ring, c) == report
    assert [counting_function(family, i, ring, c) for i in Interpretation] == list(astuple(report))
    assert scans == []


def test_verify_scans_each_map_once(scans, monkeypatch):
    # 14352 cells per default pass cover 8756 maps, but only 887 up to an
    # isomorphism between fields of one order that fixes F_p (the constant-c
    # maps of every field of order p^m share their counts); the cold pass
    # scans each of those once and the warm passes scan none.  Cold or warm,
    # each cell is one counting_function call and one power-table lookup,
    # the calls perfbench/reference.json pins (43056 over three passes).
    calls = {"counting_function": 0, "pow_index_table": 0}

    def count_calls(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count_calls(claims, "counting_function")
    count_calls(dynamics, "pow_index_table")
    cells = []
    for interp in (ROOTS, EXACT2, FIXED):
        scans.clear()
        calls.update(dict.fromkeys(calls, 0))
        cells.append(len(verify_all(13, 2, 2, interp).cells))
        assert len(scans) == (887 if interp is ROOTS else 0)
        assert calls == {"counting_function": 14352, "pow_index_table": 14352}, interp
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
                    cs.append(ring.element((0, 1)))
                    t_fields.add(ring)
                for base in (P, PM1):
                    if p < base.min_prime:
                        continue
                    for ell in (1, 2, 3):
                        family = DegreeSpec(base, ell)
                        for c in cs:
                            succ = successor(family, ring, c)
                            key = ((p, m) if c < p else ring, family.exponent(p, ring.cardinality_q), c)
                            before = len(scans)
                            report = astuple(count_report(family, ring, c))
                            assert report == tuple(COUNTS[i.value](succ) for i in Interpretation), (
                                ring.describe(), family, c
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
            m = (degree, ring, c)
            assert astuple(count_report(*m)) == brute_counts(*m)


def test_conservation_parity_and_orbit_consistency():
    for ring, degree in [
        (zp(5), DegreeSpec(PM1, 1)),
        (zp(7), DegreeSpec(PM1, 3)),
        (zp(11), DegreeSpec(P, 2)),
        (fq(3, [1, 0, 1]), DegreeSpec(P, 1)),
        (fq(3, [2, 2, 1]), DegreeSpec(P, 2)),
    ]:
        for c in elements(ring):
            m = (degree, ring, c)
            report = count_report(*m)
            assert report.period_le2_roots == report.fixed + report.exact2
            assert report.exact2 % 2 == 0
            od = orbit_decomposition(*m)
            assert report.fixed == sum(1 for length, _ in od.cycles if length == 1)
            assert report.exact2 == 2 * sum(1 for length, _ in od.cycles if length == 2)
            assert sum(length for length, _ in od.cycles) + od.tail_node_count == ring.cardinality_q


def test_frobenius_closed_forms():
    for p in (3, 5):
        for ell in (1, 2):
            for m in (1, 2, 3):
                for pi in enumerate_monic_irreducibles(p, m):
                    ring = RingSpec(p, pi)
                    fixed, le2 = p ** gcd(ell, m), p ** gcd(2 * ell, m)
                    assert count_report(DegreeSpec(P, ell), ring, 0) == CountReport(fixed, le2, le2 - fixed)


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
            od = orbit_decomposition(DegreeSpec(P, ell), ring, 0)
            assert [length for length, _ in od.cycles] == [1] * p
            assert od.tail_node_count == 0


def test_budget_guard(monkeypatch):
    ring = zp(11)
    monkeypatch.setenv("PERIMOD_BUDGET", "10")
    with pytest.raises(ResourceError):
        count_report(DegreeSpec(P, 1), ring, 0)


def test_budget_guard_refuses_a_cached_count(monkeypatch):
    ring = zp(11)
    family = DegreeSpec(P, 1)
    assert counting_function(family, ROOTS, ring, 0) == 11
    monkeypatch.setenv("PERIMOD_BUDGET", "10")
    for interp in Interpretation:
        with pytest.raises(ResourceError):
            counting_function(family, interp, ring, 0)
    monkeypatch.delenv("PERIMOD_BUDGET")
    # every call reads the budget: it refuses a cached constant c on Z/11, a
    # cached non-constant c in F_9's own table (9 elements pass a budget of
    # 10, so 8 refuses them) and a cached count_report, and each call
    # counts again once the budget is restored
    f9 = fq(3, [1, 0, 1])
    t = f9.element((0, 1))
    for ring, family, c, budget, message in (
        (ring, family, 0, "10", "scanning Z/11 needs 11 elements, budget is 10"),
        (f9, DegreeSpec(P, 2), t, "8", "scanning F_3[t]/(1,0,1) needs 9 elements, budget is 8"),
    ):
        report = count_report(family, ring, c)
        assert [counting_function(family, i, ring, c) for i in Interpretation] == list(astuple(report))
        monkeypatch.setenv("PERIMOD_BUDGET", budget)
        for interp in Interpretation:
            with pytest.raises(ResourceError) as err:
                counting_function(family, interp, ring, c)
            assert str(err.value) == message
        with pytest.raises(ResourceError) as err:
            count_report(family, ring, c)
        assert str(err.value) == message
        monkeypatch.delenv("PERIMOD_BUDGET")
        assert [counting_function(family, i, ring, c) for i in Interpretation] == list(astuple(report))
        assert count_report(family, ring, c) == report


def test_refused_scan_keeps_its_message(monkeypatch, capsys, tmp_path):
    # the message is formatted only on refusal, with the same text as ever;
    # a malformed budget is still a usage error once the counts are cached
    ring = RingSpec(13, (2, 0, 1))
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
                    assert type(table) is tuple and len(table) == 3
                    for c in range(p):
                        r = 0 if c == 0 else -1 if c == p - 1 else 1
                        assert table[r] == counting_function(family, interp, ring, ring.element(c))


def test_residue_profile_matches_bucket_oracle():
    # every small prime, and primes as large as the stats workload's
    for p in [*primes_in_range(3, 300), 4999, 5003, 9967, 9973]:
        for base in (P, PM1):
            if p < base.min_prime:
                continue
            for ell in range(1, 6):
                family = DegreeSpec(base, ell)
                assert family.exponent(p, p) in (1, p - 1)
                expected = residue_counts(p, degree(base.value, ell, p))
                for interp in (FIXED, ROOTS, EXACT2):
                    profile = residue_count_table(p, family, interp)
                    got = [profile[0], *[profile[1]] * (p - 2), profile[-1]]
                    assert got == list(expected[interp.value]), (p, family, interp)


def test_residue_count_table_rejects_bad_modulus():
    with pytest.raises(UsageError):
        residue_count_table(4, DegreeSpec(P, 1), ROOTS)
    with pytest.raises(DomainError):
        residue_count_table(3, DegreeSpec(PM1, 1), ROOTS)
