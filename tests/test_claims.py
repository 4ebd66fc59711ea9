"""Claim catalog and verifier tests."""

import csv
import hashlib
import io
import json

import pytest

from perimod import claims
from perimod.claims import (
    CSV_HEADER,
    ClaimRecord,
    CoeffClass,
    EllDomain,
    Prediction,
    ReportFormat,
    VerificationReport,
    claim_catalog,
    render_report,
    verify_all,
)
from perimod.dynamics import DegreeBase, Interpretation, counting_function
from perimod.errors import DomainError, ResourceError, UsageError
from perimod.rings import RingKind, RingSpec

ROOTS = Interpretation.ROOTS_LE2
EXACT2 = Interpretation.EXACT2


def catalog_index():
    return {record.id: record for record in claim_catalog()}


def claim_cells(report, claim_id, **narrow):
    """The report's cells of one claim, narrowed to the given field values
    (p=5, m=2, ...)."""
    return tuple(
        c for c in report.cells
        if c.claim_id == claim_id and all(getattr(c, k) == v for k, v in narrow.items())
    )


def csv_rows(cells):
    """The CSV rows render_report writes for cells: each field as text, and
    match as true/false."""
    return [[str(v) for v in tuple(c)[:-1]] + ["true" if c.match else "false"] for c in cells]


# ---------------------------------------------------------------------------
# catalog shape


def test_catalog_has_all_branches():
    catalog = claim_catalog()
    assert len(catalog) >= 14
    ids = [record.id for record in catalog]
    assert len(set(ids)) == len(ids)
    # every (ring, family, statement, class) branch appears exactly once
    seen = set()
    for record in catalog:
        key = (record.ring_kind, record.family, record.ell_domain, record.coeff_class)
        assert key not in seen
        seen.add(key)
    for ring_kind in (RingKind.PRIME_FIELD, RingKind.QUOTIENT_FIELD):
        for coeff in CoeffClass:
            assert (ring_kind, DegreeBase.P, EllDomain.ONE, coeff) in seen
            assert (ring_kind, DegreeBase.P_MINUS_1, EllDomain.ONE, coeff) in seen
            assert (ring_kind, DegreeBase.P_MINUS_1, EllDomain.ANY, coeff) in seen
        assert (ring_kind, DegreeBase.P, EllDomain.IN_1P, CoeffClass.DIVISIBLE) in seen
        assert (ring_kind, DegreeBase.P, EllDomain.NOT_1P, CoeffClass.DIVISIBLE) in seen


# SHA-256 of every record's enum fields and its rendered prediction for
# p in (3, 5, 7, 11, 13) and ell in 1..4 ("empty" where the interval is
# empty); recorded before the catalog became a literal table.
CATALOG_DIGEST = "6ce6f5b6429bcef2eea6890a4707b54042c002200e296c60c72d3e015afb18ce"


def test_catalog_is_pinned():
    def rendered(prediction, p, ell):
        try:
            return prediction.render(p, ell)
        except DomainError:
            return "empty"

    lines = []
    for r in claim_catalog():
        row = [r.id, r.family.value, r.ell_domain.value, r.ring_kind.value, r.coeff_class.value]
        row += [rendered(r.prediction, p, ell) for p in (3, 5, 7, 11, 13) for ell in range(1, 5)]
        lines.append("|".join(row))
    assert len(lines) == 34
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CATALOG_DIGEST


def test_catalog_spec_examples():
    index = catalog_index()
    rec = index["zp-ppow-l1-divisible"]
    assert rec.prediction == Prediction("p", "p")
    rec = index["zp-unitpow-gen-other"]
    assert rec.ell_domain is EllDomain.ANY
    assert rec.prediction == Prediction(0, 0)
    rec = index["zp-ppow-gen-divisible-mid-ell"]
    assert rec.ell_domain is EllDomain.NOT_1P
    assert rec.prediction == Prediction(2, "ell")
    assert rec.prediction.bounds(7, 4) == (2, 4)


def test_prediction_instantiation():
    assert Prediction(3, 3).render(5, 1) == "3"
    assert Prediction("p", "p").render(7, 2) == "7"
    assert Prediction(2, "ell").render(5, 4) == "2..4"
    lo, hi = Prediction(2, "ell").bounds(5, 4)
    assert lo <= 3 <= hi
    assert not lo <= 5 <= hi


# ---------------------------------------------------------------------------
# verify_all


def test_verify_base_p_l1_all_match():
    report = verify_all(7, 1, 1, ROOTS)
    for claim_id in ("zp-ppow-l1-divisible", "zp-ppow-l1-plus1", "zp-ppow-l1-minus1", "zp-ppow-l1-other"):
        cells = claim_cells(report, claim_id)
        assert cells and all(c.match for c in cells), claim_id


def test_verify_unit_family_p5_flags_expected_branches():
    report = verify_all(5, 1, 1, ROOTS)
    by_class = {
        claim_id: claim_cells(report, claim_id, p=5)
        for claim_id in (
            "zp-unitpow-l1-divisible",
            "zp-unitpow-l1-plus1",
            "zp-unitpow-l1-minus1",
            "zp-unitpow-l1-other",
        )
    }
    for claim_id in ("zp-unitpow-l1-divisible", "zp-unitpow-l1-plus1"):
        assert by_class[claim_id] and all(c.match for c in by_class[claim_id]), claim_id
    minus1 = by_class["zp-unitpow-l1-minus1"]
    assert [(c.computed, c.claimed, c.match) for c in minus1] == [(2, "1", False)]
    other = by_class["zp-unitpow-l1-other"]
    assert sorted(c.c_rep for c in other) == ["2", "3"]
    assert all(c.computed == 1 and c.claimed == "0" and not c.match for c in other)


def test_verify_quotient_field_m2_divisible_mismatch():
    cells = claim_cells(verify_all(3, 1, 2, ROOTS), "fpt-ppow-l1-divisible", m=2)
    # three irreducible quadratics over F_3, each computing 9 against claimed 3
    assert len(cells) == 3
    for cell in cells:
        assert cell.computed == 9 and cell.claimed == "3" and not cell.match


def test_verify_all_l1_m1_base_p_cells_all_match():
    report = verify_all(7, 2, 2, ROOTS)
    cells = [
        c
        for c in report.cells
        if c.claim_id.endswith("ppow-l1-divisible") or "ppow-l1-" in c.claim_id
    ]
    l1m1 = [c for c in cells if c.ell == 1 and c.m <= 1]
    assert l1m1 and all(c.match for c in l1m1)


def test_verify_all_exact2_interpretation_flags_identity_cell():
    report = verify_all(5, 1, 1, EXACT2)
    cell = next(
        c for c in report.cells if c.claim_id == "zp-ppow-l1-divisible" and c.p == 3
    )
    assert cell.computed == 0 and cell.claimed == "3" and not cell.match


def test_verify_all_p3_skips_unit_family():
    # every skip reason: a family that needs p >= 5, an ell domain that
    # excludes ell = 1 at p = 3, and a coefficient class with no
    # representative in F_3 or in F_3[t]/(pi) of degree 1
    report = verify_all(3, 1, 1, ROOTS)
    skipped = {s.claim_id: s.reason for s in report.skips}
    expected = {}
    for record in claim_catalog():
        if record.family is DegreeBase.P_MINUS_1:
            expected[record.id] = "requires p >= 5"
        elif record.ell_domain is EllDomain.NOT_1P:
            expected[record.id] = "no admissible ell in range for domain l-not-1p"
        elif record.coeff_class is CoeffClass.OTHER:
            expected[record.id] = "no coefficient representatives in the swept range"
    assert len(expected) == 16 + 2 + 4
    assert skipped == expected
    assert not any("unitpow" in c.claim_id for c in report.cells)


def test_verify_all_rejects_bad_ranges():
    with pytest.raises(UsageError):
        verify_all(2, 1, 1, ROOTS)


@pytest.mark.parametrize(
    "call,message",
    [
        # a str interpretation once raised a raw AttributeError, a float bound a raw TypeError
        (lambda: verify_all(3, 1, 1, "roots"), "interpretation must be an Interpretation, got 'roots'"),
        (lambda: verify_all(3, 1.5, 1, ROOTS), "ell_max must be an int, got 1.5"),
        (lambda: verify_all(3.0, 1, 1, ROOTS), "p_max must be an int, got 3.0"),
        (lambda: verify_all(3, 1, 2.0, ROOTS), "m_max must be an int, got 2.0"),
        # a bool once ran as ell_max = 1
        (lambda: verify_all(3, True, 1, ROOTS), "ell_max must be an int, got True"),
        # a str format once returned the JSON text
        (lambda: render_report(verify_all(3, 1, 1, ROOTS), "csv"), "fmt must be a ReportFormat, got 'csv'"),
    ],
)
def test_claim_entry_points_refuse_wrong_argument_types(call, message):
    with pytest.raises(UsageError) as err:
        call()
    assert str(err.value) == message


def test_a_sweep_past_the_cell_budget_is_refused_before_its_block_is_counted(monkeypatch):
    # the default sweep has 14352 cells, so it runs at a cap of 14352 and is
    # refused at 14351, its planned cells summed before any is counted
    counted = []

    def counting(*args):
        counted.append(args)
        return counting_function(*args)

    monkeypatch.setattr(claims, "counting_function", counting)
    monkeypatch.setattr(claims, "CELL_BUDGET", 14351)
    with pytest.raises(ResourceError) as err:
        verify_all(13, 2, 2, ROOTS)
    assert str(err.value) == "verifying p <= 13, ell <= 2, m <= 2 needs 14352 cells, budget is 14351"
    assert counted == []
    monkeypatch.setattr(claims, "CELL_BUDGET", 14352)
    assert len(verify_all(13, 2, 2, ROOTS).cells) == 14352


@pytest.mark.parametrize("p_max, ell_max, cells", [(31, 2, 266952), (13, 52, 253552)])
def test_a_sweep_past_the_real_cell_budget_counts_no_cell(monkeypatch, p_max, ell_max, cells):
    def refuse(*args):
        raise AssertionError("verify counted a cell before its cell budget check")

    monkeypatch.setattr(claims, "counting_function", refuse)
    with pytest.raises(ResourceError) as err:
        verify_all(p_max, ell_max, 2, ROOTS)
    assert str(err.value) == f"verifying p <= {p_max}, ell <= {ell_max}, m <= 2 needs {cells} cells, budget is 250000"


def test_an_ell_max_past_the_cell_budget_is_refused_up_front(monkeypatch):
    # every ell gives at least one cell (zp-ppow-gen-plus1 at p = 3)
    def refuse(*args):
        raise AssertionError("verify counted a cell before its cell budget check")

    monkeypatch.setattr(claims, "counting_function", refuse)
    with pytest.raises(ResourceError) as err:
        verify_all(3, 10**12, 1, ROOTS)
    assert str(err.value) == "sweeping ell <= 1000000000000 needs at least 1000000000000 cells, budget is 250000"
    monkeypatch.undo()
    assert len(claim_cells(verify_all(3, 40, 1, ROOTS), "zp-ppow-gen-plus1")) == 40


def test_warm_sweep_builds_each_representative_once(monkeypatch):
    # a warm default pass formats no ring description (the budget message is
    # only built on refusal) and builds (a representative is its index, so
    # never through RingSpec.element) and renders each coefficient
    # representative at most once, not once per cell: the 5 primes' Z/p,
    # linear and quadratic rings hold 2404 distinct (class, ring)
    # representatives among the pass's 14352 cells
    verify_all(13, 2, 2, ROOTS)
    describes, built, rendered = [], [], []
    describe, element, render = RingSpec.describe, RingSpec.element, RingSpec.render

    def counted_describe(ring):
        describes.append(ring)
        return describe(ring)

    def counted_element(ring, value):
        built.append((ring, value))
        return element(ring, value)

    def counted_render(ring, idx):
        rendered.append((ring, idx))
        return render(ring, idx)

    monkeypatch.setattr(RingSpec, "describe", counted_describe)
    monkeypatch.setattr(RingSpec, "element", counted_element)
    monkeypatch.setattr(RingSpec, "render", counted_render)
    assert len(verify_all(13, 2, 2, EXACT2).cells) == 14352
    assert describes == []
    for calls in (built, rendered):
        assert len(calls) == len(set(calls)) <= 2404


def test_monotone_sweep():
    small = verify_all(5, 2, 1, ROOTS)
    large = verify_all(7, 2, 1, ROOTS)
    small_cells = {
        (c.claim_id, c.p, c.ell, c.m, c.c_rep, c.interpretation): c.computed
        for c in small.cells
    }
    large_cells = {
        (c.claim_id, c.p, c.ell, c.m, c.c_rep, c.interpretation): c.computed
        for c in large.cells
    }
    for key, computed in small_cells.items():
        assert large_cells[key] == computed


# ---------------------------------------------------------------------------
# rendering


def test_render_empty_report():
    empty = VerificationReport(cells=())
    assert render_report(empty, ReportFormat.CSV) == CSV_HEADER + "\n"


def test_render_single_cell_and_round_trip():
    report = VerificationReport(cells=claim_cells(verify_all(3, 1, 1, ROOTS), "zp-ppow-l1-divisible"))
    csv_text = render_report(report, ReportFormat.CSV)
    lines = csv_text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "zp-ppow-l1-divisible,3,1,0,divisible,0,roots,3,3,true"
    assert list(csv.reader(io.StringIO(csv_text)))[1:] == csv_rows(report.cells)

    json_text = render_report(report, ReportFormat.JSON)
    assert json.loads(json_text) == {"cells": [c._asdict() for c in report.cells], "skips": []}


def test_round_trip_with_polynomial_reps():
    report = verify_all(5, 1, 2, ROOTS)
    csv_text = render_report(report, ReportFormat.CSV)
    assert list(csv.reader(io.StringIO(csv_text))) == [CSV_HEADER.split(","), *csv_rows(report.cells)]


def test_determinism():
    a = render_report(verify_all(7, 2, 2, ROOTS), ReportFormat.CSV)
    b = render_report(verify_all(7, 2, 2, ROOTS), ReportFormat.CSV)
    assert a == b


def test_ell_domain_couples_to_cell_prime():
    assert EllDomain.IN_1P.admits(3, 3)  # ell = p counts as the unit case
    assert not EllDomain.IN_1P.admits(2, 3)
    assert EllDomain.NOT_1P.admits(2, 3)
    assert not EllDomain.NOT_1P.admits(3, 3)
    # the mid-ell record picks up (p=3, ell=2) but not (p=3, ell=3)
    cells = claim_cells(verify_all(3, 3, 1, ROOTS), "zp-ppow-gen-divisible-mid-ell")
    assert [(c.p, c.ell) for c in cells] == [(3, 2)]


def test_cells_match_closed_form_oracles():
    # Frobenius closed form on quotient-field divisible cells
    from math import gcd

    report = verify_all(5, 2, 2, ROOTS)
    checked = 0
    for cell in report.cells:
        if cell.claim_id.startswith("fpt-ppow") and cell.c_class == "divisible":
            assert cell.computed == cell.p ** gcd(2 * cell.ell, cell.m)
            checked += 1
        if cell.claim_id.startswith("zp-unitpow"):
            c_val = int(cell.c_rep)
            expected = 2 if c_val in (0, cell.p - 1) else 1
            assert cell.computed == expected
            checked += 1
    assert checked > 0


def test_cells_are_reproducible_through_counting_function():
    from perimod.dynamics import DegreeSpec, counting_function
    from perimod.rings import RingSpec, enumerate_monic_irreducibles, parse_poly

    report = verify_all(5, 2, 2, ROOTS)
    catalog = catalog_index()
    for cell in report.cells[:: max(1, len(report.cells) // 40)]:
        claim = catalog[cell.claim_id]
        family = DegreeSpec(claim.family, cell.ell)
        if cell.m == 0:
            ring = RingSpec(cell.p)
            c = ring.element(int(cell.c_rep))
            assert counting_function(family, ROOTS, ring, c) == cell.computed
        else:
            # the CSV cell does not pin which modulus produced it; the count
            # must be reproducible for at least one modulus of that degree
            reproduced = []
            for pi in enumerate_monic_irreducibles(cell.p, cell.m):
                ring = RingSpec(cell.p, pi)
                c = ring.element(parse_poly(cell.c_rep, cell.p))
                reproduced.append(counting_function(family, ROOTS, ring, c))
            assert cell.computed in reproduced
