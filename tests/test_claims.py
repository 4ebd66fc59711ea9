"""Claim catalog and verifier tests."""

import csv
import hashlib
import importlib
import io
import json
import pkgutil
import sys

import pytest
from reportoracle import report_csv

import perimod
from perimod import claims, dynamics, rings
from perimod.claims import (
    CSV_HEADER,
    ClaimRecord,
    CoeffClass,
    EllDomain,
    Prediction,
    ReportFormat,
    VerificationCell,
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


@pytest.mark.parametrize(
    "p_max,ell_max,m_max,skipped",
    [
        (3, 1, 1, 16 + 2 + 4),  # every reason
        (3, 2, 1, 16 + 4),  # ell = 2 is in l-not-1p at p = 3
        (3, 1, 2, 16 + 2 + 2),  # t stands for the other class in F_3[t]/(pi) of degree 2
        (5, 1, 1, 2),  # p = 5 admits the p-1 family and has the residues 2 and 3
    ],
)
def test_verify_all_skips_a_claim_for_its_first_empty_stage(p_max, ell_max, m_max, skipped):
    # each claim's expected note, in catalog order, by the claim's own
    # hypotheses: its family needs p >= 3 (base p) or p >= 5 (base p-1),
    # its ell domain admits some (p, ell) in the range, and its coefficient
    # class has a representative, which every class has but the other class
    # at p = 3, there only as t in F_3[t]/(pi) of degree m >= 2
    admits = {
        EllDomain.ONE: lambda ell, p: ell == 1,
        EllDomain.IN_1P: lambda ell, p: ell in (1, p),
        EllDomain.NOT_1P: lambda ell, p: ell not in (1, p),
        EllDomain.ANY: lambda ell, p: True,
    }
    expected = {}
    for record in claim_catalog():
        floor = 3 if record.family is DegreeBase.P else 5
        primes = [p for p in (3, 5) if floor <= p <= p_max]
        admitted = [p for p in primes for ell in range(1, ell_max + 1) if admits[record.ell_domain](ell, p)]
        has_t = record.ring_kind is RingKind.QUOTIENT_FIELD and m_max >= 2
        if not primes:
            expected[record.id] = f"requires p >= {floor}"
        elif not admitted:
            expected[record.id] = f"no admissible ell in range for domain {record.ell_domain.value}"
        elif record.coeff_class is CoeffClass.OTHER and set(admitted) == {3} and not has_t:
            expected[record.id] = "no coefficient representatives in the swept range"
    report = verify_all(p_max, ell_max, m_max, ROOTS)
    assert [(s.claim_id, s.reason) for s in report.skips] == list(expected.items())
    assert len(expected) == skipped
    assert {c.claim_id for c in report.cells} == set(catalog_index()) - set(expected)


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


def test_each_cell_calls_counting_function_and_pow_index_table_once(monkeypatch):
    # the traced benchmark pins both call counts at one per verify cell: each
    # is wrapped at every module name in perimod bound to it, as the tracer
    # wraps it, so that a cell path calling either more or less shows here
    for info in pkgutil.iter_modules(perimod.__path__):
        importlib.import_module(f"perimod.{info.name}")
    modules = [module for name, module in list(sys.modules.items())
               if module is not None and (name == "perimod" or name.startswith("perimod."))]
    calls = {"counting_function": 0, "pow_index_table": 0}
    for original in (dynamics.counting_function, rings.pow_index_table):

        def counted(*args, _original=original):
            calls[_original.__name__] += 1
            return _original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    for interpretation in Interpretation:
        for _ in range(2):  # a sweep, then the same sweep over cached tables
            calls.update(dict.fromkeys(calls, 0))
            cells = len(verify_all(7, 2, 2, interpretation).cells)
            assert calls == {"counting_function": cells, "pow_index_table": cells}


def test_warm_sweep_builds_each_representative_once(monkeypatch):
    # a default pass over warm tables formats no ring description (the
    # budget message is only built on refusal), builds no representative (a
    # representative is its index, so never through RingSpec.element), and
    # its plan renders each coefficient representative once, not once per
    # claim, cell or ring: the 5 primes' Z/p, linear and quadratic rings
    # share 122 distinct (class, p, m) representatives among the pass's
    # 14352 cells.  The plan is dropped first, so the counted pass builds it
    verify_all(13, 2, 2, ROOTS)
    claims._plan.cache_clear()
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
    assert describes == built == []
    assert len(rendered) == len(set(rendered)) == 122


def test_a_sweep_reuses_the_plan_of_its_shape(monkeypatch):
    # the plan reads no interpretation, so after one sweep a same-shape
    # sweep under any interpretation plans nothing and renders no
    # representative, and its cells are those of a sweep that planned afresh
    assert claims._plan.cache_info().maxsize is not None
    fresh = {}
    for interpretation in Interpretation:
        claims._plan.cache_clear()
        fresh[interpretation] = verify_all(7, 2, 2, interpretation)
    calls = []

    def counted(name, original):
        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    monkeypatch.setattr(claims, "claim_catalog", counted("claim_catalog", claims.claim_catalog))
    monkeypatch.setattr(RingSpec, "render", counted("render", RingSpec.render))
    for interpretation in Interpretation:
        warm = verify_all(7, 2, 2, interpretation)
        assert warm.cells == fresh[interpretation].cells and warm.skips == fresh[interpretation].skips
    assert calls == []


def test_refusals_still_fire_on_a_cached_plan(monkeypatch):
    verify_all(13, 2, 2, ROOTS)
    verify_all(3, 1, 1, ROOTS)
    counted = []

    def counting(*args):
        counted.append(args)
        return counting_function(*args)

    monkeypatch.setattr(claims, "counting_function", counting)
    monkeypatch.setattr(claims, "CELL_BUDGET", 14351)
    with pytest.raises(ResourceError) as err:
        verify_all(13, 2, 2, EXACT2)
    assert str(err.value) == "verifying p <= 13, ell <= 2, m <= 2 needs 14352 cells, budget is 14351"
    monkeypatch.setattr(claims, "CELL_BUDGET", 14352)
    # the F_169 monics of the widest sweep are refused by the scan budget
    monkeypatch.setenv("PERIMOD_BUDGET", "168")
    with pytest.raises(ResourceError) as err:
        verify_all(13, 2, 2, EXACT2)
    assert str(err.value) == "enumerating degree-2 monics over F_13 needs 13^2, budget is 168"
    assert counted == []
    monkeypatch.setenv("PERIMOD_BUDGET", "169")
    assert len(verify_all(13, 2, 2, EXACT2).cells) == len(counted) == 14352
    # True == 1 and hashes as 1, so only the type check keeps it off the plan of (3, 1, 1)
    with pytest.raises(UsageError) as err:
        verify_all(3, True, 1, ROOTS)
    assert str(err.value) == "ell_max must be an int, got True"


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
    assert render_report(empty, ReportFormat.CSV) == report_csv(()) == CSV_HEADER + "\n"


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


# c_rep values the block-wise writer must quote as the csv module does: the
# empty field, each line-break character and pair, the delimiter, the quote,
# text beyond ASCII, and 1 followed by True, which hash equal
AWKWARD_REPS = ("", "\r", "\n", "\r\n", ",", '"', "πé→", 1, True, "1", "True", " ")


def block_cells(keys, reps):
    """Cells in runs: for each block key (claim_id, p, ell, m, c_class,
    interpretation, claimed), one cell per representative."""
    return tuple(
        VerificationCell(claim_id, p, ell, m, c_class, c_rep, interp, claimed, i - 3, i % 3 == 0)
        for claim_id, p, ell, m, c_class, interp, claimed in keys
        for i, c_rep in enumerate(reps)
    )


def test_csv_matches_the_plain_writer_block_by_block():
    keys = [
        ("zp-a", 3, 1, 0, "other", "roots", "0"),
        ("zp-a", 3, 1, 0, "other", "roots", "0"),  # the same key twice runs on
        ("zp-a", 3, 2, 0, "other", "roots", "0"),
        ('fpt,"b"', 5, 1, 2, "x\ny", "a\rb", "2..ell"),
        ("", 0, 0, 0, "", "", ""),
        ("π", -1, 7, 3, " ", "\r\n", ","),
    ]
    for cells in (
        block_cells(keys, AWKWARD_REPS),
        block_cells(keys[::-1], AWKWARD_REPS[::-1]),
        block_cells(keys, ("t", 1, True, "1", True, 1)),
        block_cells(keys[:1], ("",)),
    ):
        assert render_report(VerificationReport(cells), ReportFormat.CSV) == report_csv(cells)


def test_an_empty_field_stays_empty_inside_a_row():
    # the csv module writes a row of one empty field as "", never a field
    cells = block_cells([("", 3, 1, 0, "", "", "")], ("",))
    assert render_report(VerificationReport(cells), ReportFormat.CSV).splitlines()[1] == ",3,1,0,,,,,-3,true"


def test_block_quotes_keep_apart_fields_that_print_differently():
    # each report of one block: the quotes outlive a report, keyed on the
    # field types too, since 1, True and 1.0 compare equal
    for p, ell in ((1, 1), (True, 1), (1, 1.0)):
        cells = block_cells([("zp-a", p, ell, 0, "other", "roots", "0")], ("t", 1))
        assert render_report(VerificationReport(cells), ReportFormat.CSV) == report_csv(cells)


def test_default_sweeps_match_the_plain_writer():
    # compared line by line (ends kept), so a failure names its first row
    for interpretation in Interpretation:
        cells = verify_all(7, 2, 2, interpretation).cells
        text = render_report(VerificationReport(cells), ReportFormat.CSV)
        assert text.splitlines(keepends=True) == report_csv(cells).splitlines(keepends=True)


def test_cells_are_whole_verification_cells():
    # verify_all builds cells with tuple.__new__, which skips the arity
    # check of VerificationCell(...): this test stands in for it
    cells = verify_all(5, 2, 2, ROOTS).cells
    assert cells
    for cell in cells:
        assert type(cell) is VerificationCell and len(cell) == 10
        assert cell._asdict() == dict(zip(VerificationCell._fields, cell))
        assert [getattr(cell, name) for name in VerificationCell._fields] == list(cell)
        assert cell == VerificationCell(*cell) and type(cell.match) is bool


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
