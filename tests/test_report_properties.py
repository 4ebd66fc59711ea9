"""Property test: a verification report survives render_report and
parse_report in both formats (CSV drops skip notes by construction)."""

import string

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from perimod.claims import (  # noqa: E402
    ReportFormat,
    SkipNote,
    VerificationCell,
    VerificationReport,
    parse_report,
    render_report,
)

# printable characters, "," and '"' among them, the line-break and tab
# characters, and a few beyond ASCII
text = st.text(
    alphabet=string.ascii_letters + string.digits + string.punctuation + " \r\n\tπé→", max_size=12
)
cells = st.builds(
    VerificationCell,
    claim_id=text,
    p=st.integers(),
    ell=st.integers(),
    m=st.integers(),
    c_class=text,
    c_rep=text,
    interpretation=text,
    claimed=text,
    computed=st.integers(),
    match=st.booleans(),
)
reports = st.builds(
    VerificationReport,
    cells=st.lists(cells, max_size=5).map(tuple),
    skips=st.lists(st.builds(SkipNote, claim_id=text, reason=text), max_size=3).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(reports)
def test_report_round_trip(report):
    from_json = parse_report(render_report(report, ReportFormat.JSON), ReportFormat.JSON)
    assert from_json.cells == report.cells and from_json.skips == report.skips
    from_csv = parse_report(render_report(report, ReportFormat.CSV), ReportFormat.CSV)
    assert from_csv.cells == report.cells
