"""Property tests: render_report writes every field of a verification report
intact.  Its CSV, read with csv.reader, holds the header and each cell's
field values as text (match as true/false); its JSON, read with json.loads,
holds asdict of every cell and skip note.  CSV drops skip notes by
construction.  Reports whose cells come in runs that share a block key are
written byte for byte as the plain csv.writer of tests/reportoracle.py
writes them."""

import csv
import io
import json
import string
from dataclasses import asdict

import pytest
from reportoracle import report_csv

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from perimod.claims import (  # noqa: E402
    CSV_HEADER,
    ReportFormat,
    SkipNote,
    VerificationCell,
    VerificationReport,
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
    from_json = json.loads(render_report(report, ReportFormat.JSON))
    assert from_json == {
        "cells": [cell._asdict() for cell in report.cells],
        "skips": [asdict(skip) for skip in report.skips],
    }
    from_csv = list(csv.reader(io.StringIO(render_report(report, ReportFormat.CSV))))
    assert from_csv == [CSV_HEADER.split(",")] + [
        [str(v) for v in tuple(cell)[:-1]] + ["true" if cell.match else "false"]
        for cell in report.cells
    ]


# representatives drawn mostly from a few awkward values, so that the same
# one recurs within and across blocks; 1 and True hash equal
reps = st.one_of(st.sampled_from(["", "\r", "\n", "\r\n", ",", '"', "π", "1", 1, True]), text)
blocks = st.tuples(
    st.tuples(text, st.integers(), st.integers(), st.integers(), text, text, text),
    st.lists(st.tuples(reps, st.integers(), st.booleans()), min_size=1, max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(blocks, max_size=5))
def test_block_runs_render_as_the_plain_writer(runs):
    cells = tuple(
        VerificationCell(claim_id, p, ell, m, c_class, c_rep, interp, claimed, computed, match)
        for (claim_id, p, ell, m, c_class, interp, claimed), rows in runs
        for c_rep, computed, match in rows
    )
    assert render_report(VerificationReport(cells), ReportFormat.CSV) == report_csv(cells)
