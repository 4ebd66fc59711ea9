"""The verify report's CSV as one csv.writer over every full row: the oracle
the renderer tests check against.

perimod writes the CSV block by block, quoting the fields a block of cells
shares once and each representative once.  This file writes it the plain
way, every field of every row through the writer, as perimod did before, so
a test that compares the two checks the block-wise quoting against the csv
module's own.  It imports nothing from perimod; a cell is any 10-tuple in
the VerificationCell field order, and match reads true/false.
"""

import csv
from types import SimpleNamespace

FIELDS = (
    "claim_id", "p", "ell", "m", "c_class", "c_rep", "interpretation", "claimed", "computed", "match",
)


def report_csv(cells):
    """Header and one row per cell; each record's "\\r\\n" line end becomes
    "\\n", and a "\\r\\n" inside a quoted field stays."""
    records = []
    writer = csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n")
    writer.writerow(FIELDS)
    writer.writerows((*cell[:-1], "true" if cell[-1] else "false") for cell in cells)
    return "".join(record[:-2] + "\n" for record in records)
