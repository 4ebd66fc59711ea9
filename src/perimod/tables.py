"""The one text writer for every table the package emits: CSV rows with "\n"
line ends, and JSON indented by two spaces with a trailing newline."""

import csv
import io
import json
from typing import Iterable, Sequence


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"
