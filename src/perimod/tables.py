"""The one text writer for every table the package emits: CSV rows with "\n"
line ends, and JSON indented by two spaces with a trailing newline.
csv_fields quotes a run of fields as they stand inside a longer row, so a
caller that writes many rows sharing fields can quote those once and still
leave every quote to the csv module."""

import csv
import json
from types import SimpleNamespace
from typing import Iterable, Sequence


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    # The writer quotes a field holding any character of its line terminator,
    # so it writes "\r\n" to quote a lone "\r" as well as "\n"; each record
    # reaches write() whole, and its "\r\n" becomes "\n".
    lines: list[str] = []
    sink = SimpleNamespace(write=lambda record: lines.append(record[:-2]))
    writer = csv.writer(sink, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    lines.append("")
    return "\n".join(lines)


def csv_fields(fields: Sequence[object]) -> str:
    """The fields as csv_text writes them inside a row: quoted where needed,
    joined by commas, with no line end.  An empty field on each side, cut
    off again with its comma, keeps the row from being a lone empty field,
    which the writer would quote as two quotes."""
    return csv_text(("", *fields, ""), ())[1:-2]


def json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"
