"""The one text writer for every table the package emits: CSV rows with "\n"
line ends, and JSON indented by two spaces with a trailing newline."""

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


def json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"
