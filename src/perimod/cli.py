"""Command-line front end.

Subcommands: count, orbits, verify, avg, density, irreducibles.  One table,
_FLAGS, declares every flag of every subcommand once, in canonical order: its
name and its argparse keywords (a type converter that also checks the range,
choices, default).  That table alone builds the parser, range-checks each
value (a bad one exits 1 with ``error: argument --flag: ...``) and orders the
canonical argv.  What no single flag can check (the ring and coefficient of
count/orbits, the cutoff flags of avg, --count-value of density) is checked
right after parsing, still before any computation.  irreducibles leaves its
p and the size of its enumeration to rings.enumerate_monic_irreducibles,
which checks both before it lists a single polynomial.

An invocation is its argv.  parse_args checks an argv and returns its
canonical form: the subcommand, each given flag in _FLAGS order, then
--format and any --output, with a set switch written bare, a cutoff list
joined by commas and a count/orbits --pi and --c reduced.  run takes any
argv, canonical or not, and parses it again through the same internal path
to get typed values, so it builds the count/orbits map itself.  That map is
named as the library names it, (family, ring, c): a DegreeSpec from
--family and --ell, and the ring and coefficient index that --ring, --p,
--pi and --c give.  Both parses reuse one parser, built once per process
on the first parse (_parser), not at import.  Reports are fully built
before a single byte is written (so a failing run never leaves partial
output), and identical invocations produce byte-identical files.

Exit status: 0 on success (mismatch rows in a verify report are data, not
failures), 1 on usage or domain errors, 2 on resource errors.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import asdict
from functools import lru_cache
from typing import Callable, Optional, Sequence

from . import claims, stats
from .budget import scan_budget
from .dynamics import (
    DegreeBase,
    DegreeSpec,
    Interpretation,
    count_report,
    orbit_decomposition,
)
from .errors import DomainError, ResourceError, UsageError
from .rings import (
    RingKind,
    RingSpec,
    enumerate_monic_irreducibles,
    format_poly,
    parse_poly,
)
from .tables import csv_text, json_text


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _at_least(low: int) -> Callable[[str], int]:
    def convert(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return convert


def _odd_prime_candidate(text: str) -> int:
    """The cheap half of the primality check; the ring refuses a huge p
    before it tries trial division."""
    value = _integer(text)
    if value < 3 or value % 2 == 0:
        raise argparse.ArgumentTypeError(f"must be an odd prime >= 3, got {value}")
    return value


def _cutoffs(text: str) -> list[int]:
    return [_integer(part) for part in text.split(",")]


_INTERPRETATIONS = [i.value for i in Interpretation]
_P = {"type": _odd_prime_candidate, "required": True}
_FAMILY = {"choices": [b.value for b in DegreeBase], "required": True}
_ELL = {"type": _at_least(1), "default": 1}
_INTERPRETATION = {"choices": _INTERPRETATIONS, "default": Interpretation.ROOTS_LE2.value}
_MAP_FLAGS = {
    "ring": {"choices": [k.value for k in RingKind], "default": RingKind.PRIME_FIELD.value},
    "p": _P,
    "family": _FAMILY,
    "ell": _ELL,
    "pi": {},
    "c": {"required": True},
}

# Per subcommand: flag name -> argparse keywords, in canonical param order.
_FLAGS = {
    "count": _MAP_FLAGS,
    "orbits": _MAP_FLAGS,
    "verify": {
        "p-max": {"type": _at_least(3), "default": 13},
        "ell-max": {"type": _at_least(1), "default": 2},
        "m-max": {"type": _at_least(1), "default": 2},
        "interpretation": {"choices": _INTERPRETATIONS, "required": True},
    },
    "avg": {
        "family": _FAMILY,
        "ell": _ELL,
        "interpretation": _INTERPRETATION,
        "condition": {"choices": [c.value for c in stats.AvgCondition]},
        "c": {"type": _cutoffs, "help": "comma-separated cutoffs"},
        "primorial-k": {"type": _at_least(2)},
    },
    "density": {
        "family": _FAMILY,
        "ell": _ELL,
        "predicate": {"choices": [k.value for k in stats.PredicateKind], "required": True},
        "interpretation": _INTERPRETATION,
        "C": {"type": _at_least(1), "required": True},
        "count-value": {"type": _integer, "help": "count-eq only; 0 when absent"},
        "negate": {"action": "store_true"},
        "p-min": {"type": _at_least(2)},
    },
    "irreducibles": {"p": _P, "m": {"type": _at_least(1), "required": True}},
}

# Output flags, which close every canonical argv.
_OUTPUT_FLAGS = {
    "format": {"choices": [f.value for f in claims.ReportFormat], "default": "csv"},
    "output": {},
}

SUBCOMMANDS = tuple(_FLAGS)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits by default; raise instead
        raise UsageError(message)


def _build_map(ns: argparse.Namespace) -> tuple[RingSpec, int]:
    """The (ring, c) of the map z -> z^d + c that --ring, --p, --pi, --family,
    --ell and --c name, with --pi and --c validated against the ring and
    then p against the family.  RingSpec refuses a ring past the scan
    budget before it tests p or pi; a Z/p --c is read first, so a malformed
    one exits 1 whatever the size of the ring."""
    if RingKind(ns.ring) is RingKind.QUOTIENT_FIELD:
        if ns.pi is None:
            raise UsageError("--pi is required for --ring fpt")
        ring = RingSpec(ns.p, parse_poly(ns.pi, ns.p))
        value = parse_poly(ns.c, ns.p)
    else:
        if ns.pi is not None:
            raise UsageError("--pi only applies to --ring fpt")
        try:
            value = int(ns.c)
        except ValueError:
            raise UsageError(f"argument --c: invalid int value: {ns.c!r}") from None
        ring = RingSpec(ns.p)
    c = ring.element(value)
    ns.degree.require_prime(ring.p)
    return ring, c


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The one parser of every subcommand, built from _FLAGS on first use."""
    parser = _Parser(prog="perimod")
    sub = parser.add_subparsers(dest="subcommand")
    for name, flags in _FLAGS.items():
        subparser = sub.add_parser(name)
        for flag, keywords in {**flags, **_OUTPUT_FLAGS}.items():
            subparser.add_argument(f"--{flag}", **keywords)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """Typed, checked flag values of argv, before any computation."""
    ns = _parser().parse_args(list(argv))
    if ns.subcommand is None:
        raise UsageError(f"expected a subcommand: {', '.join(SUBCOMMANDS)}")
    scan_budget()  # a malformed PERIMOD_BUDGET exits 1 for every subcommand
    if "family" in _FLAGS[ns.subcommand]:
        ns.degree = DegreeSpec(DegreeBase(ns.family), ns.ell)
    if ns.subcommand in ("count", "orbits"):
        ns.map = ring, c = _build_map(ns)
        ns.c = ring.render(c)
        if ns.pi is not None:
            ns.pi = format_poly(ring.modulus)
    elif ns.subcommand == "avg":
        if (ns.c is None) == (ns.primorial_k is None):
            raise UsageError("avg needs exactly one of --c or --primorial-k")
        if ns.c is not None and ns.condition is None:
            raise UsageError("--condition is required with --c")
        if ns.primorial_k is not None and ns.condition is not None:
            raise UsageError("--condition does not apply with --primorial-k")
    elif ns.subcommand == "density":
        if ns.predicate != stats.PredicateKind.COUNT_EQUALS.value:
            if ns.count_value is not None:
                raise UsageError("--count-value only applies to --predicate count-eq")
        elif ns.count_value is None:
            ns.count_value = 0
    return ns


def parse_args(argv: Sequence[str]) -> tuple[str, ...]:
    """The canonical argv of a valid invocation, raising UsageError on any
    bad flag and ResourceError when the ring that --p and --pi name for
    count or orbits is past the scan budget (RingSpec refuses it when
    built).  Parsing the canonical argv gives it back unchanged."""
    ns = _parse(argv)
    canonical = [ns.subcommand]
    for flag in (*_FLAGS[ns.subcommand], *_OUTPUT_FLAGS):
        value = getattr(ns, flag.replace("-", "_"))
        if value is True:
            canonical.append(f"--{flag}")
        elif value is not None and value is not False:
            text = ",".join(str(v) for v in value) if isinstance(value, list) else str(value)
            canonical += f"--{flag}", text
    return tuple(canonical)


# ---------------------------------------------------------------------------
# execution: each runner returns (json payload, csv header, csv rows, summary);
# a series table's payload is None unless the format is json

_Table = tuple[object, list[str], list, Optional[str]]


def _run_count(ns: argparse.Namespace) -> _Table:
    counts = asdict(count_report(ns.degree, *ns.map))
    return counts, list(counts), [list(counts.values())], None


def _run_orbits(ns: argparse.Namespace) -> _Table:
    decomposition = orbit_decomposition(ns.degree, *ns.map)
    lengths = sorted(Counter(length for length, _ in decomposition.cycles).items())
    tail = decomposition.tail_node_count
    payload = {"cycle_lengths": lengths, "tail_node_count": tail}
    rows = [[length, cycles, tail] for length, cycles in lengths]
    return payload, ["cycle_length", "num_cycles", "tail_node_count"], rows, None


def _series_table(ns: argparse.Namespace, series: stats.Series, trend: str = "") -> _Table:
    """An avg or density table, summed up by its last point's ratio; its json
    payload is built only for --format json."""
    last = series.points[-1]
    summary = f"{last.numerator}/{last.population}{trend}" if last.population else "empty"
    header = stats.SERIES_HEADER.split(",")
    rows = stats.series_rows(series)
    payload = None
    if ns.format == "json":
        payload = {
            "population": series.population_text,
            "series": [dict(zip(header, row)) for row in rows],
        }
    return payload, header, rows, summary


def _run_avg(ns: argparse.Namespace) -> _Table:
    interpretation = Interpretation(ns.interpretation)
    if ns.primorial_k is not None:
        series = stats.divergence_series(ns.degree, ns.primorial_k, interpretation)
        trend = f" strictly-increasing={'true' if series.strictly_increasing() else 'false'}"
        return _series_table(ns, series, trend)
    condition = stats.AvgCondition(ns.condition)
    return _series_table(ns, stats.partial_average(ns.degree, condition, interpretation, tuple(ns.c)))


def _run_density(ns: argparse.Namespace) -> _Table:
    kind, interpretation = stats.PredicateKind(ns.predicate), Interpretation(ns.interpretation)
    # density reads a None --p-min as the family's smallest prime
    series = stats.density(ns.degree, kind, interpretation, ns.C, ns.p_min, ns.count_value, ns.negate)
    return _series_table(ns, series)


def _run_irreducibles(ns: argparse.Namespace) -> _Table:
    pis = [format_poly(f) for f in enumerate_monic_irreducibles(ns.p, ns.m)]
    return {"pi": pis}, ["pi"], [[pi] for pi in pis], None


_RUNNERS = {
    "count": _run_count,
    "orbits": _run_orbits,
    "avg": _run_avg,
    "density": _run_density,
    "irreducibles": _run_irreducibles,
}


def _execute(argv: Sequence[str]) -> int:
    ns = _parse(argv)
    if ns.subcommand == "verify":
        report = claims.verify_all(
            p_max=ns.p_max,
            ell_max=ns.ell_max,
            m_max=ns.m_max,
            interpretation=Interpretation(ns.interpretation),
        )
        text = claims.render_report(report, claims.ReportFormat(ns.format))
        summary = report.summary_line()
    else:
        payload, header, rows, summary = _RUNNERS[ns.subcommand](ns)
        text = json_text(payload) if ns.format == "json" else csv_text(header, rows)
    if ns.output is None:
        sys.stdout.write(text)
        if summary is not None:
            print(summary, file=sys.stderr)
    else:
        with open(ns.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        if summary is not None:
            print(summary)
    return 0


def _exit_status(action: Callable[[], int]) -> int:
    """Run action; a perimod error (or an unwritable output) becomes one
    ``error:`` line on stderr and exit status 2 (resources) or 1 (the rest)."""
    try:
        return action()
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(argv: Sequence[str]) -> int:
    """Execute an invocation's argv, canonical or not; returns the process
    exit status."""
    return _exit_status(lambda: _execute(argv))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    return _exit_status(lambda: run(parse_args(args)))


if __name__ == "__main__":
    sys.exit(main())
