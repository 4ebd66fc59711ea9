"""Command-line front end.

Subcommands: count, orbits, verify, avg, density, irreducibles.  Every flag
is validated before any computation starts, reports are fully built before a
single byte is written (so a failing run never leaves partial output), and
identical invocations produce byte-identical files.

Exit status: 0 on success (mismatch rows in a verify report are data, not
failures), 1 on usage or domain errors, 2 on resource errors.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from . import claims, stats
from .dynamics import (
    DegreeBase,
    DegreeSpec,
    Interpretation,
    PowerMapSpec,
    count_report,
    orbit_decomposition,
)
from .errors import DomainError, ResourceError, UsageError
from .rings import (
    Prime,
    RingSpec,
    enumerate_monic_irreducibles,
    format_poly,
    parse_poly,
)
from .tables import csv_text, json_text

SUBCOMMANDS = ("count", "orbits", "verify", "avg", "density", "irreducibles")

_BOOLEAN_PARAMS = frozenset({"negate"})


@dataclass(frozen=True)
class CommandSpec:
    """A fully validated invocation: canonical flag values, output target,
    and format.  to_argv() renders it back; re-parsing yields an equal spec."""

    subcommand: str
    params: tuple[tuple[str, str], ...]
    format: str = "csv"
    output: Optional[str] = None

    def param(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def to_argv(self) -> list[str]:
        argv = [self.subcommand]
        for key, value in self.params:
            if key in _BOOLEAN_PARAMS:
                if value == "true":
                    argv.append(f"--{key}")
            else:
                argv.extend([f"--{key}", value])
        argv.extend(["--format", self.format])
        if self.output is not None:
            argv.extend(["--output", self.output])
        return argv


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits by default; raise instead
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="perimod", add_help=True)
    sub = parser.add_subparsers(dest="subcommand")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", default=None)

    def add_map_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ring", choices=["zp", "fpt"], default="zp")
        p.add_argument("--p", required=True)
        p.add_argument("--pi", default=None)
        p.add_argument("--family", choices=["p", "p-1"], required=True)
        p.add_argument("--ell", default="1")
        p.add_argument("--c", required=True)

    for name in ("count", "orbits"):
        p = sub.add_parser(name, add_help=True)
        add_map_flags(p)
        add_common(p)

    p = sub.add_parser("verify")
    p.add_argument("--p-max", dest="p_max", default="13")
    p.add_argument("--ell-max", dest="ell_max", default="2")
    p.add_argument("--m-max", dest="m_max", default="2")
    p.add_argument("--interpretation", choices=["roots", "exact2", "fixed"], required=True)
    add_common(p)

    p = sub.add_parser("avg")
    p.add_argument("--family", choices=["p", "p-1"], required=True)
    p.add_argument("--ell", default="1")
    p.add_argument(
        "--condition",
        choices=[c.value for c in stats.AvgCondition],
        default=None,
    )
    p.add_argument("--interpretation", choices=["roots", "exact2", "fixed"], default="roots")
    p.add_argument("--c", default=None, help="comma-separated cutoffs")
    p.add_argument("--primorial-k", dest="primorial_k", default=None)
    add_common(p)

    p = sub.add_parser("density")
    p.add_argument("--family", choices=["p", "p-1"], required=True)
    p.add_argument("--ell", default="1")
    p.add_argument(
        "--predicate",
        choices=[k.value for k in stats.PredicateKind],
        required=True,
    )
    p.add_argument("--count-value", dest="count_value", default="0")
    p.add_argument("--negate", action="store_true")
    p.add_argument("--interpretation", choices=["roots", "exact2", "fixed"], default="roots")
    p.add_argument("--C", dest="cutoff", required=True)
    p.add_argument("--p-min", dest="p_min", default=None)
    add_common(p)

    p = sub.add_parser("irreducibles")
    p.add_argument("--p", required=True)
    p.add_argument("--m", required=True)
    add_common(p)

    return parser


def _as_int(value: str, flag: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{flag} expects an integer, got {value!r}") from exc


def _as_prime(value: str, flag: str) -> int:
    n = _as_int(value, flag)
    Prime(n)  # raises UsageError for non-primes, evens, and p < 3
    return n


def _canonical_map_params(ns: argparse.Namespace) -> list[tuple[str, str]]:
    p = _as_prime(ns.p, "--p")
    ell = _as_int(ns.ell, "--ell")
    if ell < 1:
        raise UsageError(f"--ell must be >= 1, got {ell}")
    params = [("ring", ns.ring), ("p", str(p)), ("family", ns.family), ("ell", str(ell))]
    if ns.ring == "fpt":
        if ns.pi is None:
            raise UsageError("--pi is required for --ring fpt")
        pi = parse_poly(ns.pi, p)
        ring = RingSpec.quotient_field(p, pi)  # validates monic + irreducible
        c_elem = ring.element(parse_poly(ns.c, p))
        params.append(("pi", format_poly(pi)))
        params.append(("c", c_elem.render()))
    else:
        if ns.pi is not None:
            raise UsageError("--pi only applies to --ring fpt")
        ring = RingSpec.prime_field(p)
        c_elem = ring.element(_as_int(ns.c, "--c"))
        params.append(("c", c_elem.render()))
    min_prime = DegreeSpec(DegreeBase(ns.family), ell).min_prime
    if p < min_prime:
        raise UsageError(f"family {ns.family} needs p >= {min_prime}")
    return params


def parse_args(argv: Sequence[str]) -> CommandSpec:
    """Validate argv into a CommandSpec, raising UsageError on any bad flag."""
    parser = _build_parser()
    ns = parser.parse_args(list(argv))
    if ns.subcommand is None:
        raise UsageError(f"expected a subcommand: {', '.join(SUBCOMMANDS)}")

    if ns.subcommand in ("count", "orbits"):
        params = _canonical_map_params(ns)
    elif ns.subcommand == "verify":
        p_max = _as_int(ns.p_max, "--p-max")
        ell_max = _as_int(ns.ell_max, "--ell-max")
        m_max = _as_int(ns.m_max, "--m-max")
        if p_max < 3 or ell_max < 1 or m_max < 1:
            raise UsageError("need --p-max >= 3, --ell-max >= 1, --m-max >= 1")
        params = [
            ("p-max", str(p_max)),
            ("ell-max", str(ell_max)),
            ("m-max", str(m_max)),
            ("interpretation", ns.interpretation),
        ]
    elif ns.subcommand == "avg":
        ell = _as_int(ns.ell, "--ell")
        if ell < 1:
            raise UsageError(f"--ell must be >= 1, got {ell}")
        params = [("family", ns.family), ("ell", str(ell)), ("interpretation", ns.interpretation)]
        if (ns.c is None) == (ns.primorial_k is None):
            raise UsageError("avg needs exactly one of --c or --primorial-k")
        if ns.c is not None:
            if ns.condition is None:
                raise UsageError("--condition is required with --c")
            cutoffs = [_as_int(part, "--c") for part in ns.c.split(",")]
            if not cutoffs:
                raise UsageError("--c must list at least one cutoff")
            params.append(("condition", ns.condition))
            params.append(("c", ",".join(str(c) for c in cutoffs)))
        else:
            k = _as_int(ns.primorial_k, "--primorial-k")
            if k < 2:
                raise UsageError(f"--primorial-k must be >= 2, got {k}")
            params.append(("primorial-k", str(k)))
    elif ns.subcommand == "density":
        ell = _as_int(ns.ell, "--ell")
        cutoff = _as_int(ns.cutoff, "--C")
        if ell < 1 or cutoff < 1:
            raise UsageError("need --ell >= 1 and --C >= 1")
        params = [
            ("family", ns.family),
            ("ell", str(ell)),
            ("predicate", ns.predicate),
            ("interpretation", ns.interpretation),
            ("C", str(cutoff)),
        ]
        if ns.predicate == stats.PredicateKind.COUNT_EQUALS.value:
            params.append(("count-value", str(_as_int(ns.count_value, "--count-value"))))
        if ns.negate:
            params.append(("negate", "true"))
        if ns.p_min is not None:
            params.append(("p-min", str(_as_int(ns.p_min, "--p-min"))))
    else:  # irreducibles
        p = _as_prime(ns.p, "--p")
        m = _as_int(ns.m, "--m")
        if m < 1:
            raise UsageError(f"--m must be >= 1, got {m}")
        params = [("p", str(p)), ("m", str(m))]

    return CommandSpec(
        subcommand=ns.subcommand,
        params=tuple(params),
        format=ns.format,
        output=ns.output,
    )


# ---------------------------------------------------------------------------
# execution


def _map_from_spec(cmd: CommandSpec) -> PowerMapSpec:
    p = int(cmd.param("p"))
    if cmd.param("ring") == "fpt":
        ring = RingSpec.quotient_field(p, parse_poly(cmd.param("pi"), p))
        c = ring.element(parse_poly(cmd.param("c"), p))
    else:
        ring = RingSpec.prime_field(p)
        c = ring.element(int(cmd.param("c")))
    family = DegreeSpec(DegreeBase(cmd.param("family")), int(cmd.param("ell")))
    return PowerMapSpec(ring, family, c)


def _family_from(cmd: CommandSpec) -> DegreeSpec:
    return DegreeSpec(DegreeBase(cmd.param("family")), int(cmd.param("ell")))


def _run_count(cmd: CommandSpec) -> tuple[str, Optional[str]]:
    report = count_report(_map_from_spec(cmd))
    if cmd.format == "json":
        text = json_text(
            {
                "fixed": report.fixed,
                "period_le2_roots": report.period_le2_roots,
                "exact2": report.exact2,
            }
        )
    else:
        text = csv_text(
            ["fixed", "period_le2_roots", "exact2"],
            [[str(report.fixed), str(report.period_le2_roots), str(report.exact2)]],
        )
    return text, None


def _run_orbits(cmd: CommandSpec) -> tuple[str, Optional[str]]:
    decomposition = orbit_decomposition(_map_from_spec(cmd))
    lengths = Counter(length for length, _ in decomposition.cycles)
    tail = decomposition.tail_node_count
    if cmd.format == "json":
        text = json_text(
            {
                "cycle_lengths": [[length, lengths[length]] for length in sorted(lengths)],
                "tail_node_count": tail,
            }
        )
    else:
        rows = [[str(length), str(lengths[length]), str(tail)] for length in sorted(lengths)]
        text = csv_text(["cycle_length", "num_cycles", "tail_node_count"], rows)
    return text, None


def _run_verify(cmd: CommandSpec) -> tuple[str, Optional[str]]:
    report = claims.verify_all(
        p_max=int(cmd.param("p-max")),
        ell_max=int(cmd.param("ell-max")),
        m_max=int(cmd.param("m-max")),
        interpretation=Interpretation(cmd.param("interpretation")),
    )
    fmt = claims.ReportFormat.JSON if cmd.format == "json" else claims.ReportFormat.CSV
    return claims.render_report(report, fmt), report.summary_line()


def _series_text(cmd: CommandSpec, series, population: str) -> str:
    rows = stats.series_rows(series)
    if cmd.format == "json":
        keys = stats.SERIES_HEADER.split(",")
        return json_text(
            {
                "population": population,
                "series": [
                    {k: (int(v) if v else None) for k, v in zip(keys, row)} for row in rows
                ],
            }
        )
    return csv_text(stats.SERIES_HEADER.split(","), rows)


def _run_avg(cmd: CommandSpec) -> tuple[str, Optional[str]]:
    family = _family_from(cmd)
    interpretation = Interpretation(cmd.param("interpretation"))
    p_min = family.min_prime
    if cmd.param("primorial-k") is not None:
        series = stats.divergence_series(family, int(cmd.param("primorial-k")), interpretation)
        population = (
            f"primes p with {p_min} <= p <= c and p | c, "
            "c running over products of the first k odd primes"
        )
        last = series.points[-1]
        summary = (
            f"{last.numerator}/{last.denominator} "
            f"strictly-increasing={'true' if series.strictly_increasing() else 'false'}"
        )
        return _series_text(cmd, series, population), summary
    query = stats.AverageQuery(
        family=family,
        condition=stats.AvgCondition(cmd.param("condition")),
        interpretation=interpretation,
        cs=tuple(int(part) for part in cmd.param("c").split(",")),
    )
    series = stats.partial_average(query)
    population = f"primes p with {p_min} <= p <= c, condition {query.condition.value}"
    last = series.points[-1]
    summary = f"{last.numerator}/{last.denominator}" if last.denominator else "empty"
    return _series_text(cmd, series, population), summary


def _run_density(cmd: CommandSpec) -> tuple[str, Optional[str]]:
    predicate = stats.DensityPredicate(
        kind=stats.PredicateKind(cmd.param("predicate")),
        value=int(cmd.param("count-value", "0")),
        interpretation=Interpretation(cmd.param("interpretation")),
        negate=cmd.param("negate") == "true",
    )
    p_min = cmd.param("p-min")
    query = stats.DensityQuery(
        family=_family_from(cmd),
        predicate=predicate,
        cutoff=int(cmd.param("C")),
        p_min=int(p_min) if p_min is not None else None,
    )
    result = stats.density(query)
    population = (
        f"pairs (p, c) with p prime, {query.effective_p_min} <= p <= c <= {query.cutoff}"
    )
    final = result.points[-1]
    return _series_text(cmd, result, population), f"{final.hits}/{final.population}"


def _run_irreducibles(cmd: CommandSpec) -> tuple[str, Optional[str]]:
    polys = enumerate_monic_irreducibles(int(cmd.param("p")), int(cmd.param("m")))
    if cmd.format == "json":
        text = json_text({"pi": [format_poly(f) for f in polys]})
    else:
        text = csv_text(["pi"], [[format_poly(f)] for f in polys])
    return text, None


_RUNNERS = {
    "count": _run_count,
    "orbits": _run_orbits,
    "verify": _run_verify,
    "avg": _run_avg,
    "density": _run_density,
    "irreducibles": _run_irreducibles,
}


def run(cmd: CommandSpec) -> int:
    """Execute a validated CommandSpec; returns the process exit status."""
    try:
        text, summary = _RUNNERS[cmd.subcommand](cmd)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cmd.output is not None:
        try:
            with open(cmd.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if summary is not None:
            print(summary)
    else:
        sys.stdout.write(text)
        if summary is not None:
            print(summary, file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        cmd = parse_args(args)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
