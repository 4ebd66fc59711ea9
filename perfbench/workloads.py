"""The benchmark's workloads: the perimod CLI calls each one makes, built from a seed.

Every workload is a list of ops, each one `perimod.cli.main(argv)` call that
writes its report to `--output`.  The seed picks only the density count
value and interpretation on `stats`, and the moduli and coefficients on
`big-field`.  `verify` and the `avg` sweep are the
CLI's canonical sweeps and do not depend on the seed.

This module also holds the output checks the runner applies when an op's
inputs have no stored reference digest.  It imports nothing from perimod, so
the inputs and the checks stay independent of the program under test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

WORKLOADS = ("verify", "stats", "big-field")

# Ops are grouped into the two per-op end-to-end metrics of each workload.
FIRST, SECOND = "first_op_s", "second_op_s"
OP_METRIC_NAMES = {
    "verify": {FIRST: "verify_cold_s", SECOND: "verify_warm_s"},
    "stats": {FIRST: "avg_s", SECOND: "density_s"},
    "big-field": {FIRST: "count_s", SECOND: "orbits_s"},
}

# Spans (perfbench/tracing.py) each workload must exercise; a traced run in
# which one of them records no call fails, since its wrapper missed a call site.
LAYERS_EXERCISED = {
    "verify": (
        "cli.parse_args", "cli.run", "claims.verify_all", "claims.render_report",
        "dynamics.counting_function", "rings.pow_index_table",
        "rings.enumerate_monic_irreducibles", "rings.is_irreducible",
    ),
    "stats": (
        "cli.parse_args", "cli.run", "stats.partial_average", "stats.density",
        "dynamics.residue_count_table",
    ),
    "big-field": (
        "cli.parse_args", "cli.run", "dynamics.count_report", "dynamics.orbit_decomposition",
        "rings.pow_index_table", "rings.is_irreducible",
    ),
}

AVG_CUTOFF = 10_000
DENSITY_CUTOFF = 5_000
# (interpretation, count value) pairs with a nonzero hit count at C = 5000 for
# family p-1.  Only roots and exact2 are offered: both build the same
# per-prime tables, so the seed does not change the op's cost.
DENSITY_CHOICES = (("roots", 1), ("roots", 2), ("exact2", 0), ("exact2", 2))

BIG_PRIME_FIELD = (151, 2, "p-1", 2)  # p, deg pi, family, ell: q = 22801
BIG_SMALL_PRIME = (3, 9, "p", 2)  # q = 19683


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload."""

    name: str
    metric: str  # FIRST or SECOND
    argv: tuple[str, ...]  # without --output
    q: Optional[int] = None  # ring size, for count and orbits checks

    @property
    def key(self) -> str:
        """Stable identifier of the op's inputs, used to look up references."""
        return hashlib.sha256("\0".join(self.argv).encode()).hexdigest()[:24]


def _format_poly(coeffs: list[int]) -> str:
    return ",".join(str(a) for a in coeffs)


def _poly_rem(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f by the monic g over F_p (ascending coefficients)."""
    r = list(f)
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        a = r[i]
        if a:
            for j in range(dg + 1):
                r[i - dg + j] = (r[i - dg + j] - a * g[j]) % p
    return r[:dg]


def is_irreducible(f: list[int], p: int) -> bool:
    """Trial division of the monic f by every monic polynomial of degree <= deg f / 2."""
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not any(_poly_rem(f, list(low) + [1], p)):
                return False
    return True


def _random_irreducible(rng: random.Random, p: int, m: int) -> list[int]:
    while True:
        low = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(m - 1)]
        f = low + [1]
        if is_irreducible(f, p):
            return f


def _big_field_op(rng: random.Random, name: str, metric: str, shape) -> Op:
    p, m, family, ell = shape
    pi = _random_irreducible(rng, p, m)
    c = [rng.randrange(p) for _ in range(m)]
    argv = (
        name, "--ring", "fpt", "--p", str(p), "--pi", _format_poly(pi),
        "--family", family, "--ell", str(ell), "--c", _format_poly(c),
    )
    return Op(name, metric, argv, q=p**m)


def density_choice(seed: int) -> tuple[str, int]:
    """The (interpretation, count value) of the stats workload's density op."""
    return random.Random(seed).choice(DENSITY_CHOICES)


def make_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one workload repetition, in run order."""
    if workload == "verify":
        return [Op("verify-roots", FIRST, ("verify", "--interpretation", "roots"))] + [
            Op(f"verify-{it}", SECOND, ("verify", "--interpretation", it))
            for it in ("exact2", "fixed")
        ]
    if workload == "stats":
        interpretation, value = density_choice(seed)
        cutoffs = ",".join(str(c) for c in range(3, AVG_CUTOFF + 1))
        return [
            Op("avg", FIRST, ("avg", "--family", "p", "--condition", "not-divides", "--c", cutoffs)),
            Op("density", SECOND, (
                "density", "--family", "p-1", "--predicate", "count-eq",
                "--count-value", str(value), "--interpretation", interpretation,
                "--C", str(DENSITY_CUTOFF),
            )),
        ]
    if workload == "big-field":
        rng = random.Random(seed)
        return [
            _big_field_op(rng, "count", FIRST, BIG_PRIME_FIELD),
            _big_field_op(rng, "orbits", SECOND, BIG_SMALL_PRIME),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# invariant checks for outputs without a stored reference


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if sieve[i]]


def _check_count(op: Op, text: str, summary: str) -> Optional[str]:
    rows = _rows(text)
    if len(rows) != 2 or rows[0] != ["fixed", "period_le2_roots", "exact2"]:
        return "count output is not one header and one row"
    fixed, roots, exact2 = (int(v) for v in rows[1])
    if fixed + exact2 != roots:
        return f"fixed + exact2 = {fixed + exact2} != period_le2_roots = {roots}"
    if exact2 % 2:
        return f"exact2 = {exact2} is odd"
    if not 0 <= fixed <= roots <= op.q:
        return f"counts {rows[1]} out of range for q = {op.q}"
    return None


def _check_orbits(op: Op, text: str, summary: str) -> Optional[str]:
    rows = _rows(text)
    if not rows or rows[0] != ["cycle_length", "num_cycles", "tail_node_count"] or len(rows) < 2:
        return "orbits output has no cycle rows"
    body = [[int(v) for v in row] for row in rows[1:]]
    lengths = [r[0] for r in body]
    if lengths != sorted(set(lengths)) or min(lengths) < 1 or min(r[1] for r in body) < 1:
        return "cycle lengths are not distinct, ascending and positive"
    tails = {r[2] for r in body}
    if len(tails) != 1:
        return "tail node count differs between rows"
    on_cycles = sum(r[0] * r[1] for r in body)
    if on_cycles + tails.pop() != op.q:
        return f"cycle nodes + tail nodes != q = {op.q}"
    return None


def _check_density(op: Op, text: str, summary: str) -> Optional[str]:
    cutoff = int(op.argv[op.argv.index("--C") + 1])
    primes = [p for p in _primes_up_to(cutoff) if p >= 5]
    rows = _rows(text)
    if not rows or rows[0] != ["cutoff_or_c", "numerator", "denominator", "ratio_num", "ratio_den"]:
        return "density output has the wrong header"
    snapshots = sorted({cutoff // 4, cutoff // 2, cutoff})
    if [int(r[0]) for r in rows[1:]] != snapshots:
        return f"density rows are not at cutoffs {snapshots}"
    for row in rows[1:]:
        s, hits, population, num, den = (int(v) for v in row)
        expected = sum(s - p + 1 for p in primes if p <= s)
        if population != expected:
            return f"population {population} at C = {s}, expected {expected}"
        if not 0 <= hits <= population or Fraction(hits, population) != Fraction(num, den):
            return f"hits {hits} and ratio {num}/{den} disagree at C = {s}"
    last = rows[-1]
    if summary.strip() != f"{last[1]}/{last[2]}":
        return f"summary {summary.strip()!r} does not match the last row"
    return None


CHECKS = {"count": _check_count, "orbits": _check_orbits, "density": _check_density}
