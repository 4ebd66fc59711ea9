"""Partial averages and finite-cutoff densities of the point counts.

The limit statements being reproduced ("as c grows") are realized at finite
cutoffs: an average at cutoff c sums the count over the primes p <= c meeting
a divisibility condition on c, and a density query counts pairs (p, c) with
p_min <= p <= c <= C satisfying a predicate.  All ratios are exact rationals;
nothing here ever touches floating point.

Per-prime count lookups go through dynamics.residue_count_table, the bulk
form of the exhaustive scan, so sweeping every c up to 10^4 stays cheap.
Densities are counted prime by prime, by residue class, rather than pair by
pair (see density).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .dynamics import DegreeSpec, Interpretation, residue_count_table
from .errors import DomainError, ResourceError
from .rings import _prime_factors, is_prime_int, primes_in_range

FACTOR_BUDGET = 10**12  # trial division cap for divisibility conditions
SWEEP_BUDGET = 10**6  # largest cutoff a full prime sweep may use
DENSITY_BUDGET = 10**5  # largest density cutoff


class AvgCondition(Enum):
    """Which primes p enter an average at cutoff c."""

    P_DIVIDES_C = "divides"
    P_DIVIDES_C_PLUS_1 = "divides-plus1"
    P_DIVIDES_C_MINUS_1 = "divides-minus1"
    P_NOT_DIVIDES_C = "not-divides"
    OTHER_RESIDUES = "other"


@dataclass(frozen=True)
class AverageQuery:
    family: DegreeSpec
    condition: AvgCondition
    interpretation: Interpretation
    cs: tuple[int, ...]


@dataclass(frozen=True)
class AveragePoint:
    """One cutoff: numerator sum, denominator count, exact ratio.

    A point whose condition selects no primes is flagged empty (ratio None),
    never divided.
    """

    c: int
    numerator: int
    denominator: int
    ratio: Optional[Fraction]

    @property
    def is_empty(self) -> bool:
        return self.denominator == 0


@dataclass(frozen=True)
class AverageSeries:
    points: tuple[AveragePoint, ...]

    def ratios(self) -> list[Optional[Fraction]]:
        return [pt.ratio for pt in self.points]

    def strictly_increasing(self) -> bool:
        """Trend verdict over the nonempty points; divergent limits are only
        ever reported as a finite series plus this flag, never as a value."""
        ratios = [pt.ratio for pt in self.points if pt.ratio is not None]
        return len(ratios) >= 2 and all(a < b for a, b in zip(ratios, ratios[1:]))


# divisibility conditions p | c + offset, keyed by the value string that
# AvgCondition and PredicateKind share
_DIVISOR_OFFSETS = {"divides": 0, "divides-plus1": 1, "divides-minus1": -1}


def _condition_primes(condition: AvgCondition, c: int, swept: list[int], p_min: int) -> list[int]:
    """The primes appearing in the average's sums at cutoff c; swept holds
    the primes from p_min up to at least min(c, SWEEP_BUDGET)."""
    offset = _DIVISOR_OFFSETS.get(condition.value)
    if offset is not None:
        divided = c + offset
        if divided > FACTOR_BUDGET:
            raise ResourceError(f"factoring {divided} exceeds the {FACTOR_BUDGET} budget")
        return [p for p in _prime_factors(divided) if p >= p_min]
    if c > SWEEP_BUDGET:
        raise ResourceError(f"sweeping all primes up to {c} exceeds {SWEEP_BUDGET}")
    primes = swept[: bisect_right(swept, c)]
    if condition is AvgCondition.P_NOT_DIVIDES_C:
        return [p for p in primes if c % p != 0]
    return [p for p in primes if c % p not in (0, 1, p - 1)]


def partial_average(query: AverageQuery) -> AverageSeries:
    """For each cutoff c: sum of the count over the selected primes, divided
    by how many primes were selected."""
    p_min = query.family.min_prime
    swept: list[int] = []
    if query.condition.value not in _DIVISOR_OFFSETS:
        swept = primes_in_range(p_min, min(max(query.cs, default=0), SWEEP_BUDGET))
    points = []
    counts_cache: dict[int, tuple[int, ...]] = {}
    for c in query.cs:
        if c < p_min:
            raise DomainError(f"cutoff {c} is below the family's smallest prime {p_min}")
        numerator = 0
        denominator = 0
        for p in _condition_primes(query.condition, c, swept, p_min):
            table = counts_cache.get(p)
            if table is None:
                table = residue_count_table(p, query.family, query.interpretation)
                counts_cache[p] = table
            numerator += table[c % p]
            denominator += 1
        ratio = Fraction(numerator, denominator) if denominator else None
        points.append(AveragePoint(c, numerator, denominator, ratio))
    return AverageSeries(points=tuple(points))


def odd_primorials(k_max: int) -> list[int]:
    """c_k = 3 * 5 * ... * p_k (product of the first k odd primes), k = 2..k_max."""
    out = []
    c = 1
    p = 1
    for k in range(1, k_max + 1):
        p += 2
        while not is_prime_int(p):
            p += 2
        c *= p
        if c > FACTOR_BUDGET:
            raise ResourceError(f"primorial for k = {k} exceeds the {FACTOR_BUDGET} budget")
        if k >= 2:
            out.append(c)
    return out


def divergence_series(
    family: DegreeSpec,
    k_max: int,
    interpretation: Interpretation = Interpretation.ROOTS_LE2,
) -> AverageSeries:
    """The p-divides-c average along the odd-primorial subsequence.

    Each ratio is the mean of the counts at the first k odd primes; for the
    base-p family the summand at each p is p itself, so the series grows
    without bound.
    """
    if k_max < 2:
        raise DomainError(f"need k_max >= 2, got {k_max}")
    cs = tuple(odd_primorials(k_max))
    query = AverageQuery(family, AvgCondition.P_DIVIDES_C, interpretation, cs)
    return partial_average(query)


# ---------------------------------------------------------------------------
# densities


class PredicateKind(Enum):
    DIVIDES = "divides"
    DIVIDES_PLUS_1 = "divides-plus1"
    DIVIDES_MINUS_1 = "divides-minus1"
    COUNT_EQUALS = "count-eq"


@dataclass(frozen=True)
class DensityPredicate:
    """Pair predicate on (p, c): a divisibility condition, or a condition on
    the computed count at residue c mod p.  negate flips the result."""

    kind: PredicateKind
    value: int = 0
    interpretation: Interpretation = Interpretation.ROOTS_LE2
    negate: bool = False

    def negated(self) -> "DensityPredicate":
        return DensityPredicate(self.kind, self.value, self.interpretation, not self.negate)


@dataclass(frozen=True)
class DensityQuery:
    """Population {(p, c) : 1 <= c <= cutoff, p prime, p_min <= p <= c}."""

    family: DegreeSpec
    predicate: DensityPredicate
    cutoff: int
    p_min: Optional[int] = None

    @property
    def effective_p_min(self) -> int:
        return self.p_min if self.p_min is not None else self.family.min_prime


@dataclass(frozen=True)
class DensityPoint:
    cutoff: int
    hits: int
    population: int
    ratio: Fraction


@dataclass(frozen=True)
class DensityResult:
    """Density at the full cutoff plus intermediate cutoffs for trend
    inspection (quarter and half, when nonempty)."""

    points: tuple[DensityPoint, ...]

    @property
    def ratio(self) -> Fraction:
        return self.points[-1].ratio


def density(query: DensityQuery) -> DensityResult:
    """Hits and population at the quarter, half and full cutoffs, counted in
    one pass over the primes.

    For a prime p and a cutoff s, the n = s - p + 1 values c = p..s have
    residues 0, 1, ..., p-1, 0, 1, ... in order, so with periods, rest =
    divmod(n, p) the prime contributes periods * len(good) plus the number
    of good residues below rest, where good is the sorted list of residues
    satisfying the predicate.
    """
    C = query.cutoff
    p_min = query.effective_p_min
    if C < p_min:
        raise DomainError(f"population is empty: cutoff {C} < p_min {p_min}")
    if C > DENSITY_BUDGET:
        raise ResourceError(f"density cutoff {C} exceeds the {DENSITY_BUDGET} budget")
    pred = query.predicate
    offset = _DIVISOR_OFFSETS.get(pred.kind.value)
    snapshots = sorted({C // 4, C // 2, C})
    hits = dict.fromkeys(snapshots, 0)
    population = dict.fromkeys(snapshots, 0)
    for p in primes_in_range(p_min, C):
        if offset is None:
            table = residue_count_table(p, query.family, pred.interpretation)
            good = [r for r, count in enumerate(table) if count == pred.value]
        else:
            good = [-offset % p]
        for s in snapshots:
            n = s - p + 1
            if n > 0:
                periods, rest = divmod(n, p)
                found = periods * len(good) + bisect_left(good, rest)
                hits[s] += n - found if pred.negate else found
                population[s] += n
    points = tuple(
        DensityPoint(s, hits[s], population[s], Fraction(hits[s], population[s]))
        for s in snapshots
        if population[s]
    )
    if not points or points[-1].cutoff != C:
        raise DomainError("population is empty at the requested cutoff")
    return DensityResult(points=points)


# ---------------------------------------------------------------------------
# series rendering (shared by the CLI for avg and density output)

SERIES_HEADER = "cutoff_or_c,numerator,denominator,ratio_num,ratio_den"


def series_rows(series: "AverageSeries | DensityResult") -> list[tuple]:
    """One (cutoff, numerator, denominator, ratio numerator, ratio
    denominator) row of ints per point; an empty average's ratio is None."""
    rows = []
    for pt in series.points:
        if isinstance(pt, AveragePoint):
            head = (pt.c, pt.numerator, pt.denominator)
        else:
            head = (pt.cutoff, pt.hits, pt.population)
        ratio = (None, None) if pt.ratio is None else (pt.ratio.numerator, pt.ratio.denominator)
        rows.append((*head, *ratio))
    return rows
