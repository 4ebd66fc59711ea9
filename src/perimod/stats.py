"""Partial averages and finite-cutoff densities of the point counts.

The limit statements being reproduced ("as c grows") are realized at finite
cutoffs: an average at cutoff c sums the count over the primes p <= c (or
p <= c + 1, under the condition p | c + 1) meeting a condition on c, and a
density counts pairs (p, c) with p_min <= p <= c <= C satisfying a
predicate.  Averages, divergence series and densities all come back as one
Series of SeriesPoint(cutoff, numerator, population) tuples of ints, with
the text of the population they are taken over; a point's ratio is the
exact rational numerator/population, built only when it is read, and
series_rows writes it reduced by one gcd.  Nothing here ever touches
floating point.

Per-prime counts come from dynamics.residue_count_table, a residue profile:
over Z/p a map's count depends on c only through whether c mod p is 0, -1
or neither, so profile[r] for r in (0, 1, -1) covers every residue, and
each prime costs O(1) whatever its size.  A divisibility condition p | c - r
is the residue r it selects.  A sweep average sums the primes' generic
values profile[1] as prefix sums and corrects only the primes dividing c,
c-1 or c+1; a density is counted prime by prime, by residue class, over at
most two residues per prime (see density).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import NamedTuple, Optional

from .budget import DENSITY_BUDGET, FACTOR_BUDGET, SWEEP_BUDGET, refuse_past
from .dynamics import DegreeSpec, Interpretation, residue_count_table
from .errors import DomainError, UsageError, require_type
from .rings import is_prime_int, prime_factors, primes_in_range


class AvgCondition(Enum):
    """Which primes p enter an average at cutoff c."""

    P_DIVIDES_C = "divides"
    P_DIVIDES_C_PLUS_1 = "divides-plus1"
    P_DIVIDES_C_MINUS_1 = "divides-minus1"
    P_NOT_DIVIDES_C = "not-divides"
    OTHER_RESIDUES = "other"


class SeriesPoint(NamedTuple):
    """One cutoff of an average or a density: the numerator (a sum of counts,
    or the pairs that hold) and the population it is taken over (selected
    primes, or pairs)."""

    cutoff: int
    numerator: int
    population: int

    @property
    def ratio(self) -> Optional[Fraction]:
        """numerator/population exactly, None when the population is empty:
        an empty average is flagged, never divided."""
        return Fraction(self.numerator, self.population) if self.population else None


@dataclass(frozen=True)
class Series:
    """The points of an average or a density, and the population they are taken over, as text."""

    points: tuple[SeriesPoint, ...]
    population_text: str

    def strictly_increasing(self) -> bool:
        """Trend verdict over the nonempty points; divergent limits are only
        ever reported as a finite series plus this flag, never as a value."""
        ratios = [pt.ratio for pt in self.points if pt.ratio is not None]
        return len(ratios) >= 2 and all(a < b for a, b in zip(ratios, ratios[1:]))


# divisibility conditions p | c - r, as the residue r of c mod p they select,
# keyed by the value string that AvgCondition and PredicateKind share
_DIVISOR_RESIDUES = {"divides": 0, "divides-plus1": -1, "divides-minus1": 1}


def _sweep_sums(
    family: DegreeSpec, condition: AvgCondition, interpretation: Interpretation, cs: tuple[int, ...]
) -> list[tuple[int, int]]:
    """(numerator, denominator) at each cutoff of a sweep condition.

    The generic values of the primes up to c are summed once, as prefix
    sums, then corrected at the primes with c mod p in {0, 1, -1}: only
    there can a prime's value differ from its generic one, profile[1], or
    the condition drop it (not-divides drops residue 0, other all three).
    Those are the primes dividing c, c-1 or c+1, so each prime lays its
    corrections out over the cutoffs in its residue classes, from min(cs)
    to max(cs) only: fix[i] corrects the cutoff min(cs) + i."""
    low, top = min(cs, default=0), max(cs, default=0)
    swept = primes_in_range(family.min_prime, top)
    profiles = [residue_count_table(p, family, interpretation) for p in swept]
    generic_sums = list(accumulate((profile[1] for profile in profiles), initial=0))
    numerator_fix = [0] * (top - low + 1)
    denominator_fix = [0] * (top - low + 1)
    for p, profile in zip(swept, profiles):
        for r in (0, 1, -1):
            kept = r != 0 and condition is AvgCondition.P_NOT_DIVIDES_C
            d_num = (profile[r] if kept else 0) - profile[1]
            d_den = 0 if kept else -1
            if d_num or d_den:
                first = max(p + r % p, low + (r - low) % p)  # first c >= p, low with c = r mod p
                for i in range(first - low, top - low + 1, p):
                    numerator_fix[i] += d_num
                    denominator_fix[i] += d_den
    sums = []
    for c in cs:
        k = bisect_right(swept, c)
        sums.append((generic_sums[k] + numerator_fix[c - low], k + denominator_fix[c - low]))
    return sums


def _divisor_sums(
    family: DegreeSpec, r: int, interpretation: Interpretation, cs: tuple[int, ...]
) -> list[tuple[int, int]]:
    """(numerator, denominator) at each cutoff c of the condition p | c - r."""
    p_min = family.min_prime
    sums = []
    for c in cs:
        primes = [p for p in prime_factors(c - r) if p >= p_min]
        counts = [residue_count_table(p, family, interpretation)[r] for p in primes]
        sums.append((sum(counts), len(counts)))
    return sums


def partial_average(
    family: DegreeSpec,
    condition: AvgCondition,
    interpretation: Interpretation,
    cs: tuple[int, ...],
) -> Series:
    """For each cutoff c: sum of the count over the selected primes, divided
    by how many primes were selected.

    A cutoff below the family's smallest prime selects no prime and raises
    DomainError; under p | c + 1, which selects p = c + 1, the floor is one
    lower."""
    require_type("family", family, DegreeSpec)
    require_type("condition", condition, AvgCondition)
    require_type("interpretation", interpretation, Interpretation)
    wrong = [c for c in cs if type(c) is not int]
    if wrong:
        require_type("cutoff", wrong[0], int)
    p_min = family.min_prime
    r = _DIVISOR_RESIDUES.get(condition.value)
    c_min = p_min - 1 if r == -1 else p_min
    shift, limit = (0, SWEEP_BUDGET) if r is None else (-r, FACTOR_BUDGET)
    # the first cutoff out of range decides the error (c_min when none is)
    first = next((c for c in cs if c < c_min or c + shift > limit), c_min)
    if first < c_min:
        below = f"the family's smallest prime {p_min}" + (" minus 1" if r == -1 else "")
        raise DomainError(f"cutoff {first} is below {below}")
    work = "sweeping all primes up to c needs c" if r is None else "factoring needs n"
    refuse_past(limit, first + shift, lambda: f"{work} = {first + shift}")
    if r is None:
        sums = _sweep_sums(family, condition, interpretation, cs)
    else:
        sums = _divisor_sums(family, r, interpretation, cs)
    points = tuple(SeriesPoint(c, num, den) for c, (num, den) in zip(cs, sums))
    p_max = "c + 1" if r == -1 else "c"
    return Series(points, f"primes p with {p_min} <= p <= {p_max}, condition {condition.value}")


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
        refuse_past(FACTOR_BUDGET, c, lambda: f"factoring the primorial for k = {k} needs n = {c}")
        if k >= 2:
            out.append(c)
    return out


def divergence_series(
    family: DegreeSpec,
    k_max: int,
    interpretation: Interpretation = Interpretation.ROOTS_LE2,
) -> Series:
    """The p-divides-c average along the odd-primorial subsequence.

    Each ratio is the mean of the counts at the first k odd primes; for the
    base-p family the summand at each p is p itself, so the series grows
    without bound.
    """
    require_type("k_max", k_max, int)
    if k_max < 2:
        raise DomainError(f"need k_max >= 2, got {k_max}")
    cs = tuple(odd_primorials(k_max))
    points = partial_average(family, AvgCondition.P_DIVIDES_C, interpretation, cs).points
    cs_text = "c running over products of the first k odd primes"
    return Series(points, f"primes p with {family.min_prime} <= p <= c and p | c, {cs_text}")


# ---------------------------------------------------------------------------
# densities


class PredicateKind(Enum):
    DIVIDES = "divides"
    DIVIDES_PLUS_1 = "divides-plus1"
    DIVIDES_MINUS_1 = "divides-minus1"
    COUNT_EQUALS = "count-eq"


def density(
    family: DegreeSpec,
    kind: PredicateKind,
    interpretation: Interpretation,
    cutoff: int,
    p_min: Optional[int] = None,
    value: Optional[int] = None,
    negate: bool = False,
) -> Series:
    """Hits (each point's numerator) and population at the quarter, half and
    full cutoffs, counted in one pass over the primes.

    The population is {(p, c) : 1 <= c <= cutoff, p prime, p_min <= p <= c},
    a None p_min reading as the family's smallest prime; a pair is a hit when
    the predicate kind holds, flipped by negate: p divides c, c + 1 or c - 1,
    or, for count-eq, the interpretation's count of the map z^d + c over Z/p
    equals value (None reads as 0).  Only count-eq reads value: a
    divisibility predicate given one raises UsageError.  A divisibility
    predicate counts every prime >= p_min; count-eq needs a map at each one,
    so a p_min below the family's smallest prime raises its DomainError.

    For a prime p and a cutoff s, the n = s - p + 1 values c = p..s have
    residues 0, 1, ..., p-1, 0, 1, ... in order, so with periods, rest =
    divmod(n, p) an ascending residue list R meets them periods * len(R)
    times plus once per residue in R below rest.  R is the residue of a
    divisibility predicate, or, for count-eq, those of the residues 0 and
    -1 whose verdict differs from the prime's generic residues (the residue
    profile of dynamics.residue_count_table).  When the generic residues
    satisfy the predicate, the hits are the n - found pairs outside R.
    """
    require_type("family", family, DegreeSpec)
    require_type("kind", kind, PredicateKind)
    require_type("interpretation", interpretation, Interpretation)
    r = _DIVISOR_RESIDUES.get(kind.value)
    if r is not None and value is not None:
        raise UsageError(f"value only applies to count-eq, got {value!r}")
    value = 0 if value is None else value
    p_min = family.min_prime if p_min is None else p_min
    for name, number in (("cutoff", cutoff), ("p_min", p_min), ("value", value)):
        require_type(name, number, int)
    require_type("negate", negate, bool)
    if r is None:
        family.require_prime(p_min)
    C = cutoff
    if C < p_min:
        raise DomainError(f"population is empty: cutoff {C} < p_min {p_min}")
    refuse_past(DENSITY_BUDGET, C, lambda: f"counting pairs up to the density cutoff needs C = {C}")
    snapshots = sorted({C // 4, C // 2, C})
    hits = dict.fromkeys(snapshots, 0)
    population = dict.fromkeys(snapshots, 0)
    for p in primes_in_range(p_min, C):
        if r is None:
            profile = residue_count_table(p, family, interpretation)
            generic_holds = profile[1] == value
            special = [r % p for r in (0, -1) if (profile[r] == value) != generic_holds]
        else:
            generic_holds = False
            special = [r % p]
        for s in snapshots:
            n = s - p + 1
            if n > 0:
                periods, rest = divmod(n, p)
                found = periods * len(special) + bisect_left(special, rest)
                hits[s] += n - found if generic_holds != negate else found
                population[s] += n
    points = tuple(SeriesPoint(s, hits[s], population[s]) for s in snapshots if population[s])
    if not points or points[-1].cutoff != C:
        raise DomainError("population is empty at the requested cutoff")
    return Series(points, f"pairs (p, c) with p prime, {p_min} <= p <= c <= {C}")


# ---------------------------------------------------------------------------
# series rendering (shared by the CLI for avg and density output)

SERIES_HEADER = "cutoff_or_c,numerator,denominator,ratio_num,ratio_den"


def series_rows(series: Series) -> list[tuple]:
    """One (cutoff, numerator, denominator, ratio numerator, ratio
    denominator) row of ints per point, the denominator being the
    population and the ratio reduced to lowest terms (0 is 0/1); an empty
    average's ratio is None, None."""
    rows = []
    for cutoff, num, den in series.points:
        if den:
            g = gcd(num, den)
            rows.append((cutoff, num, den, num // g, den // g))
        else:
            rows.append((cutoff, num, den, None, None))
    return rows
