"""Statistics tests: exact averages, divergence series, and densities."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from residueoracle import degree, residue_counts

from perimod.dynamics import DegreeBase, DegreeSpec, Interpretation, counting_function
from perimod.errors import DomainError, ResourceError, UsageError
from perimod.rings import RingSpec, enumerate_monic_irreducibles, primes_in_range
from perimod.stats import (
    AvgCondition,
    PredicateKind,
    density,
    divergence_series,
    odd_primorials,
    partial_average,
    series_rows,
)

P1 = DegreeSpec(DegreeBase.P, 1)
P2 = DegreeSpec(DegreeBase.P, 2)
U1 = DegreeSpec(DegreeBase.P_MINUS_1, 1)
ROOTS = Interpretation.ROOTS_LE2


def avg(family, condition, cs, interpretation=ROOTS):
    return partial_average(family, condition, interpretation, tuple(cs))


# ---------------------------------------------------------------------------
# partial averages


def test_not_divides_average_is_zero():
    point = avg(P1, AvgCondition.P_NOT_DIVIDES_C, [100]).points[0]
    assert point.population == 23  # primes 3..97 not dividing 100, minus {5}
    assert point.ratio == Fraction(0)


def test_divides_average_examples():
    point = avg(P1, AvgCondition.P_DIVIDES_C, [105]).points[0]
    assert (point.numerator, point.population) == (15, 3)
    assert point.ratio == Fraction(5)
    series = avg(U1, AvgCondition.P_DIVIDES_C, [35, 105, 385])
    assert [pt.ratio for pt in series.points] == [Fraction(2)] * 3


def test_average_against_direct_counting():
    # same numbers when each summand is recomputed through counting_function
    for family, condition, c in [
        (P2, AvgCondition.P_DIVIDES_C, 90),
        (U1, AvgCondition.P_DIVIDES_C_PLUS_1, 34),
        (U1, AvgCondition.P_DIVIDES_C_MINUS_1, 36),
        (U1, AvgCondition.OTHER_RESIDUES, 60),
    ]:
        point = avg(family, condition, [c]).points[0]
        p_min = family.min_prime
        expected_num = 0
        expected_den = 0
        for p in primes_in_range(p_min, c + 1):
            if condition is AvgCondition.P_DIVIDES_C and c % p:
                continue
            if condition is AvgCondition.P_DIVIDES_C_PLUS_1 and (c + 1) % p:
                continue
            if condition is AvgCondition.P_DIVIDES_C_MINUS_1 and (c - 1) % p:
                continue
            if condition is AvgCondition.OTHER_RESIDUES and (p > c or c % p in (0, 1, p - 1)):
                continue
            ring = RingSpec(p)
            expected_num += counting_function(family, ROOTS, ring, ring.element(c % p))
            expected_den += 1
        assert (point.numerator, point.population) == (expected_num, expected_den)


def _oracle_average(family, condition, interpretation, c):
    """(numerator, denominator) at cutoff c, summing the oracle's count over
    every selected prime in turn."""
    numerator = denominator = 0
    for p in primes_in_range(family.min_prime, c + 1):
        r = c % p
        selected = {
            AvgCondition.P_DIVIDES_C: r == 0,
            AvgCondition.P_DIVIDES_C_PLUS_1: (c + 1) % p == 0,
            AvgCondition.P_DIVIDES_C_MINUS_1: (c - 1) % p == 0,
            AvgCondition.P_NOT_DIVIDES_C: p <= c and r != 0,
            AvgCondition.OTHER_RESIDUES: p <= c and r not in (0, 1, p - 1),
        }[condition]
        if selected:
            d = degree(family.base.value, family.ell, p)
            numerator += residue_counts(p, d)[interpretation.value][r]
            denominator += 1
    return numerator, denominator


@pytest.mark.parametrize("family", [P1, U1])
@pytest.mark.parametrize("condition", list(AvgCondition))
def test_average_matches_per_prime_oracle_sums(family, condition):
    cs = range(family.min_prime, 401)
    for interpretation in Interpretation:
        series = avg(family, condition, cs, interpretation)
        got = [(pt.cutoff, pt.numerator, pt.population) for pt in series.points]
        assert got == [(c, *_oracle_average(family, condition, interpretation, c)) for c in cs]
    # unsorted and repeated cutoffs give the same points
    shuffled = [400, family.min_prime, 97, 400, 96]
    series = avg(family, condition, shuffled)
    got = [(pt.cutoff, pt.numerator, pt.population) for pt in series.points]
    assert got == [(c, *_oracle_average(family, condition, ROOTS, c)) for c in shuffled]


@pytest.mark.parametrize("family", [P1, U1])
@pytest.mark.parametrize("condition", [AvgCondition.P_NOT_DIVIDES_C, AvgCondition.OTHER_RESIDUES])
def test_sparse_sweep_cutoffs_match_the_dense_series(family, condition):
    # a sweep lays its corrections out from min(cs) to max(cs) only, so a
    # sparse, unsorted tuple must give the dense series' points at its cutoffs
    rng = random.Random(f"{family.describe()} {condition.value}")
    cutoffs = range(family.min_prime, 2001)
    for interpretation in Interpretation:
        dense = {pt.cutoff: pt for pt in avg(family, condition, cutoffs, interpretation).points}
        for size in (1, 1, 2, 3, 5, 8):
            cs = [rng.choice(cutoffs) for _ in range(size)]
            assert avg(family, condition, cs, interpretation).points == tuple(dense[c] for c in cs), cs


@pytest.mark.parametrize("condition", list(AvgCondition))
def test_first_bad_cutoff_decides_the_error(condition):
    too_big = 10**6 + 1 if condition.value in ("not-divides", "other") else 10**12 + 2
    with pytest.raises(DomainError):
        avg(U1, condition, [10, 3, too_big])
    with pytest.raises(ResourceError):
        avg(U1, condition, [10, too_big, 3])


def test_plus_minus_conditions_reach_c_plus_minus_1():
    # p = 37 divides c+1 = 37 even though 37 > c = 36
    point = avg(U1, AvgCondition.P_DIVIDES_C_PLUS_1, [36]).points[0]
    assert point.population == 1
    # c = 36 with p | c - 1: 5 and 7 divide 35
    point = avg(U1, AvgCondition.P_DIVIDES_C_MINUS_1, [36]).points[0]
    assert point.population == 2
    assert point.ratio == Fraction(1)  # count is 1 at c = +1 residues


def test_empty_condition_is_flagged_not_divided():
    point = avg(P1, AvgCondition.P_DIVIDES_C, [4]).points[0]
    assert point.population == 0 and point.ratio is None


def test_cutoff_below_family_minimum_rejected():
    with pytest.raises(DomainError):
        avg(U1, AvgCondition.P_DIVIDES_C, [4])


def test_divides_plus1_cutoff_reaches_one_below_the_smallest_prime():
    # p = c + 1 is the family's smallest prime, so the population is {c + 1}
    for family, c in [(U1, 4), (P1, 2)]:
        point = avg(family, AvgCondition.P_DIVIDES_C_PLUS_1, [c]).points[0]
        assert point.population == 1
        ring = RingSpec(c + 1)
        assert point.numerator == counting_function(family, ROOTS, ring, ring.element(c))
        with pytest.raises(DomainError):
            avg(family, AvgCondition.P_DIVIDES_C_PLUS_1, [c - 1])
        for condition in AvgCondition:
            if condition is not AvgCondition.P_DIVIDES_C_PLUS_1:
                with pytest.raises(DomainError):
                    avg(family, condition, [c])


def test_exactness_of_ratios():
    series = avg(P1, AvgCondition.P_DIVIDES_C, [1155])
    assert isinstance(series.points[0].ratio, Fraction)
    assert series.points[0].ratio == Fraction(3 + 5 + 7 + 11, 4)


# ---------------------------------------------------------------------------
# divergence series


def test_odd_primorials():
    assert odd_primorials(4) == [15, 105, 1155]
    with pytest.raises(ResourceError):
        odd_primorials(20)
    with pytest.raises(ResourceError):
        odd_primorials(10**9)  # raises at k = 11 without first listing k_max primes


def test_factor_budget_caps_divisibility_conditions():
    for condition, c in (
        (AvgCondition.P_DIVIDES_C, 10**12 + 1),
        (AvgCondition.P_DIVIDES_C_PLUS_1, 10**12),
        (AvgCondition.P_DIVIDES_C_MINUS_1, 10**12 + 2),
    ):
        with pytest.raises(ResourceError):
            partial_average(P1, condition, ROOTS, (c,))
    at_limit = partial_average(P1, AvgCondition.P_DIVIDES_C, ROOTS, (10**12,))
    assert at_limit.points[0].population == 1  # 10^12 = 2^12 * 5^12: only p = 5


def test_divergence_series_values():
    series = divergence_series(P1, 8)
    ratios = [pt.ratio for pt in series.points]
    assert ratios[:3] == [Fraction(4), Fraction(5), Fraction(13, 2)]
    # independent check: each ratio is the mean of the first k odd primes
    odd_primes = primes_in_range(3, 100)
    for k, ratio in enumerate(ratios, start=2):
        assert ratio == Fraction(sum(odd_primes[:k]), k)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_divergence_series_validation():
    with pytest.raises(DomainError):
        divergence_series(P1, 1)


def test_strictly_increasing_verdict():
    assert divergence_series(P1, 5).strictly_increasing()
    flat = avg(U1, AvgCondition.P_DIVIDES_C, [35, 105, 385])
    assert not flat.strictly_increasing()


# ---------------------------------------------------------------------------
# densities


def test_density_examples():
    result = density(P1, PredicateKind.DIVIDES, ROOTS, 10, 3)
    assert result.points[-1].ratio == Fraction(1, 3)
    assert result.points[-1].numerator == 6 and result.points[-1].population == 18
    result = density(U1, PredicateKind.DIVIDES, ROOTS, 10, 5)
    assert result.points[-1].ratio == Fraction(3, 10)
    assert density(U1, PredicateKind.COUNT_EQUALS, ROOTS, 10, 5, 1).points[-1][1:] == (6, 10)


def test_density_population_by_enumeration():
    # population for the unit family at C = 10 is exactly the 10 pairs listed
    pairs = [
        (p, c)
        for c in range(1, 11)
        for p in primes_in_range(5, 10)
        if p <= c
    ]
    assert len(pairs) == 10
    hits = [(p, c) for p, c in pairs if c % p == 0]
    assert sorted(hits) == [(5, 5), (5, 10), (7, 7)]


def test_density_trend_and_complementarity():
    divides = density(P1, PredicateKind.DIVIDES, ROOTS, 1000, 3)
    not_divides = density(P1, PredicateKind.DIVIDES, ROOTS, 1000, 3, negate=True)
    assert divides.points[-1].ratio + not_divides.points[-1].ratio == 1
    by_cutoff = {pt.cutoff: pt.ratio for pt in divides.points}
    assert by_cutoff[1000] < by_cutoff[500] < by_cutoff[250]


def test_density_count_predicate_matches_divides_for_base_p():
    # count = 0 exactly when p does not divide c, so the densities complement
    zero_count = density(P1, PredicateKind.COUNT_EQUALS, ROOTS, 200, 3, 0)
    divides = density(P1, PredicateKind.DIVIDES, ROOTS, 200, 3)
    assert zero_count.points[-1].ratio + divides.points[-1].ratio == 1


def test_density_validation():
    with pytest.raises(DomainError):
        density(P1, PredicateKind.DIVIDES, ROOTS, 2, 3)
    with pytest.raises(ResourceError):
        density(P1, PredicateKind.DIVIDES, ROOTS, 10**6, 3)


COUNT_EQ = PredicateKind.COUNT_EQUALS


@pytest.mark.parametrize(
    "call,message",
    [
        # a str value once counted 0 of these 10 pairs, where value 1 counts 6
        (lambda: density(U1, COUNT_EQ, ROOTS, 10, 5, "1"), "value must be an int, got '1'"),
        # a str negate once flipped the count or not by the generic verdict
        (lambda: density(U1, COUNT_EQ, ROOTS, 10, 5, 1, "no"), "negate must be a bool, got 'no'"),
        (lambda: density(U1, COUNT_EQ, ROOTS, 10, 5, True), "value must be an int, got True"),
        # a str enum once raised a raw AttributeError, a float a raw TypeError
        (lambda: density(U1, "count-eq", ROOTS, 10, 5), "kind must be a PredicateKind, got 'count-eq'"),
        (lambda: density(U1, COUNT_EQ, ROOTS, 10.0, 5), "cutoff must be an int, got 10.0"),
        (lambda: density(U1, COUNT_EQ, ROOTS, 10, 5.0), "p_min must be an int, got 5.0"),
        (lambda: density("p-1", COUNT_EQ, ROOTS, 10, 5), "family must be a DegreeSpec, got 'p-1'"),
        # a divisibility predicate reads no count, so a str interpretation passed unseen
        (lambda: density(P1, PredicateKind.DIVIDES, "roots", 10, 3),
         "interpretation must be an Interpretation, got 'roots'"),
        (lambda: avg(P1, AvgCondition.P_DIVIDES_C, [], "roots"),
         "interpretation must be an Interpretation, got 'roots'"),
        (lambda: avg(P1, "divides", [105]), "condition must be an AvgCondition, got 'divides'"),
        (lambda: avg(P1, AvgCondition.P_DIVIDES_C, [105, 105.0]), "cutoff must be an int, got 105.0"),
        (lambda: avg(P1, AvgCondition.P_NOT_DIVIDES_C, [100.0]), "cutoff must be an int, got 100.0"),
        (lambda: divergence_series(P1, 4.0), "k_max must be an int, got 4.0"),
    ],
)
def test_entry_points_refuse_wrong_argument_types(call, message):
    with pytest.raises(UsageError) as err:
        call()
    assert str(err.value) == message


def test_density_smallest_population():
    # C = 3: the population is the single pair (3, 3)
    result = density(P1, PredicateKind.DIVIDES, ROOTS, 3, 3)
    assert result.points[-1].population == 1
    assert result.points[-1].ratio == Fraction(1)


@lru_cache(maxsize=None)
def _scanned_counts(family, p):
    """{interpretation: count} for every c mod p, iterating z^d + c directly."""
    d = degree(family.base.value, family.ell, p)
    powers = [pow(z, d, p) for z in range(p)]
    out = []
    for c in range(p):
        phi = [(u + c) % p for u in powers]
        fixed = sum(phi[z] == z for z in range(p))
        roots = sum(phi[phi[z]] == z for z in range(p))
        out.append(
            {Interpretation.FIXED: fixed, ROOTS: roots, Interpretation.EXACT2: roots - fixed}
        )
    return out


def _enumerated_density(family, kind, interpretation, C, p_min, value, negate):
    """The density points, or the error type, from every pair (p, c) in turn."""
    if kind is PredicateKind.COUNT_EQUALS and p_min < family.min_prime:
        return DomainError  # count-eq needs the family's map at every prime >= p_min
    if C < p_min:
        return DomainError
    primes = [p for p in range(p_min, C + 1) if all(p % f for f in range(2, p))]
    if kind is PredicateKind.COUNT_EQUALS:
        for p in primes:
            ring = RingSpec(p)
            zero = counting_function(family, interpretation, ring, ring.element(0))
            assert zero == _scanned_counts(family, p)[0][interpretation]
    offset = {
        PredicateKind.DIVIDES: 0,
        PredicateKind.DIVIDES_PLUS_1: 1,
        PredicateKind.DIVIDES_MINUS_1: -1,
    }.get(kind)
    points = []
    hits = population = 0
    for c in range(1, C + 1):
        for p in primes:
            if p > c:
                break
            if offset is not None:
                holds = (c + offset) % p == 0
            else:
                holds = _scanned_counts(family, p)[c % p][interpretation] == value
            population += 1
            hits += holds != negate
        if c in (C // 4, C // 2, C) and population:
            points.append((c, hits, population, Fraction(hits, population)))
    if not points or points[-1][0] != C:
        return DomainError
    return points


@pytest.mark.parametrize("family", [P1, U1])
@pytest.mark.parametrize("p_min", [None, 2, 7])
def test_density_matches_pair_enumeration(family, p_min):
    p_min = family.min_prime if p_min is None else p_min
    predicates = [
        (kind, ROOTS, 0) for kind in PredicateKind if kind is not PredicateKind.COUNT_EQUALS
    ]
    predicates += [
        (PredicateKind.COUNT_EQUALS, interpretation, value)
        for value in range(3)
        for interpretation in Interpretation
    ]
    for kind, interpretation, value in predicates:
        for negate in (False, True):
            args = (family, kind, interpretation)
            for C in [*range(1, 31), 100, 257]:
                expected = _enumerated_density(*args, C, p_min, value, negate)
                if isinstance(expected, type):
                    with pytest.raises(expected):
                        density(*args, C, p_min, value, negate)
                    continue
                points = density(*args, C, p_min, value, negate).points
                got = [(pt.cutoff, pt.numerator, pt.population, pt.ratio) for pt in points]
                assert got == expected, (kind, interpretation, value, negate, C)


def test_series_rows_reduce_each_ratio_like_fraction():
    # every avg and density series the CLI can write: rows reduce each
    # numerator/population with one gcd, exactly as Fraction does
    series = [
        avg(family, condition, range(family.min_prime, 80), interpretation)
        for family in (P1, U1)
        for condition in AvgCondition
        for interpretation in Interpretation
    ]
    series += [divergence_series(family, 4) for family in (P1, U1)]
    predicates = [(kind, ROOTS, 0) for kind in PredicateKind if kind is not PredicateKind.COUNT_EQUALS]
    predicates += [
        (PredicateKind.COUNT_EQUALS, interpretation, value)
        for interpretation in Interpretation
        for value in (0, 1)
    ]
    series += [
        density(family, kind, interpretation, 60, family.min_prime, value)
        for family in (P1, U1)
        for kind, interpretation, value in predicates
    ]
    seen = set()
    for result in series:
        for point, row in zip(result.points, series_rows(result), strict=True):
            cutoff, num, den = point
            assert row[:3] == (cutoff, num, den)
            if den:
                ratio = Fraction(num, den)
                assert row[3:] == (ratio.numerator, ratio.denominator)
                assert type(point.ratio) is Fraction and point.ratio == ratio
                seen.add("zero" if num == 0 else "nonzero")
            else:
                assert row[3:] == (None, None) and point.ratio is None
                seen.add("empty")
    assert seen == {"empty", "zero", "nonzero"}  # zero is written 0/1, empty None/None


def test_series_rows_schema():
    series = avg(P1, AvgCondition.P_DIVIDES_C, [4, 15])
    rows = series_rows(series)
    assert rows[0] == (4, 0, 0, None, None)  # empty point: no division
    assert rows[1] == (15, 8, 2, 4, 1)
    result = density(P1, PredicateKind.DIVIDES, ROOTS, 10, 3)
    rows = series_rows(result)
    assert rows[-1] == (10, 6, 18, 1, 3)


# ---------------------------------------------------------------------------
# degree-1 quotient fields agree with Z/p point-for-point


def test_linear_modulus_matches_prime_field():
    for p in (3, 5, 7):
        zp = RingSpec(p)
        for pi in enumerate_monic_irreducibles(p, 1):
            fq = RingSpec(p, pi)
            for base in (DegreeBase.P, DegreeBase.P_MINUS_1):
                if base is DegreeBase.P_MINUS_1 and p < 5:
                    continue
                for ell in (1, 2):
                    family = DegreeSpec(base, ell)
                    for c in range(p):
                        assert counting_function(family, ROOTS, fq, fq.element(c)) == (
                            counting_function(family, ROOTS, zp, zp.element(c))
                        )
