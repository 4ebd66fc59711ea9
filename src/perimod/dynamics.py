"""Iteration of the power maps z -> z^d + c over a finite ring.

Degrees come factored as base^ell with base in {p, p-1}; they are never
expanded.  A ring element, the coefficient c included, is its dense int
index (rings), and a map is only ever read as its successor table over the
whole ring: the power table of the reduced exponent (rings.pow_index_table),
then the translation by c.  The exponent is reduced modulo q-1 on the unit
group (a reduced exponent of 0 becomes q-1), which agrees with naive
repeated multiplication for every element including 0.

Two readings of "number of 2-periodic points" circulate for these maps: the
set of roots of the second iterate minus the identity (period dividing 2),
and that set with fixed points excluded (exact period 2).  Both are
first-class Interpretation values here, alongside the plain fixed-point
count; nothing in this package silently prefers one reading.
counting_function (one interpretation) and count_report (all three) read
one per-map count table, keyed by the ring and the reduced exponent: each
distinct map is scanned once, its fixed and period-dividing-2 counts filled
together, and every later request for that map, in any interpretation, is
answered from them (exact2 is their difference).  Maps are distinct up to
an isomorphism that fixes F_p, and any two fields of order q = p^m have
one, so the maps with a constant c in F_p share one table per (p, m) and
reduced exponent, whichever field of that order fills it first.  A warm
counting_function call builds no PowerMapSpec: it is one range check on c,
one pow for the reduced exponent, the budget test and two cache lookups,
the power table and the count table.

Over Z/p the reduced exponent is 1 (base p) or p-1 (base p-1), so a map is
the translation z + c or sends every z into {c, c+1}.  residue_count_table
uses this to give the count for every residue c at once as a
ResidueProfile: one generic value plus the values at c = 0 and c = p-1,
each found by evaluating the map on at most two points.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .errors import DomainError, UsageError
from .rings import RingSpec, pow_index_table


class DegreeBase(Enum):
    P = "p"
    P_MINUS_1 = "p-1"

    @property
    def min_prime(self) -> int:
        """Smallest prime the family is defined for (degree >= 2 and the
        counting results' hypotheses: p >= 3 for base p, p >= 5 for base p-1)."""
        return 3 if self is DegreeBase.P else 5


class Interpretation(Enum):
    """Which count a "2-periodic" query means."""

    FIXED = "fixed"
    ROOTS_LE2 = "roots"  # all roots of phi^2(z) - z
    EXACT2 = "exact2"  # roots of phi^2(z) - z that are not fixed


@dataclass(frozen=True)
class DegreeSpec:
    """Map degree base^ell with base = p or p-1 for the ring's prime p."""

    base: DegreeBase
    ell: int

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise DomainError(f"ell must be >= 1, got {self.ell}")

    @property
    def min_prime(self) -> int:
        return self.base.min_prime

    def require_prime(self, p: int) -> None:
        """Refuse a prime p below the family's smallest (DomainError)."""
        low = self.base.min_prime
        if p < low:
            raise DomainError(f"family {self.describe()} needs p >= {low}, got p = {p}")

    def base_value(self, p: int) -> int:
        return p if self.base is DegreeBase.P else p - 1

    def reduced_exponent_for(self, p: int, q: int) -> int:
        """base^ell reduced mod q-1, mapped into [1, q-1].

        Valid for exponentiation over a field of order q: nonzero elements
        satisfy z^(q-1) = 1, and z = 0 satisfies 0^e = 0 for any e >= 1, so
        one reduced exponent covers the whole ring.
        """
        e = pow(self.base_value(p), self.ell, q - 1)
        return e if e != 0 else q - 1

    def describe(self) -> str:
        base = "p" if self.base is DegreeBase.P else "(p-1)"
        return f"{base}^{self.ell}"


@dataclass(frozen=True)
class PowerMapSpec:
    """The map z -> z^d + c on a specific ring, d = degree.base^degree.ell,
    c given by its index in the ring."""

    ring: RingSpec
    degree: DegreeSpec
    c: int
    exponent: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponent", _exponent(self.ring, self.degree, self.c))


def _exponent(ring: RingSpec, degree: DegreeSpec, c: int) -> int:
    """The reduced exponent of z -> z^d + c on ring, after checking that c is
    an index 0 <= c < q (UsageError) and p the family's (DomainError)."""
    q = ring.cardinality_q
    if not isinstance(c, int) or not 0 <= c < q:
        raise UsageError(f"index {c!r} out of range for {ring.describe()}")
    p = ring.p
    if degree.base is DegreeBase.P:  # needs p >= 3, as every ring has
        return pow(p, degree.ell, q - 1) or q - 1
    degree.require_prime(p)
    return pow(p - 1, degree.ell, q - 1) or q - 1


@dataclass(frozen=True)
class OrbitDecomposition:
    """Cycle structure of the map's functional graph.

    cycles holds (length, representative) pairs, representative being the
    index of the cycle's smallest element; tail nodes (strictly preperiodic
    points) are counted, not enumerated.
    """

    cycles: tuple[tuple[int, int], ...]
    tail_node_count: int


@dataclass(frozen=True)
class CountReport:
    """The three counts for one map, fields in Interpretation order;
    period_le2_roots = fixed + exact2 always."""

    fixed: int
    period_le2_roots: int
    exact2: int


def orbit_decomposition(map_spec: PowerMapSpec) -> OrbitDecomposition:
    """Classify every ring element as a cycle node or a tail node, read off
    the map's successor table (after the budget check)."""
    ring = map_spec.ring
    ring.refuse_scan()
    addc = ring.translation_table(map_spec.c)
    succ = list(map(addc.__getitem__, pow_index_table(ring, map_spec.exponent)))
    q = len(succ)
    status = bytearray(q)  # 0 unvisited, 1 on current path, 2 settled
    cycles: list[tuple[int, int]] = []
    for start in range(q):
        if status[start]:
            continue
        path: list[int] = []
        pos: dict[int, int] = {}
        x = start
        while status[x] == 0:
            status[x] = 1
            pos[x] = len(path)
            path.append(x)
            x = succ[x]
        if status[x] == 1:  # closed a new cycle inside the current path
            cycle = path[pos[x] :]
            cycles.append((len(cycle), min(cycle)))
        for node in path:
            status[node] = 2
    cycles.sort(key=lambda lc: lc[1])
    total_on_cycles = sum(length for length, _ in cycles)
    return OrbitDecomposition(cycles=tuple(cycles), tail_node_count=q - total_on_cycles)


@lru_cache(maxsize=None)
def _count_table(key: "RingSpec | tuple[int, int]", e: int, size: int) -> tuple[array, array]:
    """Count slots of the maps z -> z^e + c (each e in [1, q-1] is a distinct
    power map): #{z : phi(z) = z} and #{z : phi^2(z) = z} for each
    coefficient index c < size, -1 until that map is scanned.

    key is a ring, whose q slots hold its own maps, or (p, m), whose p slots
    hold the maps with a constant c in F_p on every field of order q = p^m:
    an isomorphism sigma between two such fields fixes F_p, so it carries
    z^e + c to sigma(z)^e + c and the two maps have the same counts.
    """
    unscanned = array("i", [-1]) * size
    return unscanned, array("i", unscanned)


def _count(ring: RingSpec, e: int, c: int, interpretation: Interpretation) -> int:
    """The interpretation's count for z -> z^e + c on ring, e a reduced
    exponent and c a checked index, read from the map's slots in
    _count_table: the slots shared by the fields of its order when c is a
    constant (its index is one base-p digit), its ring's own otherwise.

    The budget is tested first, on every call, so a lowered budget refuses
    a cached count too; a warm call is then two cache lookups, the power
    table and the map's slots.  The first call for a map builds its
    successor table and fills both slots: one pass finds the points of
    period dividing 2, and the fixed points are counted among those.
    """
    ring.refuse_scan()
    u = pow_index_table(ring, e)
    if c < ring.p:
        fixed, roots = _count_table((ring.p, ring.degree_m), e, ring.p)
    else:
        fixed, roots = _count_table(ring, e, ring.cardinality_q)
    if fixed[c] < 0:
        addc = ring.translation_table(c)
        succ = list(map(addc.__getitem__, u))
        period2 = [z for z, w in enumerate(succ) if succ[w] == z]
        roots[c] = len(period2)
        fixed[c] = sum(1 for z in period2 if succ[z] == z)
    if interpretation is Interpretation.FIXED:
        return fixed[c]
    if interpretation is Interpretation.ROOTS_LE2:
        return roots[c]
    return roots[c] - fixed[c]


def count_report(map_spec: PowerMapSpec) -> CountReport:
    """All three counts of one map, in Interpretation order."""
    ring, e, c = map_spec.ring, map_spec.exponent, map_spec.c
    return CountReport(*(_count(ring, e, c, i) for i in Interpretation))


def counting_function(
    family: DegreeSpec,
    interpretation: Interpretation,
    ring: RingSpec,
    c: int,
) -> int:
    """The interpretation's count for z -> z^d + c on ring, d from family and
    c given by its index: one range check and one pow, then _count, with
    no PowerMapSpec built."""
    return _count(ring, _exponent(ring, family, c), c, interpretation)


@dataclass(frozen=True)
class ResidueProfile:
    """counting_function over Z/p as a function of the residue c mod p: one
    generic value, taken at every residue except 0 and p-1, and the values
    at those two.  profile[r] reads the value at residue 0 <= r < p."""

    p: int
    generic: int
    at_zero: int
    at_minus_one: int

    def __len__(self) -> int:
        return self.p

    def __getitem__(self, r: int) -> int:
        if not 0 <= r < self.p:
            raise IndexError(f"residue {r} is outside 0..{self.p - 1}")
        if r == 0:
            return self.at_zero
        return self.at_minus_one if r == self.p - 1 else self.generic


def _period_count(p: int, e: int, c: int, k: int) -> int:
    """#{z in Z/p : phi^k(z) = z} for phi(z) = z^e + c, with e = 1 or p-1."""
    if e == 1:  # the translation: phi^k(z) = z + kc
        return p if k * c % p == 0 else 0
    # z^(p-1) is 0 at z = 0 and 1 elsewhere, so phi maps Z/p into {c, c+1},
    # and every point of period dividing k lies in that image
    hits = 0
    for z in {c % p, (c + 1) % p}:
        w = z
        for _ in range(k):
            w = (pow(w, e, p) + c) % p
        hits += w == z
    return hits


@lru_cache(maxsize=None)
def residue_count_table(
    p: int, family: DegreeSpec, interpretation: Interpretation
) -> ResidueProfile:
    """counting_function over Z/p for every residue c at once, in O(1).

    Over Z/p the reduced exponent e is base^ell mod p-1, which is 1 for
    base p and p-1 for base p-1.  With e = 1 the map is the translation
    z + c; with e = p-1 its image is {c, c+1}, which changes shape only
    where c or c+1 is 0.  Either way the count depends on c only through
    whether c is 0, p-1 or neither, so it is evaluated at c = 0, p-1 and 1.
    Agreement with the per-map scans and with a residue-by-residue oracle
    is pinned by tests.

    p must be prime, but only odd and >= 3 is checked: every caller takes p
    from a prime sieve, and trial division would cost more than the profile.
    """
    if p < 3 or p % 2 == 0:
        raise UsageError(f"modulus must be an odd prime >= 3, got {p!r}")
    family.require_prime(p)
    e = family.reduced_exponent_for(p, p)

    def count(c: int) -> int:
        if interpretation is Interpretation.FIXED:
            return _period_count(p, e, c, 1)
        le2 = _period_count(p, e, c, 2)
        if interpretation is Interpretation.ROOTS_LE2:
            return le2
        return le2 - _period_count(p, e, c, 1)

    return ResidueProfile(p, generic=count(1), at_zero=count(0), at_minus_one=count(p - 1))
