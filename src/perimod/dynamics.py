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
one count table, keyed by the ring and the reduced exponent: each distinct
map is scanned once, its fixed and period-dividing-2 counts stored as one
entry under c, and every later request for that map, in any
interpretation, is answered from them (exact2 is their difference).  Maps
are distinct up to an isomorphism that fixes F_p, and any two fields of
order q = p^m have one, so the maps with a constant c in F_p share one
table per (p, m) and reduced exponent, whichever field of that order
fills it first.
counting_function, count_report and orbit_decomposition each name a map as
(family, ring, c) and check it first alike (_exponent): c is an index into
the ring, then DegreeSpec.exponent, the one rule from a family to a reduced
exponent, checks the prime.  A warm counting_function call is that check,
the budget test and two cache lookups, the power table and the count table.

Over Z/p the reduced exponent is 1 (base p) or p-1 (base p-1), so a map is
the translation z + c, or z -> c + [z != 0] by Fermat.  residue_count_table
reads the count for every residue c at once off that shape: a residue
profile, the tuple of the counts at c = 0, 1 and -1 (mod p), so profile[r]
is the count at residue r for r in (0, 1, -1), and profile[1] is the count
at every residue other than 0 and -1.  As (fixed, roots) pairs, the
translation has (p, p) at c = 0 and (0, 0) elsewhere; z -> c + [z != 0] has
(2, 2) at c = 0, (1, 1) at a generic c and (0, 2) at c = -1.  exact2 is
roots - fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import sub

from .errors import DomainError, UsageError, require_type
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
        require_type("base", self.base, DegreeBase)
        require_type("ell", self.ell, int)
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

    def exponent(self, p: int, q: int) -> int:
        """base^ell reduced mod q-1 into [1, q-1]: one exponent for the whole
        field of order q over F_p, as z^(q-1) = 1 for z != 0 and 0^e = 0.
        Refuses a p below the family's smallest, which only base p-1 checks:
        base p needs p >= 3, and every ring's prime is odd."""
        if self.base is DegreeBase.P:
            return pow(p, self.ell, q - 1) or q - 1
        self.require_prime(p)
        return pow(p - 1, self.ell, q - 1) or q - 1

    def describe(self) -> str:
        base = "p" if self.base is DegreeBase.P else "(p-1)"
        return f"{base}^{self.ell}"


def _exponent(ring: RingSpec, degree: DegreeSpec, c: int) -> int:
    """The reduced exponent of z -> z^d + c on ring, after checking that c is
    an int index 0 <= c < q, not a bool (UsageError), and p the family's
    (DomainError)."""
    q = ring.cardinality_q
    if type(c) is not int or not 0 <= c < q:
        raise UsageError(f"index {c!r} out of range for {ring.describe()}")
    return degree.exponent(ring.p, q)


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


def orbit_decomposition(family: DegreeSpec, ring: RingSpec, c: int) -> OrbitDecomposition:
    """Classify every ring element as a cycle node or a tail node, read off
    the successor table of z -> z^d + c on ring, d from family and c given
    by its index (after the map's checks and the budget check)."""
    e = _exponent(ring, family, c)
    ring.refuse_scan()
    addc = ring.translation_table(c)
    succ = list(map(addc.__getitem__, pow_index_table(ring, e)))
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
def _count_table(key: "RingSpec | tuple[int, int]", e: int) -> dict[int, tuple[int, int]]:
    """Counts of the maps z -> z^e + c scanned so far (each e in [1, q-1] is
    a distinct power map): c -> (#{z : phi(z) = z}, #{z : phi^2(z) = z}).

    key is a ring, for its own maps, or (p, m), for the maps with a constant
    c in F_p on every field of order q = p^m: an isomorphism sigma between
    two such fields fixes F_p, so it carries z^e + c to sigma(z)^e + c and
    the two maps have the same counts.
    """
    return {}


def _count(ring: RingSpec, e: int, c: int, interpretation: Interpretation) -> int:
    """The interpretation's count for z -> z^e + c on ring, e a reduced
    exponent and c a checked index, read from the map's entry in
    _count_table: the table shared by the fields of its order when c is a
    constant (its index is one base-p digit), its ring's own otherwise.

    The budget is tested first, on every call, so a lowered budget refuses
    a cached count too; a warm call is then two cache lookups, the power
    table and the count table, and a read of the map's entry.  The first
    call for a map builds its successor table and stores both counts: one
    pass finds the points of period dividing 2, and the fixed points are
    counted among those.
    """
    ring.refuse_scan()
    u = pow_index_table(ring, e)
    counts = _count_table((ring.p, ring.degree_m) if c < ring.p else ring, e)
    if c not in counts:
        addc = ring.translation_table(c)
        succ = list(map(addc.__getitem__, u))
        period2 = [z for z, w in enumerate(succ) if succ[w] == z]
        counts[c] = sum(1 for z in period2 if succ[z] == z), len(period2)
    fixed, roots = counts[c]
    if interpretation is Interpretation.FIXED:
        return fixed
    if interpretation is Interpretation.ROOTS_LE2:
        return roots
    if interpretation is Interpretation.EXACT2:
        return roots - fixed
    raise UsageError(f"interpretation must be an Interpretation, got {interpretation!r}")


def count_report(family: DegreeSpec, ring: RingSpec, c: int) -> CountReport:
    """All three counts of z -> z^d + c on ring, in Interpretation order,
    the map named and checked as counting_function names and checks it."""
    e = _exponent(ring, family, c)
    return CountReport(*(_count(ring, e, c, i) for i in Interpretation))


def counting_function(
    family: DegreeSpec,
    interpretation: Interpretation,
    ring: RingSpec,
    c: int,
) -> int:
    """The interpretation's count for z -> z^d + c on ring, d from family and
    c given by its index: the map's checks and reduced exponent (_exponent),
    then _count."""
    return _count(ring, _exponent(ring, family, c), c, interpretation)


@lru_cache(maxsize=None)
def residue_count_table(
    p: int, family: DegreeSpec, interpretation: Interpretation
) -> tuple[int, int, int]:
    """counting_function over Z/p for every residue c at once, in O(1): the
    counts at c = 0, 1 and -1 (mod p), so profile[r] is the count at residue
    r for r in (0, 1, -1), and profile[1] that at every residue but 0 and -1.

    Over Z/p the reduced exponent e is base^ell mod p-1, and the map's
    shape gives its (fixed, roots) counts without evaluating it:
    - e = 1 (base p): the translation z + c, so (p, p) at c = 0 and (0, 0)
      at every other residue (p is odd, so 2c = 0 only at c = 0);
    - e = p-1 (base p-1): z^(p-1) = [z != 0] by Fermat, so the map is
      z -> c + [z != 0], with (2, 2) at c = 0 (0 and 1 are fixed), (1, 1)
      at a generic c (c+1 is fixed, c is not periodic) and (0, 2) at c = -1
      (0 and -1 swap).
    exact2 is roots - fixed.  Agreement with the per-map scans and with a
    residue-by-residue oracle is pinned by tests.

    p must be prime, but only odd and >= 3 is checked: every caller takes p
    from a prime sieve, and trial division would cost more than the profile.
    """
    if p < 3 or p % 2 == 0:
        raise UsageError(f"modulus must be an odd prime >= 3, got {p!r}")
    if family.exponent(p, p) == 1:
        fixed = roots = (p, 0, 0)  # at c = 0, 1, -1
    else:
        fixed, roots = (2, 1, 0), (2, 1, 2)
    if interpretation is Interpretation.FIXED:
        return fixed
    if interpretation is Interpretation.ROOTS_LE2:
        return roots
    if interpretation is Interpretation.EXACT2:
        return tuple(map(sub, roots, fixed))
    raise UsageError(f"interpretation must be an Interpretation, got {interpretation!r}")
