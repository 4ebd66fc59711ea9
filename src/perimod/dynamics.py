"""Iteration of the power maps z -> z^d + c over a finite ring.

Degrees come factored as base^ell with base in {p, p-1}; they are never
expanded.  Exponentiation reduces the exponent modulo q-1 on the unit group
(a reduced exponent of 0 becomes q-1), which agrees with naive repeated
multiplication for every element including 0.

Two readings of "number of 2-periodic points" circulate for these maps: the
set of roots of the second iterate minus the identity (period dividing 2),
and that set with fixed points excluded (exact period 2).  Both are
first-class here, alongside the plain fixed-point count; counting_function
makes the choice explicit and nothing in this package silently prefers one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import DomainError, UsageError
from .rings import Prime, RingElem, RingSpec, check_budget, mod_pow, pow_index_table


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
    """The map z -> z^d + c on a specific ring, d = degree.base^degree.ell."""

    ring: RingSpec
    degree: DegreeSpec
    c: RingElem

    def __post_init__(self) -> None:
        if self.c.ring != self.ring:
            raise UsageError("coefficient does not belong to the map's ring")
        if self.ring.p.value < self.degree.min_prime:
            raise DomainError(
                f"degree family {self.degree.describe()} needs p >= {self.degree.min_prime}, "
                f"got p = {self.ring.p.value}"
            )

    @property
    def exponent(self) -> int:
        return self.degree.reduced_exponent_for(self.ring.p.value, self.ring.cardinality_q)


@dataclass(frozen=True)
class OrbitDecomposition:
    """Cycle structure of the map's functional graph.

    cycles holds (length, representative) pairs, representative being the
    cycle's smallest element in enumeration order; tail nodes (strictly
    preperiodic points) are counted, not enumerated.
    """

    cycles: tuple[tuple[int, RingElem], ...]
    tail_node_count: int


@dataclass(frozen=True)
class CountReport:
    """The three counts for one map; period_le2_roots = fixed + exact2 always."""

    fixed: int
    period_le2_roots: int
    exact2: int


def apply(map_spec: PowerMapSpec, z: RingElem) -> RingElem:
    """phi(z) = z^d + c."""
    if z.ring != map_spec.ring:
        raise UsageError("point does not belong to the map's ring")
    return mod_pow(z, map_spec.exponent, map_spec.ring) + map_spec.c


def iterate(map_spec: PowerMapSpec, z: RingElem, n: int) -> RingElem:
    """phi^n(z); n = 0 returns z."""
    if n < 0:
        raise UsageError(f"iteration count must be nonnegative, got {n}")
    for _ in range(n):
        z = apply(map_spec, z)
    return z


def _successor_table(map_spec: PowerMapSpec) -> list[int]:
    """Index table of z -> phi(z) over the whole ring (exhaustive)."""
    ring = map_spec.ring
    q = ring.cardinality_q
    check_budget(q, f"scanning {ring.describe()}")
    u = pow_index_table(ring, map_spec.exponent)
    addc = ring.translation_table(map_spec.c.rep)
    return [addc[x] for x in u]


def orbit_decomposition(map_spec: PowerMapSpec) -> OrbitDecomposition:
    """Classify every ring element as a cycle node or a tail node."""
    succ = _successor_table(map_spec)
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
    ring = map_spec.ring
    return OrbitDecomposition(
        cycles=tuple((length, ring.element_at(rep)) for length, rep in cycles),
        tail_node_count=q - total_on_cycles,
    )


def count_fixed(map_spec: PowerMapSpec) -> int:
    """#{z : phi(z) = z} by exhaustive scan."""
    succ = _successor_table(map_spec)
    return sum(1 for i, s in enumerate(succ) if s == i)


def count_period_le2_roots(map_spec: PowerMapSpec) -> int:
    """#{z : phi^2(z) = z} (all roots of phi^2(x) - x) by exhaustive scan."""
    succ = _successor_table(map_spec)
    return sum(1 for i, s in enumerate(succ) if succ[s] == i)


def count_exact_period2(map_spec: PowerMapSpec) -> int:
    """#{z : phi^2(z) = z and phi(z) != z}; always even."""
    succ = _successor_table(map_spec)
    return sum(1 for i, s in enumerate(succ) if s != i and succ[s] == i)


def count_report(map_spec: PowerMapSpec) -> CountReport:
    return CountReport(
        fixed=count_fixed(map_spec),
        period_le2_roots=count_period_le2_roots(map_spec),
        exact2=count_exact_period2(map_spec),
    )


def counting_function(
    family: DegreeSpec,
    interpretation: Interpretation,
    ring: RingSpec,
    c: RingElem,
) -> int:
    """Single entry point for the claim and statistics modules."""
    map_spec = PowerMapSpec(ring, family, c)
    if interpretation is Interpretation.FIXED:
        return count_fixed(map_spec)
    if interpretation is Interpretation.ROOTS_LE2:
        return count_period_le2_roots(map_spec)
    return count_exact_period2(map_spec)


@lru_cache(maxsize=None)
def residue_count_table(
    p: int, family: DegreeSpec, interpretation: Interpretation
) -> tuple[int, ...]:
    """counting_function over Z/p for every residue c at once.

    Exhaustive in substance but organized per residue: a point z is a root of
    phi_c^2(x) - x exactly when w := z^e + c satisfies w + w^e = z + z^e, so
    bucketing elements by x + x^e yields, for each in-bucket pair (z, w), the
    unique c = w - z^e it witnesses.  Fixed points come from the histogram of
    z - z^e.  Agreement with the per-map scans is pinned by tests.
    """
    Prime(p)  # reject composite or even moduli up front
    if p < family.min_prime:
        raise DomainError(f"family {family.describe()} needs p >= {family.min_prime}")
    e = family.reduced_exponent_for(p, p)
    u = list(range(p)) if e == 1 else [pow(z, e, p) for z in range(p)]
    fixed = [0] * p
    for z in range(p):
        fixed[(z - u[z]) % p] += 1
    if interpretation is Interpretation.FIXED:
        return tuple(fixed)
    buckets: list[list[int]] = [[] for _ in range(p)]
    for x in range(p):
        buckets[(x + u[x]) % p].append(x)
    le2 = [0] * p
    for group in buckets:
        for z in group:
            uz = u[z]
            for w in group:
                le2[(w - uz) % p] += 1
    if interpretation is Interpretation.ROOTS_LE2:
        return tuple(le2)
    return tuple(a - b for a, b in zip(le2, fixed))
