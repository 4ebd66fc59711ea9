"""Per-residue point counts of z -> z^d + c over Z/p, residue by residue: the
oracle the residue-profile tests check against.

perimod gives each prime's counts as a residue profile, one generic value
plus the values at c = 0 and c = p-1, derived from the shape of the map.
This file makes no such assumption: it counts for every residue c, by
bucketing the elements of Z/p, with the unreduced degree d.  It imports
nothing from perimod.
"""

from functools import lru_cache


def degree(base: str, ell: int, p: int) -> int:
    """The degree base^ell of the family "p" or "p-1" at the prime p."""
    return (p if base == "p" else p - 1) ** ell


@lru_cache(maxsize=None)
def residue_counts(p: int, d: int) -> dict[str, tuple[int, ...]]:
    """{"fixed", "roots", "exact2"} -> the count of z -> z^d + c on Z/p at
    every residue c = 0..p-1.

    A point z is a root of phi_c^2(x) - x exactly when w := z^d + c satisfies
    w + w^d = z + z^d, so bucketing elements by x + x^d yields, for each
    in-bucket pair (z, w), the unique c = w - z^d it witnesses.  Fixed points
    come from the histogram of z - z^d.
    """
    u = [pow(z, d, p) for z in range(p)]
    fixed = [0] * p
    for z in range(p):
        fixed[(z - u[z]) % p] += 1
    buckets: list[list[int]] = [[] for _ in range(p)]
    for x in range(p):
        buckets[(x + u[x]) % p].append(x)
    roots = [0] * p
    for group in buckets:
        for z in group:
            for w in group:
                roots[(w - u[z]) % p] += 1
    exact2 = [a - b for a, b in zip(roots, fixed)]
    return {"fixed": tuple(fixed), "roots": tuple(roots), "exact2": tuple(exact2)}
