"""Point counts of one map read off its successor table, one pass per count:
the oracle the per-map count-table tests check against.

perimod fills a map's fixed and period-dividing-2 counts together and gives
exact period 2 as their difference.  Here each count is its own scan of the
successor table succ (succ[z] is the index of phi(z)), exact2 included, so
that difference is checked, not assumed.  It imports nothing from perimod.
"""


def fixed(succ: list[int]) -> int:
    """#{z : phi(z) = z}."""
    return sum(1 for z, w in enumerate(succ) if w == z)


def roots(succ: list[int]) -> int:
    """#{z : phi^2(z) = z}, the roots of phi^2(x) - x."""
    return sum(1 for z, w in enumerate(succ) if succ[w] == z)


def exact2(succ: list[int]) -> int:
    """#{z : phi^2(z) = z, phi(z) != z}, always even."""
    return sum(1 for z, w in enumerate(succ) if w != z and succ[w] == z)


# by Interpretation value
COUNTS = {"fixed": fixed, "roots": roots, "exact2": exact2}
