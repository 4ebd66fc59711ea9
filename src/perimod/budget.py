"""Every limit on a run: the five caps, their one override, their one refusal.

SCAN_BUDGET caps the elements a scan visits and the p^m monics an enumeration
lists, and only it can be overridden, by a positive integer in PERIMOD_BUDGET,
which scan_budget reads on every call: a change applies to the next scan.
SWEEP_BUDGET caps the cutoff of an average over every prime up to c,
FACTOR_BUDGET the numbers factored by trial division, DENSITY_BUDGET the
density cutoff, CELL_BUDGET the cells of a verify sweep.  refuse_past raises
every ResourceError as "<work> needs <amount>, budget is <limit>".
"""

import os
from typing import Callable

from .errors import ResourceError, UsageError

SCAN_BUDGET = 10**5
SWEEP_BUDGET = 10**6
FACTOR_BUDGET = 10**12
DENSITY_BUDGET = 10**5
CELL_BUDGET = 250_000
BUDGET_ENV_VAR = "PERIMOD_BUDGET"
_BUDGET_KEY = os.environ.encodekey(BUDGET_ENV_VAR)


def scan_budget() -> int:
    """SCAN_BUDGET, or its override (UsageError unless a positive integer)."""
    # os.environ's own dict, which all its writes go through: unset is None, not a raised KeyError
    raw = os.environ._data.get(_BUDGET_KEY)
    if raw is None:
        return SCAN_BUDGET
    raw = os.environ.decodevalue(raw)
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise UsageError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def refuse_past(limit: int, size: int, work: Callable[[], str]) -> None:
    """Raise ResourceError if size is past limit; work() reads "<work> needs <amount>"."""
    if size > limit:
        raise ResourceError(f"{work()}, budget is {limit}")


def capped_power(p: int, m: int, limit: int) -> int:
    """p^m, m first capped (p >= 2) at a power past limit: no huge power is built."""
    return p ** min(m, limit.bit_length())


def refuse_monics(p: int, m: int) -> None:
    """Refuse to enumerate the p^m degree-m monics over F_p past the scan
    budget."""
    limit = scan_budget()
    refuse_past(limit, capped_power(p, m, limit), lambda: f"enumerating degree-{m} monics over F_{p} needs {p}^{m}")
