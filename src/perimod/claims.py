"""Machine-checkable catalog of the claimed 2-periodic point counts, plus a
brute-force verifier that sweeps each claim's parameter domain cell by cell.

Every claim is one branch of a published counting statement for the families
z^(p^ell) + c and z^((p-1)^ell) + c over Z/pZ and F_p[t]/(pi): a coefficient
congruence class together with a predicted count, the closed interval
[lo, hi] whose bounds are ints or the tokens "p" (the ring prime) and "ell"
(an exact count v is [v, v]).  The statements are one literal table, a row
per branch, read once for each ring to give the 34 catalog records.  The
verifier is what the verify command runs: claim_catalog() lists the records,
verify_all() plans the cells in one pass over the catalog, one loop per
claim over the primes from its family's floor up (a claim with no cell is
a skip note saying why), refuses a sweep past CELL_BUDGET, then counts
each cell exhaustively, and render_report() writes each cell as a CSV row
or JSON object; a report is written, never parsed back.  A plan reads no
interpretation, so it is built once per (p_max, ell_max, m_max) and kept
for the 8 latest shapes; every check and refusal runs on each call.  The
CSV is written block by block: the fields a (claim, p, ell, m) block's
cells share are quoted once per process and kept for the 1024 latest
runs, each representative's text once per report, and a row joins those
pieces with the cell's count.
Matches and mismatches are data; a mismatch is a report row, never an
execution failure, because documenting where brute force disagrees with the
claimed counts is the point of the exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Sequence, Union

from .budget import CELL_BUDGET, refuse_monics, refuse_past, scan_budget
from .dynamics import DegreeBase, DegreeSpec, Interpretation, counting_function
from .errors import DomainError, UsageError, require_type
from .rings import RingKind, RingSpec, enumerate_monic_irreducibles, primes_in_range
from .tables import csv_fields, json_text


class CoeffClass(Enum):
    """Congruence class of the coefficient c modulo the ring's prime/modulus.

    The four classes partition the residues (for p = 3 the plus-one and
    minus-one classes exhaust the nonzero residues, leaving OTHER empty).
    """

    DIVISIBLE = "divisible"
    PLUS_ONE = "plus1"
    MINUS_ONE = "minus1"
    OTHER = "other"


class EllDomain(Enum):
    """Which exponents ell a claim covers; IN_1P / NOT_1P couple ell to the
    cell's prime p."""

    ONE = "l1"
    IN_1P = "l-in-1p"
    NOT_1P = "l-not-1p"
    ANY = "l-any"

    def admits(self, ell: int, p: int) -> bool:
        if self is EllDomain.ONE:
            return ell == 1
        if self is EllDomain.IN_1P:
            return ell in (1, p)
        if self is EllDomain.NOT_1P:
            return ell not in (1, p)
        return True


Expr = Union[int, str]  # an int, or the token "p" (the ring prime) or "ell"


@dataclass(frozen=True)
class Prediction:
    """Predicted count: the closed interval [lo, hi].  An exact count v is
    (v, v); the ring prime is ("p", "p")."""

    lo: Expr
    hi: Expr

    def bounds(self, p: int, ell: int) -> tuple[int, int]:
        lo = p if self.lo == "p" else ell if self.lo == "ell" else self.lo
        hi = p if self.hi == "p" else ell if self.hi == "ell" else self.hi
        if lo > hi:
            raise DomainError(f"empty predicted interval [{lo}, {hi}]")
        return lo, hi

    def render(self, p: int, ell: int) -> str:
        lo, hi = self.bounds(p, ell)
        return str(lo) if lo == hi else f"{lo}..{hi}"


@dataclass(frozen=True)
class ClaimRecord:
    """One claimed counting branch: parameter domain, coefficient class,
    predicted count, and the theorem it encodes."""

    id: str
    family: DegreeBase
    ell_domain: EllDomain
    ring_kind: RingKind
    coeff_class: CoeffClass
    prediction: Prediction
    citation: str


class VerificationCell(NamedTuple):
    """One (claim, p, ell, m, c) comparison; m = 0 marks prime-field cells."""

    claim_id: str
    p: int
    ell: int
    m: int
    c_class: str
    c_rep: str
    interpretation: str
    claimed: str
    computed: int
    match: bool


@dataclass(frozen=True)
class SkipNote:
    claim_id: str
    reason: str


@dataclass(frozen=True)
class VerificationReport:
    cells: tuple[VerificationCell, ...]
    skips: tuple[SkipNote, ...] = ()

    def summary_line(self) -> str:
        matches = sum(cell.match for cell in self.cells)
        return f"cells={len(self.cells)} matches={matches} mismatches={len(self.cells) - matches}"


# The paper's statements, one row per branch, grouped by family and read
# once for each ring: (id after the ring tag, family, ell domain,
# coefficient class, lo, hi, Z/p source, F_p[t]/(pi) source).  The count is
# predicted in [lo, hi]; a coefficient class reads c modulo p or pi.  Each
# "otherwise the count is 0" branch is split over the three non-divisible
# classes so every residue is checked.
_STATEMENTS = (
    (  # z^(p^ell) + c
        ("ppow-l1-divisible", "p", "l1", "divisible", "p", "p", "Thm 2.1/2.2", "Thm 4.1/4.2"),
        ("ppow-l1-plus1", "p", "l1", "plus1", 0, 0, "Thm 2.1/2.2", "Thm 4.1/4.2"),
        ("ppow-l1-minus1", "p", "l1", "minus1", 0, 0, "Thm 2.1/2.2", "Thm 4.1/4.2"),
        ("ppow-l1-other", "p", "l1", "other", 0, 0, "Thm 2.1/2.2", "Thm 4.1/4.2"),
        ("ppow-gen-divisible-unit-ell", "p", "l-in-1p", "divisible", "p", "p", "Thm 2.3", "Thm 4.3"),
        ("ppow-gen-divisible-mid-ell", "p", "l-not-1p", "divisible", 2, "ell", "Thm 2.3", "Thm 4.3"),
        ("ppow-gen-plus1", "p", "l-any", "plus1", 0, 0, "Thm 2.3", "Thm 4.3"),
        ("ppow-gen-minus1", "p", "l-any", "minus1", 0, 0, "Thm 2.3", "Thm 4.3"),
        ("ppow-gen-other", "p", "l-any", "other", 0, 0, "Thm 2.3", "Thm 4.3"),
    ),
    (  # z^((p-1)^ell) + c
        ("unitpow-l1-divisible", "p-1", "l1", "divisible", 2, 2, "Thm 3.1/3.2", "Thm 5.1/5.2"),
        ("unitpow-l1-plus1", "p-1", "l1", "plus1", 1, 1, "Thm 3.1/3.2", "Thm 5.1/5.2"),
        ("unitpow-l1-minus1", "p-1", "l1", "minus1", 1, 1, "Thm 3.1/3.2", "Thm 5.1/5.2"),
        ("unitpow-l1-other", "p-1", "l1", "other", 0, 0, "Thm 3.1/3.2", "Thm 5.1/5.2"),
        ("unitpow-gen-divisible", "p-1", "l-any", "divisible", 2, 2, "Thm 3.3", "Thm 5.3"),
        ("unitpow-gen-plus1", "p-1", "l-any", "plus1", 1, 1, "Thm 3.3", "Thm 5.3"),
        ("unitpow-gen-minus1", "p-1", "l-any", "minus1", 1, 1, "Thm 3.3", "Thm 5.3"),
        ("unitpow-gen-other", "p-1", "l-any", "other", 0, 0, "Thm 3.3", "Thm 5.3"),
    ),
)


def claim_catalog() -> tuple[ClaimRecord, ...]:
    """The 34 records: for each family, each ring (its value is the id's
    prefix), each statement branch."""
    return tuple(
        ClaimRecord(
            f"{ring_kind.value}-{tag}",
            DegreeBase(family),
            EllDomain(ell_domain),
            ring_kind,
            CoeffClass(coeff_class),
            Prediction(lo, hi),
            zp_source if ring_kind is RingKind.PRIME_FIELD else fpt_source,
        )
        for group in _STATEMENTS
        for ring_kind in RingKind
        for tag, family, ell_domain, coeff_class, lo, hi, zp_source, fpt_source in group
    )


def _class_reps(coeff_class: CoeffClass, p: int, m: int) -> list[int]:
    """Indices of the coefficient representatives of a class in every ring
    of prime p and degree m (m = 0 for Z/p).

    In a prime field: one per residue.  In a quotient field: the residues of
    F_p embedded as constants (a constant's index is its residue), and for
    the OTHER class additionally one non-constant representative, t, whose
    index is p, once deg(pi) >= 2; the classes 0, +1, -1 are read modulo pi
    exactly as written, so their representatives stay constant.
    """
    if coeff_class is CoeffClass.DIVISIBLE:
        return [0]
    if coeff_class is CoeffClass.PLUS_ONE:
        return [1]
    if coeff_class is CoeffClass.MINUS_ONE:
        return [p - 1]
    return list(range(2, p - 1)) + ([p] if m >= 2 else [])


@lru_cache(maxsize=None)
def _quotient_rings(p: int, m: int) -> tuple[RingSpec, ...]:
    return tuple(RingSpec(p, pi) for pi in enumerate_monic_irreducibles(p, m))


@lru_cache(maxsize=8)
def _plan(p_max: int, ell_max: int, m_max: int) -> tuple[tuple[tuple, ...], tuple[SkipNote, ...], int]:
    """A sweep's cells before any is counted: its blocks (claim_id,
    c_class, p, ell, family, lo, hi, claimed, ring_groups) in sweep order,
    each ring group (m, rings, ((c, c_rep), ...)), its skip notes, and the
    number of cells the blocks hold.  One loop per claim plans it: each
    prime p of the sweep from the family's floor up gives the claim's ring
    groups that hold a representative, built once per (class, p, m) and
    shared, then a block per ell the claim's domain admits at p.  A claim
    with no block is skipped for the first stage that came out empty: no
    prime at the floor (itself a prime) or above, no admitted (p, ell), no
    representative.  The plan reads no interpretation and no budget, so
    every pass of one shape shares it; verify_all checks and refuses before
    it asks for a plan and refuses its total after, on every call, and only
    int bounds that passed its type check reach this cache (so True never
    stands in for 1).  A ring group holds its degree's rings whole, not an
    entry per ring, so the default plan takes about 67 KiB."""
    ells = range(1, ell_max + 1)
    prime_fields = {p: RingSpec(p) for p in primes_in_range(3, p_max)}
    groups: dict = {}
    families: dict = {}
    blocks = []
    skips = []
    for claim in claim_catalog():
        family, domain, coeff_class = claim.family, claim.ell_domain, claim.coeff_class
        degrees = (0,) if claim.ring_kind is RingKind.PRIME_FIELD else range(1, m_max + 1)
        planned = len(blocks)
        admitted = False
        for p, zp in prime_fields.items():
            if p < family.min_prime:
                continue
            for m in degrees:
                if (coeff_class, p, m) not in groups:
                    rings = _quotient_rings(p, m) if m else (zp,)
                    cs = tuple((c, rings[0].render(c)) for c in _class_reps(coeff_class, p, m))
                    groups[coeff_class, p, m] = (m, rings, cs)
            ring_groups = tuple(groups[coeff_class, p, m] for m in degrees if groups[coeff_class, p, m][2])
            p_ells = [ell for ell in ells if domain.admits(ell, p)]
            admitted |= bool(p_ells)
            for ell in p_ells if ring_groups else ():
                if (family, ell) not in families:
                    families[family, ell] = DegreeSpec(family, ell)
                lo, hi = claim.prediction.bounds(p, ell)
                blocks.append((
                    claim.id, coeff_class.value, p, ell, families[family, ell], lo, hi,
                    claim.prediction.render(p, ell), ring_groups,
                ))
        if len(blocks) == planned:
            skips.append(SkipNote(claim.id, (
                f"requires p >= {family.min_prime}" if p_max < family.min_prime
                else "no coefficient representatives in the swept range" if admitted
                else f"no admissible ell in range for domain {domain.value}"
            )))
    total = sum(len(rings) * len(cs) for *_, ring_groups in blocks for _, rings, cs in ring_groups)
    return tuple(blocks), tuple(skips), total


def verify_all(
    p_max: int,
    ell_max: int,
    m_max: int,
    interpretation: Interpretation,
) -> VerificationReport:
    """Run the whole catalog over primes 3..p_max, ell 1..ell_max, m 1..m_max.

    Claims whose hypotheses exclude the entire range become skip notes
    instead of errors, so one sweep always yields one report.  Every sweep
    enumerates and scans the F_P[t]/(pi) of degree m_max for the largest
    prime P <= p_max (fpt-ppow-l1-divisible at c = 0), so P^m_max past the
    scan budget is refused before any work; from p_max >= 2 * budget on,
    before the sieve, since P > p_max / 2 (Bertrand).  Each ell gives a cell
    (zp-ppow-gen-plus1 at p = 3), so an ell_max past CELL_BUDGET is too.
    Then every claim's blocks are planned, a claim with none is skipped,
    and the planned cells are summed and refused past CELL_BUDGET before
    any is counted.  The plan is built once per (p_max, ell_max, m_max)
    and shared by every interpretation; each check and refusal runs on
    every call, with the budgets read then.
    """
    for name, number in (("p_max", p_max), ("ell_max", ell_max), ("m_max", m_max)):
        require_type(name, number, int)
    require_type("interpretation", interpretation, Interpretation)
    if p_max < 3 or ell_max < 1 or m_max < 1:
        raise UsageError("need p_max >= 3, ell_max >= 1, m_max >= 1")
    half = p_max // 2
    refuse_past(scan_budget(), half + 1, lambda: f"sweeping p <= {p_max} needs over {half} elements")
    refuse_monics(primes_in_range(3, p_max)[-1], m_max)
    refuse_past(CELL_BUDGET, ell_max, lambda: f"sweeping ell <= {ell_max} needs at least {ell_max} cells")
    blocks, skips, total = _plan(p_max, ell_max, m_max)
    refuse_past(CELL_BUDGET, total, lambda: f"verifying p <= {p_max}, ell <= {ell_max}, m <= {m_max} needs {total} cells")
    interp = interpretation.value
    # each cell is built as a plain tuple of its ten fields, which skips
    # the NamedTuple's Python-level __new__ and its arity check
    new_cell = tuple.__new__
    cells: list[VerificationCell] = []
    for claim_id, c_class, p, ell, family, lo, hi, claimed, ring_groups in blocks:
        for m, rings, ring_cs in ring_groups:
            for ring in rings:
                for c, c_rep in ring_cs:
                    computed = counting_function(family, interpretation, ring, c)
                    cells.append(new_cell(VerificationCell, (
                        claim_id, p, ell, m, c_class, c_rep, interp, claimed, computed, lo <= computed <= hi
                    )))
    return VerificationReport(cells=tuple(cells), skips=skips)


# ---------------------------------------------------------------------------
# report rendering

CSV_HEADER = ",".join(VerificationCell._fields)


class ReportFormat(Enum):
    CSV = "csv"
    JSON = "json"


# the fields every cell of a (claim, p, ell, m) block shares, in two runs
# around c_rep: claim_id, p, ell, m, c_class | interpretation, claimed
_block_key = itemgetter(0, 1, 2, 3, 4, 6, 7)


@lru_cache(maxsize=1024, typed=True)
def _quoted(*fields: object) -> str:
    """csv_fields(fields), once per process for each run of block fields
    (342 runs in the three default sweeps).  Typed, so runs that compare
    equal but print differently (1, True, 1.0) keep apart entries; values
    of one declared field type (str, int) that compare equal print alike."""
    return csv_fields(fields)


def _csv_report(cells: Sequence[VerificationCell]) -> str:
    """The CSV text csv_text writes for the cells, built block by block: the
    fields a run of cells shares are quoted once per process (_quoted), and
    each distinct c_rep string once per report; computed, an int, is written
    as it is, and match reads true/false.  Fields hold their declared types,
    so cells with equal block keys have equal text; only str values key the
    c_rep quotes, so a c_rep of 1 and one of True stay apart."""
    lines = [CSV_HEADER]
    reps: dict[str, str] = {}
    for key, block in groupby(cells, _block_key):
        head = _quoted(*key[:5])
        tail = _quoted(*key[5:])
        for cell in block:
            c_rep = cell[5]
            rep = reps.get(c_rep)
            if rep is None:
                rep = csv_fields((c_rep,))
                if type(c_rep) is str:
                    reps[c_rep] = rep
            lines.append(f"{head},{rep},{tail},{cell[8]},{'true' if cell[9] else 'false'}")
    lines.append("")
    return "\n".join(lines)


def render_report(report: VerificationReport, fmt: ReportFormat) -> str:
    require_type("fmt", fmt, ReportFormat)
    if fmt is ReportFormat.CSV:
        return _csv_report(report.cells)
    payload = {
        "cells": [cell._asdict() for cell in report.cells],
        "skips": [{"claim_id": s.claim_id, "reason": s.reason} for s in report.skips],
    }
    return json_text(payload)
