"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.  Runtime limits are asserted with
time.monotonic around the criterion's computation.
"""

import ast
import functools
import hashlib
import re
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

from polyoracle import poly_rem

import perimod
from perimod.claims import (
    ReportFormat,
    claim_catalog,
    render_report,
    verify_all,
)
from perimod.cli import parse_args, run
from perimod.dynamics import (
    DegreeBase,
    DegreeSpec,
    Interpretation,
    count_report,
    counting_function,
)
from perimod.rings import RingSpec, enumerate_monic_irreducibles, is_irreducible
from perimod.stats import (
    AvgCondition,
    PredicateKind,
    density,
    divergence_series,
    partial_average,
)

ROOTS = Interpretation.ROOTS_LE2
EXACT2 = Interpretation.EXACT2
FAMILY_P = DegreeBase.P
FAMILY_U = DegreeBase.P_MINUS_1


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {description}", flush=True)
                raise
            print(f"criterion {number}: PASS - {description}", flush=True)

        return wrapper

    return decorate


@criterion(1, "base-p family over Z/p: count is p iff p | c, zero mismatches, < 5 s")
def test_criterion_1():
    start = time.monotonic()
    family = DegreeSpec(FAMILY_P, 1)
    mismatches = 0
    for p in (3, 5, 7, 11, 13):
        ring = RingSpec(p)
        for c in range(p * p):
            computed = counting_function(family, ROOTS, ring, ring.element(c))
            expected = p if c % p == 0 else 0
            if computed != expected:
                mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "unit family at p=5: residue counts 2,1,1,1,2; verifier flags exactly c=4 and c in {2,3}, < 1 s")
def test_criterion_2():
    start = time.monotonic()
    ring = RingSpec(5)
    family = DegreeSpec(FAMILY_U, 1)
    per_residue = [counting_function(family, ROOTS, ring, ring.element(c)) for c in range(5)]
    assert per_residue == [2, 1, 1, 1, 2]

    claim_ids = {
        "zp-unitpow-l1-divisible",
        "zp-unitpow-l1-plus1",
        "zp-unitpow-l1-minus1",
        "zp-unitpow-l1-other",
    }
    flagged = [
        (cell.c_class, cell.c_rep, cell.claimed, cell.computed)
        for cell in verify_all(5, 1, 1, ROOTS).cells
        if cell.claim_id in claim_ids and cell.p == 5 and not cell.match
    ]
    assert sorted(flagged) == [
        ("minus1", "4", "1", 2),
        ("other", "2", "0", 1),
        ("other", "3", "0", 1),
    ]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(3, "interpretation gap at (p=3, l=1, c=0): exact2 0 vs roots 3; count conservation across the sweep")
def test_criterion_3():
    ring = RingSpec(3)
    family = DegreeSpec(FAMILY_P, 1)
    assert counting_function(family, EXACT2, ring, 0) == 0
    assert counting_function(family, ROOTS, ring, 0) == 3
    for p in (3, 5, 7, 11, 13):
        ring = RingSpec(p)
        for c in range(p * p):
            report = count_report(family, ring, ring.element(c))
            assert report.period_le2_roots == report.fixed + report.exact2


@criterion(4, "Frobenius closed form over F_p[t]/(pi) for c = 0, incl. the (3,1,2) cell (3,9,6), < 60 s")
def test_criterion_4():
    start = time.monotonic()
    witnessed_gap_cell = False
    for p in (3, 5):
        for ell in (1, 2):
            family = DegreeSpec(FAMILY_P, ell)
            for m in (1, 2, 3):
                for pi in enumerate_monic_irreducibles(p, m):
                    ring = RingSpec(p, pi)
                    report = count_report(family, ring, 0)
                    fixed, le2, exact2 = report.fixed, report.period_le2_roots, report.exact2
                    assert fixed == p ** gcd(ell, m)
                    assert le2 == p ** gcd(2 * ell, m)
                    assert exact2 == le2 - fixed
                    if (p, ell, m) == (3, 1, 2):
                        assert (fixed, le2, exact2) == (3, 9, 6)
                        assert le2 != p  # the claimed value for this cell is p = 3
                        witnessed_gap_cell = True
    assert witnessed_gap_cell
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


@criterion(5, "unit-family closed form over Z/p for p in {5,7,11,13}, l <= 3, all residues, < 30 s")
def test_criterion_5():
    start = time.monotonic()
    for p in (5, 7, 11, 13):
        ring = RingSpec(p)
        for ell in (1, 2, 3):
            family = DegreeSpec(FAMILY_U, ell)
            for c in range(p):
                le2 = counting_function(family, ROOTS, ring, ring.element(c))
                exact2 = counting_function(family, EXACT2, ring, ring.element(c))
                assert le2 == (2 if c in (0, p - 1) else 1)
                assert exact2 == (2 if c == p - 1 else 0)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@criterion(6, "averages: not-divides ratio 0 for all c <= 10^4; unit divides avg 2; divergence 4, 5, 13/2 increasing")
def test_criterion_6():
    family = DegreeSpec(FAMILY_P, 1)
    sweep = partial_average(family, AvgCondition.P_NOT_DIVIDES_C, ROOTS, tuple(range(3, 10_001)))
    for point in sweep.points:
        if point.population == 0:
            assert point.cutoff == 3  # single cutoff whose prime set is empty
        else:
            assert point.ratio == Fraction(0), f"nonzero average at c={point.cutoff}"

    unit = partial_average(DegreeSpec(FAMILY_U, 1), AvgCondition.P_DIVIDES_C, ROOTS, (35, 105, 385))
    assert [pt.ratio for pt in unit.points] == [Fraction(2)] * 3

    series = divergence_series(family, 8)
    ratios = [pt.ratio for pt in series.points]
    assert ratios[0] == Fraction(4)
    assert ratios[1] == Fraction(5)
    assert ratios[2] == Fraction(13, 2)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


@criterion(7, "densities: 1/3 and 3/10 at C=10; divides density < 0.05 and shrinking at C=1000; zero-count > 0.95")
def test_criterion_7():
    p_family = DegreeSpec(FAMILY_P, 1)
    u_family = DegreeSpec(FAMILY_U, 1)
    DIVIDES = PredicateKind.DIVIDES
    assert density(p_family, DIVIDES, ROOTS, 10, 3).points[-1].ratio == Fraction(1, 3)
    assert density(u_family, DIVIDES, ROOTS, 10, 5).points[-1].ratio == Fraction(3, 10)

    divides = density(p_family, DIVIDES, ROOTS, 1000, 3)
    by_cutoff = {pt.cutoff: pt.ratio for pt in divides.points}
    assert by_cutoff[1000] < Fraction(5, 100)
    assert by_cutoff[1000] < by_cutoff[500]

    zero_count = density(p_family, PredicateKind.COUNT_EQUALS, ROOTS, 1000, 3, 0)
    assert zero_count.points[-1].ratio > Fraction(95, 100)


@criterion(8, "irreducible enumeration matches the Mobius count; Rabin agrees with trial division, < 30 s")
def test_criterion_8():
    start = time.monotonic()

    def mobius(n):
        result = 1
        f = 2
        while f * f <= n:
            if n % f == 0:
                n //= f
                if n % f == 0:
                    return 0
                result = -result
            f += 1
        return -result if n > 1 else result

    for p in (3, 5, 7):
        for m in (1, 2, 3, 4):
            expected = sum(mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
            assert len(enumerate_monic_irreducibles(p, m)) == expected

    def all_monics(p, degree):
        out = []
        for n in range(p**degree):
            coeffs = []
            v = n
            for _ in range(degree):
                coeffs.append(v % p)
                v //= p
            out.append(tuple(coeffs) + (1,))
        return out

    for p in (3, 5):
        for degree in (1, 2, 3, 4):
            for f in all_monics(p, degree):
                by_division = not any(
                    not any(poly_rem(f, g, p)) for d in range(1, degree) for g in all_monics(p, d)
                )
                assert is_irreducible(f, p) == by_division
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@criterion(9, "verify CSV is byte-identical across runs and carries the exact header")
def test_criterion_9(tmp_path):
    argv = ["verify", "--p-max", "7", "--ell-max", "2", "--m-max", "2", "--interpretation", "roots"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert run(parse_args(argv + ["--output", str(first)])) == 0
    assert run(parse_args(argv + ["--output", str(second)])) == 0
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header == "claim_id,p,ell,m,c_class,c_rep,interpretation,claimed,computed,match"


@criterion(10, "full default sweep (p <= 13, l <= 2, m <= 2, all claims, both rings) < 60 s")
def test_criterion_10(tmp_path):
    start = time.monotonic()
    target = tmp_path / "default.csv"
    cmd = parse_args(["verify", "--interpretation", "roots", "--output", str(target)])
    assert cmd[cmd.index("--p-max") + 1] == "13"
    assert cmd[cmd.index("--ell-max") + 1] == "2" and cmd[cmd.index("--m-max") + 1] == "2"
    assert run(cmd) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    # both rings and every catalog claim contribute cells in the default sweep
    text = target.read_text()
    lines = text.splitlines()
    assert len(lines) > 1
    claim_ids_in_report = {line.split(",")[0] for line in lines[1:]}
    assert claim_ids_in_report == {record.id for record in claim_catalog()}
    ms = {int(line.split(",")[3]) for line in lines[1:]}
    assert 0 in ms and {1, 2} <= ms
    # the default reports are pinned byte for byte, so a faster count kernel
    # cannot change a single cell
    assert hashlib.sha256(target.read_bytes()).hexdigest() == DEFAULT_SWEEP_SHA256["roots"]


DEFAULT_SWEEP_SHA256 = {
    "roots": "c1842cf50caab41be78fc0846444c199a38a9d72dd1e06d9dd34fa3f0b96415e",
    "exact2": "2bf536212d8cf95c7d1215f087422206a7c40e5ebdb9cdfd961897ba0fee6ac1",
    "fixed": "9ee97749fe971ab497b6b9bcfa7e7fe8f1b95c2d0c9d06a8d0a8c3cb1d8752a9",
}


def test_default_sweep_exact2_and_fixed(tmp_path, capsys):
    expected = {
        "exact2": "cells=14352 matches=11132 mismatches=3220",
        "fixed": "cells=14352 matches=8178 mismatches=6174",
    }
    for interpretation, summary in expected.items():
        target = tmp_path / f"{interpretation}.csv"
        argv = ["verify", "--interpretation", interpretation, "--output", str(target)]
        assert run(parse_args(argv)) == 0
        assert capsys.readouterr().out.strip() == summary
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == DEFAULT_SWEEP_SHA256[interpretation]


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no Library example code block"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_public_api_is_pinned():
    # a name enters or leaves the package's public API only by editing this list
    assert sorted(perimod.__all__) == [
        "CountReport",
        "DegreeBase",
        "DegreeSpec",
        "DomainError",
        "Interpretation",
        "OrbitDecomposition",
        "PerimodError",
        "ResourceError",
        "RingSpec",
        "UsageError",
        "count_report",
        "counting_function",
        "enumerate_monic_irreducibles",
        "format_poly",
        "is_irreducible",
        "orbit_decomposition",
        "parse_poly",
    ]
    namespace = {}
    exec("from perimod import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(perimod.__all__)


def test_no_floating_point_in_the_package():
    # every count, bound and ratio is an int or a Fraction: no true division,
    # no float literal and no float() anywhere in the package's source
    found = []
    for path in sorted(Path(perimod.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            divides = isinstance(getattr(node, "op", None), ast.Div)  # a / b and a /= b
            literal = isinstance(node, ast.Constant) and type(node.value) is float
            if divides or literal or isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
