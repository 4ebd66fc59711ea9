"""Property test of the CLI's canonical form: every valid invocation parses
to a CommandSpec that to_argv() renders back to an equal spec."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from perimod.cli import parse_args  # noqa: E402
from perimod.rings import enumerate_monic_irreducibles, format_poly  # noqa: E402

PRIMES = (3, 5, 7, 11, 13)
INTERPRETATIONS = ("roots", "exact2", "fixed")
small = st.integers(min_value=-50, max_value=50)


def flag(name, values):
    """An optional flag: [] or [--name value]."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}", str(v)]))


@st.composite
def map_flags(draw):
    p = draw(st.sampled_from(PRIMES))
    flags = [["--p", str(p)], ["--family", draw(st.sampled_from(["p", "p-1"] if p >= 5 else ["p"]))]]
    flags.append(draw(flag("ell", st.integers(1, 4))))
    if draw(st.booleans()):
        pi = draw(st.sampled_from(enumerate_monic_irreducibles(p, draw(st.integers(1, 2)))))
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
        flags += [["--ring", "fpt"], ["--pi", format_poly(pi)], ["--c", ",".join(map(str, coeffs))]]
    else:
        flags += [draw(flag("ring", st.just("zp"))), ["--c", str(draw(small))]]
    return flags


@st.composite
def verify_flags(draw):
    return [
        draw(flag("p-max", st.integers(3, 13))),
        draw(flag("ell-max", st.integers(1, 3))),
        draw(flag("m-max", st.integers(1, 3))),
        ["--interpretation", draw(st.sampled_from(INTERPRETATIONS))],
    ]


def family_flags(draw):
    return [
        ["--family", draw(st.sampled_from(["p", "p-1"]))],
        draw(flag("ell", st.integers(1, 4))),
        draw(flag("interpretation", st.sampled_from(INTERPRETATIONS))),
    ]


@st.composite
def avg_flags(draw):
    flags = family_flags(draw)
    if draw(st.booleans()):
        cutoffs = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=4))
        condition = st.sampled_from(["divides", "not-divides", "divides-plus1"])
        flags += [["--c", ",".join(map(str, cutoffs))], ["--condition", draw(condition)]]
    else:
        flags.append(["--primorial-k", str(draw(st.integers(2, 10)))])
    return flags


@st.composite
def density_flags(draw):
    flags = family_flags(draw)
    predicate = draw(st.sampled_from(["divides", "divides-plus1", "divides-minus1", "count-eq"]))
    flags += [
        ["--predicate", predicate],
        ["--C", str(draw(st.integers(1, 10**5)))],
        draw(flag("count-value", small)) if predicate == "count-eq" else [],
        draw(flag("p-min", small)),
        ["--negate"] if draw(st.booleans()) else [],
    ]
    return flags


@st.composite
def irreducibles_flags(draw):
    return [["--p", str(draw(st.sampled_from(PRIMES)))], ["--m", str(draw(st.integers(1, 3)))]]


@st.composite
def invocations(draw):
    subcommand, flags = draw(
        st.sampled_from(
            [
                ("count", map_flags),
                ("orbits", map_flags),
                ("verify", verify_flags),
                ("avg", avg_flags),
                ("density", density_flags),
                ("irreducibles", irreducibles_flags),
            ]
        )
    )
    groups = draw(flags())
    groups.append(draw(flag("format", st.sampled_from(["csv", "json"]))))
    groups.append(draw(flag("output", st.sampled_from(["out.csv", "reports/r.json"]))))
    return subcommand, groups, draw(st.permutations(range(len(groups))))


@settings(max_examples=200, deadline=None)
@given(invocations())
def test_canonical_argv_round_trips(invocation):
    subcommand, groups, order = invocation
    argv = [subcommand] + [arg for group in groups for arg in group]
    cmd = parse_args(argv)
    assert parse_args(cmd.to_argv()) == cmd
    # flag order does not matter: the params come out in one canonical order
    shuffled = [subcommand] + [arg for i in order for arg in groups[i]]
    assert parse_args(shuffled) == cmd
