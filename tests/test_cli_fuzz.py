"""Property test of the CLI's failure contract: any argv, valid or malformed,
ends in exit 0, 1 or 2, never in a traceback, and a run that fails leaves no
--output file.

Each argv names a subcommand of cli._FLAGS and draws its flags from that
table, so a new flag needs a value strategy here before this test passes.
Half of the argv are drawn valid-ish (flag values in range, the required
flags present); the other half mix in bad ints, empty or out-of-range
polynomial coefficients, reducible or non-monic moduli, unknown flags and
missing flags.  Every run is small: primes <= 13, m <= 2, cutoffs <= 3000,
and PERIMOD_BUDGET is often lowered so the scan budget refuses too.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from perimod.cli import _FLAGS, _OUTPUT_FLAGS, main  # noqa: E402
from perimod.rings import enumerate_monic_irreducibles, format_poly  # noqa: E402

PRIMES = (3, 5, 7, 11, 13)
MODULI = {p: [format_poly(f) for m in (1, 2) for f in enumerate_monic_irreducibles(p, m)] for p in PRIMES}
BAD_INTS = ("", "x", "1.5", "-3", "0", "0x10", "--bogus")
UNKNOWN_FLAGS = (["--bogus"], ["--bogus", "1"], ["--P", "5"], ["-z"], ["extra"], ["--c="])


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def coefficients(p, max_len):
    """Comma-separated coefficients in [0, p), zeros at the top included."""
    return st.lists(st.integers(0, p - 1), min_size=1, max_size=max_len).map(lambda cs: ",".join(map(str, cs)))


def bad_coefficients(p):
    """Coefficient text with empty, out-of-range or non-integer parts."""
    part = st.one_of(ints(0, p - 1), st.sampled_from(["", " ", "x", "-1", str(p), str(p + 1)]))
    return st.lists(part, min_size=1, max_size=4).map(",".join)


def flag_values(sub, p, ring):
    """(good, bad) value strategies for each flag of the subcommand; the map
    flags read the drawn prime and ring kind."""
    interpretations = st.sampled_from(["roots", "exact2", "fixed"])
    values = {
        "ring": (st.just(ring), st.just("zz")),
        "p": (st.just(str(p)), st.sampled_from(["9", "15", "2", "1", "x", ""])),
        "family": (st.sampled_from(["p", "p-1"]), st.just("q")),
        "ell": (ints(1, 3), st.sampled_from(BAD_INTS)),
        # reducible, non-monic, constant or malformed moduli
        "pi": (st.sampled_from(MODULI[p]), st.one_of(coefficients(p, 3), bad_coefficients(p))),
        # over F_p[t]/(pi), a --c of degree >= deg pi is reduced modulo pi
        "c": (
            coefficients(p, 4) if ring == "fpt" else ints(-50, 50),
            st.one_of(bad_coefficients(p), st.sampled_from(BAD_INTS)),
        ),
        "p-max": (ints(3, 13), st.sampled_from(BAD_INTS + ("2",))),
        "ell-max": (ints(1, 2), st.sampled_from(BAD_INTS)),
        "m-max": (ints(1, 2), st.sampled_from(BAD_INTS)),
        "interpretation": (interpretations, st.just("all")),
        "condition": (st.sampled_from(["divides", "not-divides", "divides-plus1", "other"]), st.just("none")),
        "primorial-k": (ints(2, 6), st.sampled_from(BAD_INTS + ("1",))),
        "predicate": (st.sampled_from(["divides", "divides-plus1", "divides-minus1", "count-eq"]), st.just("odd")),
        "C": (ints(1, 3000), st.sampled_from(BAD_INTS + ("1000000",))),
        "count-value": (ints(-2, 4), st.sampled_from(BAD_INTS)),
        "p-min": (ints(2, 30), st.sampled_from(BAD_INTS + ("1",))),
        "m": (ints(1, 2), st.sampled_from(BAD_INTS)),
        "format": (st.sampled_from(["csv", "json"]), st.just("xml")),
    }
    if sub == "avg":  # comma-separated cutoffs
        values["c"] = (
            st.lists(st.integers(1, 2000), min_size=1, max_size=3).map(lambda cs: ",".join(map(str, cs))),
            st.sampled_from(["1,,2", "", "x", "3,-", "10000000"]),
        )
    return values


@st.composite
def invocations(draw):
    """(argv without --output, PERIMOD_BUDGET or None for the default)."""
    sub = draw(st.sampled_from(sorted(_FLAGS)))
    broken = draw(st.booleans())
    p, ring = draw(st.sampled_from(PRIMES)), draw(st.sampled_from(["zp", "fpt"]))
    values = flag_values(sub, p, ring)
    flags = {**_FLAGS[sub], "format": _OUTPUT_FLAGS["format"]}
    needed = {name for name, keywords in flags.items() if keywords.get("required")}
    if not broken:  # what no single flag checks: --pi with fpt only, one avg
        # source, --count-value with count-eq only
        if ring == "zp":
            flags.pop("pi", None)
        if sub in ("count", "orbits") and ring == "fpt":
            needed.add("pi")
        if sub == "avg":
            source = draw(st.sampled_from(["c", "primorial-k"]))
            if source == "c":
                flags.pop("primorial-k")
                needed.update(["c", "condition"])
            else:
                flags.pop("c")
                flags.pop("condition")
        if sub == "density":
            predicate = draw(values["predicate"][0])
            values["predicate"] = (st.just(predicate), None)
            if predicate != "count-eq":
                flags.pop("count-value")
    argv = [sub]
    for name, keywords in flags.items():
        if name not in needed and not draw(st.booleans()):
            continue
        if broken and name in needed and not draw(st.integers(0, 4)):
            continue  # a required flag left out
        if keywords.get("action") == "store_true":
            argv.append(f"--{name}")
            continue
        good, bad = values[name]
        argv += [f"--{name}", draw(st.one_of(good, bad) if broken else good)]
    if broken:
        if draw(st.booleans()):
            argv += draw(st.sampled_from(UNKNOWN_FLAGS))
        if not draw(st.integers(0, 9)):
            argv = argv[1:] if draw(st.booleans()) else ["nonsense"] + argv[1:]
    budget = draw(st.sampled_from([None, "10", "100", "1000"] + (["ten"] if broken else [])))
    return argv, budget


@settings(max_examples=200, deadline=None)
@given(invocations(), st.sampled_from([None, "out.csv", "missing/out.json"]))
def test_any_argv_exits_cleanly(invocation, output):
    argv, budget = invocation
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if budget is None:
            mp.delenv("PERIMOD_BUDGET", raising=False)
        else:
            mp.setenv("PERIMOD_BUDGET", budget)
        target = None if output is None else os.path.join(tmp, output)
        full = argv + ([] if target is None else ["--output", target])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(full)
        assert code in (0, 1, 2), full
        assert "Traceback" not in out.getvalue() + err.getvalue(), full
        if code:
            # one error line, and nothing written
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, full
            assert target is None or not os.path.exists(target), full
        elif target is not None:
            assert os.path.exists(target), full
