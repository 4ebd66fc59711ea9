"""CLI tests: parsing, round trips, outputs, and exit statuses."""

import hashlib
import json
import re
import time

import pytest

from perimod import claims, cli, rings
from perimod.cli import main, parse_args, run
from perimod.dynamics import DegreeBase, DegreeSpec, Interpretation
from perimod.errors import UsageError
from perimod.stats import AvgCondition, PredicateKind, density, divergence_series, partial_average


def test_parse_count_example():
    cmd = parse_args(["count", "--ring", "zp", "--p", "5", "--family", "p-1", "--ell", "1", "--c", "4"])
    assert cmd == (
        "count", "--ring", "zp", "--p", "5", "--family", "p-1", "--ell", "1", "--c", "4", "--format", "csv"
    )


def test_parse_orbits_quotient_example():
    cmd = parse_args(
        ["orbits", "--ring", "fpt", "--p", "3", "--pi", "1,0,1", "--family", "p", "--ell", "1", "--c", "0"]
    )
    assert cmd[0] == "orbits"
    assert cmd[cmd.index("--pi") + 1] == "1,0,1"
    assert cmd[cmd.index("--c") + 1] == "0"


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["count", "--p", "9", "--family", "p", "--c", "1"], "not prime"),
        (["count", "--p", "5", "--family", "p", "--c", "1", "--bogus", "x"], "bogus"),
        (["count", "--ring", "fpt", "--p", "5", "--pi", "1,0,1", "--family", "p", "--c", "0"],
         "modulus 1,0,1 is reducible over F_5"),
        (["count", "--ring", "fpt", "--p", "3", "--pi", "1,2", "--family", "p", "--c", "0"], "modulus must be monic: 1,2"),
        (["count", "--ring", "fpt", "--p", "3", "--pi", "1", "--family", "p", "--c", "0"],
         "modulus must have degree >= 1, got 0"),
        (["count", "--ring", "fpt", "--p", "3", "--pi", "0", "--family", "p", "--c", "0"], "modulus must be monic: 0"),
        (["count", "--ring", "fpt", "--p", "5", "--pi", "1,7", "--family", "p", "--c", "0"], "out of range"),
        (["count", "--ring", "zp", "--p", "5", "--pi", "0,1", "--family", "p", "--c", "0"], "--pi"),
        (["avg", "--family", "p", "--condition", "divides"], "--c or --primorial-k"),
        (["frobnicate"], "invalid choice"),
        ([], "subcommand"),
        (["count", "--p", "1000000000000000000", "--family", "p", "--c", "1"], "odd prime"),
        (["verify", "--p-max", "2", "--interpretation", "roots"], "argument --p-max: must be >= 3"),
        (["avg", "--family", "p", "--primorial-k", "4", "--condition", "divides"], "--condition"),
        (["density", "--family", "p", "--predicate", "divides", "--count-value", "5", "--C", "10"], "--count-value"),
        (["density", "--family", "p", "--predicate", "divides", "--C", "10", "--p-min", "-3"], "must be >= 2"),
        (["density", "--family", "p", "--predicate", "divides", "--C", "10", "--p-min", "1"], "must be >= 2"),
    ],
)
def test_parse_rejects_bad_invocations(argv, fragment):
    with pytest.raises(UsageError) as err:
        parse_args(argv)
    assert fragment in str(err.value)


def test_command_round_trip():
    specs = [
        ["count", "--ring", "zp", "--p", "5", "--family", "p-1", "--ell", "2", "--c", "9"],
        ["orbits", "--ring", "fpt", "--p", "3", "--pi", "1,0,1", "--family", "p", "--c", "0,1"],
        ["verify", "--p-max", "7", "--ell-max", "2", "--m-max", "2", "--interpretation", "roots"],
        ["avg", "--family", "p", "--condition", "divides", "--c", "15,105"],
        ["avg", "--family", "p", "--primorial-k", "4"],
        ["density", "--family", "p", "--predicate", "divides", "--C", "10"],
        ["density", "--family", "p", "--predicate", "count-eq", "--count-value", "0", "--C", "20", "--negate"],
        ["irreducibles", "--p", "3", "--m", "2", "--format", "json"],
    ]
    for argv in specs:
        cmd = parse_args(argv)
        assert parse_args(cmd) == cmd


def test_one_parser_serves_every_parse_and_keeps_no_state(capsys):
    """Parses that share the process's one parser give the specs that a
    freshly built parser gives, whatever was parsed (or refused) before."""
    fpt = ["count", "--ring", "fpt", "--p", "5", "--pi", "2,0,1", "--family", "p-1", "--ell", "2", "--c", "3,4,1"]
    zp_count = ["count", "--p", "5", "--family", "p-1", "--c", "4"]
    verify = ["verify", "--p-max", "7", "--interpretation", "exact2"]
    density_argv = ["density", "--family", "p", "--predicate", "count-eq", "--C", "20", "--negate"]
    sequence = [fpt, zp_count, verify, density_argv, fpt]
    fresh = {}
    for argv in sequence:
        cli._parser.cache_clear()
        fresh[tuple(argv)] = parse_args(argv)
    cli._parser.cache_clear()
    shared = cli._parser()
    assert parse_args(fpt) == fresh[tuple(fpt)]
    with pytest.raises(UsageError):
        parse_args(["count", "--p", "5", "--family", "p-1", "--c", "4", "--bogus", "x"])
    for argv in sequence[1:]:
        assert parse_args(argv) == fresh[tuple(argv)]
    assert "--pi" not in parse_args(zp_count)
    assert cli._parser() is shared
    assert main(zp_count + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"fixed": 0, "period_le2_roots": 2, "exact2": 2}
    assert main(zp_count) == 0
    assert capsys.readouterr().out == "fixed,period_le2_roots,exact2\n0,2,2\n"
    assert cli._parser() is shared


def test_count_reduces_coefficient():
    cmd = parse_args(["count", "--p", "5", "--family", "p-1", "--c", "9"])
    assert cmd[cmd.index("--c") + 1] == "4"


def test_run_count_json(capsys):
    cmd = parse_args(["count", "--p", "5", "--family", "p-1", "--c", "4", "--format", "json"])
    assert run(cmd) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"fixed": 0, "period_le2_roots": 2, "exact2": 2}


def test_run_count_csv(capsys):
    cmd = parse_args(["count", "--p", "3", "--family", "p", "--c", "0"])
    assert run(cmd) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["fixed,period_le2_roots,exact2", "3,3,0"]


def test_run_orbits(capsys):
    cmd = parse_args(
        ["orbits", "--ring", "fpt", "--p", "3", "--pi", "1,0,1", "--family", "p", "--c", "0"]
    )
    assert run(cmd) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "cycle_length,num_cycles,tail_node_count"
    assert out[1:] == ["1,3,0", "2,3,0"]


def test_run_verify_summary_and_exit_zero(tmp_path, capsys):
    target = tmp_path / "report.csv"
    cmd = parse_args(
        ["verify", "--p-max", "5", "--ell-max", "1", "--m-max", "1",
         "--interpretation", "roots", "--output", str(target)]
    )
    assert run(cmd) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("cells=")
    summary = captured.out.strip()
    cells, matches, mismatches = (int(part.split("=")[1]) for part in summary.split())
    assert cells == matches + mismatches
    assert mismatches > 0  # the unit-family minus-one and other branches at p = 5
    header = target.read_text().splitlines()[0]
    assert header == "claim_id,p,ell,m,c_class,c_rep,interpretation,claimed,computed,match"


def test_verify_byte_identical_outputs(tmp_path):
    argv = ["verify", "--p-max", "7", "--ell-max", "2", "--m-max", "2", "--interpretation", "roots"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(parse_args(argv + ["--output", str(a)])) == 0
    assert run(parse_args(argv + ["--output", str(b)])) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_avg_series(capsys):
    cmd = parse_args(["avg", "--family", "p", "--condition", "divides", "--c", "105"])
    assert run(cmd) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "cutoff_or_c,numerator,denominator,ratio_num,ratio_den",
        "105,15,3,5,1",
    ]
    assert captured.err.strip() == "15/3"


def test_run_density_summary(capsys):
    cmd = parse_args(["density", "--family", "p", "--predicate", "divides", "--C", "10", "--p-min", "3"])
    assert run(cmd) == 0
    captured = capsys.readouterr()
    assert captured.err.strip() == "6/18"
    assert captured.out.splitlines()[-1] == "10,6,18,1,3"


def test_density_p_min_below_the_family(capsys):
    # a divisibility predicate counts every prime >= p_min, whatever the
    # family; count-eq needs the family's map at each prime, so a lower
    # p_min fails with the family's text, from Z/2 or from a prime it excludes
    divides = ["density", "--family", "p-1", "--predicate", "divides", "--C", "10", "--p-min", "2"]
    assert main(divides) == 0
    assert capsys.readouterr().err.strip() == "11/27"
    for family, p_min, low in (("p", 2, 3), ("p-1", 3, 5)):
        argv = ["density", "--family", family, "--predicate", "count-eq", "--C", "10", "--p-min", str(p_min)]
        assert main(argv) == 1
        describe = "p^1" if family == "p" else "(p-1)^1"
        assert capsys.readouterr().err == f"error: family {describe} needs p >= {low}, got p = {p_min}\n"


def test_run_density_json_carries_population_note(capsys):
    cmd = parse_args(
        ["density", "--family", "p", "--predicate", "divides", "--C", "10", "--p-min", "3",
         "--format", "json"]
    )
    assert run(cmd) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["population"] == "pairs (p, c) with p prime, 3 <= p <= c <= 10"
    assert payload["series"][-1] == {
        "cutoff_or_c": 10,
        "numerator": 6,
        "denominator": 18,
        "ratio_num": 1,
        "ratio_den": 3,
    }


def test_run_avg_divides_plus1_population_reaches_c_plus_1(capsys):
    # p = 5 divides c + 1 = 5 although 5 > c = 4, and the note says so
    cmd = parse_args(
        ["avg", "--family", "p", "--condition", "divides-plus1", "--c", "4", "--format", "json"]
    )
    assert run(cmd) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["population"] == "primes p with 3 <= p <= c + 1, condition divides-plus1"
    assert payload["series"] == [
        {"cutoff_or_c": 4, "numerator": 0, "denominator": 1, "ratio_num": 0, "ratio_den": 1}
    ]


def test_a_series_carries_the_population_its_json_writes(capsys):
    roots = Interpretation.ROOTS_LE2
    families = {"p": DegreeSpec(DegreeBase.P, 1), "p-1": DegreeSpec(DegreeBase.P_MINUS_1, 1)}
    # density reads a missing p_min as the family's smallest prime
    for family in families.values():
        for kind in PredicateKind:
            assert density(family, kind, roots, 60) == density(family, kind, roots, 60, family.min_prime)
    cases = []
    for flag, family in families.items():
        for condition in AvgCondition:
            argv = ["avg", "--family", flag, "--condition", condition.value, "--c", "10,105"]
            cases.append((argv, partial_average(family, condition, roots, (10, 105))))
        cases.append((["avg", "--family", flag, "--primorial-k", "3"], divergence_series(family, 3)))
        for kind in PredicateKind:
            argv = ["density", "--family", flag, "--predicate", kind.value, "--C", "60"]
            cases.append((argv, density(family, kind, roots, 60)))
            cases.append((argv + ["--p-min", "7"], density(family, kind, roots, 60, 7)))
    for argv, series in cases:
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["population"] == series.population_text, argv


def test_avg_divides_plus1_admits_c_plus_1_at_the_smallest_prime(capsys):
    # p = 5, the p-1 family's smallest prime, divides c + 1 = 5
    assert main(["avg", "--family", "p-1", "--condition", "divides-plus1", "--c", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "4,2,1,2,1"
    assert main(["avg", "--family", "p-1", "--condition", "divides-plus1", "--c", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: cutoff 3 is below")


def test_run_avg_primorial_summary(capsys):
    cmd = parse_args(["avg", "--family", "p", "--primorial-k", "4"])
    assert run(cmd) == 0
    captured = capsys.readouterr()
    assert captured.err.strip() == "26/4 strictly-increasing=true"
    assert captured.out.splitlines()[1:] == ["15,8,2,4,1", "105,15,3,5,1", "1155,26,4,13,2"]


def test_run_irreducibles(capsys):
    cmd = parse_args(["irreducibles", "--p", "3", "--m", "1", "--format", "json"])
    assert run(cmd) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"pi": ["0,1", "1,1", "2,1"]}


def test_no_partial_output_on_resource_error(tmp_path, monkeypatch):
    # parse_args itself refuses Z/7 under a budget of 3, so the budget is
    # lowered between parsing and running
    target = tmp_path / "never.csv"
    cmd = parse_args(["count", "--p", "7", "--family", "p", "--c", "1", "--output", str(target)])
    monkeypatch.setenv("PERIMOD_BUDGET", "3")
    assert run(cmd) == 2
    assert not target.exists()


def test_run_parses_a_raw_argv(tmp_path, capsys):
    """run takes any argv, not only a canonical one: in any flag order it
    writes the bytes main writes, and a malformed one exits 1 with one
    error line and no output file."""
    argv = ["count", "--c", "9", "--family", "p-1", "--p", "5"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr() == expected
    by_main, by_run = tmp_path / "main.csv", tmp_path / "run.csv"
    assert main(argv + ["--output", str(by_main)]) == 0
    assert run(argv + ["--output", str(by_run)]) == 0
    assert by_run.read_bytes() == by_main.read_bytes()
    target = tmp_path / "never.csv"
    assert run(["count", "--c", "x", "--family", "p-1", "--p", "5", "--output", str(target)]) == 1
    assert capsys.readouterr() == ("", "error: argument --c: invalid int value: 'x'\n")
    assert not target.exists()


def test_unwritable_output_exits_1_without_file(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.csv"
    assert main(["irreducibles", "--p", "3", "--m", "2", "--output", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.parent.exists()


def test_main_maps_usage_errors_to_exit_1(capsys):
    assert main(["count", "--p", "9", "--family", "p", "--c", "1"]) == 1
    assert "not prime" in capsys.readouterr().err
    # the map refuses a prime below the family's smallest (a DomainError)
    assert main(["count", "--p", "3", "--family", "p-1", "--c", "0"]) == 1
    assert capsys.readouterr() == ("", "error: family (p-1)^1 needs p >= 5, got p = 3\n")


def test_main_success(capsys):
    assert main(["count", "--p", "5", "--family", "p-1", "--c", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,2,2"


@pytest.mark.parametrize(
    "argv,status,budget",
    [
        (["density", "--family", "p", "--predicate", "divides", "--C", "100001"], 2, None),
        (["avg", "--family", "p", "--condition", "not-divides", "--c", "1000001"], 2, None),
        (["avg", "--family", "p", "--condition", "divides", "--c", "1000000000001"], 2, None),
        (["avg", "--family", "p", "--primorial-k", "11"], 2, None),
        (["irreducibles", "--p", "1009", "--m", "2"], 2, None),
        (["avg", "--family", "p", "--primorial-k", "10"], 0, None),
        (["density", "--family", "p", "--predicate", "divides", "--C", "100000"], 0, None),
        # a ring over F_p has at least p elements: refused before trial division
        (["count", "--p", "1000000000000000003", "--family", "p", "--c", "1"], 2, None),
        (["irreducibles", "--p", "1000000000000000003", "--m", "1"], 2, None),
        (["density", "--family", "p-1", "--predicate", "count-eq", "--C", "100000"], 0, None),
        (["density", "--family", "p-1", "--predicate", "count-eq", "--C", "100001"], 2, None),
        # the scan budget bounds the monics enumerated, p^m, too
        (["irreducibles", "--p", "317", "--m", "2"], 2, None),
        (["irreducibles", "--p", "3", "--m", "2"], 2, "8"),
        (["irreducibles", "--p", "3", "--m", "2"], 0, "9"),
        # the scan budget bounds the ring scanned: F_9 has 9 elements
        (["count", "--ring", "fpt", "--p", "3", "--pi", "1,0,1", "--family", "p", "--c", "0"], 2, "8"),
        (["count", "--ring", "fpt", "--p", "3", "--pi", "1,0,1", "--family", "p", "--c", "0"], 0, "9"),
        (["orbits", "--ring", "fpt", "--p", "3", "--pi", "1,0,1", "--family", "p", "--c", "0"], 2, "8"),
        (["orbits", "--ring", "fpt", "--p", "3", "--pi", "1,0,1", "--family", "p", "--c", "0"], 0, "9"),
        # the largest prime up to 2 * budget is past the budget (Bertrand)
        (["verify", "--p-max", "200000", "--m-max", "1", "--interpretation", "roots"], 2, None),
    ],
)
def test_limits_exit_2_just_past_and_0_at(argv, status, budget, tmp_path, capsys, monkeypatch):
    if budget is not None:
        monkeypatch.setenv("PERIMOD_BUDGET", budget)
    target = tmp_path / "out.csv"
    assert main(argv + ["--output", str(target)]) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if status == 2:
        # the one refusal shape perimod.budget writes, naming the cap passed
        limit = budget or "(100000|1000000|1000000000000)"
        assert re.fullmatch(rf"error: \S.* needs \S.*, budget is {limit}\n", err), err
        assert not target.exists()
    else:
        assert err == "" and target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--p", "5", "--family", "p", "--c", "1"],
        ["orbits", "--p", "5", "--family", "p", "--c", "1"],
        ["verify", "--p-max", "5", "--interpretation", "roots"],
        ["avg", "--family", "p", "--condition", "divides", "--c", "30"],
        ["density", "--family", "p", "--predicate", "divides", "--C", "50"],
        ["irreducibles", "--p", "3", "--m", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_malformed_budget_exits_1_for_every_subcommand(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PERIMOD_BUDGET", "ten")
    target = tmp_path / "out.csv"
    assert main(argv + ["--output", str(target)]) == 1
    assert capsys.readouterr() == ("", "error: PERIMOD_BUDGET must be an integer, got 'ten'\n")
    assert not target.exists()


def test_verify_refuses_a_ring_past_the_budget_before_any_count(tmp_path, capsys, monkeypatch):
    # 397^2 > 10^5: F_397[t]/(pi) of degree 2 is refused before any cell is counted
    def refuse(*args):
        raise AssertionError("verify did work before its budget check")

    monkeypatch.setattr(claims, "counting_function", refuse)
    target = tmp_path / "out.csv"
    assert main(["verify", "--p-max", "400", "--m-max", "2", "--interpretation", "roots", "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not target.exists()
    # from p_max = 2 * budget on, the largest prime is past the budget
    # (Bertrand), so not even the sieve runs
    monkeypatch.setattr(claims, "primes_in_range", refuse)
    assert main(["verify", "--p-max", "200000", "--m-max", "1", "--interpretation", "roots", "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not target.exists()


def test_verify_past_the_cell_budget_exits_2_without_file(tmp_path, capsys, monkeypatch):
    # the default sweep has 14352 cells; the cap is fixed, so the test lowers it
    monkeypatch.setattr(claims, "CELL_BUDGET", 14351)
    target = tmp_path / "out.csv"
    for argv in (["verify"], ["verify", "--ell-max", str(10**12)]):
        assert main(argv + ["--interpretation", "roots", "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S.* needs \S.* cells, budget is 14351\n", err), err
        assert not target.exists()


@pytest.mark.parametrize("subcommand", ["count", "orbits"])
@pytest.mark.parametrize("pi", [[2, 1] + [0] * 798 + [1], [0] * 800 + [1], [2, 1] + [0] * 9998 + [1]])
def test_a_modulus_past_the_budget_is_refused_before_rabins_test(subcommand, pi, tmp_path, capsys, monkeypatch):
    # Rabin's test of a degree-800 pi takes about 25 s, and neither 3^10000
    # nor 10001 coefficients fit on one error line, so past the degree cap
    # the modulus is named by its degree; t^800 is reducible, and still exits 2
    def refuse(*args):
        raise AssertionError("the modulus was tested before the budget check")

    monkeypatch.setattr(rings, "is_irreducible", refuse)
    text = ",".join(map(str, pi))
    target = tmp_path / "out.csv"
    start = time.monotonic()
    argv = [subcommand, "--ring", "fpt", "--p", "3", "--pi", text, "--family", "p", "--c", "0"]
    assert main(argv + ["--output", str(target)]) == 2
    assert time.monotonic() - start < 2.0
    err = capsys.readouterr().err
    assert err == f"error: scanning F_3[t]/(pi) of degree {len(pi) - 1} needs 3^{len(pi) - 1} elements, budget is 100000\n"
    assert len(err.encode()) < 200
    assert not target.exists()


EMPTY = hashlib.sha256(b"").hexdigest()


# SHA-256 of stdout and the exit status of small invocations of every
# subcommand in both formats, plus usage and resource errors (which print
# nothing on stdout).  They pin the CLI's observable output: a change below
# it must leave every digest as it is.
@pytest.mark.parametrize(
    "line,status,digest",
    [
        ("verify --p-max 5 --interpretation roots --format csv", 0, "5bedc526c24228b1387ffd430ea16b6dc7bab84547353fe80e17a2348aa50352"),
        ("verify --p-max 5 --interpretation roots --format json", 0, "615ba64e2166a6035975d4daf99e6e43c3cffe0cdeb0d72f0b00bb52431568cc"),
        ("verify --p-max 5 --ell-max 1 --m-max 1 --interpretation exact2 --format csv", 0, "5120d9e808f2b8a1b70e666b0ee55abc2a02516a8f0019731ef521ab7382a75e"),
        ("verify --p-max 5 --ell-max 1 --m-max 1 --interpretation exact2 --format json", 0, "86032c9876da7cfa9b3a4ea171ff23a00eef651cfa1ba677aabdc28b0dbd0817"),
        ("verify --p-max 3 --ell-max 1 --m-max 1 --interpretation roots --format json", 0, "911757f1fcf11c2d9c603dae9b5c84f92abe984d6af9b5f36f334a15687f2567"),
        ("avg --family p --condition divides --c 105,15 --format csv", 0, "d92096abba6ad480fabae961216dbd8c33ecce95fb865ca2c43241896abec7a4"),
        ("avg --family p --condition divides --c 105,15 --format json", 0, "308e12d481ff10797f0e7bc2c7a1252c34b0e7216f2c9b7886e609c3b1bf9c58"),
        ("avg --family p-1 --condition not-divides --interpretation exact2 --c 105,15 --format csv", 0, "a0fe9ac3c15b780e0a256cf0d081784f285bbc1a6fdde7763c9220f69b9ba793"),
        ("avg --family p-1 --condition not-divides --interpretation exact2 --c 105,15 --format json", 0, "6d9b83aab50f17f2add4f2323ed210c6016666e1672248702e2d52bcc4f6cf7c"),
        ("avg --family p --primorial-k 4 --format csv", 0, "25280afb622dbe1cee9110b468aa07718385358b5d2e9ae94be0b2072207920d"),
        ("avg --family p --primorial-k 4 --format json", 0, "f94727fc90ed156a8a085317aa794f32cfc09e2015a1c39df280a8a09931e8c7"),
        ("avg --family p-1 --condition divides-plus1 --c 4,10,105 --format json", 0, "afff9ed32e5ff5dc30cb52363bba0401291dd3bcd2c55b72dff6c6066b547306"),
        ("avg --family p-1 --condition divides-plus1 --c 4,10,105 --format csv", 0, "9a9e90f98dc77d9914c7b667415b0d629408db91aedd2d37c7604627e284d304"),
        ("avg --family p-1 --condition other --interpretation fixed --c 105,15 --format json", 0, "4c1117ee5d243645c959591d6bd17bdb926d2d42bf4606382ab73949fda56958"),
        ("avg --family p-1 --primorial-k 5 --format json", 0, "c0969edb5a98289b61dafd0fb12e139f6f79cfa271ae694c84c7954fcc6335d3"),
        ("density --family p --predicate divides-plus1 --C 200 --p-min 2 --format json", 0, "40c92daa3e24f555efeace44d4e5b7e58edb773b8c2619d36416d1a4982e899d"),
        ("density --family p-1 --predicate count-eq --count-value 1 --C 200 --format csv", 0, "5c719c0ada15bfbabe73c6f006520665239a114b200cd76aefe058192ecef893"),
        ("density --family p-1 --predicate count-eq --count-value 1 --C 200 --format json", 0, "2891d3b2e5b832d3f625d2f8595dc7d824b59b0c0d4a1a117829bed5183430d1"),
        ("density --family p --predicate count-eq --count-value 0 --C 200 --negate --p-min 7 --format csv", 0, "9a54401c7b312db1fed8b84f7faab4024b950982f5fa545af08b2273552f0669"),
        ("density --family p --predicate count-eq --count-value 0 --C 200 --negate --p-min 7 --format json", 0, "deec91a7be2c8b31f291b05449ff857a38fcc58cda6220b87c3822dd99d0fec8"),
        ("density --family p --predicate divides-minus1 --ell 2 --C 200 --format csv", 0, "77dd18f2630e52aa71a58d5375d7583bab02ced4997cde2cc77eb0b3591f5ca5"),
        ("density --family p --predicate divides-minus1 --ell 2 --C 200 --format json", 0, "8da8ac0415a6e28e6042ed93e9cd2df63e6341c4efb5e3dbc5e762a360c8e766"),
        ("count --p 5 --family p-1 --c 4 --format csv", 0, "2a2adca34e2f2ea62a084400b93d264eefe63f1549daf57d07626ad1d12d73a5"),
        ("count --p 5 --family p-1 --c 4 --format json", 0, "ca2bf0a08e249f7d4468038a1537ac20722d84c78a6269be729d42dfd50e0fcb"),
        ("count --ring fpt --p 3 --pi 1,0,1 --family p --c 0,1 --format csv", 0, "73a4ddb70f3408fc7b1fab266d8a9bf6b8c188dfd99a81bb99b1bfd9fa5ad56b"),
        ("count --ring fpt --p 3 --pi 1,0,1 --family p --c 0,1 --format json", 0, "37f3a393ef0e4363dd62f3e12dc8128f17ebfa2a2188baf1fc63cca2e2aaaeda"),
        ("orbits --p 7 --family p-1 --ell 2 --c 3 --format csv", 0, "caeb54796a6cf92b890214e01fef94ffc3f54c0d9dca40e8df0e6c86ab8ea736"),
        ("orbits --p 7 --family p-1 --ell 2 --c 3 --format json", 0, "7c36d53622a144fb73c140086fdfc852aaaf2f00ebc1f862f75b805d55bd3732"),
        ("orbits --ring fpt --p 3 --pi 1,0,1 --family p --c 0 --format csv", 0, "0cbdaa37ed039b6712a4a0e89e7b2c22437b7f0c1a971a3fbfa029c8ad8aa42f"),
        ("orbits --ring fpt --p 3 --pi 1,0,1 --family p --c 0 --format json", 0, "1bea4514fb1bc2065dc846190a39bb514601a5453bf344a9f19e4acbacb5cbed"),
        ("irreducibles --p 3 --m 2 --format csv", 0, "fd885ba1a7bb33e1e1469e35b5ffca91ca61cbd2d94d9d9292190f27dea42261"),
        ("irreducibles --p 3 --m 2 --format json", 0, "6367bd13fa4f917bf10d8f27aaeae57e0475a884170e2228869dd965a708b7b7"),
        ("", 1, EMPTY),
        ("frobnicate", 1, EMPTY),
        ("count --p 9 --family p --c 1", 1, EMPTY),
        ("count --p 5 --family p --c x", 1, EMPTY),
        ("count --p 5 --family p --ell 0 --c 1", 1, EMPTY),
        ("count --ring fpt --p 5 --family p --c 0", 1, EMPTY),
        ("count --ring fpt --p 5 --pi 1,0,1 --family p --c 0", 1, EMPTY),
        ("count --p 3 --family p-1 --c 0", 1, EMPTY),
        ("verify --p-max 2 --interpretation roots", 1, EMPTY),
        ("verify --interpretation bogus", 1, EMPTY),
        ("avg --family p --c 15", 1, EMPTY),
        ("avg --family p --primorial-k 1", 1, EMPTY),
        ("avg --family p --condition divides --c 15,x", 1, EMPTY),
        ("density --family p --predicate divides --C 0", 1, EMPTY),
        ("density --family p --predicate divides --C 10 --p-min x", 1, EMPTY),
        ("density --family p --predicate count-eq --C 10 --p-min 2", 1, EMPTY),
        ("density --family p-1 --predicate count-eq --C 10 --p-min 3", 1, EMPTY),
        ("irreducibles --p 3 --m 0", 1, EMPTY),
        ("irreducibles --p 1009 --m 2", 2, EMPTY),
        ("count --p 100003 --family p --c 1", 2, EMPTY),
        ("count --p 5 --family p --c 1 --format xml", 1, EMPTY),
    ],
)
def test_cli_stdout_and_status_are_pinned(line, status, digest, capsys):
    assert main(line.split()) == status
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
