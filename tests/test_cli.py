"""CLI tests: parsing, round trips, outputs, and exit statuses."""

import json

import pytest

from perimod.cli import CommandSpec, main, parse_args, run
from perimod.errors import UsageError


def test_parse_count_example():
    cmd = parse_args(["count", "--ring", "zp", "--p", "5", "--family", "p-1", "--ell", "1", "--c", "4"])
    assert cmd.subcommand == "count"
    assert cmd.param("p") == "5"
    assert cmd.param("family") == "p-1"
    assert cmd.param("c") == "4"
    assert cmd.format == "csv"


def test_parse_orbits_quotient_example():
    cmd = parse_args(
        ["orbits", "--ring", "fpt", "--p", "3", "--pi", "1,0,1", "--family", "p", "--ell", "1", "--c", "0"]
    )
    assert cmd.subcommand == "orbits"
    assert cmd.param("pi") == "1,0,1"
    assert cmd.param("c") == "0"


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["count", "--p", "9", "--family", "p", "--c", "1"], "not prime"),
        (["count", "--p", "5", "--family", "p", "--c", "1", "--bogus", "x"], "bogus"),
        (["count", "--ring", "fpt", "--p", "5", "--pi", "1,0,1", "--family", "p", "--c", "0"], "reducible"),
        (["count", "--ring", "fpt", "--p", "5", "--pi", "1,7", "--family", "p", "--c", "0"], "out of range"),
        (["count", "--ring", "zp", "--p", "5", "--pi", "0,1", "--family", "p", "--c", "0"], "--pi"),
        (["count", "--p", "3", "--family", "p-1", "--c", "0"], "p >= 5"),
        (["avg", "--family", "p", "--condition", "divides"], "--c or --primorial-k"),
        (["frobnicate"], "invalid choice"),
        ([], "subcommand"),
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
        assert parse_args(cmd.to_argv()) == cmd


def test_count_reduces_coefficient():
    cmd = parse_args(["count", "--p", "5", "--family", "p-1", "--c", "9"])
    assert cmd.param("c") == "4"


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
    target = tmp_path / "never.csv"
    monkeypatch.setenv("PERIMOD_BUDGET", "3")
    cmd = parse_args(["count", "--p", "7", "--family", "p", "--c", "1", "--output", str(target)])
    assert run(cmd) == 2
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


def test_main_success(capsys):
    assert main(["count", "--p", "5", "--family", "p-1", "--c", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,2,2"


@pytest.mark.parametrize(
    "argv,status",
    [
        (["density", "--family", "p", "--predicate", "divides", "--C", "100001"], 2),
        (["avg", "--family", "p", "--condition", "not-divides", "--c", "1000001"], 2),
        (["avg", "--family", "p", "--condition", "divides", "--c", "1000000000001"], 2),
        (["avg", "--family", "p", "--primorial-k", "11"], 2),
        (["irreducibles", "--p", "1009", "--m", "2"], 2),
        (["avg", "--family", "p", "--primorial-k", "10"], 0),
        (["density", "--family", "p", "--predicate", "divides", "--C", "100000"], 0),
    ],
)
def test_limits_exit_2_just_past_and_0_at(argv, status, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert main(argv + ["--output", str(target)]) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if status == 2:
        assert err.startswith("error: ")
        assert not target.exists()
    else:
        assert err == "" and target.exists()
