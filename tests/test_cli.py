import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import thermocone.cli as cli
from thermocone.cli import run

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

STATE3 = str(DATA / "state3.json")
PAIR3 = str(DATA / "pair3.json")
TWOQUBIT = str(DATA / "twoqubit.json")
COOL3 = str(DATA / "cool3.json")

# every subcommand has a golden fixture; sampling commands use small budgets
COMMANDS = [
    ("curve", ["curve", "--input", STATE3]),
    ("compare", ["compare", "--input", PAIR3]),
    ("cone", ["cone", "--input", STATE3]),
    ("catalysable", ["catalysable", "--input", PAIR3]),
    ("dimbound", ["dimbound", "--input", PAIR3]),
    ("qubit_window", ["qubit-window", "--input", PAIR3]),
    ("search_catalyst", ["search-catalyst", "--input", PAIR3, "--grid", "40"]),
    ("oracle_check", ["oracle-check", "--input", PAIR3, "--max-denominator", "200"]),
    ("volume", ["volume", "--input", STATE3, "--region", "C+", "--samples", "20000", "--seed", "7"]),
    (
        "isovolume",
        ["isovolume", "--input", STATE3, "--resolution", "4", "--samples", "2000", "--seed", "7"],
    ),
    ("entangle", ["entangle", "--input", TWOQUBIT, "--samples", "2000", "--seed", "7"]),
    (
        "entangle_volumes",
        ["entangle-volumes", "--betas", "0,0.5", "--samples", "20000", "--seed", "7"],
    ),
    ("cooling", ["cooling", "--input", COOL3, "--catalytic"]),
    ("cooling_critical", ["cooling-critical", "--d", "3", "--beta-list", "2.0,0.2"]),
]


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_golden_output(name, argv):
    code, text = invoke(argv)
    assert code == 0
    golden = GOLDEN / f"{name}.txt"
    if os.environ.get("GOLDEN_REGEN"):
        golden.write_text(text)
    assert text == golden.read_text()


def test_output_is_byte_stable():
    for _, argv in COMMANDS[:3]:
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_shared_parser_matches_a_fresh_one(capsys):
    # one parser serves every call: back-to-back subcommands, with usage errors
    # in between, print exactly what each prints with a newly built parser
    fresh = {}
    for name, argv in COMMANDS:
        cli._build_parser.cache_clear()
        fresh[name] = invoke(argv)
    capsys.readouterr()
    for name, argv in COMMANDS:
        assert run(["volume", "--input", STATE3, "--region"]) == 2
        assert run(["curve", "--input", STATE3, "--beta", "nan"]) == 2
        errors = capsys.readouterr().err
        assert "expected one argument" in errors and "finite" in errors
        assert invoke(argv) == fresh[name]
    assert cli._build_parser.cache_info().currsize == 1


@pytest.mark.parametrize(
    "plain,flagged",
    [
        (["curve", "--input", STATE3], ["--beta", "0.0"]),
        (["cooling", "--input", COOL3], ["--catalytic"]),
    ],
    ids=["beta", "catalytic"],
)
def test_flags_do_not_leak_between_calls(plain, flagged):
    before = invoke(plain)
    assert invoke(plain + flagged) != before
    assert invoke(plain) == before


# flags a subcommand does not read; they are not offered there
UNREAD = [
    (argv, flag)
    for name, argv in COMMANDS
    if name not in ("volume", "isovolume", "entangle", "entangle_volumes")
    for flag in (["--seed", "7"], ["--samples", "2000"])
] + [(dict(COMMANDS)[name], ["--beta", "0.5"]) for name in ("entangle_volumes", "cooling_critical")]


@pytest.mark.parametrize("argv,flag", UNREAD, ids=[f"{argv[0]}{flag[0]}" for argv, flag in UNREAD])
def test_unread_flags_are_usage_errors(argv, flag, capsys):
    assert invoke(argv)[0] == 0
    assert run(argv + flag) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "result.json"
    code, text = invoke(["compare", "--input", PAIR3, "--out", str(target)])
    assert code == 0
    assert text == ""
    assert json.loads(target.read_text()) == {"relation": "Incomparable"}


def test_beta_override_changes_result():
    code, text = invoke(["curve", "--input", STATE3, "--beta", "0.0"])
    assert code == 0
    elbows = json.loads(text)["elbows"]
    assert elbows[1][0] == pytest.approx(1 / 3)  # uniform Gibbs weights at beta=0


class TestExitCodes:
    def test_missing_file_is_usage_error(self, capsys):
        assert run(["compare", "--input", "no-such-file.json"]) == 2

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"energies": [0, 1,\n')
        assert run(["compare", "--input", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_field_is_usage_error(self, tmp_path, capsys):
        doc = tmp_path / "partial.json"
        doc.write_text('{"energies": [0, 1], "beta": 0.2}')
        assert run(["curve", "--input", str(doc)]) == 2
        assert "state" in capsys.readouterr().err

    def test_bad_values_are_domain_errors(self, tmp_path, capsys):
        doc = tmp_path / "unnormalised.json"
        doc.write_text('{"energies": [0, 1], "beta": 0.2, "state": [0.9, 0.2]}')
        assert run(["curve", "--input", str(doc)]) == 1

    def test_comparable_pair_in_dimbound_is_domain_error(self, tmp_path, capsys):
        doc = tmp_path / "comparable.json"
        doc.write_text(
            '{"energies": [0, 1, 2], "beta": 0.2, "state": [0.42, 0.51, 0.07],'
            ' "target": [0.42, 0.51, 0.07]}'
        )
        assert run(["dimbound", "--input", str(doc)]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["compare", "--frobnicate"]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["transmogrify"]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            '{"energies": [0, 1, 2], "beta": 0.2, "state": [true, false, false]}',
            '{"energies": [0, true, 2], "beta": 0.2, "state": [0.42, 0.51, 0.07]}',
            '{"energies": [0, 1, 2], "beta": false, "state": [0.42, 0.51, 0.07]}',
        ],
        ids=["state", "energies", "beta"],
    )
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, doc):
        path = tmp_path / "bool.json"
        path.write_text(doc)
        assert run(["cone", "--input", str(path)]) == 2
        assert "must be" in capsys.readouterr().err

    def test_json_boolean_catalyst_gibbs_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bool_gibbs.json"
        doc = json.loads(Path(PAIR3).read_text())
        doc["catalyst_gibbs"] = True
        path.write_text(json.dumps(doc))
        assert run(["qubit-window", "--input", str(path)]) == 2
        assert "catalyst_gibbs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"energies": [0, 1, 2], "beta": NaN, "state": [0.42, 0.51, 0.07]}',
            '{"energies": [0, 1, Infinity], "beta": 0.2, "state": [0.42, 0.51, 0.07]}',
            '{"energies": [0, 1, 2], "beta": 0.2, "state": [0.42, -Infinity, 0.07]}',
        ],
        ids=["NaN", "Infinity", "-Infinity"],
    )
    def test_non_finite_json_constant_is_usage_error(self, tmp_path, capsys, doc):
        path = tmp_path / "nonfinite.json"
        path.write_text(doc)
        assert run(["curve", "--input", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--input", STATE3, "--beta", "nan"],
            ["qubit-window", "--input", PAIR3, "--catalyst-gibbs", "nan"],
            ["entangle-volumes", "--betas", "0.5,nan", "--samples", "10000"],
            ["cooling-critical", "--d", "3", "--beta-list", "inf"],
        ],
        ids=["beta", "catalyst-gibbs", "betas", "beta-list"],
    )
    def test_non_finite_flag_is_usage_error(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""

    def test_beta_beyond_the_representable_range_is_a_domain_error(self, capsys):
        assert run(["cooling-critical", "--d", "2", "--beta-list", "711"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: beta must lie in [1e-07, 709.782712893384] at d = 2, where the margins are finite doubles\n"
        assert captured.out == ""

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "result.json"
        assert run(["curve", "--input", STATE3, "--out", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not target.exists()

    def test_unexpected_exception_is_exit_1_without_traceback(self, monkeypatch, capsys):
        def fail(cfg, args):
            raise RuntimeError("non-concave curve from a beta-ordered distribution")

        monkeypatch.setitem(cli._HANDLERS, "curve", fail)
        assert run(["curve", "--input", STATE3]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: RuntimeError: non-concave curve from a beta-ordered distribution\n"
        assert captured.out == ""


def test_catalytic_cooling_accepts_ten_levels(tmp_path):
    # above the enumeration cap (d = 8): the search needs no vertex set
    populations = [0.03, 0.04, 0.05, 0.07, 0.09, 0.1, 0.12, 0.14, 0.17, 0.19]  # hot: most on top
    doc = {"energies": [0.1 * k for k in range(10)], "beta": 0.7, "state": populations}
    path = tmp_path / "cool10.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(["cooling", "--input", str(path), "--catalytic"]) == 0
    out = json.loads(buf.getvalue())
    assert len(out["target"]) == len(out["target_catalytic"]) == 10
    assert out["order"].count(",") == out["order_catalytic"].count(",") == 9
    assert out["q_c_catalytic_bound"] <= out["q_c"] < 0.0
