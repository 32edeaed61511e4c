import codecs
import errno
import io
import itertools
import json
import math
import os
import resource
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qlgame as ql
import helpers
from qlgame.cli import CSV_COLUMNS, _csv_lines, main
from qlgame.probability import PROB_TOL

VIOLATING = "0,2.0943951023931953,1.0471975511965976"


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(helpers.D1_RAW))
    return path


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(helpers.game_to_json(helpers.zero_sum_spec())))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_d1(capsys, d1_file):
    code, out, _ = run(capsys, "validate", "--input", d1_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["r1_symmetric"] and payload["r2_positive"]
    assert payload["reversibility"]["max_discrepancy"] == pytest.approx(0.125)


def test_validate_rejects_bad_data(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    raw = dict(helpers.D1_RAW)
    raw["trans_b_given_a"] = [[0.7, 0.4], [0.25, 0.75]]
    bad.write_text(json.dumps(raw))
    code, out, err = run(capsys, "validate", "--input", bad)
    assert code == 1
    assert out == ""
    assert "trans_b_given_a" in err and "1.1" in err


def test_qlra_d1_values(capsys, d1_file):
    code, out, _ = run(capsys, "qlra", "--input", d1_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "trigonometric"
    assert payload["lambda"][0] == pytest.approx(0.204124145232, abs=1e-9)
    assert payload["lambda"][1] == pytest.approx(-0.204124145232, abs=1e-9)


def test_qlra_hyperbolic_exits_1_writes_nothing(capsys, tmp_path):
    src = tmp_path / "hyp.json"
    src.write_text(json.dumps(helpers.HYPERBOLIC_RAW))
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, "qlra", "--input", src, "--output", out_path)
    assert code == 1
    assert "hyperbolic context" in err
    assert not out_path.exists()


THREE_OUTCOMES = {
    "alphabet": ["F", "I", "X"],
    "marginal_a": [0.2, 0.3, 0.5],
    "marginal_b": [0.4, 0.35, 0.25],
    "trans_b_given_a": [[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]],
    "trans_a_given_b": [[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]],
}


def test_qlra_refuses_three_outcome_alphabet(capsys, tmp_path):
    src = tmp_path / "three.json"
    src.write_text(json.dumps(THREE_OUTCOMES))
    assert run(capsys, "validate", "--input", src)[0] == 0  # strictly positive, R1
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, "qlra", "--input", src, "--output", out_path)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: the amplitude reconstruction needs a two-outcome alphabet, got 3 outcomes"
    ]
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["validate", "qlra"])
def test_repeated_labels_refused(capsys, tmp_path, command):
    src = tmp_path / "repeated.json"
    src.write_text(json.dumps(dict(helpers.D1_RAW, alphabet=["F", "F"])))
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, command, "--input", src, "--output", out_path)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: outcome label 'F' is repeated in the alphabet"]
    assert not out_path.exists()


def test_validate_qlra_validate_round_trip(capsys, d1_file, tmp_path):
    code, out, _ = run(capsys, "qlra", "--input", d1_file)
    payload = json.loads(out)
    back = tmp_path / "reconstructed.json"
    back.write_text(json.dumps(payload["reconstructed"]))
    code, out, _ = run(capsys, "validate", "--input", back)
    assert code == 0
    assert json.loads(out)["valid"]


def test_round_trip_more_fixtures(capsys, tmp_path):
    fixtures = [
        {
            "marginal_a": [0.3, 0.7],
            "marginal_b": [0.45, 0.55],
            "trans_b_given_a": [[0.6, 0.4], [0.4, 0.6]],
            "trans_a_given_b": [[0.6, 0.4], [0.4, 0.6]],
        },
        {
            "marginal_a": [0.5, 0.5],
            "marginal_b": [0.5, 0.5],
            "trans_b_given_a": [[0.5, 0.5], [0.5, 0.5]],
            "trans_a_given_b": [[0.5, 0.5], [0.5, 0.5]],
        },
    ]
    for k, raw in enumerate(fixtures):
        src = tmp_path / f"ctx{k}.json"
        src.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "qlra", "--input", src)
        assert code == 0
        back = tmp_path / f"back{k}.json"
        back.write_text(json.dumps(json.loads(out)["reconstructed"]))
        code, _, _ = run(capsys, "validate", "--input", back)
        assert code == 0


def test_average_with_ql(capsys, d1_file, game_file):
    code, out, _ = run(
        capsys, "average", "--game", game_file, "--context", d1_file, "--ql"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["totals"]["bob"] == pytest.approx(0.0, abs=1e-10)
    assert payload["ql_totals"]["bob"] == pytest.approx(0.0, abs=1e-10)
    assert payload["parts"][0]["bob"] == pytest.approx(0.5)


def test_bell_single_triple(capsys):
    code, out, _ = run(capsys, "bell", "--thetas", VIOLATING)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("theta1,theta2,theta3,cov_ab")
    cells = row.split(",")
    assert float(cells[6]) == pytest.approx(1.0)  # lhs
    assert float(cells[7]) == pytest.approx(0.5)  # rhs
    assert cells[8] == "true" and cells[9] == "false"


def test_bell_grid(capsys):
    code, out, _ = run(capsys, "bell", "--grid", str(math.pi / 2.0))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 64


def test_bell_grid_default_step(capsys):
    code, out, _ = run(capsys, "bell", "--grid")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 24**3


def test_bell_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "bell")
    assert code == 1
    assert "exactly one" in err
    code, _, _ = run(capsys, "bell", "--thetas", "0,0,0", "--grid", "0.5")
    assert code == 1


def test_bell_thetas_row_matches_grid_row(capsys):
    # the --thetas row is built from BellReport fields, the grid rows by bell_scan
    step = math.pi / 6.0
    code, out, _ = run(capsys, "bell", "--grid", repr(step))
    assert code == 0
    grid = out.splitlines()
    for k1, k2, k3 in [(0, 0, 0), (0, 4, 2), (3, 7, 11), (5, 1, 9)]:
        thetas = ",".join(repr(k * step) for k in (k1, k2, k3))
        code, out, _ = run(capsys, "bell", "--thetas", thetas)
        assert code == 0
        header, row = out.splitlines()
        assert header == grid[0]
        assert row == grid[1 + 144 * k1 + 12 * k2 + k3]


CSV_HEADER = "theta1,theta2,theta3,cov_ab,cov_bc,cov_ca,lhs,rhs,violated,lp_feasible\n"
CSV_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300, 3.0, -42.0, 2.0**60]),
)


@given(st.lists(st.tuples(*[CSV_NUMBERS] * 8, st.booleans(), st.booleans()), max_size=4))
def test_csv_lines_match_the_per_cell_reference(rows):
    assert list(_csv_lines(rows)) == [CSV_HEADER, *map(helpers.reference_csv_line, rows)]


@pytest.mark.parametrize("step", [math.pi / 6.0, 0.7])
def test_bell_grid_bytes_match_the_reference(capsys, step):
    code, out, err = run(capsys, "bell", "--grid", repr(step))
    assert (code, err) == (0, "")
    rows = (tuple(row[c] for c in CSV_COLUMNS) for row in ql.bell_scan(step))
    assert out == CSV_HEADER + "".join(map(helpers.reference_csv_line, rows))


@pytest.mark.parametrize("argv", [
    ["bell", "--thetas=1e308,-1e308,0"],
    ["feasibility", "--thetas=1e308,-1e308,0"],
    ["bell", "--grid", "6.3e12"],
    ["bell", "--grid", "7.0"],
])
def test_finite_extreme_angles_and_steps_are_accepted(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if argv[1] == "--grid":  # a step beyond 2pi leaves the one angle 0
        assert out == CSV_HEADER + "0,0,0,1,1,1,0,0,false,true\n"
    elif argv[0] == "bell":
        assert out.splitlines()[1].startswith("1e+308,-1e+308,0,")


UNDERFLOWING_PRODUCT = dict(helpers.D1_RAW, marginal_a=[5e-324, 1.0])
OVERFLOWING_SUM_GAME = {
    "players": ["alice", "bob"],
    "zero_sum": True,
    "parts": [{"chooser": "alice", "tester": "bob", "payoffs": {
        "alice": [[1e308, 1e308], [1e308, 1e308]],
        "bob": [[1e308, -1e308], [-1e308, 1e308]],
    }}],
}


@pytest.mark.parametrize("argv, message", [
    (["qlra", "--input", "ctx"], "interference coefficients must be finite"),
    (["average", "--ql", "--game", "d1game", "--context", "ctx"],
     "interference coefficients must be finite"),
    (["average", "--game", "game", "--context", "d1"],
     "zero-sum violated in part 0: cell sums reach inf"),
])
def test_overflow_and_underflow_refusals_print_one_line(capsys, tmp_path, game_file, argv, message):
    docs = {"ctx": UNDERFLOWING_PRODUCT, "game": OVERFLOWING_SUM_GAME, "d1": helpers.D1_RAW}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    paths = {name: tmp_path / name for name in docs} | {"d1game": game_file}
    code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["bell", "--thetas", "nan,0,0"], "angles must be finite"),
    (["bell", "--thetas", "0,1"], "expected three comma-separated angles, got '0,1'"),
    (["bell", "--thetas", "0,x,1"],
     "bad angle in '0,x,1': could not convert string to float: 'x'"),
    (["feasibility", "--input", "system", "--thetas", "0,0,0"],
     "pass exactly one of --input or --thetas"),
    (["feasibility"], "pass exactly one of --input or --thetas"),
    (["average", "--ql", "--game", "game", "--context", "pairs"],
     "--ql applies to two-player single-context games"),
    (["average", "--game", "game3", "--context", "d1"],
     "a single context only covers a two-player game; pass a mapping of "
     "(chooser, tester) pairs to contexts"),
], ids=["nan-angle", "two-angles", "bad-angle", "input-and-thetas", "neither",
        "ql-with-pairs", "single-context-three-players"])
def test_argument_refusals_print_one_line(capsys, tmp_path, argv, message):
    docs = {
        "system": UNIFORM_SYSTEM,
        "game": _game_doc(),
        "pairs": {"pairs": [{"chooser": "a", "tester": "b", "context": helpers.D1_RAW}]},
        "game3": helpers.game_to_json(helpers.three_player_spin_spec()),
        "d1": helpers.D1_RAW,
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, err = run(capsys, *[tmp_path / a if a in docs else a for a in argv])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _assert_single_error(code, out, err, out_path):
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "step",
    ["nan", "inf", "0", "-0.5", "1e-300", "5e-324",
     repr(2.0 * math.pi / (ql.classicality.MAX_GRID_COUNT + 1))],
)
def test_bell_grid_domain_errors(capsys, tmp_path, step):
    out_path = tmp_path / "scan.csv"
    code, out, err = run(capsys, "bell", "--grid", step, "--output", out_path)
    _assert_single_error(code, out, err, out_path)
    assert "grid step" in err


def test_bell_grid_is_written_as_it_is_computed(tmp_path):
    out_path = tmp_path / "scan.csv"
    tracemalloc.start()
    try:
        code = main(["bell", "--grid", repr(2.0 * math.pi / 40), "--output", str(out_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    size = out_path.stat().st_size  # 64,000 rows, ~8 MB
    assert size > 7_000_000 and peak < size / 4


def test_feasibility_thetas(capsys):
    code, out, _ = run(capsys, "feasibility", "--thetas", "0,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"]
    assert payload["witness"]["FFF"] == pytest.approx(0.5, abs=1e-9)
    assert payload["witness"]["III"] == pytest.approx(0.5, abs=1e-9)

    code, out, _ = run(capsys, "feasibility", "--thetas", VIOLATING)
    payload = json.loads(out)
    assert code == 0 and not payload["feasible"] and payload["witness"] is None


UNIFORM_SYSTEM = {
    "marginal_a": [0.5, 0.5],
    "marginal_b": [0.5, 0.5],
    "marginal_c": [0.5, 0.5],
    "joint_ab": [[0.25, 0.25], [0.25, 0.25]],
    "joint_bc": [[0.25, 0.25], [0.25, 0.25]],
    "joint_ca": [[0.25, 0.25], [0.25, 0.25]],
}


def test_feasibility_from_json(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(UNIFORM_SYSTEM))
    code, out, _ = run(capsys, "feasibility", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"]
    assert list(payload["witness"]) == ["FFF", "FFI", "FIF", "FII", "IFF", "IFI", "IIF", "III"]


@pytest.mark.parametrize(
    "key, value", [("marginal_a", ["x", 0.5]), ("joint_ab", [[0.25, 0.25], [0.5]])]
)
def test_feasibility_refuses_malformed_array(capsys, tmp_path, key, value):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(UNIFORM_SYSTEM, **{key: value})))
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, "feasibility", "--input", path, "--output", out_path)
    _assert_single_error(code, out, err, out_path)
    assert err.startswith(f"error: {key}: not a numeric array")


def test_feasibility_witness_keys_follow_a_three_outcome_alphabet(capsys, tmp_path):
    alphabet = ("F", "I", "X")
    atoms = np.arange(1.0, 28.0).reshape(3, 3, 3)
    atoms /= atoms.sum()
    tables = {
        "marginal_a": atoms.sum(axis=(1, 2)), "marginal_b": atoms.sum(axis=(0, 2)),
        "marginal_c": atoms.sum(axis=(0, 1)), "joint_ab": atoms.sum(axis=2),
        "joint_bc": atoms.sum(axis=0), "joint_ca": atoms.sum(axis=1).T,
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"alphabet": alphabet, **{k: v.tolist() for k, v in tables.items()}}))
    system = ql.PairwiseSystem(
        *(ql.Distribution(tables[f"marginal_{x}"], alphabet) for x in "abc"),
        *(ql.JointTable(tuple(xy), tables[f"joint_{xy}"], alphabet) for xy in ("ab", "bc", "ca")),
    )
    code, out, _ = run(capsys, "feasibility", "--input", path)
    assert code == 0
    witness = json.loads(out)["witness"]
    assert list(witness)[:4] == ["FFF", "FFI", "FFX", "FIF"]
    expected = ql.joint_feasibility(system).witness
    cells = itertools.product(enumerate(alphabet), repeat=3)
    assert list(witness.items()) == [
        (a + b + c, float(f"{expected[i, j, l]:.12g}")) for (i, a), (j, b), (l, c) in cells
    ]


def test_feasibility_witness_keys_follow_the_file_alphabet(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(UNIFORM_SYSTEM, alphabet=["yes", "no"])))
    code, out, _ = run(capsys, "feasibility", "--input", path)
    assert code == 0
    assert list(json.loads(out)["witness"])[:2] == ["yesyesyes", "yesyesno"]


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "pairwise system must be a mapping, got list"),
        (None, "pairwise system must be a mapping, got NoneType"),
        (dict(UNIFORM_SYSTEM, alphabet=["F", "F"]), "outcome label 'F' is repeated in the alphabet"),
        (dict(UNIFORM_SYSTEM, alphabet="FI"), "alphabet must be a list of string labels, got 'FI'"),
        (
            {k: v for k, v in UNIFORM_SYSTEM.items() if k != "joint_ca"},
            "pairwise system is missing field 'joint_ca'",
        ),
        # witness keys join three labels with no separator, so these
        # alphabets would give one key to several atoms
        (
            dict(UNIFORM_SYSTEM, alphabet=["x", "xx"]),
            "outcome labels run together: witness key 'xxxx' names 3 atoms",
        ),
        (
            dict(
                {f"marginal_{x}": [1 / 3] * 3 for x in "abc"},
                **{f"joint_{xy}": [[1 / 9] * 3] * 3 for xy in ("ab", "bc", "ca")},
                alphabet=["a", "ab", "b"],
            ),
            "outcome labels run together: witness key 'abab' names 2 atoms",
        ),
    ],
)
def test_feasibility_refuses_malformed_system(capsys, tmp_path, doc, message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, "feasibility", "--input", path, "--output", out_path)
    _assert_single_error(code, out, err, out_path)
    assert err == f"error: {message}\n"


PAYOFF_ERROR = "error: part 0 payoff 'b': not a numeric array"


def _game_doc():
    return helpers.game_to_json(helpers.zero_sum_spec(players=("a", "b")))


def _drop(mapping, key):
    del mapping[key]


@pytest.mark.parametrize("command", ["average", "simulate"])
@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc["parts"][0]["payoffs"].update(b=[["a", 1], [1, 1]]), PAYOFF_ERROR),
        (lambda doc: doc["parts"][0]["payoffs"].update(b=[[1, -1], [-1]]), PAYOFF_ERROR),
        (lambda doc: doc.update(players="ab"), "error: players must be a list of names, got 'ab'"),
        (
            lambda doc: doc["parts"][0].update(payoffs=[[1, -1], [-1, 1]]),
            "error: part 0 payoffs must be a mapping, got list",
        ),
        # the game is zero-sum, so a flag read as true would pass
        (
            lambda doc: doc.update(zero_sum="false"),
            "error: zero_sum must be true or false, got 'false'",
        ),
        (lambda doc: doc.update(zero_sum=1), "error: zero_sum must be true or false, got 1"),
        (lambda doc: [doc], "error: game must be a mapping, got list"),
        (
            lambda doc: doc.update(parts={"x": 1}),
            "error: parts must be a list of game parts, got dict",
        ),
        (
            lambda doc: doc.update(parts="ab"),
            "error: parts must be a list of game parts, got 'ab'",
        ),
        (lambda doc: doc.update(parts=[7]), "error: part 0 must be a mapping, got int"),
        (lambda doc: _drop(doc, "parts"), "error: game is missing field 'parts'"),
        (lambda doc: _drop(doc, "players"), "error: game is missing field 'players'"),
        (lambda doc: _drop(doc["parts"][0], "chooser"), "error: part 0 is missing field 'chooser'"),
        (lambda doc: _drop(doc["parts"][1], "tester"), "error: part 1 is missing field 'tester'"),
        (lambda doc: _drop(doc["parts"][1], "payoffs"), "error: part 1 is missing field 'payoffs'"),
        (
            lambda doc: doc["parts"][0].update(chooser=["a"]),
            "error: part 0 chooser must be a string, got ['a']",
        ),
        (
            lambda doc: doc["parts"][1].update(tester=None),
            "error: part 1 tester must be a string, got None",
        ),
        (
            lambda doc: doc.update(players=["a", 2]),
            "error: players must be a list of names, got ['a', 2]",
        ),
        # a zero-sum part sums its matrices, so their shapes are checked first
        (
            lambda doc: doc["parts"][0]["payoffs"].update(a=np.eye(3).tolist()),
            "error: part 0 payoff matrices differ in shape: [(2, 2), (3, 3)]\n",
        ),
        (
            lambda doc: doc["parts"][1]["payoffs"].update(a=[[0.0]]),
            "error: part 1 payoff matrices differ in shape: [(2, 2), (1, 1)]\n",
        ),
        (
            lambda doc: doc["parts"][0]["payoffs"].update(b=[[1, -1, 0], [-1, 1, 0]]),
            "error: part 0 payoff 'b': payoff matrix must be square, got (2, 3)\n",
        ),
        (
            lambda doc: doc["parts"][0].update(tester="a"),
            "error: part has identical chooser and tester 'a'\n",
        ),
        (lambda doc: doc.update(players=["a"]), "error: roster must have 2 or 3 players\n"),
        (
            lambda doc: doc.update(players=["a", "b", "c", "d"]),
            "error: roster must have 2 or 3 players\n",
        ),
        (lambda doc: doc.update(players=["a", "a"]), "error: player names must be distinct\n"),
        (
            lambda doc: doc["parts"][1].update(chooser="z"),
            "error: part 1 references unknown player 'z'\n",
        ),
        (
            lambda doc: doc["parts"][0]["payoffs"].update(z=[[1, -1], [-1, 1]]),
            "error: part 0 pays unknown player 'z'\n",
        ),
    ],
    ids=[
        "non-numeric-payoff", "ragged-payoff", "players-string", "payoffs-list",
        "zero-sum-string", "zero-sum-number", "game-list", "parts-dict", "parts-string",
        "part-int", "no-parts", "no-players", "no-chooser", "no-tester", "no-payoffs",
        "chooser-list", "tester-null", "player-int", "zero-sum-shapes-2-3",
        "zero-sum-shapes-2-1", "non-square-payoff", "chooser-is-tester", "roster-1",
        "roster-4", "repeated-player", "unknown-chooser", "unknown-payee",
    ],
)
def test_malformed_game_is_a_domain_error(capsys, d1_file, tmp_path, command, mutate, message):
    doc = _game_doc()
    doc = mutate(doc) or doc  # a mutation that returns a document replaces it
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps(doc))
    out_path = tmp_path / "out.json"
    extra = ["--trials", "10", "--seed", "1"] if command == "simulate" else []
    code, out, err = run(
        capsys, command, "--game", game_path, "--context", d1_file, *extra,
        "--output", out_path,
    )
    _assert_single_error(code, out, err, out_path)
    assert err.startswith(message)


@pytest.mark.parametrize("command", ["average", "simulate"])
@pytest.mark.parametrize(
    "doc, message",
    [
        ({"pairs": 5}, "error: pairs must be a list of pair contexts, got int"),
        ({"pairs": [5]}, "error: pair 0 must be a mapping, got int"),
        (
            {"pairs": [{"chooser": "a", "tester": "b",
                        "context": dict(helpers.D1_RAW, marginal_a=[-1, 2])}]},
            "error: pair (a, b): marginal_a: probabilities must lie in [0, 1], got -1\n",
        ),
        (
            {"pairs": [{"chooser": ["a"], "tester": "b", "context": helpers.D1_RAW}]},
            "error: pair 0 chooser must be a string, got ['a']\n",
        ),
        (
            {"pairs": [{"chooser": "a", "context": helpers.D1_RAW}]},
            "error: pair 0 is missing field 'tester'\n",
        ),
        (
            {"pairs": [{"chooser": "b", "tester": "a", "context": helpers.D1_RAW},
                       {"chooser": "a", "tester": "b"}]},
            "error: pair 1 is missing field 'context'\n",
        ),
        (
            {"pairs": [{"chooser": "a", "tester": "b", "context": [helpers.D1_RAW]}]},
            "error: pair (a, b): context data must be a mapping, got list\n",
        ),
        (
            {"pairs": [{"chooser": "a", "tester": "b", "context": helpers.D1_RAW},
                       {"chooser": "b", "tester": "a", "context": helpers.D1_RAW},
                       {"chooser": "a", "tester": "b",
                        "context": dict(helpers.D1_RAW, marginal_a=[0.9, 0.1])}]},
            "error: pair (a, b) is given twice\n",
        ),
    ],
    ids=["pairs-int", "entry-int", "bad-pair-context", "chooser-list", "no-tester",
         "no-context", "context-list", "repeated-pair"],
)
def test_malformed_pairs_file_is_a_domain_error(capsys, tmp_path, command, doc, message):
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps(_game_doc()))
    ctx_path = tmp_path / "pairs.json"
    ctx_path.write_text(json.dumps(doc))
    out_path = tmp_path / "out.json"
    extra = ["--trials", "10", "--seed", "1"] if command == "simulate" else []
    code, out, err = run(
        capsys, command, "--game", game_path, "--context", ctx_path, *extra,
        "--output", out_path,
    )
    _assert_single_error(code, out, err, out_path)
    assert err.startswith(message)


def test_payoff_sign_advisory_is_one_warning_line_under_an_error_filter(capsys, d1_file, tmp_path):
    game_path = tmp_path / "inverted.json"
    game_path.write_text(json.dumps({
        "players": ["alice", "bob"],
        "parts": [{"chooser": "alice", "tester": "bob", "payoffs": {"bob": [[-1, 1], [1, -1]]}}],
    }))
    results = []
    for action in ("ignore", "error"):  # as under python -W ignore or -W error
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            results.append(run(capsys, "average", "--game", game_path, "--context", d1_file))
    advisory = "warning: part 0: tester 'bob' payoff signs look inverted\n"
    assert results[1] == results[0] == (0, results[0][1], advisory)
    assert json.loads(results[1][1])["totals"] == {"alice": 0.0, "bob": -0.5}


def test_simulate_deterministic(capsys, d1_file, game_file):
    args = (
        "simulate", "--game", game_file, "--context", d1_file,
        "--trials", "5000", "--seed", "42",
    )
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["trials"] == 5000
    assert payload["max_deviation"] < 0.1


@pytest.mark.parametrize(
    "trials, partitions",
    [
        ("10", "1000000000"),
        ("9223372036854775808", "1"),
        ("3", "4"),
        ("1000000000", "1000000000"),
    ],
)
def test_simulate_argument_bounds(capsys, d1_file, game_file, tmp_path, trials, partitions):
    out_path = tmp_path / "simulate.json"
    code, out, err = run(
        capsys, "simulate", "--game", game_file, "--context", d1_file,
        "--trials", trials, "--seed", "1", "--partitions", partitions,
        "--output", out_path,
    )
    _assert_single_error(code, out, err, out_path)
    assert trials in err and partitions in err


def test_simulate_three_player_pairs(capsys, tmp_path):
    thetas = (0.0, 2.0 * math.pi / 3.0, math.pi / 3.0)
    names = ("alice", "bob", "cecilia")
    contexts = helpers.spin_pair_contexts(*thetas, names=names)
    pairs_payload = {
        "pairs": [
            {
                "chooser": chooser,
                "tester": tester,
                "context": ql.context_to_json(ctx),
            }
            for (chooser, tester), ctx in contexts.items()
        ]
    }
    ctx_path = tmp_path / "pairs.json"
    ctx_path.write_text(json.dumps(pairs_payload))
    game_path = tmp_path / "game3.json"
    game_path.write_text(json.dumps(helpers.game_to_json(helpers.three_player_spin_spec())))
    code, out, _ = run(
        capsys, "simulate", "--game", game_path, "--context", ctx_path,
        "--trials", "20000", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["parts"]) == 3
    assert payload["analytic_parts"][0]["bob"] == pytest.approx(-0.5, abs=1e-9)


def test_estimate(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("F\nF\nI\nF\n")
    code, out, _ = run(capsys, "estimate", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["frequencies"]["F"] == 0.75
    assert payload["stabilization"] is None  # too short for the default window


def test_estimate_with_stabilization(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("F\n" * 500)
    code, out, _ = run(capsys, "estimate", "--input", path, "--window", "0.2")
    payload = json.loads(out)
    assert payload["stabilization"]["stabilized"] is True
    assert payload["stabilization"]["max_tail_oscillation"] == 0.0


@pytest.mark.parametrize("window", ["0", "-0.2", "nan", "inf", "1.5"])
def test_estimate_window_domain_errors(capsys, tmp_path, window):
    path = tmp_path / "seq.txt"
    path.write_text("F\n" * 500)
    out_path = tmp_path / "estimate.json"
    code, out, err = run(
        capsys, "estimate", "--input", path, "--window", window, "--output", out_path
    )
    _assert_single_error(code, out, err, out_path)
    assert "--window" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3"])
def test_estimate_tol_domain_errors(capsys, tmp_path, tol):
    path = tmp_path / "seq.txt"
    path.write_text("F\n" * 500)
    out_path = tmp_path / "estimate.json"
    code, out, err = run(
        capsys, "estimate", "--input", path, "--window", "0.2", f"--tol={tol}",
        "--output", out_path,
    )
    _assert_single_error(code, out, err, out_path)
    assert "--tol" in err


def test_estimate_zero_tol(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("F\n" * 500)
    code, out, _ = run(capsys, "estimate", "--input", path, "--window", "0.2", "--tol", "0")
    assert code == 0
    stabilization = json.loads(out)["stabilization"]
    assert stabilization["tol"] == 0.0 and stabilization["stabilized"] is True


def test_estimate_whole_sequence_window(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("F\nI\n" * 50)
    code, out, _ = run(capsys, "estimate", "--input", path, "--window", "1")
    assert code == 0
    payload = json.loads(out)
    # the window covers every prefix, down to the first trial's frequency 1
    assert payload["stabilization"]["max_tail_oscillation"] == 0.5
    assert payload["stabilization"]["stabilized"] is False


def test_estimate_crlf_padded_and_blank_lines(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_bytes(b"F\r\nI\r\n\r\n  F \r\n\tI\t\n\n   \nF\n")
    code, out, _ = run(capsys, "estimate", "--input", path, "--window", "0.4")
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 5
    assert payload["frequencies"] == {"F": 0.6, "I": 0.4}
    # the window holds prefixes 4 and 5: F reads 1/2 and 3/5, the final 3/5
    assert payload["stabilization"]["max_tail_oscillation"] == pytest.approx(0.1)


def test_estimate_refuses_label_with_inner_space(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("F\nF I\nI\n")
    out_path = tmp_path / "estimate.json"
    code, out, err = run(capsys, "estimate", "--input", path, "--output", out_path)
    _assert_single_error(code, out, err, out_path)
    assert "'F I'" in err


@pytest.mark.parametrize("content", ["", "\n \n\r\n"])
def test_estimate_refuses_empty_file(capsys, tmp_path, content):
    path = tmp_path / "seq.txt"
    path.write_text(content)
    out_path = tmp_path / "estimate.json"
    code, out, err = run(capsys, "estimate", "--input", path, "--output", out_path)
    _assert_single_error(code, out, err, out_path)
    assert "empty sequence" in err


def test_output_file_written_on_success(capsys, d1_file, tmp_path):
    out_path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "qlra", "--input", d1_file, "--output", out_path)
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["classification"] == "trigonometric"


def test_failed_output_write_keeps_the_previous_file(tmp_path):
    # the pi/6 grid CSV is ~200 kB; the child process may write at most 10 kB a file
    out_path = tmp_path / "scan.csv"
    out_path.write_text("previous\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ql.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "qlgame.cli", "bell", "--grid", repr(math.pi / 6.0),
         "--output", str(out_path)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (10_000, 10_000)),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {OSError(errno.EFBIG, os.strerror(errno.EFBIG))}"]
    assert out_path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]


def test_output_through_a_symlink_keeps_link_and_mode(capsys, d1_file, tmp_path):
    target = tmp_path / "rep.json"
    target.write_text("previous\n")
    target.chmod(0o600)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out, _ = run(capsys, "qlra", "--input", d1_file, "--output", link)
    assert (code, out) == (0, "")
    assert link.is_symlink() and stat.S_IMODE(target.stat().st_mode) == 0o600
    assert json.loads(target.read_text())["classification"] == "trigonometric"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d1.json", "link.json", "rep.json"]


def test_output_to_a_fifo_is_written_in_place(capsys, d1_file, tmp_path):
    # a target that is not a regular file is opened and written, never replaced
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, out, err = run(capsys, "validate", "--input", d1_file, "--output", fifo)
    reader.join(timeout=30)
    if reader.is_alive():  # nothing opened the FIFO: release the reader
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert (code, out, err) == (0, "", "")
    assert received == [run(capsys, "validate", "--input", d1_file)[1].encode()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.glob(".*.tmp")) == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors")
def test_failed_mode_copy_closes_the_new_file(capsys, monkeypatch, d1_file, tmp_path):
    out_path = tmp_path / "rep.json"
    out_path.write_text("previous\n")

    def refuse(fd, mode):
        raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

    monkeypatch.setattr(os, "fchmod", refuse)
    before = len(os.listdir("/proc/self/fd"))
    code, out, err = run(capsys, "validate", "--input", d1_file, "--output", out_path)
    assert len(os.listdir("/proc/self/fd")) == before
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {PermissionError(errno.EPERM, os.strerror(errno.EPERM))}"]
    assert out_path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d1.json", "rep.json"]


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "qlra", "--input", "/does/not/exist.json")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["bogus"]) == 2


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", "--input", path)
    assert code == 2


class _FailingStdout(io.StringIO):
    def __init__(self, write_error=None, flush_error=None):
        super().__init__()
        self.write_error, self.flush_error = write_error, flush_error

    def write(self, text):
        if self.write_error:
            raise self.write_error
        return super().write(text)

    def flush(self):
        if self.flush_error:
            raise self.flush_error


@pytest.mark.parametrize(
    "stdout",
    [
        _FailingStdout(write_error=OSError(errno.ENOSPC, "No space left on device")),
        _FailingStdout(flush_error=OSError(errno.ENOSPC, "No space left on device")),
        _FailingStdout(write_error=BrokenPipeError(errno.EPIPE, "Broken pipe")),
        _FailingStdout(flush_error=BrokenPipeError(errno.EPIPE, "Broken pipe")),
    ],
    ids=["write-enospc", "flush-enospc", "write-epipe", "flush-epipe"],
)
def test_failed_stdout_write_exits_2(capsys, monkeypatch, d1_file, stdout):
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["validate", "--input", str(d1_file)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [f"error: {stdout.write_error or stdout.flush_error}"]


def test_closed_pipe_exits_2():
    # the reader takes 10 bytes of a ~27 MB CSV and closes the pipe
    env = dict(os.environ, PYTHONPATH=str(Path(ql.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(
        [sys.executable, "-m", "qlgame.cli", "bell", "--grid", repr(2.0 * math.pi / 60)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert code == 2
    assert err.splitlines() == [f"error: {BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))}"]


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--input", "{bad}"),
        ("qlra", "--input", "{bad}"),
        ("average", "--game", "{bad}", "--context", "{d1}"),
        ("average", "--game", "{game}", "--context", "{bad}"),
        ("feasibility", "--input", "{bad}"),
        ("simulate", "--game", "{bad}", "--context", "{d1}", "--trials", "10", "--seed", "1"),
        ("simulate", "--game", "{game}", "--context", "{bad}", "--trials", "10", "--seed", "1"),
        ("estimate", "--input", "{bad}"),
    ],
)
def test_non_utf8_input_exits_2(capsys, d1_file, game_file, tmp_path, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff\xfeF\nI\n")
    out_path = tmp_path / "out.json"
    paths = {"bad": bad, "d1": d1_file, "game": game_file}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv), "--output", out_path)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "utf-8" in lines[0]
    assert "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--input", "{d1}"),
        ("average", "--game", "{game}", "--context", "{d1}"),
        ("estimate", "--input", "{seq}"),
    ],
)
def test_bom_led_input_reads_as_without(capsys, d1_file, game_file, tmp_path, argv):
    # some editors start UTF-8 files with a byte-order mark
    seq = tmp_path / "seq.txt"
    seq.write_text("F\nI\nF\n")
    plain = {"d1": d1_file, "game": game_file, "seq": seq}
    led = {}
    for key, path in plain.items():
        led[key] = tmp_path / f"bom-{path.name}"
        led[key].write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    want = run(capsys, *(a.format(**plain) for a in argv))
    assert want[0] == 0
    assert run(capsys, *(a.format(**led) for a in argv)) == want


def test_import_loads_no_openssl():
    # hashlib maps OpenSSL's libcrypto into the process; only seeding needs it
    env = dict(os.environ, PYTHONPATH=str(Path(ql.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qlgame.cli; print('_hashlib' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


CONTEXT_KEYS = ("marginal_a", "marginal_b", "trans_b_given_a", "trans_a_given_b")


@st.composite
def context_documents(draw):
    """A strictly positive R1 context of 1 to 4 outcomes, then possibly a
    bad alphabet, one non-finite or negative entry, or a missing key.
    Returns the document and whether it is valid input."""
    n = draw(st.integers(1, 4))
    mixing = draw(st.floats(0.05, 1.0))
    trans = (1.0 - mixing) * np.eye(n) + mixing / n  # symmetric, doubly stochastic
    doc = {"trans_b_given_a": trans.tolist(), "trans_a_given_b": trans.tolist()}
    for key in ("marginal_a", "marginal_b"):
        weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        doc[key] = (weights / weights.sum()).tolist()
    alphabet = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from("FIXY"), min_size=n, max_size=n),
        st.sampled_from([5, "FI", None, [1, 2], [["F"], ["I"]], [None, "I"]]).map(
            lambda bad: {"bad": bad}
        ),
    ))
    if alphabet is None:
        valid = n == 2
    elif isinstance(alphabet, dict):
        doc["alphabet"] = alphabet["bad"]
        valid = False
    else:
        doc["alphabet"] = alphabet
        valid = n >= 2 and len(set(alphabet)) == n
    fault = draw(st.sampled_from(["none", "entry", "missing"]))
    if fault == "entry":
        key = draw(st.sampled_from(CONTEXT_KEYS))
        rows = doc[key] if isinstance(doc[key][0], list) else [doc[key]]
        k = draw(st.integers(0, n * len(rows) - 1))
        # set in the nested list: a float array cannot hold 10**400
        rows[k // n][k % n] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf, -0.25, 10**400])
        )
        valid = False
    elif fault == "missing":
        del doc[draw(st.sampled_from(CONTEXT_KEYS))]
        valid = False
    return doc, valid


@settings(max_examples=150, deadline=None)
@given(context_documents())
def test_cli_exit_contract_over_generated_contexts(case):
    doc, valid = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ctx = tmp / "ctx.json"
        ctx.write_text(json.dumps(doc))
        game = tmp / "game.json"
        game.write_text(json.dumps(helpers.game_to_json(helpers.zero_sum_spec())))
        for argv in (
            ["validate", "--input", ctx],
            ["qlra", "--input", ctx],
            ["average", "--game", game, "--context", ctx, "--ql"],
        ):
            out_path = tmp / "out.json"
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main([str(a) for a in argv + ["--output", out_path]])
            err = stderr.getvalue()
            assert stdout.getvalue() == ""
            assert "Traceback" not in err
            if code == 0:
                assert err == "" and out_path.exists()
                out_path.unlink()
            else:
                assert code == 1, (argv[0], err)
                assert len(err.splitlines()) == 1 and err.startswith("error: ")
                assert not out_path.exists()
            if not valid:
                assert code == 1, (argv[0], doc)
            elif argv[0] == "validate":
                assert code == 0, err


NOT_A_MAPPING = st.sampled_from([[], [1], "x", 7, 0.5, True, None])
NOT_A_LIST = st.sampled_from([{}, {"x": 1}, "ab", 7, True, None])
NOT_A_NAME = st.sampled_from([["a"], {"a": 1}, 1, None, True])
NOT_A_FLAG = st.sampled_from(["false", "true", "", 0, 1, 0.5, None, [True]])
NOT_A_TABLE = st.sampled_from(["x", {"F": 0.5}, None, [["x"]], True, [[10**400, 0.0], [0.0, 1.0]]])


@st.composite
def broken_documents(draw):
    """A valid game file, pair file or pairwise system with one structural
    fault: a wrong top-level type, a missing field, a field of the wrong
    type, a non-boolean zero_sum, an entry that is not an object, or a
    repeated pair.  Returns the kind, the document and a text the refusal
    must contain."""
    kind = draw(st.sampled_from(["game", "pairs", "system"]))
    fault = draw(st.sampled_from({
        "game": ["top", "missing", "type", "entry", "flag"],
        "pairs": ["top", "missing", "type", "entry", "repeat"],
        "system": ["top", "missing", "type"],
    }[kind]))
    if kind == "system":
        doc = dict(UNIFORM_SYSTEM)
        key = draw(st.sampled_from(sorted(doc)))
        if fault == "top":
            return kind, draw(NOT_A_MAPPING), "pairwise system must be a mapping"
        if fault == "missing":
            del doc[key]
            return kind, doc, f"pairwise system is missing field {key!r}"
        if draw(st.booleans()):
            doc["alphabet"] = draw(st.sampled_from(["FI", 7, None, [1, 2], ["F", None]]))
            return kind, doc, "alphabet must be a list of string labels"
        doc[key] = draw(NOT_A_TABLE)
        return kind, doc, f"{key}: "
    if kind == "pairs":
        entries = [{"chooser": c, "tester": t, "context": dict(helpers.D1_RAW)}
                   for c, t in (("a", "b"), ("b", "a"))]
        k = draw(st.integers(0, 1))
        where = f"pair {k}"
        if fault == "top":
            return kind, {"pairs": draw(NOT_A_LIST)}, "pairs must be a list of pair contexts"
        if fault == "entry":
            entries[k] = draw(NOT_A_MAPPING)
            return kind, {"pairs": entries}, f"{where} must be a mapping"
        if fault == "repeat":
            entries.insert(draw(st.integers(0, 2)), dict(entries[k]))
            pair = "pair (a, b)" if k == 0 else "pair (b, a)"
            return kind, {"pairs": entries}, f"{pair} is given twice"
        key = draw(st.sampled_from(["chooser", "tester", "context"]))
        if fault == "missing":
            del entries[k][key]
            return kind, {"pairs": entries}, f"{where} is missing field {key!r}"
        if key == "context":
            entries[k]["context"] = draw(NOT_A_MAPPING)
            pair = "pair (a, b)" if k == 0 else "pair (b, a)"
            return kind, {"pairs": entries}, f"{pair}: context data must be a mapping"
        entries[k][key] = draw(NOT_A_NAME)
        return kind, {"pairs": entries}, f"{where} {key} must be a string"
    doc = _game_doc()
    k = draw(st.integers(0, 1))
    where = f"part {k}"
    if fault == "top":
        return kind, draw(NOT_A_MAPPING), "game must be a mapping"
    if fault == "flag":
        doc["zero_sum"] = draw(NOT_A_FLAG)
        return kind, doc, "zero_sum must be true or false"
    if fault == "entry":
        doc["parts"][k] = draw(NOT_A_MAPPING)
        return kind, doc, f"{where} must be a mapping"
    if fault == "missing":
        key = draw(st.sampled_from(["players", "parts", "chooser", "tester", "payoffs"]))
        if key in ("players", "parts"):
            del doc[key]
            return kind, doc, f"game is missing field {key!r}"
        del doc["parts"][k][key]
        return kind, doc, f"{where} is missing field {key!r}"
    key = draw(st.sampled_from(["players", "player", "parts", "chooser", "tester", "payoffs"]))
    if key in ("players", "parts"):
        doc[key] = draw(NOT_A_LIST)
        return kind, doc, f"{key} must be a list of"
    if key == "player":
        doc["players"][k] = draw(NOT_A_NAME)
        return kind, doc, "players must be a list of names"
    if key == "payoffs":
        doc["parts"][k]["payoffs"] = draw(NOT_A_MAPPING)
        return kind, doc, f"{where} payoffs must be a mapping"
    doc["parts"][k][key] = draw(NOT_A_NAME)
    return kind, doc, f"{where} {key} must be a string"


@settings(max_examples=200, deadline=None)
@given(broken_documents())
def test_cli_exit_contract_over_broken_documents(case):
    """Every structural fault in a game file, pair file or pairwise system
    exits 1 with one error line that names the field, and writes nothing."""
    kind, doc, names = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "doc.json").write_text(json.dumps(doc))
        (tmp / "game.json").write_text(json.dumps(_game_doc()))
        (tmp / "d1.json").write_text(json.dumps(helpers.D1_RAW))
        game, context = ("doc", "d1") if kind == "game" else ("game", "doc")
        files = ["--game", tmp / f"{game}.json", "--context", tmp / f"{context}.json"]
        runs = [["feasibility", "--input", tmp / "doc.json"]] if kind == "system" else [
            ["average", *files],
            ["average", "--ql", *files],
            ["simulate", *files, "--trials", "10", "--seed", "1"],
        ]
        for argv in runs:
            out_path = tmp / "out.json"
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main([str(a) for a in argv + ["--output", out_path]])
            err = stderr.getvalue()
            assert (code, stdout.getvalue()) == (1, ""), (argv[0], doc, err)
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            assert names in err, (names, err)
            assert not out_path.exists()


# Each table within PROB_TOL, but the joint p_a(i) p(b=j|a=i) sums to 1 + 1.6e-12.
TOLERANCE_EDGE = {
    "marginal_a": [0.5 + 4e-13, 0.5 + 4e-13],
    "marginal_b": [0.5, 0.5],
    "trans_b_given_a": [[0.7 + 4e-13, 0.3 + 4e-13], [0.3 + 4e-13, 0.7 + 4e-13]],
    "trans_a_given_b": [[0.7, 0.3], [0.3, 0.7]],
}


def test_tolerance_edge_context_passes_every_subcommand(capsys, tmp_path, game_file):
    ctx = tmp_path / "edge.json"
    ctx.write_text(json.dumps(TOLERANCE_EDGE))
    for argv in (
        ["validate", "--input", ctx],
        ["qlra", "--input", ctx],
        ["average", "--game", game_file, "--context", ctx, "--ql"],
        ["simulate", "--game", game_file, "--context", ctx, "--trials", "1000", "--seed", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv[0]
        json.loads(out)


QLRA_REASONS = ("(R1)", "(R2)", "hyperbolic context")


@st.composite
def edge_context_documents(draw):
    """A two-outcome R1 context at the tolerance edges: |lambda| within
    1e-14 to 1e-6 of 1 from either side, each table's sums moved by 0.5 to
    1 PROB_TOL either way, and possibly a row or marginal [1 + PROB_TOL,
    -PROB_TOL].  Returns the document and whether each table passes the
    reference table check."""
    p = draw(st.floats(0.05, 0.95))
    q = draw(st.floats(0.05, 0.95))
    gap = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-14.0, -6.0))
    lam = draw(st.sampled_from([-1.0, 1.0])) * (1.0 - gap)
    r = float(helpers.b_marginal_for_lambda(p, q, lam))
    assume(0.01 < r < 0.99)
    trans = [[q, 1.0 - q], [1.0 - q, q]]
    doc = {"marginal_a": [p, 1.0 - p], "marginal_b": [r, 1.0 - r],
           "trans_b_given_a": trans, "trans_a_given_b": trans}
    shifts = [
        draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 1.0)) * PROB_TOL
        for _ in CONTEXT_KEYS
    ]
    if draw(st.booleans()):
        shifts[3] = shifts[2]  # the transition matrices stay each other's transpose
    for key, shift in zip(CONTEXT_KEYS, shifts):
        doc[key] = (np.array(doc[key]) + shift / 2.0).tolist()
    if draw(st.booleans()):
        corner = draw(st.sampled_from(CONTEXT_KEYS))
        row = draw(st.sampled_from([[1.0 + PROB_TOL, -PROB_TOL], [-PROB_TOL, 1.0 + PROB_TOL]]))
        if corner.startswith("marginal"):
            doc[corner] = row
        else:
            doc[corner] = [row, doc[corner][1]]
    valid = True
    for key in CONTEXT_KEYS:
        ndim = 1 if key.startswith("marginal") else 2
        try:
            helpers.reference_probability_table(doc[key], ql.ALPHABET, ndim, key, ndim - 1 or None)
        except ql.ValidationError:
            valid = False
    return doc, valid


@settings(max_examples=100, deadline=None)
@given(edge_context_documents())
def test_valid_edge_contexts_pass_every_subcommand(case):
    """Valid tables pass validate; whatever validate accepts, average and
    simulate accept too; qlra refuses only for R1, R2 or |lambda| > 1."""
    doc, valid = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ctx = tmp / "ctx.json"
        ctx.write_text(json.dumps(doc))
        game = tmp / "game.json"
        game.write_text(json.dumps(helpers.game_to_json(helpers.zero_sum_spec())))
        results = {}
        for argv in (
            ["validate", "--input", ctx],
            ["average", "--game", game, "--context", ctx],
            ["simulate", "--game", game, "--context", ctx, "--trials", "500", "--seed", "1"],
            ["qlra", "--input", ctx],
        ):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main([str(a) for a in argv])
            results[argv[0]] = code, stderr.getvalue()
    assert results["validate"][0] == (0 if valid else 1), results["validate"]
    if valid:
        assert results["average"] == (0, ""), results["average"]
        assert results["simulate"] == (0, ""), results["simulate"]
        code, err = results["qlra"]
        assert code == 0 or any(reason in err for reason in QLRA_REASONS), err
