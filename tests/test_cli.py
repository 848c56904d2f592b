import json
import os
import subprocess
import sys

import pytest

from qinv.cli import run
from qinv.poly import State, ghz, w_state


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz3.json"
    ghz(3).save(path)
    return str(path)


@pytest.fixture
def w_file(tmp_path):
    path = tmp_path / "w3.json"
    w_state(3).save(path)
    return str(path)


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_eval_norm_invariant(capsys, ghz_file):
    code, doc = _run_json(capsys, ["eval", "--state", ghz_file,
                                   "--invariant", "A"])
    assert code == 0
    assert doc["name"] == "A"
    assert doc["value"][0] == pytest.approx(1.0)
    assert doc["value"][1] == pytest.approx(0.0)


def test_eval_hyperdeterminant(capsys, ghz_file):
    code, doc = _run_json(capsys, ["eval", "--state", ghz_file,
                                   "--invariant", "Det"])
    assert code == 0
    assert doc["value"][0] == pytest.approx(0.25)


def test_eval_unknown_invariant(capsys, ghz_file):
    code, doc = _run_json(capsys, ["eval", "--state", ghz_file,
                                   "--invariant", "nope"])
    assert code == 1
    assert "unknown invariant" in doc["error"]
    assert "A" in doc["error"]


def test_eval_missing_file(capsys, tmp_path):
    code, doc = _run_json(capsys, ["eval", "--state",
                                   str(tmp_path / "missing.json"),
                                   "--invariant", "A"])
    assert code == 1
    assert "not found" in doc["error"]


def test_eval_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, doc = _run_json(capsys, ["eval", "--state", str(path),
                                   "--invariant", "A"])
    assert code == 1
    assert "malformed" in doc["error"]


def test_classify_ghz_and_w(capsys, ghz_file, w_file):
    code, doc = _run_json(capsys, ["classify", "--state", ghz_file])
    assert code == 0 and doc["label"] == "GHZ"
    assert set(doc["invariants"]) == {"B_200", "B_020", "B_002", "D_000"}
    code, doc = _run_json(capsys, ["classify", "--state", w_file])
    assert code == 0 and doc["label"] == "W"


def test_classify_wrong_k(capsys, tmp_path):
    path = tmp_path / "k2.json"
    State(2, (1, 0, 0, 0)).save(path)
    code, doc = _run_json(capsys, ["classify", "--state", str(path)])
    assert code == 1
    assert "k=2" in doc["error"]


def test_measure_routes_agree(capsys, w_file):
    _, direct = _run_json(capsys, ["measure", "--state", w_file])
    _, cov = _run_json(capsys, ["measure", "--state", w_file,
                                "--route", "covariant"])
    assert direct["Q"] == pytest.approx(8 / 9)
    assert direct["Q"] == pytest.approx(cov["Q"], abs=1e-10)
    assert direct["d1"] == pytest.approx(cov["d1"], abs=1e-10)


def test_hilbert_lut3_closed_form(capsys):
    code, doc = _run_json(capsys, [
        "hilbert", "--group", "lut", "--k", "3", "--max-degree", "6",
        "--method", "closed-form",
    ])
    assert code == 0
    assert doc["coefficients"] == [1, 0, 1, 0, 4, 0, 5]


def test_hilbert_methods_agree(capsys):
    _, char = _run_json(capsys, ["hilbert", "--group", "lut", "--k", "2",
                                 "--max-degree", "8"])
    _, ct = _run_json(capsys, ["hilbert", "--group", "lut", "--k", "2",
                               "--max-degree", "8", "--method", "ct"])
    assert char["coefficients"] == ct["coefficients"]


def test_hilbert_slocc4(capsys):
    code, doc = _run_json(capsys, [
        "hilbert", "--group", "slocc", "--k", "4", "--max-degree", "8",
        "--method", "closed-form",
    ])
    assert code == 0
    assert doc["coefficients"][::2] == [1, 1, 3, 4, 7]


def test_hilbert_lsut_table(capsys):
    code, doc = _run_json(capsys, [
        "hilbert", "--group", "lsut", "--k", "3", "--max-degree", "2",
        "--max-conj-degree", "2",
    ])
    assert code == 0
    table = {(i, j): v for i, j, v in doc["coefficients"]}
    assert table[(0, 0)] == 1
    assert table[(1, 1)] == 1
    assert table[(1, 0)] == 0


@pytest.mark.parametrize("group,k,message", [
    ("lut", 5, "closed-form LUT series shipped for k=3,4 only"),
    ("lsut", 5, "closed-form LSUT series shipped for k=3,4 only"),
    ("slocc", 3, "closed-form SLOCC series is shipped for k=4 only"),
], ids=["lut", "lsut", "slocc"])
def test_hilbert_unsupported_closed_form(capsys, group, k, message):
    code, doc = _run_json(capsys, [
        "hilbert", "--group", group, "--k", str(k), "--max-degree", "4",
        "--method", "closed-form",
    ])
    assert code == 1
    assert doc == {"error": message}


def test_covariant_info_and_print(capsys):
    code, doc = _run_json(capsys, ["covariant", "--k", "3",
                                   "--name", "Delta"])
    assert code == 0
    assert doc["multidegree"] == [0, 0, 0]
    assert doc["amplitude_degree"] == 4
    assert "polynomial" not in doc
    code, doc = _run_json(capsys, ["covariant", "--k", "2", "--name", "f",
                                   "--print"])
    assert code == 0
    assert "polynomial" in doc


def test_covariant_unknown_name(capsys):
    code, doc = _run_json(capsys, ["covariant", "--k", "3",
                                   "--name", "nope"])
    assert code == 1


def test_verify_suite_passes_and_is_deterministic(capsys):
    code, first = _run_json(capsys, ["verify", "--suite", "invariance",
                                     "--k", "2", "--trials", "20",
                                     "--seed", "7"])
    assert code == 0
    assert first["passed"]
    code, second = _run_json(capsys, ["verify", "--suite", "invariance",
                                      "--k", "2", "--trials", "20",
                                      "--seed", "7"])
    assert first == second


def test_verify_hilbert_suite(capsys):
    code, doc = _run_json(capsys, ["verify", "--suite", "hilbert"])
    assert code == 0
    assert doc["passed"]
    assert all(item["passed"] for item in doc["items"])


def test_bad_arguments_exit_code(capsys):
    assert run(["hilbert", "--group", "nope", "--k", "3",
                "--max-degree", "4"]) == 1


def test_state_round_trip_through_cli_inputs(tmp_path):
    s = State(3, tuple(complex(i, 7 - i) / 11 for i in range(8)))
    path = tmp_path / "s.json"
    s.save(path)
    assert State.load(path) == s


@pytest.mark.parametrize("argv", [
    ["hilbert", "--group", "lut", "--k", "-1", "--max-degree", "4"],
    ["hilbert", "--group", "slocc", "--k", "0", "--max-degree", "4"],
    ["hilbert", "--group", "lut", "--k", "3", "--max-degree", "-2"],
    ["covariant", "--k", "3", "--name", "B_abc"],
    ["covariant", "--k", "3", "--name", "B_201"],
    ["covariant", "--k", "0", "--name", "f"],
])
def test_bad_sizes_and_names_give_json_error(capsys, argv):
    code, doc = _run_json(capsys, argv)
    assert code == 1
    assert list(doc) == ["error"]


def test_non_finite_state_is_rejected(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(
        {"k": 3, "amplitudes": [["NaN", 0]] + [[0, 0]] * 7}
    ).replace('"NaN"', "NaN"))
    code, doc = _run_json(capsys, ["classify", "--state", str(path)])
    assert code == 1
    assert "malformed" in doc["error"]


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "qinv", "hilbert", "--group", "lut", "--k",
         "3", "--max-degree", "6", "--method", "closed-form"],
        capture_output=True, text=True, env=env, check=False)
    assert out.returncode == 0
    assert json.loads(out.stdout)["coefficients"] == [1, 0, 1, 0, 4, 0, 5]
