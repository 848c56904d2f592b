import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
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


@pytest.mark.parametrize("argv", [["eval", "--invariant", "A"], ["classify"],
                                  ["measure"]])
@pytest.mark.parametrize("nested", [False, True])
def test_unreadable_state_file_is_a_json_error(tmp_path, argv, nested):
    # A directory fails in open(), 100,000 nested "[" in json.load's
    # recursion; both end in the one JSON error document.
    path = tmp_path
    if nested:
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
    out = _run_fresh_cli([argv[0], "--state", str(path), *argv[1:]])
    assert out.returncode == 1
    assert out.stderr == b""
    doc = json.loads(out.stdout)
    assert list(doc) == ["error"] and str(path) in doc["error"]


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
    # The message classify3 itself raises, now checked before its import.
    assert doc == {"error": "classification needs k=3, got k=2"}


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
    # Across processes the stdout is the same bytes: nothing in it depends
    # on memory addresses.
    argv = ["verify", "--suite", "invariance", "--k", "3", "--seed", "7"]
    fresh = [_run_fresh_cli(argv) for _ in range(2)]
    assert fresh[0].returncode == 0
    assert fresh[0].stdout == fresh[1].stdout


def _run_fresh_cli(argv):
    """`python -m qinv argv` in a fresh interpreter on this source tree."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "qinv", *argv],
                          capture_output=True, env=env, check=False)


def test_verify_hilbert_suite(capsys):
    code, doc = _run_json(capsys, ["verify", "--suite", "hilbert"])
    assert code == 0
    assert doc["passed"]
    assert all(item["passed"] for item in doc["items"])


def _classification_draws(monkeypatch, fail_ghz_first_trial):
    """The suite's report and every SL(2) tuple it drew, with the batched
    classifier optionally made to mislabel GHZ on its first trial."""
    from qinv import measures, transvection, verify

    classify = measures.classify3_batch
    draw = transvection.random_tuple
    draws = []

    def recording_draw(*args, **kwargs):
        g = draw(*args, **kwargs)
        draws.append(np.array(g))
        return g

    def flaky_classify(amplitudes, tol=1e-9):
        results = classify(amplitudes, tol=tol)
        # The moved states are labelled at tol 1e-7; GHZ's come first.
        if tol == 1e-7 and fail_ghz_first_trial:
            results[0] = dataclasses.replace(results[0], label="W")
        return results

    with monkeypatch.context() as patch:
        patch.setattr(transvection, "random_tuple", recording_draw)
        patch.setattr(measures, "classify3_batch", flaky_classify)
        return verify.suite_classification(trials=5, seed=0), draws


def test_classification_draws_do_not_depend_on_earlier_failures(
        monkeypatch):
    clean, clean_draws = _classification_draws(monkeypatch, False)
    failed, failed_draws = _classification_draws(monkeypatch, True)
    verdicts = {i["name"]: i["passed"] for i in failed["items"]}
    assert verdicts == {i["name"]: i["passed"] for i in clean["items"]
                        } | {"classify:GHZ": False}
    assert len(failed_draws) == len(clean_draws) == 6 * 5
    assert all(np.array_equal(a, b)
               for a, b in zip(failed_draws, clean_draws))
    assert failed["items"][-1] == clean["items"][-1]  # meyer_wallach_routes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_classification_suite_matches_per_state_classify3(
        monkeypatch, seed):
    """The suite's draws and verdicts against a per-state loop: each move
    drawn in the same order, applied by act_on_state and labelled by
    classify3."""
    from qinv import transvection, verify
    from qinv.measures import classify3
    from qinv.poly import basis_state

    trials = 20
    draw = transvection.random_tuple
    suite_draws = []

    def recording_draw(*args, **kwargs):
        g = draw(*args, **kwargs)
        suite_draws.append(np.array(g))
        return g

    with monkeypatch.context() as patch:
        patch.setattr(transvection, "random_tuple", recording_draw)
        report = verify.suite_classification(trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    reps = {
        "GHZ": ghz(3),
        "W": w_state(3),
        "B1": State(3, (0, 1, 1, 0, 0, 0, 0, 0)),
        "B2": State(3, (0, 1, 0, 0, 1, 0, 0, 0)),
        "B3": State(3, (0, 0, 1, 0, 1, 0, 0, 0)),
        "SEPARABLE": basis_state(3, 0),
    }
    verdicts = {}
    draws = []
    for label, s in reps.items():
        moves = [draw(3, rng) for _ in range(trials)]
        draws += [np.array(g) for g in moves]
        verdicts[f"classify:{label}"] = classify3(s).label == label and all(
            classify3(transvection.act_on_state(g, s), tol=1e-7).label
            == label for g in moves)
    assert len(suite_draws) == len(draws) == 6 * trials
    assert all(np.array_equal(a, b) for a, b in zip(suite_draws, draws))
    assert {i["name"]: i["passed"] for i in report["items"]
            if i["name"].startswith("classify:")} == verdicts


def test_bad_arguments_exit_code(capsys):
    assert run(["hilbert", "--group", "nope", "--k", "3",
                "--max-degree", "4"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "qinv hilbert: argument --group: invalid choice: 'nope' "
                 "(choose from 'slocc', 'lut', 'lsut')"}


@pytest.mark.parametrize("argv", [
    ["covariant", "--k", "abc", "--name", "f"],
    ["classify"],
    [],
])
def test_bad_arguments_give_json_error(capsys, argv):
    code, doc = _run_json(capsys, argv)
    assert code == 1
    assert list(doc) == ["error"]
    assert doc["error"].startswith("qinv")


@pytest.mark.parametrize("tol", ["0", "-0.5", "nan", "inf"])
def test_classify_rejects_bad_tolerance(capsys, ghz_file, tol):
    code, doc = _run_json(capsys, ["classify", "--state", ghz_file,
                                   "--tol", tol])
    assert code == 1
    assert doc == {"error": f"--tol must be positive and finite, got "
                            f"{float(tol)}"}


def _uniform_state_file(tmp_path, k, value):
    path = tmp_path / f"uniform_{k}_{value}.json"
    path.write_text(json.dumps({"k": k, "amplitudes": [[value, 0]] * 2 ** k}))
    return str(path)


# One case per way a degenerate or overflowing state used to end in a
# traceback, a label or NaN: each must give the JSON error and exit code 1.
@pytest.mark.parametrize("argv, value, message", [
    (["classify"], 0.0, "cannot classify the zero state"),
    (["classify"], 1e-170, "cannot classify the zero state"),
    (["classify"], 1e308, "squared norm of the amplitudes overflows"),
    (["classify"], 1.1e154, "squared norm of the amplitudes overflows"),
    (["eval", "--invariant", "A"], 1e200,
     "squared norm of the amplitudes overflows"),
    (["measure", "--route", "direct"], 1e200,
     "squared norm of the amplitudes overflows"),
    (["measure", "--route", "covariant"], 1e200,
     "squared norm of the amplitudes overflows"),
    (["measure", "--route", "direct"], 1e100, "measure: the result is not "
     "finite"),
    (["eval", "--invariant", "f7"], 1e60, "eval: the result is not finite"),
])
def test_degenerate_and_overflowing_states_give_json_error(
        capsys, tmp_path, argv, value, message):
    path = _uniform_state_file(tmp_path, 3, value)
    code, doc = _run_json(capsys, argv[:1] + ["--state", path] + argv[1:])
    assert code == 1
    assert list(doc) == ["error"]
    assert message in doc["error"]


# Overflow inside the evaluator is reported only by the JSON error: numpy
# prints no warning on stderr.  Run as a command, outside pytest's filters.
@pytest.mark.parametrize("argv, k, value, message", [
    (["eval", "--invariant", "f7"], 3, 1e60, "eval: the result is not finite"),
    (["measure", "--route", "covariant"], 4, 1e100,
     "measure: the result is not finite"),
])
def test_overflowing_evaluation_leaves_stderr_empty(tmp_path, argv, k, value,
                                                    message):
    path = _uniform_state_file(tmp_path, k, value)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "qinv", argv[0], "--state", path, *argv[1:]],
        capture_output=True, text=True, env=env, check=False)
    assert out.returncode == 1
    assert out.stderr == ""
    assert json.loads(out.stdout) == {"error": message}


@pytest.mark.parametrize("k", [3.9, "3", True, False])
def test_state_file_with_non_integer_k_is_rejected(capsys, tmp_path, k):
    # A boolean k gets two amplitudes, the size that True (= 1) would fit.
    size = 2 if isinstance(k, bool) else 8
    path = tmp_path / "k.json"
    path.write_text(json.dumps(
        {"k": k, "amplitudes": [[1, 0]] + [[0, 0]] * (size - 1)}))
    code, doc = _run_json(capsys, ["measure", "--state", str(path)])
    assert code == 1
    assert list(doc) == ["error"]
    assert doc["error"].startswith(f"malformed state file {path}: ")


# The first k past each command's bound; the check comes before any
# covariant is built (the k=7 covariant route alone takes seconds).
@pytest.mark.parametrize("command, argv, k", [
    ("eval", ["eval", "--invariant", "A"], 8),
    ("measure --route covariant", ["measure", "--route", "covariant"], 7),
])
def test_state_commands_cap_k(capsys, tmp_path, command, argv, k):
    from qinv.cli import MAX_K

    assert MAX_K[command] == k - 1
    path = _uniform_state_file(tmp_path, k, 0.01)
    code, doc = _run_json(capsys, argv[:1] + ["--state", path] + argv[1:])
    assert code == 1
    assert doc == {"error": f"{command} supports k <= {k - 1}, got k={k}"}


def test_covariant_caps_k(capsys):
    from qinv.cli import MAX_K

    assert MAX_K["covariant"] == 8
    code, doc = _run_json(capsys, ["covariant", "--k", "9", "--name", "f"])
    assert code == 1
    assert doc == {"error": "covariant supports k <= 8, got k=9"}


def test_verify_caps_k_and_trials(capsys):
    from qinv.cli import MAX_K, MAX_TRIALS

    assert MAX_K["verify --suite invariance"] == 6
    assert MAX_TRIALS == 10_000
    code, doc = _run_json(capsys, ["verify", "--suite", "invariance",
                                   "--k", "7"])
    assert code == 1
    assert doc == {"error": "verify --suite invariance supports k <= 6, "
                            "got k=7"}
    code, doc = _run_json(capsys, ["verify", "--suite", "invariance",
                                   "--k", "1"])
    assert code == 1
    assert doc == {"error": "verify --suite invariance needs k >= 2, got k=1"}
    for suite in ("invariance", "classification"):
        code, doc = _run_json(capsys, ["verify", "--suite", suite,
                                       "--trials", "10001"])
        assert code == 1
        assert doc == {"error": "--trials must be at most 10000, got 10001"}


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


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "invariance", "--k", "0"],
    ["verify", "--suite", "invariance", "--k", "-2"],
    ["verify", "--suite", "invariance", "--trials", "0"],
    ["verify", "--suite", "invariance", "--trials", "-1"],
    ["verify", "--suite", "classification", "--trials", "0"],
    ["verify", "--suite", "invariance", "--seed", "-1"],
    ["verify", "--suite", "classification", "--seed", "-5"],
])
def test_verify_rejects_sizes_below_one(capsys, argv):
    code, doc = _run_json(capsys, argv)
    assert code == 1
    assert list(doc) == ["error"]


@pytest.mark.parametrize("suite, flag", [
    ("hilbert", "--k"), ("hilbert", "--trials"), ("hilbert", "--seed"),
    ("identities", "--k"), ("identities", "--trials"),
    ("identities", "--seed"), ("classification", "--k"),
])
def test_verify_rejects_a_flag_its_suite_does_not_read(capsys, suite, flag):
    # Even the value the suite would be given by default is rejected.
    value = {"--k": "3", "--trials": "100", "--seed": "0"}[flag]
    code, doc = _run_json(capsys, ["verify", "--suite", suite, flag, value])
    assert code == 1
    assert doc == {"error": f"verify --suite {suite} does not read {flag}"}


def test_verify_defaults_are_the_flags_left_out(monkeypatch, capsys):
    from qinv import verify

    seen = []
    for name in verify.SUITES:
        monkeypatch.setitem(
            verify.SUITES, name,
            lambda name=name, **opts: seen.append((name, opts))
            or {"passed": True})
    for suite in ("classification", "hilbert", "identities", "invariance"):
        assert run(["verify", "--suite", suite]) == 0
    assert run(["verify", "--suite", "invariance", "--k", "4", "--trials",
                "5", "--seed", "9"]) == 0
    assert run(["verify", "--suite", "classification", "--seed", "2"]) == 0
    capsys.readouterr()
    assert seen == [
        ("classification", {"trials": 100, "seed": 0}),
        ("hilbert", {}),
        ("identities", {}),
        ("invariance", {"k": 3, "trials": 100, "seed": 0}),
        ("invariance", {"k": 4, "trials": 5, "seed": 9}),
        ("classification", {"trials": 100, "seed": 2}),
    ]


def test_closed_stdout_ends_without_a_traceback():
    # The printed E_3111 is about 150 kB, more than a pipe holds, so the
    # write meets the closed pipe.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qinv", "covariant", "--k", "4", "--name",
         "E_3111", "--print"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{\n  "name"'
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 141
    assert err == b""


def test_non_finite_state_is_rejected(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(
        {"k": 3, "amplitudes": [["NaN", 0]] + [[0, 0]] * 7}
    ).replace('"NaN"', "NaN"))
    code, doc = _run_json(capsys, ["classify", "--state", str(path)])
    assert code == 1
    assert "malformed" in doc["error"]


def test_python_dash_m_runs_the_cli():
    out = _run_fresh_cli(["hilbert", "--group", "lut", "--k", "3",
                          "--max-degree", "6", "--method", "closed-form"])
    assert out.returncode == 0
    assert json.loads(out.stdout)["coefficients"] == [1, 0, 1, 0, 4, 0, 5]


@pytest.mark.parametrize("group", ["lut", "slocc"])
def test_max_conj_degree_is_lsut_only(capsys, group):
    code, doc = _run_json(capsys, [
        "hilbert", "--group", group, "--k", "3", "--max-degree", "4",
        "--max-conj-degree", "2",
    ])
    assert code == 1
    assert doc == {"error": "--max-conj-degree applies to --group lsut only"}


REGISTRY_KEYS = {
    3: ["A", "B_222", "B_200", "B_020", "B_002", "f1", "f2", "f3", "f4",
        "f5", "f6", "f7", "C_111", "D_000", "F_222", "s2", "Delta", "Det"],
    4: ["A", "B_2222", "B_2200", "B_2020", "B_2002", "B_0220", "B_0202",
        "B_0022", "B_0000", "A^3", "A*B", "A*B_2200", "A*B_2020",
        "A*B_2002", "A*B_0220", "A*B_0202", "A*B_0022", "<C1|C1>",
        "<C1|C2>", "<C1|fB>", "<C2|C1>", "<C2|C2>", "<C2|fB>", "<fB|C1>",
        "<fB|C2>", "<C_3111|C_3111>", "<C_1311|C_1311>", "<C_1131|C_1131>",
        "<C_1113|C_1113>"],
}


@pytest.mark.parametrize("k", [3, 4])
def test_invariant_registry_keys_and_bound_evaluates(k):
    from qinv.cli import invariant_registry

    reg = invariant_registry(k)
    assert list(reg) == REGISTRY_KEYS[k]
    assert len(reg) == len(REGISTRY_KEYS[k])
    assert "nope" not in reg
    with pytest.raises(KeyError):
        reg["nope"]
    with pytest.raises(TypeError):
        reg["A"] = None
    for name, fn in reg.items():
        assert fn.__name__ == "evaluate"
        assert fn.__self__ is not None
        assert reg[name] is fn


def test_registry_det_is_half_of_delta_bit_for_bit():
    # Det is the view Delta/2: its terms are Delta's, in Delta's order,
    # with halved coefficients, so every value is Delta's halved exactly.
    from qinv.cli import invariant_registry
    from qinv.poly import random_state

    reg = invariant_registry(3)
    det, delta = reg["Det"], reg["Delta"]
    rng = np.random.default_rng(0)
    states = [random_state(3, rng) for _ in range(200)]
    states += [ghz(3), w_state(3), State(3, tuple(range(1, 9)))]
    assert [det(s) for s in states] == [delta(s) / 2 for s in states]
    rows = np.array([s.amplitudes for s in states])
    halves = delta.__self__.batch_evaluator()(rows) / 2
    assert det.__self__.batch_evaluator()(rows).tolist() == halves.tolist()


def test_eval_at_k4_builds_only_the_named_invariant(capsys, tmp_path):
    from qinv.invariants import degree6_invariant_4, degree6_invariants_4

    path = tmp_path / "ghz4.json"
    ghz(4).save(path)

    def calls():
        return [f.cache_info().hits + f.cache_info().misses
                for f in (degree6_invariants_4, degree6_invariant_4)]

    before = calls()
    code, doc = _run_json(capsys, ["eval", "--state", str(path),
                                   "--invariant", "A"])
    assert code == 0
    assert doc["value"][0] == pytest.approx(1.0)
    assert calls() == before


def test_suite_names_are_the_verify_suites():
    import inspect

    from qinv.cli import SUITE_FLAGS, SUITE_NAMES
    from qinv.state import DimensionError
    from qinv.verify import SUITES, suite_classification

    assert SUITE_NAMES == tuple(sorted(SUITES))
    # Called with no arguments, each suite runs what the CLI runs.
    for name, flags in SUITE_FLAGS.items():
        params = inspect.signature(SUITES[name]).parameters
        assert {f: params[f].default for f in flags} == flags, name
    with pytest.raises(DimensionError, match="needs k=3, got k=4"):
        suite_classification(k=4)


# Runs in a fresh interpreter: every listed command must finish without
# numpy ever being imported.
_NUMPY_FREE = r"""
import contextlib, io, json, sys

import qinv.cli

loaded = ["import qinv.cli"] if "numpy" in sys.modules else []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = qinv.cli.run(argv)
    if "numpy" in sys.modules and not loaded:
        loaded.append(" ".join(argv))
    if code not in (0, 1):
        loaded.append(f"exit {code}: {' '.join(argv)}")
print(json.dumps(loaded))
"""


def test_hilbert_and_state_file_errors_do_not_import_numpy(tmp_path):
    missing = tmp_path / "missing.json"
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{amplitudes: oops")
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"k": 3, "amplitudes": [[1, 0]] * 7}))
    k4 = tmp_path / "k4.json"
    State(4, (1,) + (0,) * 15).save(k4)
    argvs = [["classify", "--state", str(k4)]]
    for group in ("slocc", "lut", "lsut"):
        for method in ("character", "ct"):
            argvs.append(["hilbert", "--group", group, "--k", "3",
                          "--max-degree", "4", "--method", method])
    for group, k in (("slocc", 4), ("lut", 3), ("lut", 4), ("lsut", 3),
                     ("lsut", 4), ("lut", 5)):
        argvs.append(["hilbert", "--group", group, "--k", str(k),
                      "--max-degree", "4", "--method", "closed-form"])
    for path in (missing, not_json, short):
        argvs.append(["eval", "--state", str(path), "--invariant", "A"])
        argvs.append(["classify", "--state", str(path)])
    assert _numpy_importers(argvs) == []


def _numpy_importers(argvs):
    """The commands of `argvs` after which numpy was loaded, run in order in
    one fresh interpreter, with any exit code other than 0 or 1."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=False)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_direct_measure_and_hilbert_suite_do_not_import_numpy(tmp_path):
    argvs = []
    for k in (1, 2, 3, 4):
        path = tmp_path / f"ghz{k}.json"
        ghz(k).save(path)
        argvs.append(["measure", "--state", str(path)])
        argvs.append(["measure", "--state", str(path), "--route", "direct"])
    argvs.append(["verify", "--suite", "hilbert"])
    argvs.append(["hilbert", "--group", "lut", "--k", "3", "--max-degree",
                  "6"])
    overflow = _uniform_state_file(tmp_path, 3, 1e200)
    for command in (["eval", "--invariant", "A"], ["classify"],
                    ["measure", "--route", "covariant"]):
        argvs.append(command[:1] + ["--state", overflow] + command[1:])
    argvs.append(["covariant", "--k", "9", "--name", "f"])
    argvs.append(["verify", "--suite", "invariance", "--k", "7"])
    argvs.append(["verify", "--suite", "invariance", "--trials", "10001"])
    argvs.append(["verify", "--suite", "classification", "--seed", "-1"])
    assert _numpy_importers(argvs) == []


def _past_hilbert_bounds():
    """For each bound of `HILBERT_MAX`, an argv at the first size past it,
    with the error it must give."""
    from qinv.cli import HILBERT_MAX

    for (group, method), (max_k, max_degree) in HILBERT_MAX.items():
        command = f"hilbert --group {group} --method {method}"
        base = ["hilbert", "--group", group, "--method", method]
        if max_k is not None:
            yield pytest.param(
                base + ["--k", str(max_k + 1), "--max-degree", "2"],
                f"{command} supports k <= {max_k}, got k={max_k + 1}",
                id=f"{group}-{method}-k{max_k + 1}")
        past = f"{command} supports degrees <= {max_degree}, got " \
               f"{max_degree + 1}"
        yield pytest.param(
            base + ["--k", "3", "--max-degree", str(max_degree + 1)], past,
            id=f"{group}-{method}-degree{max_degree + 1}")
        if group == "lsut":
            yield pytest.param(
                base + ["--k", "3", "--max-degree", "2",
                        "--max-conj-degree", str(max_degree + 1)], past,
                id=f"{group}-{method}-conj-degree{max_degree + 1}")


@pytest.mark.parametrize("argv, message", list(_past_hilbert_bounds()))
def test_hilbert_sizes_are_bounded(capsys, argv, message):
    code, doc = _run_json(capsys, argv)
    assert code == 1
    assert doc == {"error": message}


def test_hilbert_bounds_allow_the_ct_size_of_the_benchmark(capsys):
    code, doc = _run_json(capsys, ["hilbert", "--group", "lut", "--k", "3",
                                   "--max-degree", "10", "--method", "ct"])
    assert code == 0
    assert doc["coefficients"] == [1, 0, 1, 0, 4, 0, 5, 0, 12, 0, 15]
