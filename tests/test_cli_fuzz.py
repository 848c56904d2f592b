"""Random command lines and state files through the CLI.

Every run must end in exit code 0, 1 or 2 with exactly one strict JSON
document on stdout (no NaN or Infinity) and no traceback on stderr.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qinv.cli import run

SPECIAL = [0.0, -0.0, 1.0, -0.5, 0.25, 1e-170, 5e-324, 1e-300, 1e100,
           1e154, 1e200, 1e308, -1e308, math.nan, math.inf, -math.inf]
reals = st.sampled_from(SPECIAL) | st.floats(-4, 4)
entries = st.one_of(
    st.tuples(reals, reals).map(list),
    st.sampled_from([[1.0], [1.0, 0.0, 0.0], "x", None, {"re": 1.0}, []]),
)
uniform_entries = st.tuples(reals, reals).map(list)


@st.composite
def state_documents(draw):
    """A state file's text: mostly well-formed with extreme amplitudes,
    sometimes a malformed field, sometimes not JSON at all."""
    shape = draw(st.sampled_from(
        ["uniform", "uniform", "mixed", "random", "bad_k", "not_json",
         "no_amplitudes", "not_object"]))
    k = draw(st.integers(1, 4))
    if shape == "uniform":
        doc = {"k": k, "amplitudes": [draw(uniform_entries)] * 2 ** k}
    elif shape == "mixed":
        doc = {"k": k, "amplitudes": draw(st.lists(
            uniform_entries, min_size=2 ** k, max_size=2 ** k))}
    elif shape == "random":
        doc = {"k": k, "amplitudes": draw(st.lists(entries, max_size=17))}
    elif shape == "bad_k":
        doc = {"k": draw(st.sampled_from(
            [0, -1, 3.5, "3", None, 10 ** 9, math.inf, [3]])),
               "amplitudes": [[0.5, 0.0]] * 8}
    elif shape == "not_json":
        return draw(st.sampled_from(["", "{", "{amplitudes: oops", "nul"]))
    elif shape == "no_amplitudes":
        doc = {"k": k}
    else:
        doc = draw(st.sampled_from([[1, 2], 3, "state", None]))
    return json.dumps(doc)


state_commands = st.one_of(
    st.tuples(st.just("eval"), st.sampled_from(
        ["--invariant"]), st.sampled_from(
        ["A", "B_222", "B_2222", "B_0000", "f1", "f7", "Det", "Delta",
         "nope"])).map(list),
    st.tuples(st.just("classify"), st.just("--tol"), st.sampled_from(
        ["1e-9", "1e-7", "0", "-0.5", "nan", "inf", "abc"])).map(list),
    st.just(["classify"]),
    st.tuples(st.just("measure"), st.just("--route"), st.sampled_from(
        ["direct", "covariant", "nope"])).map(list),
)
other_commands = st.one_of(
    st.tuples(st.just("covariant"), st.just("--k"),
              st.sampled_from(["-1", "0", "1", "3", "4", "9", "x"]),
              st.just("--name"),
              st.sampled_from(["f", "B_222", "B_0000", "Hx", "nope"])
              ).map(list),
    st.tuples(st.just("hilbert"), st.just("--group"),
              st.sampled_from(["lut", "lsut", "slocc", "nope"]),
              st.just("--k"), st.sampled_from(["-1", "0", "2", "3", "x"]),
              st.just("--max-degree"), st.sampled_from(["-1", "0", "4"]),
              st.just("--method"),
              st.sampled_from(["character", "ct", "closed-form"])
              ).map(list),
    st.lists(st.sampled_from(["eval", "--state", "--k", "verify", "-x", ""]),
             max_size=3),
)


def _optional_flag(flag, values):
    """The flag with one of its values, or nothing."""
    return st.just([]) | st.sampled_from(values).map(lambda v: [flag, v])


# Accepted draws stay cheap: the hilbert suite with none of the three
# flags, or invariance at k = 2 or the default 3, with at most the default
# 100 trials; larger k and trials are past the bounds.
verify_commands = st.tuples(
    st.just(["verify", "--suite"]),
    st.sampled_from(["hilbert", "invariance", "nope"]).map(lambda s: [s]),
    _optional_flag("--k", ["-1", "0", "1", "2", "7", "x", "2.5"]),
    _optional_flag("--trials", ["-1", "0", "1", "2", "10001", "x", "1.5"]),
    _optional_flag("--seed", ["-5", "-1", "0", "7", "x", "0.5"]),
).map(lambda parts: sum(parts, []))


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@given(command=state_commands, text=state_documents(), missing=st.booleans())
@settings(max_examples=150, deadline=None)
def test_state_commands_end_in_one_json_document(command, text, missing):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        if not missing:
            with open(path, "w") as fh:
                fh.write(text)
        _check(command[:1] + ["--state", path] + command[1:])


@given(argv=other_commands)
@settings(max_examples=60, deadline=None)
def test_other_commands_end_in_one_json_document(argv):
    _check(argv)


@given(argv=verify_commands)
@example(["verify", "--suite", "hilbert"])
@settings(max_examples=60, deadline=None)
def test_verify_commands_end_in_one_json_document(argv):
    _check(argv)


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert isinstance(doc, dict)
    assert (code == 1) == (list(doc) == ["error"]), (argv, doc)
    assert "Traceback" not in err.getvalue()
