"""The benchmark's hooks into the package still resolve.

`perfbench/spans.py` wraps the methods it names in `METHODS` by reading
each class's own `__dict__`, and `perfbench/workloads.py` calls
`linalg.rank` and reads the object behind each registry entry
(`_poly_of`).  Renaming, deleting or inheriting one of them breaks a
traced benchmark run or a workload, so these tests fail first.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_span_instrumentation_finds_every_wrapped_method():
    # `instrument` rebinds methods on the classes, so it runs in a child.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import spans; spans.instrument(spans.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_linalg_rank_exists():
    from qinv import linalg

    assert callable(linalg.rank)


@pytest.mark.parametrize("k", [3, 4])
def test_workloads_find_a_batch_evaluator_for_every_registry_name(
        k, monkeypatch):
    import numpy as np

    from qinv.cli import invariant_registry
    from qinv.poly import random_state

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = np.random.default_rng(k)
    states = [random_state(k, rng) for _ in range(3)]
    rows = np.array([s.amplitudes for s in states])
    for name, fn in invariant_registry(k).items():
        batch = workloads._poly_of(fn).batch_evaluator()(rows)
        for s, got in zip(states, batch):
            want = fn(s)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), name
