"""The benchmark's hooks into the package still resolve.

`perfbench/spans.py` wraps the methods it names in `METHODS` by reading
each class's own `__dict__`, and `perfbench/workloads.py` calls
`linalg.rank`.  Renaming, deleting or inheriting one of them breaks a
traced benchmark run or a workload, so these tests fail first.
"""

import os
import subprocess
import sys
from pathlib import Path

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
