"""The scripts in demos/ run to the end in process.  They call `transvect`,
`pairing` and the identity checks directly, as a reader would."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_to_the_end(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.startswith("== ")
