"""Every narrated script in demos/ runs to the end and prints its story."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    text = out.getvalue()
    assert text.strip()
    assert "Traceback" not in text and "nan" not in text.lower().split()
