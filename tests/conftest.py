import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_pythonpath():
    # pyproject's pythonpath reaches this interpreter only; the
    # `python -m anyonstat` processes that tests start read PYTHONPATH
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield
