import os
from pathlib import Path

import pytest

from anyonstat import spinstat

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_pythonpath():
    # pyproject's pythonpath reaches this interpreter only; the
    # `python -m anyonstat` processes that tests start read PYTHONPATH
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield


@pytest.fixture(autouse=True)
def _no_spinstat_setup_from_an_earlier_test():
    # run_pipeline keeps each (mass, n, seed, grid) setup for the process;
    # a setup built before a test patched what it is built from would hide
    # the patch, so every test starts with none
    spinstat._setup.cache_clear()
