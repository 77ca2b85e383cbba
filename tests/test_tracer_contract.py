"""The benchmark tracer (perfbench/tracer.py) wraps anyonstat attributes by
name; a rename in the program would silently stop it measuring.  These tests
read its span table without importing the rest of the benchmark."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

from anyonstat import holo

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _spans()])
def test_every_traced_attribute_resolves(module, attr):
    owner = importlib.import_module(f"anyonstat.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_evaluate_along_takes_its_samples_second():
    # the tracer counts points from args[1] or kwargs["zs"]
    assert list(inspect.signature(holo.evaluate_along).parameters)[1] == "zs"
