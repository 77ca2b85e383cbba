"""`anyonstat --suite all` reports pinned at suite seeds 3, 7 and 26.

The files under tests/data are `--suite all --format json` reports.  A run
must match them exactly in its anchors, residual keys, input keys and
verdicts, and each residual may move by at most max(1e-15, 1e-3 * its
tolerance).  The tolerances are the benchmark gate's, read from
perfbench/workloads.py without importing the rest of the benchmark.
"""

import importlib.util
import json
import pathlib

import pytest

from anyonstat import suites

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def _tolerances():
    """suite name -> list of {residual key: tolerance}, in record order."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = {}
    for workload in ("pipeline", "geometry", "continuation"):
        for suite, records in module.expected_records(workload).items():
            out[suite] = [{k: bound for k, (_, bound) in keys.items()} for _, keys in records]
    return out


TOLERANCES = _tolerances()


@pytest.mark.parametrize("seed", [3, 7, 26])
def test_report_matches_the_pinned_one(seed):
    pinned = json.loads((DATA / f"report_all_seed{seed}.json").read_text())["records"]
    records = suites.run_suite("all", suites.SuiteConfig(seed=seed)).records
    assert [(r.suite, r.anchor) for r in records] == [(p["suite"], p["anchor"]) for p in pinned]
    index = {}
    for r, p in zip(records, pinned):
        tols = TOLERANCES[r.suite][index.setdefault(r.suite, 0)]
        index[r.suite] += 1
        where = f"{r.suite}/{r.anchor}"
        assert sorted(r.inputs) == sorted(p["inputs"]), where
        assert sorted(r.residuals) == sorted(p["residuals"]) == sorted(tols), where
        assert r.passed == p["passed"], where
        for key, value in r.residuals.items():
            shift = abs(value - p["residuals"][key])
            assert shift <= max(1e-15, 1e-3 * tols[key]), (where, key, shift)
    assert index == {suite: len(tols) for suite, tols in TOLERANCES.items()}
