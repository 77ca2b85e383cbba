"""Fuzz the `spinstat` suite over the configs the command line accepts.

    PYTHONPATH=src python3 tests/fuzz_spinstat.py

Draws 300 configs from numpy.random.default_rng(12345): spin uniform in
[-20, 20] rounded to 3 decimals, mass log-uniform in [0.001, 8], suite seed
0-39, n 1-4 and grid 2-8.  Runs only `spinstat`, all configs in this one
process, and prints one line per config (its inputs, PASS or FAIL, and the
keys that failed) and a count of the failures.  Pytest does not collect
this file (its name does not start with test_); it takes about 12 s.
"""

import math

import numpy as np

from anyonstat import suites

CONFIGS = 300
# The gates of suites.spinstat_suite at the default tol_pipeline.
TOLERANCES = suites.spinstat_tolerances(suites.SuiteConfig().tol_pipeline)


def draw_configs(count: int = CONFIGS) -> list:
    rng = np.random.default_rng(12345)
    spins = np.round(rng.uniform(-20.0, 20.0, count), 3)
    masses = np.exp(rng.uniform(math.log(0.001), math.log(8.0), count))
    seeds = rng.integers(0, 40, count)
    ns = rng.integers(1, 5, count)
    grids = rng.integers(2, 9, count)
    return [suites.SuiteConfig(spins=(float(s),), masses=(float(m),), multiplicities=(int(n),),
                               seed=int(seed), grid=int(grid))
            for s, m, seed, n, grid in zip(spins, masses, seeds, ns, grids)]


def failing_keys(record) -> list:
    if "error" in record.inputs:
        return [record.inputs["error"]]
    return [k for k, v in record.residuals.items()
            if not v < TOLERANCES[k]]


def main() -> int:
    fails = 0
    for config in draw_configs():
        (record,) = suites.run_suite("spinstat", config).records
        fails += not record.passed
        print(f"spin={config.spins[0]!r} mass={config.masses[0]!r} n={config.multiplicities[0]}"
              f" seed={config.seed} grid={config.grid}"
              f" {'PASS' if record.passed else 'FAIL'} {' '.join(failing_keys(record))}".rstrip())
    print(f"{fails} of {CONFIGS} configs FAIL")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
