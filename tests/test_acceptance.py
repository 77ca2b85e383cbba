"""Acceptance gate: each test pins one top-level criterion at its stated
tolerance and prints a one-line verdict.  Run with -s to see the lines.

Total runtime target for the whole battery is well under two minutes.
"""

import functools
import json
import subprocess
import sys

from anyonstat import minkowski as mk
from anyonstat import spinstat as ss
from anyonstat.suites import SuiteConfig, run_suite

CONFIG = SuiteConfig(seed=7)


def _verdict(num, label, ok, detail):
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@functools.cache
def _run(suite_name):
    """Each suite runs once per pytest run; criteria share its records."""
    return tuple(run_suite(suite_name, CONFIG).records)


def _records(suite_name):
    return {r.anchor: r for r in _run(suite_name)}


def test_criterion_1_group_and_cover():
    recs = _records("group")
    matrix = max(recs["cover-homomorphism"].residuals["matrix"],
                 recs["deck-transformations"].residuals["matrix"],
                 recs["j-conjugation"].residuals["conjugation"])
    coords = max(recs["deck-transformations"].residuals["winding"],
                 recs["cover-inverse"].residuals["gamma"],
                 recs["cover-inverse"].residuals["omega"])
    ok = matrix < 1e-12 and coords < 1e-10 and all(r.passed for r in recs.values())
    _verdict(1, "group/cover algebra over >=1000 samples", ok,
             f"matrix {matrix:.2e} < 1e-12, coords {coords:.2e} < 1e-10")


def test_criterion_2_boost_analyticity():
    recs = _records("group")
    strip = recs["boost-strip-extension"].residuals["series_oracle"]
    refl = recs["boost-reflection-value"].residuals["value"]
    ok = strip < 1e-12 and refl < 1e-14
    _verdict(2, "boost strip extension vs series oracle, reflection value", ok,
             f"20x20 grid {strip:.2e} < 1e-12, value at i*pi {refl:.2e} < 1e-14")


def test_criterion_3_wigner_cocycle():
    recs = _records("wigner")
    add = recs["cocycle-additivity"].residuals["angle"]
    rot = recs["rotation-angle-exactness"].residuals["angle"]
    jj = recs["reflection-angle-identity"].residuals["angle"]
    ok = add < 1e-9 and rot < 1e-10 and jj < 1e-9
    _verdict(3, "lifted rotation cocycle", ok,
             f"additivity {add:.2e} < 1e-9 (1000 triples), "
             f"rotation exactness {rot:.2e} < 1e-10 incl full turns, "
             f"reflection identity {jj:.2e} < 1e-9")


def test_criterion_4_boundary_formula_and_controls():
    recs = _records("continuation")
    bv = recs["compensated-boundary-value"].residuals["value"]
    mo = recs["strip-morera"].residuals["compensated"]
    neg = recs["uncompensated-negative-control"]
    ok = (bv < 1e-8 and mo < 1e-8 and neg.passed
          and neg.residuals["morera"] > 1e-3
          and neg.residuals["path_dependence"] > 1e-3)
    _verdict(4, "compensated boundary values at i*pi (50 samples)", ok,
             f"value {bv:.2e} < 1e-8, morera {mo:.2e} < 1e-8, "
             f"negative control residual {neg.residuals['morera']:.2e} > 1e-3")


def test_criterion_5_casimir_eigenvalue():
    recs = _run("pauli-lubanski")
    worst = max(r.residuals["relative"] for r in recs)
    ok = worst < 1e-6 and len(recs) == 3
    _verdict(5, "Casimir eigenvalue -m*s on (1,0), (1,1/2), (1.7,0.137)", ok,
             f"relative residual {worst:.2e} < 1e-6")


def test_criterion_6_cone_geometry():
    recs = _records("cones")
    figures = recs["approach-path-equivalence"].passed \
        and recs["exchange-hypothesis"].passed \
        and recs["difference-cone-salience"].passed
    dd = recs["dual-cone-double-dual"].residuals["angles"]
    mism = recs["direction-containment-oracle"].residuals["mismatches"]
    ok = figures and dd < 1e-12 and mism == 0.0
    _verdict(6, "cone-path figures, dual cones, containment oracle", ok,
             f"figure truth values exact, double dual {dd:.2e} < 1e-12, "
             f"oracle mismatches {int(mism)}/200")


def test_criterion_7_spin_statistics_pipeline():
    worst = {"phase": 0.0, "weak": 0.0, "d": 0.0, "pi": 0.0, "dual": 0.0}
    for s in (0.0, 0.25, 1 / 3, 0.5, 0.137):
        rep = ss.run_pipeline(s, 1.0, 2, seed=CONFIG.seed, grid_size=CONFIG.grid)
        worst["phase"] = max(worst["phase"], rep.residuals["phase"])
        worst["weak"] = max(worst["weak"], rep.residuals["weak_phase"])
        worst["d"] = max(worst["d"], rep.residuals["d_constancy"])
        worst["pi"] = max(worst["pi"], rep.residuals["pi_rotation"])
        worst["dual"] = max(worst["dual"], rep.residuals["dual_route"],
                            rep.residuals["boundary_closed"])
        assert rep.min_eig > 1e-6
    ok = (worst["phase"] < 1e-8 and worst["d"] < 1e-8 and worst["pi"] < 1e-8
          and worst["dual"] < 1e-8 and worst["weak"] < 1e-7)
    _verdict(7, "statistics phase recovered for s in {0, 1/4, 1/3, 1/2, 0.137}", ok,
             f"|omega - target| {worst['phase']:.2e} < 1e-8, "
             f"D-constancy {worst['d']:.2e} < 1e-8, "
             f"half-turn {worst['pi']:.2e} < 1e-8, "
             f"dual-route {worst['dual']:.2e} < 1e-8, "
             f"weak {worst['weak']:.2e} < 1e-7")


def test_criterion_8_ode_continuation():
    fam = ss.build_toy_model(1 / 3, 1.0, 2, seed=CONFIG.seed)
    r = ss.ode_vs_engine(fam, mk.shell_point(0.35, -0.2, 1.0))
    r2 = ss.ode_vs_engine(fam, mk.shell_point(0.6, 0.4, 1.0), height=1.1)
    ok = r < 1e-6 and r2 < 1e-6
    _verdict(8, "log-derivative ODE vs direct engine at interior points", ok,
             f"residuals {r:.2e}, {r2:.2e} < 1e-6")


def test_criterion_9_determinism_and_exit_codes(tmp_path):
    outs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        r = subprocess.run([sys.executable, "-m", "anyonstat", "--suite", "wigner",
                            "--seed", "13", "--format", "json", "--out", str(path)],
                           capture_output=True, text=True)
        assert r.returncode == 0
        outs.append(path.read_bytes())
    identical = outs[0] == outs[1]
    json.loads(outs[0])  # must be valid JSON
    fail = subprocess.run([sys.executable, "-m", "anyonstat", "--suite", "spinstat",
                           "--spin", "0.5", "--grid", "3", "--tol-pipeline", "1e-20"],
                          capture_output=True, text=True)
    conf = subprocess.run([sys.executable, "-m", "anyonstat", "--mass", "-1"],
                          capture_output=True, text=True)
    ok = identical and fail.returncode == 1 and conf.returncode == 2
    _verdict(9, "byte-identical reports and exit-code contract", ok,
             f"identical={identical}, fail-exit={fail.returncode}, "
             f"config-exit={conf.returncode}")
