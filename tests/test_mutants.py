"""Named defects of the program, each a monkeypatch of one `src` function,
with the verdict of every record of the suites that the patched function
touches, at suite seed 7.  A record that a defect leaves passing marks a
blind spot of the checks."""

import cmath
import math

import numpy as np
import pytest

from anyonstat import conegeom as cgm
from anyonstat import covergroup as cg
from anyonstat import holo, suites
from anyonstat import spinstat as ss
from test_holo import offset_log_derivative_error


SPINS = suites.SuiteConfig().spins
# each record's (suite, anchor, spin) and its verdict with the ledger off
LEDGER_OFF = {
    ("continuation", "compensated-boundary-value", 1 / 3): False,
    ("continuation", "strip-morera", None): False,
    # the control holds at the principal branch: its path dependence falls to 0
    ("continuation", "uncompensated-negative-control", 1 / 3): False,
    # blind spots (ROADMAP item 11): the principal branch agrees with the
    # ledger on every sample these walk
    ("continuation", "anchor-and-path-independence", None): True,
    ("continuation", "log-derivative-ode", 1 / 3): True,
    ("spinstat", "statistics-phase-pipeline", 0.0): True,
    ("spinstat", "statistics-phase-pipeline", 0.25): False,
    ("spinstat", "statistics-phase-pipeline", 1 / 3): False,
    ("spinstat", "statistics-phase-pipeline", 0.5): False,
    ("spinstat", "statistics-phase-pipeline", 0.137): False,
}


def _records(names) -> dict:
    config = suites.SuiteConfig(seed=7)
    return {(r.suite, r.anchor, r.inputs.get("spin")): r
            for name in names
            for r in suites.run_suite(name, config).records}


def _ledger_off(monkeypatch):
    # every walk returns principal-branch values
    principal = holo.eval_principal
    monkeypatch.setattr(holo, "evaluate_along",
                        lambda expr, zs: principal(expr, np.array(zs, dtype=complex)))


def test_ledger_off(monkeypatch):
    names = ("continuation", "spinstat")
    assert all(r.passed for r in _records(names).values())
    _ledger_off(monkeypatch)
    records = _records(names)
    assert {key: r.passed for key, r in records.items()} == LEDGER_OFF
    assert records["continuation", "uncompensated-negative-control", 1 / 3].residuals[
        "path_dependence"] == 0.0
    # the spin records fail through the half-turn relation only
    tols = suites.spinstat_tolerances(suites.SuiteConfig().tol_pipeline)
    for (suite, _, spin), r in records.items():
        if suite == "spinstat" and spin:
            assert {k for k, v in r.residuals.items() if not v < tols[k]} == {
                "pi_rotation", "transformation_law"}


def _ode_near_the_boundary() -> dict:
    # ode_vs_engine of each default spin's suite-seed-7 family at grid[1],
    # walked to i(pi - 0.15) instead of its default i pi/2
    grid = ss.momentum_grid(1.0, 5)
    return {s: ss.ode_vs_engine(ss.build_toy_model(s, 1.0, 2, seed=7), grid[1],
                                height=math.pi - 0.15) for s in SPINS}


def test_ledger_off_near_the_boundary(monkeypatch):
    # the ODE route reads no ledger, so it sees the mutant once the direct
    # route's bases meet their cuts: none does below i pi/2 (hence the blind
    # log-derivative-ode record above), some do on the way to i(pi - 0.15)
    assert all(v < 1e-6 for v in _ode_near_the_boundary().values())
    _ledger_off(monkeypatch)
    off = _ode_near_the_boundary()
    # blind spot: at spin 0 every power has exponent 0 (s = -s), so no branch
    # changes a value
    assert off[0.0] < 1e-6
    assert all(v > 0.5 for s, v in off.items() if s != 0.0)


def _drop_the_walk_back(monkeypatch):
    # a rerun of the ODE route ends at the shifted end point: its path is
    # the shifted one without the leg back to the original end
    real = holo.ode_continue
    monkeypatch.setattr(holo, "ode_continue", lambda family, path: real(
        family, path[:-1] if isinstance(family, holo._Rerun) else path))


def test_ode_rerun_without_the_walk_back(monkeypatch):
    # only the cosh toy reruns: no spinstat record does at suite seed 7, a
    # blind spot that no default config can show
    _drop_the_walk_back(monkeypatch)
    records = _records(("continuation", "spinstat"))
    # LEDGER_OFF keys every record of the two suites
    assert {key: r.passed for key, r in records.items()} == {
        key: key[:2] != ("continuation", "log-derivative-ode") for key in LEDGER_OFF}
    residuals = records["continuation", "log-derivative-ode", 1 / 3].residuals
    # |cosh(0.1 + i pi) - cosh(i pi)| = cosh(0.1) - 1
    assert abs(residuals["cosh_detour"] - (math.cosh(0.1) - 1.0)) < 1e-5
    assert residuals["exp_toy"] < 1e-8 and residuals["family_dual_route"] < 1e-6


def _patch_richardson(mutant):
    def patch(monkeypatch):
        real = holo._richardson
        monkeypatch.setattr(holo, "_richardson",
                            lambda full, half, delta: mutant(real, full, half, delta))
    return patch


# per defect of the Richardson step that the ODE route of spinstat reads its
# log-derivative with: its patch, and the failing records of `continuation`
# and `spinstat`, each failing through its ODE residual alone
RICHARDSON_MUTANTS = {
    "richardson-sign-flipped": (
        _patch_richardson(lambda real, full, half, delta: -real(full, half, delta)),
        {("continuation", "log-derivative-ode", 1 / 3),
         *(("spinstat", "statistics-phase-pipeline", s) for s in SPINS)}),
    # blind spot of every record: the unrefined central difference errs by
    # about 7e-6 in A, so family_dual_route and ode_vs_engine read about
    # 2e-7; only the closed-form unit test of offset_log_derivative sees it
    "richardson-unrefined": (
        _patch_richardson(lambda real, full, half, delta: full / (2.0 * delta)), set()),
}


@pytest.mark.parametrize("name", RICHARDSON_MUTANTS)
def test_richardson_mutant(name, monkeypatch):
    patch, failing = RICHARDSON_MUTANTS[name]
    patch(monkeypatch)
    records = _records(("continuation", "spinstat"))
    assert {key: r.passed for key, r in records.items()} == {
        key: key not in failing for key in LEDGER_OFF}
    tols = suites.spinstat_tolerances(suites.SuiteConfig().tol_pipeline)
    for key in failing:
        residuals = records[key].residuals
        if key[0] == "spinstat":
            assert {k for k, v in residuals.items() if not v < tols[k]} == {"ode_vs_engine"}
        else:
            assert residuals["family_dual_route"] > 0.5
            assert residuals["exp_toy"] < 1e-8 and residuals["cosh_detour"] < 1e-5
    assert offset_log_derivative_error() > 1e-9


# per defect of the lifted J conjugation (gamma, omega) -> (conj(gamma),
# -omega): its patch and the `group/j-conjugation` conjugation residual it
# reads at suite seed 7.  Each turns FAIL the same records of the suites
# that call j_conjugate, J_CONJUGATE_FAILS.  Uncovered: that record's
# `involution` and `continuity_excess` read 0 under both, since each defect
# is still a continuous involution.
GROUP_MUTANTS = {
    "j-conjugate-without-the-omega-flip": (
        lambda g: cg.CoverElement(np.conjugate(g.gamma), g.omega), 8.37),
    "j-conjugate-without-conjugating-gamma": (
        lambda g: cg.CoverElement(g.gamma, -g.omega), 8.44),
}
J_CONJUGATE_FAILS = {("group", "j-conjugation"), ("wigner", "reflection-angle-identity"),
                     ("continuation", "compensated-boundary-value")}


@pytest.mark.parametrize("name", GROUP_MUTANTS)
def test_group_mutant(name, monkeypatch):
    mutant, conjugation = GROUP_MUTANTS[name]
    names = ("group", "wigner", "continuation")
    keys = _records(names).keys()
    monkeypatch.setattr(cg, "j_conjugate", mutant)
    records = _records(names)
    assert {key: r.passed for key, r in records.items()} == {
        key: key[:2] not in J_CONJUGATE_FAILS for key in keys}
    residuals = records["group", "j-conjugation", None].residuals
    assert abs(residuals["conjugation"] - conjugation) < 0.01
    assert residuals["involution"] == residuals["continuity_excess"] == 0.0


CONES = ("approach-path-equivalence", "exchange-hypothesis", "dual-cone-double-dual",
         "direction-containment-oracle", "difference-cone-salience",
         "path-action-equivariance")


def _cones_verdicts(*failing) -> dict:
    return {("cones", anchor, None): anchor not in failing for anchor in CONES}


def _ignores_apex(sector, x, margin=0.0):
    """cone_contains_point with the defect of reading every cone at the origin."""
    v = np.asarray(x, dtype=float)
    return cgm.sector_depth(sector, v[..., 1:]) > np.abs(v[..., 0]) + margin


def _omega_mod_two_pi(real, g, vecs, lift_start):
    return real(cg.CoverElement(g.gamma, g.omega % (2 * math.pi)), vecs, lift_start)


def _boost_turn(real, g, vecs):
    return real(cg.CoverElement(g.gamma, 0.0 * g.omega), vecs, 0.0)


def _boost_turn_the_other_way(real, g, vecs, lift_start):
    # the same endpoint reached round the other side of the circle
    return real(g, vecs, lift_start) - 2 * math.pi * np.sign(_boost_turn(real, g, vecs))


def _boost_turn_flipped(real, g, vecs, lift_start):
    # no longer projects to the moved edge direction, so the transported
    # sector refuses it before any record is made
    return real(g, vecs, lift_start) - 2.0 * _boost_turn(real, g, vecs)


def _patch_lift(mutant):
    def patch(monkeypatch):
        real = cgm._lifted_circle_action
        monkeypatch.setattr(cgm, "_lifted_circle_action",
                            lambda g, vecs, lift_start: mutant(real, g, vecs, lift_start))
    return patch


# per defect of the cone geometry: its patch, the verdict of every `cones`
# record, and the anchor of the failing record with the check of its outcome
CONES_MUTANTS = {
    "omega-mod-2pi": (
        _patch_lift(_omega_mod_two_pi),
        _cones_verdicts("path-action-equivariance"),
        "path-action-equivariance", lambda r: r.residuals["deck_shift"] > 1.0),
    "boost-turn-the-other-way": (
        _patch_lift(_boost_turn_the_other_way),
        _cones_verdicts("path-action-equivariance"),
        "path-action-equivariance", lambda r: r.residuals["composition"] > 1.0),
    "boost-turn-flipped": (
        _patch_lift(_boost_turn_flipped),
        {("cones", "suite-error", None): False},
        "suite-error",
        lambda r: r.inputs["error"].startswith("ValueError: edge direction does not project")),
    "oracle-ignores-apex": (
        lambda monkeypatch: monkeypatch.setattr(cgm, "cone_contains_point", _ignores_apex),
        _cones_verdicts("direction-containment-oracle"),
        "direction-containment-oracle",
        lambda r: r.residuals["translation_violations"] >= 1.0),
}


@pytest.mark.parametrize("name", CONES_MUTANTS)
def test_cones_mutant(name, monkeypatch):
    patch, verdicts, anchor, holds = CONES_MUTANTS[name]
    patch(monkeypatch)
    records = _records(("cones",))
    assert {key: r.passed for key, r in records.items()} == verdicts
    assert holds(records["cones", anchor, None])


def test_cones_passes_without_a_mutant():
    assert {key: r.passed for key, r in _records(("cones",)).items()} == _cones_verdicts()


# e^{0.2 i pi}: the statistics phase of s + 0.1 over that of s
SHIFT = cmath.exp(0.2j * math.pi)


def _spinstat_verdicts(*passing) -> dict:
    return {("spinstat", "statistics-phase-pipeline", s): s in passing for s in SPINS}


def _inject_phase(monkeypatch):
    # s + 0.1 in the target and in the conjugate family (so also in the
    # rotation check's rhs2)
    target = ss.WaveMatrixFamily.omega_target.fget
    psi2_conj = ss.WaveMatrixFamily.psi2_conj
    monkeypatch.setattr(ss.WaveMatrixFamily, "omega_target",
                        property(lambda m: target(m) * SHIFT))
    monkeypatch.setattr(ss.WaveMatrixFamily, "psi2_conj", lambda f, p: psi2_conj(f, p) / SHIFT)


def _swap_spin_rows(monkeypatch):
    # fill is the one caller that passes a spin per row: s, then -s
    real = holo.compensated_family_expr
    monkeypatch.setattr(holo, "compensated_family_expr", lambda g, q, s: real(
        g, q, np.roll(s, len(s) // 2) if np.ndim(s) else s))


# per defect of the spin-statistics pipeline: its patch, the verdict of each
# default spin's record, and the check of every failing record's outcome
SPINSTAT_MUTANTS = {
    # the least-squares phase recovers the injected value; only the half-turn
    # phase read out of the continuation sees it
    "injected-statistics-phase": (
        _inject_phase,
        _spinstat_verdicts(),
        lambda r: (r.residuals["phase"] < 1e-9
                   and abs(r.residuals["pi_rotation"] - abs(SHIFT - 1.0)) < 1e-9)),
    # blind spot: at spin 0, s = -s, so the swapped rows are the same rows
    "swapped-spin-rows-in-fill": (
        _swap_spin_rows,
        _spinstat_verdicts(0.0),
        lambda r: r.residuals["d_constancy"] > 1e-2),
}


@pytest.mark.parametrize("name", SPINSTAT_MUTANTS)
def test_spinstat_mutant(name, monkeypatch):
    patch, verdicts, holds = SPINSTAT_MUTANTS[name]
    patch(monkeypatch)
    records = _records(("spinstat",))
    assert {key: r.passed for key, r in records.items()} == verdicts
    assert all(holds(r) for r in records.values() if not r.passed)
