import cmath
import dataclasses
import math

import numpy as np
import pytest

from anyonstat import conegeom as cgm
from anyonstat import covergroup as cg
from anyonstat import holo
from anyonstat import minkowski as mk
from anyonstat import spinstat as ss
from anyonstat import suites
from anyonstat import wigner as wg

P = mk.shell_point(0.4, -0.3, 1.0)


@pytest.fixture(scope="module")
def family_third():
    return ss.build_toy_model(1 / 3, 1.0, 2, seed=5)


def _law(g, ps, family):
    # the covariance check, its spin-free inputs built as run_pipeline's are
    return ss.verify_transformation_law(ss.law_inputs(g, ps, family), family)


def _half_turn(family, ps, omega):
    # the half-turn check, its spin-free inputs built as run_pipeline's are
    return ss.rotation_pi_relation(family, ss.half_turn_inputs(ps, family.m), omega)


def test_bosonic_point_target():
    fam = ss.build_toy_model(0.0, 1.0, 1, seed=1)
    assert fam.omega_target == 1.0
    # with s = 0 the compensators are trivial and the family is exponential
    v = fam.psi1(P)[0, 0]
    assert abs(abs(v) - abs(cmath.exp(1j * mk.minkowski_product(fam.b1, P.as_array()))
                            * fam.a1[0, 0])) < 1e-14


def test_half_spin_target():
    fam = ss.build_toy_model(0.5, 1.0, 1, seed=1)
    assert abs(fam.omega_target + 1.0) < 1e-15


def test_invertibility_scan():
    fam = ss.build_toy_model(1 / 3, 1.0, 2, seed=42)
    worst = np.inf
    for p1 in np.linspace(-1.2, 1.2, 30):
        for p2 in np.linspace(-1.2, 1.2, 30):
            p = mk.shell_point(p1, p2, 1.0)
            worst = min(worst, abs(np.linalg.det(fam.psi1(p))),
                        abs(np.linalg.det(fam.psi2(p))))
    assert worst > 1e-8


def test_dressed_family_at_zero(family_third):
    assert np.allclose(ss.dressed_family(family_third, 1, 0.0, P),
                       family_third.psi1(P), atol=1e-14)
    assert np.allclose(ss.dressed_family(family_third, 2, 0.0, P),
                       family_third.psi2(P), atol=1e-14)


def test_wigner_factor_cancellation(family_third):
    for t in (0.2, -0.7, 1.1):
        assert ss.wigner_cancellation(family_third, P, t) < 1e-11


def test_dressed_factors_are_analytic(family_third):
    q = ss._reflected_anchor(P)
    rect = holo.StripPath.rectangle(-0.4, 0.4, 0.15, math.pi - 0.15)
    assert holo.morera_residual(family_third.pref1_expr(q), rect) < 1e-8
    assert holo.morera_residual(family_third.pref2bar_expr(q), rect) < 1e-8


def test_tomita_routes_match_closed_forms(family_third):
    fam = family_third
    (hat,), (check,) = fam.boundary_pair(P[None])
    assert ss._rel(hat, fam.hat_closed(P)) < 1e-12
    assert ss._rel(check, fam.check_closed(P)) < 1e-12


def test_tomita_scalar_bosonic_reduction():
    # s = 0: the hat route is plainly the conjugated reflected evaluation
    fam = ss.build_toy_model(0.0, 1.0, 1, seed=3)
    (hat,), _ = fam.boundary_pair(P[None])
    expected = (cmath.exp(1j * mk.minkowski_product(fam.b1, -P.as_array()))
                * fam.a1[0, 0]).conjugate()
    assert abs(hat[0, 0] - expected) < 1e-12


def test_full_reflected_two_point_relation(family_third):
    fam = family_third
    (hat,), (check,) = fam.boundary_pair(P[None])
    lhs = hat.conj().T @ check
    rhs = fam.omega_target * (fam.psi1_conj(P).conj().T @ fam.psi2_conj(P))
    assert ss._rel(lhs, rhs) < 1e-8


def test_two_point_boundary_and_controls(family_third):
    out = ss.two_point_boundary_check(family_third, P[None])
    assert out["whole_vs_closed"][0] < 1e-8
    assert out["whole_vs_factor"][0] < 1e-8
    assert out["transpose_control"][0] > 1e-3


def test_two_point_bosonic_reflection():
    fam = ss.build_toy_model(0.0, 1.0, 1, seed=2)
    out = ss.two_point_boundary_check(fam, P[None])
    assert out["whole_vs_closed"][0] < 1e-9


def test_kernel_morera(family_third):
    # the scalar part of the two-point kernel Psi_2^* Psi_1 is holomorphic
    q = ss._reflected_anchor(P)
    kernel = family_third.pref2bar_expr(q) * family_third.pref1_expr(q)
    rect = holo.StripPath.rectangle(-0.4, 0.4, 0.15, math.pi - 0.15)
    assert holo.morera_residual(kernel, rect) < 1e-8


def test_transformation_law(family_third):
    ident = _law(cg.identity(), P[None], family_third)
    assert ident["sides"][0] < 1e-10
    g = cg.lift_rotation(0.1)
    out = _law(g, P[None], family_third)
    assert out["sides"][0] < 1e-8
    assert out["factor_lhs_vs_closed"][0] < 1e-8
    assert out["factor_rhs_vs_closed"][0] < 1e-8


def test_transformation_law_hypothesis_gate(family_third):
    with pytest.raises(ss.HypothesisViolation):
        ss.law_inputs(cg.lift_rotation(2.5), P[None], family_third)


def _pointwise_grid(m, size):
    """The grid as the list of scalar points it once was; the oracle of the stack."""
    pts = [mk.MomentumPoint(p1, p2, m)
           for p1 in np.linspace(0.15, 0.75, size)
           for p2 in np.linspace(-0.6, 0.6, size)]
    for k in range(2):
        src = pts[(k * 7) % len(pts)]
        pts.append(mk.to_momentum(mk.boost1(0.4 + 0.2 * k) @ src.as_array(), m))
    return pts


@pytest.mark.parametrize("m", [0.001, 1.0, 50.0])
@pytest.mark.parametrize("size", [2, 3, 5, 13])
def test_momentum_grid_is_the_pointwise_grid_to_the_bit(size, m):
    grid, want = ss.momentum_grid(m, size), _pointwise_grid(m, size)
    assert grid.p1.shape == (size * size + 2,) and grid.m == m
    for k in ("p1", "p2"):
        assert np.array_equal(getattr(grid, k), [getattr(p, k) for p in want]), k
    assert np.array_equal(grid.as_array(), [p.as_array() for p in want])


def test_extract_d_roundtrip():
    injected = np.diag([2.0, 1j])
    fam = dataclasses.replace(ss.build_toy_model(1 / 3, 1.0, 2, seed=9), d=injected)
    grid = ss.momentum_grid(1.0, 3)
    d, res = ss.extract_D(fam, grid)
    assert np.max(np.abs(d - injected)) < 1e-9
    assert res < 1e-8


def _assert_fill_matches_scalar_walks(s, n, seed, grid, injected_d=None):
    fam = ss.build_toy_model(s, 1.0, n, seed=seed)
    if injected_d is not None:
        fam = dataclasses.replace(fam, d=injected_d)
    fam.fill(grid)
    assert len(fam._cache) == len(grid.p1)
    path = holo.StripPath.vertical(0.0)
    for p in grid:
        # the scalar trees of p, walked on their own, are the oracle
        q = ss._reflected_anchor(p)
        hat = holo.continue_along(fam.pref1_expr(q), path).conjugate() * fam.a1.conj()
        check = holo.continue_along(fam.pref2bar_expr(q), path) * fam.a2.conj()
        (got_hat,), (got_check,) = fam.boundary_pair(p[None])
        assert np.max(np.abs(got_hat - hat)) < 1e-14
        assert np.max(np.abs(got_check - check)) < 1e-14
    assert len(fam._cache) == len(grid.p1)


def test_batched_fill_matches_scalar_boundary_pairs():
    grid = ss.momentum_grid(1.0, 3)
    for s in (0.0, 1 / 3, 0.137):
        _assert_fill_matches_scalar_walks(s, 2, 7, grid)
    # the extract_D cases, with their injected D
    _assert_fill_matches_scalar_walks(1 / 3, 2, 9, grid, np.diag([2.0, 1j]))
    _assert_fill_matches_scalar_walks(0.25, 1, 4, grid, np.eye(1))


def test_extract_d_heavy_mass():
    # at m = 50 every conjugate matrix has det ~ 1e-44 but condition number
    # ~ 2: the singularity guard must not depend on the scale
    injected = np.diag([2.0, 1j])
    fam = dataclasses.replace(ss.build_toy_model(1 / 3, 50.0, 2, seed=9), d=injected)
    d, res = ss.extract_D(fam, ss.momentum_grid(50.0, 3))
    assert np.max(np.abs(d - injected)) < 1e-12
    assert res < 1e-8


def test_extract_d_rejects_a_singular_conjugate_family():
    fam = ss.build_toy_model(1 / 3, 1.0, 2, seed=9)
    rank_one = np.array([[1.0, 2.0], [0.5, 1.0]])
    fam = dataclasses.replace(fam, a1=rank_one)
    with pytest.raises(np.linalg.LinAlgError):
        ss.extract_D(fam, ss.momentum_grid(1.0, 2))


def test_extract_d_checks_every_row_of_the_grid(monkeypatch):
    # the conditioning guard reads the whole stack, not its first matrix
    fam = ss.build_toy_model(1 / 3, 1.0, 2, seed=9)
    conj = fam.psi1_conj

    def last_row_singular(p):
        out = conj(p).copy()
        out[-1] = np.outer([1.0, 2.0], out[-1, 0])
        return out

    monkeypatch.setattr(fam, "psi1_conj", last_row_singular)
    with pytest.raises(np.linalg.LinAlgError, match="conjugate family is singular"):
        ss.extract_D(fam, ss.momentum_grid(1.0, 2))


def test_extract_d_scalar_case():
    fam = dataclasses.replace(ss.build_toy_model(0.25, 1.0, 1, seed=4), d=np.eye(1))
    d, res = ss.extract_D(fam, ss.momentum_grid(1.0, 3))
    assert abs(d[0, 0] - 1.0) < 1e-10
    assert res < 1e-8


def test_rotation_pi_relation(family_third):
    out = _half_turn(family_third, P[None], family_third.omega_target)
    assert np.max([*out.values()]) < 1e-8


def test_rotation_pi_bosonic():
    fam = ss.build_toy_model(0.0, 1.0, 1, seed=6)
    out = _half_turn(fam, P[None], fam.omega_target)
    assert np.max([*out.values()]) < 1e-10


def test_rotation_pi_half_spin():
    fam = ss.build_toy_model(0.5, 1.0, 2, seed=6)
    out = _half_turn(fam, P[None], fam.omega_target)
    assert np.max([*out.values()]) < 1e-8


def test_a_base_zero_on_a_path_ends_as_a_named_fail(monkeypatch):
    # p1 = 0 at the first grid momentum puts a base zero on its vertical path;
    # no walk steps round it, so each spin's record fails and names it
    real = ss.momentum_grid

    def on_axis(m, size=5):
        grid = real(m, size)
        p1 = grid.p1.copy()
        p1[0] = 0.0
        return mk.MomentumPoint(p1, grid.p2, grid.m)

    monkeypatch.setattr(ss, "momentum_grid", on_axis)
    records = suites.run_suite("spinstat", suites.SuiteConfig(seed=7, spins=(0.25, 1 / 3))).records
    assert [(r.anchor, r.inputs["spin"], r.passed) for r in records] == [
        ("statistics-phase-pipeline", 0.25, False), ("statistics-phase-pipeline", 1 / 3, False)]
    for r in records:
        assert r.inputs["error"] == ("PowerBaseVanishes: power base within 1e-12 of zero "
                                     "near z=2.111215827059133j in row 27")


def test_a_family_with_a_spin_and_a_b_per_row_is_the_per_spin_families(family_third):
    # fill's family: spin s with b1 and spin -s with b2 at the same anchors
    qs = ss._reflected_anchor(ss.momentum_grid(1.0, 3))
    rows = len(qs.p1)
    both = qs[np.tile(np.arange(rows), 2)]
    pair = (holo.compensated_family_expr(cg.identity(), both,
                                         np.repeat([family_third.s, -family_third.s], rows))
            * holo.exp_mink_dot(np.repeat([family_third.b1, family_third.b2], rows, axis=0),
                                np.eye(3), both.as_array()))
    path = holo.StripPath.vertical(0.0)
    got = holo.continue_along(pair, path)
    want = np.concatenate([holo.continue_along(family_third.pref1_expr(qs), path),
                           holo.continue_along(family_third.pref2bar_expr(qs), path)])
    assert got.shape == want.shape == (2 * rows,)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14


def test_transformation_law_sees_b2_in_the_left_exponential_factor(family_third, monkeypatch):
    g = cg.compose(cg.lift_rotation(0.1), cg.lift_boost(0.3, 0.2))
    ps = GRID[:3]
    assert max(np.max(v) for v in _law(g, ps, family_third).values()) < 1e-8
    real = holo.exp_mink_dot

    def swapped(b, pre, anchor):
        # the left side's rows come first
        return real(np.repeat([family_third.b2, family_third.b1], len(anchor) // 2, axis=0),
                    pre, anchor)

    monkeypatch.setattr(holo, "exp_mink_dot", swapped)
    out = _law(g, ps, family_third)
    assert np.max(out["sides"]) > 1e-2


def test_phase_extraction_values():
    grid = ss.momentum_grid(1.0, 3)
    for s, expected in ((0.0, 1.0), (0.5, -1.0), (1 / 3, cmath.exp(2j * math.pi / 3))):
        fam = ss.build_toy_model(s, 1.0, 2, seed=8)
        omega_hat, mismatch = ss.extract_statistics_phase(fam, grid)
        assert abs(omega_hat - expected) < 1e-8
        assert mismatch < 1e-10
        # D^* D is read off the pipeline report, which builds the same family
        # and extracts D on the same grid
        rep = ss.run_pipeline(s, 1.0, 2, seed=8, grid_size=3)
        assert rep.min_eig > 1e-6


def test_phase_extraction_rejects_inconsistent_data():
    # a non-unitary injected D breaks the scalar relation between the routes
    fam = dataclasses.replace(ss.build_toy_model(1 / 3, 1.0, 2, seed=8), d=np.diag([2.0, 1j]))
    with pytest.raises(ss.NonScalarMismatch):
        ss.extract_statistics_phase(fam, ss.momentum_grid(1.0, 3))


def test_ode_route_agrees_with_engine(family_third):
    assert ss.ode_vs_engine(family_third, mk.shell_point(0.35, -0.2, 1.0)) < 1e-6


def test_boundary_values_anchor_invariant(family_third):
    # continue along two different strip paths to the same boundary point
    q = ss._reflected_anchor(P)
    expr = family_third.pref1_expr(q)
    v0 = holo.continue_along(expr, [0.0, 1j * math.pi])
    v1 = holo.continue_along(expr, [0.0, 0.5, 0.5 + 1j * math.pi, 1j * math.pi])
    assert abs(v0 - v1) < 1e-9


def test_pipeline_report_single_spin():
    rep = ss.run_pipeline(0.137, 1.0, 2, seed=3, grid_size=3)
    assert rep.residuals["phase"] < 1e-8
    assert rep.residuals["weak_phase"] < 1e-7
    assert rep.residuals["d_constancy"] < 1e-8
    assert rep.residuals["pi_rotation"] < 1e-8
    assert rep.residuals["dual_route"] < 1e-8
    assert rep.residuals["transformation_law"] < 1e-8
    assert rep.min_eig > 1e-6


def test_spinstat_passes_across_the_mass_band():
    # the theorem assumes only a mass gap; at m = 4 and 8 the determinant guard
    # of the ODE route and four Morera panels used to fail
    report = suites.run_suite("spinstat", suites.SuiteConfig(
        spins=(0.25,), masses=(0.001, 1.0, 4.0, 8.0), grid=2))
    assert [r.inputs["mass"] for r in report.records] == [0.001, 1.0, 4.0, 8.0]
    for r in report.records:
        assert r.passed, (r.inputs, r.residuals)


def test_ode_route_scales_its_step_with_the_log_derivative():
    # a fuzz config where max ||A|| on the coarse scan reaches 294: a
    # fixed Richardson step of 1e-3 read ode_vs_engine = 1.1e-5 here
    report = suites.run_suite("spinstat", suites.SuiteConfig(
        spins=(-18.156,), masses=(0.0135881263815649,), seed=37, multiplicities=(4,), grid=2))
    (rec,) = report.records
    assert rec.passed, rec.residuals
    assert rec.residuals["ode_vs_engine"] < 1e-6


def test_build_rejects_bad_mass():
    with pytest.raises(ValueError):
        ss.build_toy_model(0.5, 0.0)


# --- the setup that run_pipeline shares across spins --------------------------

def _reports(spins, cold: bool) -> dict:
    out = {}
    for s in spins:
        if cold:
            ss._setup.cache_clear()
        out[s] = ss.run_pipeline(s, seed=7)
    return out


def test_a_shared_setup_cannot_change_a_pipeline_report():
    spins = suites.SuiteConfig().spins
    cold = _reports(spins, cold=True)
    assert _reports(spins, cold=False) == cold
    assert _reports(spins[::-1], cold=False) == cold
    assert ss._setup.cache_info().currsize == 1


def _arrays(obj) -> list:
    # every array that obj holds, itself or in its tuple items or dataclass
    # fields at any depth
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in _arrays(item)]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in _arrays(getattr(obj, f.name))]
    return []


def test_a_cached_setup_is_read_only():
    setup = ss._setup(1.0, 2, 7, 5)
    arrays = _arrays(setup)
    # the draws, grid, subgrid, fill momenta, anchors and both checks' inputs
    assert len(arrays) > 25
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0.0
    assert ss._setup(1.0, 2, 7, 5) is setup


def test_a_setup_that_raises_fails_each_spin_and_is_not_kept(monkeypatch):
    config = suites.SuiteConfig(seed=7)
    with monkeypatch.context() as mp:
        mp.setattr(cgm, "exchange_hypothesis", lambda *args: False)
        records = suites.run_suite("spinstat", config).records
    assert [(r.inputs["spin"], r.passed) for r in records] == [(s, False) for s in config.spins]
    for r in records:
        assert r.inputs["error"] == ("HypothesisViolation: cone pair violates the "
                                     "exchange condition")
    assert all(r.passed for r in suites.run_suite("spinstat", config).records)


# --- batched families: offsets and momenta as rows ---------------------------

def _singular_once(ode, scans):
    # the family with its first log-derivative read, the first scan, NaN
    def log_derivative(zs, delta, _orig=ode.log_derivative):
        scans.append(zs)
        a = _orig(zs, delta)
        assert a.shape == (len(zs),)
        return np.full_like(a, np.nan) if len(scans) == 1 else a

    return dataclasses.replace(ode, log_derivative=log_derivative)


def test_shifted_retry_maps_the_pipeline_family_back(family_third):
    # a scan forced singular once reruns on the path moved right by the first
    # shift and straight back to its end: one shifted scan and one fine pass
    path = holo.StripPath.vertical(0.0, height=math.pi / 2)
    direct = holo.ode_continue(ss._ode_family(family_third, P), path)
    scans = []
    shifted = holo.ode_continue(_singular_once(ss._ode_family(family_third, P), scans), path)
    assert len(scans) == 3
    assert scans[1][0] == holo._SHIFTS[0] and scans[1][-1] == path.points[-1]
    assert np.max(np.abs(shifted - direct)) < 1e-10 * np.max(np.abs(direct))


@pytest.mark.parametrize("s, m", [(1 / 3, 1.0), (0.137, 0.0136), (-18.156, 1.0), (9.4, 50.0)])
def test_ode_log_derivative_is_h_batch_differenced(s, m):
    # the engine's straight continuations Psi_2(z)^* Psi_1(z + t0) at the
    # five offsets are the oracle: Richardson central differences of their
    # offsets, solved against h
    fam = ss.build_toy_model(s, m, 2, seed=5)
    p = mk.shell_point(0.4, -0.3, m)
    zs = np.array([0.05j, 0.3 + 0.5j, -0.2 + 1.2j, 0.1 + 2.0j])
    delta = 1e-3

    def h_batch(t0s):
        return [np.array([ss.dressed_family(fam, 2, z, p) @ ss.dressed_family(fam, 1, z + t0, p)
                          for z in zs]) for t0 in t0s]

    h1, h_1, h2, h_2, h0 = h_batch(delta * np.array([1.0, -1.0, 0.5, -0.5, 0.0]))
    want = np.linalg.solve(h0, (4.0 * (h2 - h_2) / delta - (h1 - h_1) / (2.0 * delta)) / 3.0)
    a = ss._ode_family(fam, p).log_derivative(zs, delta)
    # the scalar a of A = a I, since h is a scalar times a2^H a1
    assert a.shape == (len(zs),)
    assert np.all(np.linalg.norm(a[:, None, None] * np.eye(2) - want, axis=(1, 2))
                  < 1e-6 * np.linalg.norm(want, axis=(1, 2)))


def test_a_singular_kernel_makes_every_ode_scan_singular(family_third):
    # h is a scalar times a2^H a1, so a rank-one a1 makes h singular at every
    # node of every shifted path
    fam = dataclasses.replace(family_third, a1=np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(holo.SingularDeterminant, match="shifted path too"):
        ss.ode_vs_engine(fam, P)


def _mark_walks(monkeypatch) -> tuple:
    # every walk and anchor normalization, as (name, whether it ran inside
    # holo.ode_continue), and one entry per ode_continue call
    inside, calls, odes = [False], [], []
    for name in ("evaluate_along", "normalize_at"):
        def counted(*args, _fn=getattr(holo, name), _name=name):
            calls.append((_name, inside[0]))
            return _fn(*args)

        monkeypatch.setattr(holo, name, counted)

    def ode_continue(*args, _fn=holo.ode_continue):
        odes.append(None)
        outer, inside[0] = inside[0], True
        try:
            return _fn(*args)
        finally:
            inside[0] = outer

    monkeypatch.setattr(holo, "ode_continue", ode_continue)
    return calls, odes


def _inside(calls) -> dict:
    return {name: sum(1 for n, during in calls if n == name and during)
            for name in ("evaluate_along", "normalize_at")}


def test_the_ode_route_of_the_pipeline_walks_nothing(monkeypatch):
    calls, _ = _mark_walks(monkeypatch)
    rep = ss.run_pipeline(0.25, seed=7)
    assert rep.residuals["ode_vs_engine"] < 1e-6
    assert _inside(calls) == {"evaluate_along": 0, "normalize_at": 0}
    assert len(calls) > 0


def test_a_rerun_of_the_ode_route_walks_nothing(family_third, monkeypatch):
    # a rerun walks the shifted path and back to the end, so nothing maps it
    # back through h, walked and normalized
    scans = []
    real = ss._ode_family
    monkeypatch.setattr(ss, "_ode_family", lambda f, p: _singular_once(real(f, p), scans))
    calls, odes = _mark_walks(monkeypatch)
    assert ss.ode_vs_engine(family_third, P) < 1e-6
    assert len(odes) == 2 and len(scans) == 3
    assert _inside(calls) == {"evaluate_along": 0, "normalize_at": 0}
    # the direct route walks outside it
    assert len(calls) > 0


GRID = ss.momentum_grid(1.0, 2)


def _assert_rows_match(batched, singles):
    for want in singles:
        assert want.keys() == batched.keys()
    for k, rows in batched.items():
        assert rows.shape == (len(singles),), k
        for got, want in zip(rows, singles):
            assert abs(got - want[k][0]) < 1e-14, k


def test_pipeline_checks_on_a_stack_match_each_momentum(family_third):
    ps = GRID[:4]
    _assert_rows_match(ss.two_point_boundary_check(family_third, ps),
                       [ss.two_point_boundary_check(family_third, p[None]) for p in ps])
    omega = family_third.omega_target
    _assert_rows_match(_half_turn(family_third, ps, omega),
                       [_half_turn(family_third, p[None], omega) for p in ps])
    gs = [cg.compose(cg.lift_rotation(w), cg.lift_boost(d, r))
          for w, d, r in ((0.1, 0.3, 0.2), (-0.15, 2.0, 0.1), (0.0, 4.0, 0.25), (0.05, 5.5, 0.0))]
    stack = cg.CoverElement(np.array([g.gamma for g in gs], dtype=complex),
                            np.array([g.omega for g in gs]))
    _assert_rows_match(_law(stack, ps, family_third),
                       [_law(g, p[None], family_third)
                        for g, p in zip(gs, ps)])
    # one element serves every momentum of the stack
    _assert_rows_match(_law(gs[1], ps, family_third),
                       [_law(gs[1], p[None], family_third) for p in ps])


_CLOSED_FORMS = ("psi1", "psi2", "two_point", "hat_closed", "check_closed",
                 "psi1_conj", "psi2_conj")


@pytest.mark.parametrize("form", _CLOSED_FORMS)
def test_closed_forms_on_a_stack_match_each_momentum(family_third, form):
    grid = ss.momentum_grid(1.0, 3)
    rows = getattr(family_third, form)(grid)
    assert rows.shape == (len(grid.p1), 2, 2)
    for p, row in zip(grid, rows):
        want = getattr(family_third, form)(p)
        assert want.shape == (2, 2)
        assert np.linalg.norm(row - want) <= 1e-15 * np.linalg.norm(want)


def test_rel_on_stacks_is_rel_pair_by_pair():
    rng = np.random.default_rng(1)
    a, b = (rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2)) for _ in range(2))
    b[0] = a[0]
    a[1] = b[1] = 0.0
    b[2] = 1e8 * a[2]
    rows = ss._rel(a, b)
    assert rows.shape == (6,)
    for got, x, y in zip(rows, a, b):
        assert got == ss._rel(x, y)
        # the scalar Frobenius formula is the reference
        want = np.linalg.norm(x - y) / max(np.linalg.norm(x), np.linalg.norm(y), 1e-30)
        assert abs(got - want) <= 1e-15 * want
    assert rows[0] == rows[1] == 0.0


def test_transformation_law_gate_checks_every_row(family_third):
    stack = cg.CoverElement(np.zeros(3, dtype=complex), np.array([0.1, 2.5, -0.1]))
    with pytest.raises(ss.HypothesisViolation, match="element 1 "):
        ss.law_inputs(stack, P[None][[0, 0, 0]], family_third)


def _count_walks(run) -> dict:
    counts = {"normalize_at": 0, "evaluate_along": 0}
    with pytest.MonkeyPatch.context() as mp:
        for name in counts:
            def counted(*args, _fn=getattr(holo, name), _name=name):
                counts[_name] += 1
                return _fn(*args)

            mp.setattr(holo, name, counted)
        run()
    return counts


def test_each_compensated_build_transports_its_momenta_once(monkeypatch):
    calls = []
    monkeypatch.setattr(wg, "transport", lambda g, p, _t=wg.transport: calls.append(g) or _t(g, p))
    holo.compensated_family_expr(cg.lift_rotation(0.3), GRID, 0.25)
    assert len(calls) == 1


def test_work_counts_do_not_grow_with_momenta():
    # normalize_at walks its family once, which evaluate_along counts too;
    # ode_vs_engine walks only its direct route, since the ODE route reads
    # its log-derivative from the bases with no walk
    fam = ss.build_toy_model(0.25, 1.0, 2, seed=7)
    p = mk.shell_point(0.35, -0.2, 1.0)
    assert _count_walks(lambda: ss.ode_vs_engine(fam, p)) == {
        "normalize_at": 1, "evaluate_along": 2}

    for size in (2, 3):
        assert _count_walks(lambda: ss.run_pipeline(0.25, grid_size=size)) == {
            "normalize_at": 9, "evaluate_along": 16}
    # on a new family each check also fills the boundary pairs it reads, with
    # one family for both prefactors; the covariance check walks one family
    for check, walks in ((ss.two_point_boundary_check, (3, 5)),
                         (lambda f, ps: _half_turn(f, ps, 1.0), (2, 4)),
                         (lambda f, ps: _law(cg.identity(), ps, f),
                          (1, 2))):
        for ps in (GRID[:1], GRID[:3], GRID):
            fam = ss.build_toy_model(0.25, 1.0, 2, seed=7)
            counts = _count_walks(lambda: check(fam, ps))
            assert (counts["normalize_at"], counts["evaluate_along"]) == walks
