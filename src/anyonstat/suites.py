"""Verification suites: deterministic, seeded batteries over every module,
collected into records that the command line driver serializes.

Each record carries a stable anchor string naming the identity or property
it certifies, the inputs that parametrized it, a dict of named residuals,
and the pass verdict at the configured tolerance.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import conegeom as cgm
from . import covergroup as cg
from . import holo
from . import minkowski as mk
from . import repn
from . import spinstat as ss
from . import wigner as wg

SUITE_NAMES = ("group", "wigner", "continuation", "cones", "pauli-lubanski", "spinstat")


@dataclass
class SuiteConfig:
    spins: tuple[float, ...] = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.137)
    masses: tuple[float, ...] = (1.0,)
    multiplicities: tuple[int, ...] = (2,)
    seed: int = 7
    tol_engine: float = 1e-9
    tol_boundary: float = 1e-8
    tol_pipeline: float = 1e-8
    grid: int = 5
    out: str | None = None
    format: str = "text"

    def __post_init__(self):
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError("seed must be an integer >= 0")
        for t in (self.tol_engine, self.tol_boundary, self.tol_pipeline):
            if not (t > 0.0 and math.isfinite(t)):
                raise ValueError("tolerances must be finite and positive")
        for s in self.spins:
            if not math.isfinite(s):
                raise ValueError("spins must be finite reals")
        for m in self.masses:
            if not (m > 0.0 and math.isfinite(m)):
                raise ValueError("masses must be finite and strictly positive")
        for n in self.multiplicities:
            if not (isinstance(n, int) and n >= 1):
                raise ValueError("multiplicities must be integers >= 1")
        if not (isinstance(self.grid, int) and self.grid >= 2):
            raise ValueError("grid must be an integer >= 2")


@dataclass
class Record:
    suite: str
    anchor: str
    inputs: dict
    residuals: dict
    passed: bool
    runtime_ms: float | None = None


@dataclass
class Report:
    version: str
    config: dict
    records: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def _record(suite, anchor, inputs, residuals, tol):
    """Pass iff every residual is below its tolerance (scalar or per-key dict).

    A per-key dict must name every residual; a missing key raises KeyError.
    """
    ok = all(v < (tol[k] if isinstance(tol, dict) else tol) for k, v in residuals.items())
    return Record(suite, anchor, inputs, residuals, bool(ok))


def _error_inputs(inputs: dict, exc: Exception) -> dict:
    """inputs plus the exception that ended a record, for its FAIL record."""
    return {**inputs, "error": f"{type(exc).__name__}: {exc}"}


def _rng(config: SuiteConfig, salt: int):
    return np.random.default_rng(np.random.SeedSequence((config.seed, salt)))


def _shell(rng, m=1.0, spread=0.9):
    return mk.shell_point(rng.uniform(-spread, spread), rng.uniform(-spread, spread), m)


# ---------------------------------------------------------------------------
# group suite
# ---------------------------------------------------------------------------

def _series_expm(M: np.ndarray, terms: int = 40) -> np.ndarray:
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


def group_suite(config: SuiteConfig) -> list:
    rng = _rng(config, 1)
    records = []

    worst = 0.0
    for _ in range(1000):
        a, b = cg.random_element(rng), cg.random_element(rng)
        worst = max(worst, float(np.max(np.abs(
            cg.project(cg.compose(a, b)) - cg.project(a) @ cg.project(b)))))
    records.append(_record("group", "cover-homomorphism",
                           {"samples": 1000}, {"matrix": worst}, 1e-12))

    wm, wo = 0.0, 0.0
    for _ in range(200):
        g = cg.random_element(rng)
        for k in (-2, -1, 1, 2):
            deck = cg.compose(cg.lift_rotation(2.0 * math.pi * k), g)
            wm = max(wm, float(np.max(np.abs(cg.project(deck) - cg.project(g)))))
            wo = max(wo, abs(deck.omega - g.omega - 2.0 * math.pi * k))
    records.append(_record("group", "deck-transformations",
                           {"samples": 200, "decks": 4},
                           {"matrix": wm, "winding": wo},
                           {"matrix": 1e-12, "winding": 1e-10}))

    wg_, wo = 0.0, 0.0
    for _ in range(1000):
        g = cg.random_element(rng)
        e = cg.compose(cg.inverse(g), g)
        wg_ = max(wg_, abs(e.gamma))
        wo = max(wo, abs(e.omega))
    records.append(_record("group", "cover-inverse", {"samples": 1000},
                           {"gamma": wg_, "omega": wo},
                           {"gamma": 1e-12, "omega": 1e-10}))

    wj, winv, wcont = 0.0, 0.0, 0.0
    for _ in range(300):
        g = cg.random_element(rng)
        h = cg.random_element(rng)
        wj = max(wj, float(np.max(np.abs(
            cg.project(cg.j_conjugate(g)) - mk.J @ cg.project(g) @ mk.J))))
        lhs = cg.j_conjugate(cg.compose(g, h))
        rhs = cg.compose(cg.j_conjugate(g), cg.j_conjugate(h))
        wj = max(wj, abs(lhs.gamma - rhs.gamma), abs(lhs.omega - rhs.omega))
        gg = cg.j_conjugate(cg.j_conjugate(g))
        winv = max(winv, abs(gg.gamma - g.gamma), abs(gg.omega - g.omega))
    g = cg.random_element(rng)
    prev = cg.identity()
    for k in range(1, 101):
        cur = cg.j_conjugate(cg.CoverElement(g.gamma * k / 100.0, g.omega * k / 100.0))
        wcont = max(wcont, abs(cur.gamma - prev.gamma) + abs(cur.omega - prev.omega) - 0.2)
        prev = cur
    records.append(_record("group", "j-conjugation",
                           {"samples": 300, "path_steps": 100},
                           {"conjugation": wj, "involution": winv,
                            "continuity_excess": max(0.0, wcont)},
                           {"conjugation": 1e-12, "involution": 1e-12,
                            "continuity_excess": 1e-12}))

    worst = 0.0
    for _ in range(1000):
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        worst = max(worst, float(np.max(np.abs(
            mk.boost1(a) @ mk.boost1(b) - mk.boost1(a + b)))))
    records.append(_record("group", "boost-group-law", {"samples": 1000},
                           {"matrix": worst}, 1e-12))

    K1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    sigma = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    we, wf, wmet = 0.0, 0.0, 0.0
    for t in np.linspace(-2.0, 2.0, 20):
        for th in np.linspace(0.0, math.pi, 20):
            z = complex(t, th)
            B = mk.boost1(z)
            we = max(we, float(np.max(np.abs(B - _series_expm(z * K1)))))
            Jth = np.diag([math.cos(th), math.cos(th), 1.0])
            wf = max(wf, float(np.max(np.abs(
                B - (Jth + 1j * math.sin(th) * sigma) @ mk.boost1(t)))))
            wmet = max(wmet, mk.lorentz_residual(B))
    records.append(_record("group", "boost-strip-extension",
                           {"grid": "20x20 over [-2,2]+i[0,pi]"},
                           {"series_oracle": we, "factored_form": wf,
                            "metric": wmet}, 1e-12))

    r_ipi = float(np.max(np.abs(mk.boost1(1j * math.pi) - mk.J)))
    wjc = max(float(np.max(np.abs(mk.J @ mk.boost1(t) @ mk.J - mk.boost1(t))))
              for t in np.linspace(-2, 2, 9))
    records.append(_record("group", "boost-reflection-value", {},
                           {"value": r_ipi, "j_commutation": wjc}, 1e-14))
    return records


# ---------------------------------------------------------------------------
# wigner suite
# ---------------------------------------------------------------------------

def wigner_suite(config: SuiteConfig) -> list:
    rng = _rng(config, 2)
    records = []
    s = 1.0 / 3.0

    worst = 0.0
    for _ in range(1000):
        a, b = cg.random_element(rng), cg.random_element(rng)
        p = _shell(rng)
        lhs = wg.wigner_angle(cg.compose(a, b), p)
        rhs = wg.wigner_angle(a, p) + wg.wigner_angle(b, wg.transport(a, p))
        worst = max(worst, abs(lhs - rhs))
    records.append(_record("wigner", "cocycle-additivity", {"samples": 1000},
                           {"angle": worst}, 1e-9))

    worst = 0.0
    for w in (0.0, 0.37, -1.2, math.pi, 2.0 * math.pi, 4.0 * math.pi, -2.0 * math.pi, 7.1):
        for _ in range(20):
            p = _shell(rng)
            worst = max(worst, abs(wg.wigner_angle(cg.lift_rotation(w), p) - w))
    records.append(_record("wigner", "rotation-angle-exactness",
                           {"angles": 8, "momenta": 20}, {"angle": worst}, 1e-10))

    worst = 0.0
    for _ in range(1000):
        g = cg.random_element(rng)
        p = _shell(rng)
        mjp = mk.to_momentum(-mk.j_reflect(p.as_array()), p.m)
        worst = max(worst, abs(wg.wigner_angle(cg.j_conjugate(g), p)
                               + wg.wigner_angle(g, mjp)))
    records.append(_record("wigner", "reflection-angle-identity",
                           {"samples": 1000}, {"angle": worst}, 1e-9))

    wmod, wlaw, wl0 = 0.0, 0.0, 0.0
    g0 = cg.lift_rotation(math.pi / 2.0)
    for _ in range(300):
        a, b = cg.random_element(rng), cg.random_element(rng)
        p = _shell(rng)
        c = wg.cocycle(a, p, s)
        wmod = max(wmod, abs(abs(c) - abs(wg.u_plain(wg.transport(a, p), s))
                             / abs(wg.u_plain(p, s))))
        lhs = wg.cocycle(cg.compose(a, b), p, s)
        rhs = wg.cocycle(a, p, s) * wg.cocycle(b, wg.transport(a, p), s)
        wlaw = max(wlaw, abs(lhs - rhs))
        lhs0 = wg.u_l0(p, s, g0) * wg.cocycle(a, p, s, variant="c_l0", g0=g0)
        rhs0 = wg.u_plain(p, s) * wg.cocycle(cg.compose(a, g0), p, s)
        wl0 = max(wl0, abs(lhs0 - rhs0))
    records.append(_record("wigner", "cocycle-modulus-and-law",
                           {"samples": 300},
                           {"modulus": wmod, "law": wlaw, "shifted": wl0}, 1e-10))

    worst, wloop = 0.0, 0.0
    for _ in range(300):
        g = cg.random_element(rng)
        p = _shell(rng)
        worst = max(worst, abs(cmath.exp(1j * wg.wigner_angle(g, p))
                               - wg.little_group_phase(g, p)))
    for k in (-2, -1, 1, 2):
        p = _shell(rng)
        gs = [cg.random_element(rng, disk_radius=0.5) for _ in range(3)]
        chain = gs + [cg.inverse(g) for g in reversed(gs)] \
            + [cg.lift_rotation(2.0 * math.pi * k)]
        total, cur = 0.0, p
        for g in chain:
            total += wg.wigner_angle(g, cur)
            cur = wg.transport(g, cur)
        wloop = max(wloop, abs(total - 2.0 * math.pi * k))
    records.append(_record("wigner", "little-group-phase-closed-form",
                           {"samples": 300, "loops": 4},
                           {"phase": worst, "deck_accumulation": wloop}, 1e-10))

    worst = 0.0
    for _ in range(200):
        p = _shell(rng)
        worst = max(worst, abs(wg.u_plain(mk.to_momentum(-mk.j_reflect(p.as_array()), p.m), s)
                               - wg.u_plain(p, s).conjugate()))
        worst = max(worst, abs(wg.u_l0(p, s, g0) - wg.u_pihalf(p, s)))
    rest = mk.shell_point(0.0, 0.0, 1.0)
    worst = max(worst, abs(wg.u_plain(rest, 0.77) - 1.0))
    worst = max(worst, abs(wg.u_pihalf(rest, s) - cmath.exp(0.5j * math.pi * s)))
    records.append(_record("wigner", "compensator-identities",
                           {"samples": 200}, {"value": worst}, 1e-10))
    return records


# ---------------------------------------------------------------------------
# continuation suite
# ---------------------------------------------------------------------------

def _hypothesis_element(rng) -> cg.CoverElement:
    g0 = cg.lift_rotation(math.pi / 2.0)
    while True:
        g = cg.compose(cg.lift_rotation(rng.uniform(-0.3, 0.3)),
                       cg.lift_boost(rng.uniform(0.0, 2.0 * math.pi),
                                     rng.uniform(0.0, 0.35)))
        if cgm.in_wedge_class(cg.compose(g, g0)):
            return g


def continuation_suite(config: SuiteConfig) -> list:
    rng = _rng(config, 3)
    records = []
    s = 1.0 / 3.0
    g0 = cg.lift_rotation(math.pi / 2.0)

    worst = 0.0
    for _ in range(50):
        g = _hypothesis_element(rng)
        p = mk.shell_point(rng.uniform(0.1, 0.8) * rng.choice((-1.0, 1.0)),
                           rng.uniform(-0.8, 0.8), 1.0)
        f = holo.compensated_family_expr(g, p, s)
        cont = holo.continue_robust(f, holo.StripPath.vertical(0.0))
        gg0 = cg.compose(g, g0)
        vec = mk.J @ cg.project(cg.inverse(gg0)) @ mk.J @ p.as_array()
        closed = (cmath.exp(1j * math.pi * s)
                  * cmath.exp(1j * s * wg.wigner_angle(cg.j_conjugate(gg0), p))
                  * wg.u_plain(mk.to_momentum(vec, 1.0), s))
        worst = max(worst, abs(cont - closed))
    records.append(_record("continuation", "compensated-boundary-value",
                           {"samples": 50, "spin": s}, {"value": worst},
                           config.tol_boundary))

    worst = 0.0
    for _ in range(6):
        g = _hypothesis_element(rng)
        p = _shell(rng, spread=0.7)
        f = holo.compensated_family_expr(g, p, s)
        worst = max(worst, holo.morera_residual(
            f, holo.StripPath.rectangle(-0.4, 0.4, 0.15, math.pi - 0.15)))
    ent = holo.exp_mink_dot((0.4, 0.0, 0.0), np.eye(3), _shell(rng).as_array())
    # perimeter-4 rectangle strictly inside the open strip
    r_ent = holo.morera_residual(ent, holo.StripPath.rectangle(-0.5, 0.5, 0.8, 1.8))
    records.append(_record("continuation", "strip-morera",
                           {"families": 6}, {"compensated": worst, "entire": r_ent},
                           {"compensated": config.tol_boundary, "entire": 1e-10}))

    p = mk.shell_point(0.5, 1.0, 1.0)
    zstar = holo.boost_energy_branch_point(p)
    bare = holo.uncompensated_phase_expr(cg.identity(), p, s)
    r_box = holo.morera_residual(bare, holo.StripPath.rectangle(
        zstar.real - 0.3, zstar.real + 0.3, zstar.imag - 0.3, zstar.imag + 0.3))
    zend = complex(zstar.real, min(zstar.imag + 0.5, 3.1))
    left = [0.0, complex(zstar.real - 0.4, 0.0),
            complex(zstar.real - 0.4, zend.imag), zend]
    right = [0.0, complex(zstar.real + 0.4, 0.0),
             complex(zstar.real + 0.4, zend.imag), zend]
    vdiff = abs(holo.continue_along(bare, left) - holo.continue_along(bare, right))
    comp = holo.compensated_family_expr(cg.identity(), p, s)
    cdiff = abs(holo.continue_along(comp, left) - holo.continue_along(comp, right))
    broken = holo.morera_residual(bare, holo.StripPath.rectangle(
        zstar.real - 0.3, zstar.real + 0.3, zstar.imag - 0.3, zstar.imag + 0.3),
        principal=True)
    records.append(Record("continuation", "uncompensated-negative-control",
                          {"branch_point": [zstar.real, zstar.imag], "spin": s},
                          {"morera": r_box, "path_dependence": vdiff,
                           "principal_morera": broken,
                           "compensated_path_independence": cdiff},
                          bool(r_box > 1e-3 and vdiff > 1e-3 and broken > 1e-3
                               and cdiff < config.tol_engine)))

    g = _hypothesis_element(rng)
    p = _shell(rng, spread=0.6)
    f = holo.compensated_family_expr(g, p, s)
    v0 = holo.continue_robust(f, [0.0, 1j * math.pi])
    v5 = holo.continue_robust(f, [0.0, 0.5, 0.5 + 1j * math.pi, 1j * math.pi])
    vz = holo.continue_robust(f, [0.0, -0.4, -0.4 + 0.5j * math.pi,
                                  0.3 + 0.8j * math.pi, 1j * math.pi])
    coarse = holo.continue_along(f, holo.StripPath.vertical(0.0, samples=3))
    fine = holo.continue_along(f, holo.StripPath.vertical(0.0, samples=129))
    records.append(_record("continuation", "anchor-and-path-independence",
                           {"paths": 3},
                           {"shifted_path": abs(v0 - v5), "zigzag": abs(v0 - vz),
                            "refinement": abs(coarse - fine)},
                           {"shifted_path": config.tol_engine,
                            "zigzag": config.tol_engine, "refinement": 1e-10}))

    a = 0.7
    scalar = lambda z, t0: cmath.exp(1j * a * (z + t0))
    r1 = abs(holo.ode_continue(scalar, holo.StripPath.vertical(0.0, height=math.pi / 2))[0, 0]
             - cmath.exp(1j * a * (1j * math.pi / 2)))
    singular = lambda z, t0: cmath.cosh(z + t0)
    r2 = abs(holo.ode_continue(singular, holo.StripPath.vertical(0.0, height=2.2))[0, 0]
             - cmath.cosh(2.2j))
    _, fam = ss.build_toy_model(s, 1.0, 2, seed=config.seed)
    r3 = ss.ode_vs_engine(fam, mk.shell_point(0.35, -0.2, 1.0))
    records.append(_record("continuation", "log-derivative-ode",
                           {"toy": "exp/cosh", "spin": s},
                           {"exp_toy": r1, "cosh_detour": r2, "family_dual_route": r3},
                           {"exp_toy": 1e-8, "cosh_detour": 1e-5,
                            "family_dual_route": 1e-6}))
    return records


# ---------------------------------------------------------------------------
# cones suite
# ---------------------------------------------------------------------------

def cones_suite(config: SuiteConfig) -> list:
    rng = _rng(config, 4)
    records = []

    sector, e1, e2, e3 = cgm.single_cone_paths()
    ok = (cgm.path_equivalent(e1, e2, sector)
          and not cgm.path_equivalent(e1, e3, sector)
          and cgm.path_equivalent(e1, e1, sector))
    records.append(Record("cones", "approach-path-equivalence",
                          {"configuration": "single cone, three paths"},
                          {"violations": 0.0 if ok else 1.0}, ok))

    p1, p2 = cgm.antipodal_pair()
    wound = cgm.ConePath(p1.sector, p1.accumulated_angle + 2.0 * math.pi)
    both = 0
    for _ in range(100):
        d1 = cgm.ConePath(p1.sector, p1.accumulated_angle
                          + 2.0 * math.pi * rng.integers(-2, 3))
        d2 = cgm.ConePath(p2.sector, p2.accumulated_angle
                          + 2.0 * math.pi * rng.integers(-2, 3))
        if cgm.exchange_hypothesis(d1, d2) and cgm.exchange_hypothesis(d2, d1):
            both += 1
    ok = (cgm.exchange_hypothesis(p1, p2)
          and not cgm.exchange_hypothesis(p2, p1)
          and not cgm.exchange_hypothesis(wound, p2)
          and both == 0)
    records.append(Record("cones", "exchange-hypothesis",
                          {"configuration": "antipodal pair", "asymmetry_samples": 100},
                          {"violations": 0.0 if ok else 1.0}, ok))

    worst = 0.0
    nested_bad = 0
    for _ in range(200):
        a = rng.uniform(-math.pi, math.pi)
        b = a + rng.uniform(0.15, 2.9)
        sec = cgm.SpatialSector(a, b)
        dd = cgm.dual_sector(cgm.dual_sector(sec))
        worst = max(worst, abs(dd.alpha - a), abs(dd.beta - b))
        inner = cgm.SpatialSector(a + 0.05, b - 0.05)
        da, di = cgm.dual_sector(sec), cgm.dual_sector(inner)
        if not (di.alpha <= da.alpha + 1e-12 and da.beta <= di.beta + 1e-12):
            nested_bad += 1
    records.append(_record("cones", "dual-cone-double-dual", {"samples": 200},
                           {"angles": worst, "order_reversal_violations": float(nested_bad)},
                           {"angles": 1e-12, "order_reversal_violations": 0.5}))

    mismatches, tested = 0, 0
    while tested < 200:
        a = rng.uniform(-math.pi, math.pi)
        b = a + rng.uniform(0.2, 2.8)
        sec = cgm.SpatialSector(a, b, mk.Vec3(*rng.uniform(-1.0, 1.0, 3)))
        e = cgm.SpacelikeDirection.from_angles(rng.uniform(a - 0.5, b + 0.5),
                                               rng.uniform(-1.2, 1.2))
        earr = e.e.as_array()
        if abs(cgm.sector_depth(sec, earr[1:]) - abs(earr[0])) < 1e-6:
            continue
        tested += 1
        pred = cgm.contains_direction(sec, e)
        oracle = cgm.cone_contains_point(sec, cgm._cone_samples(sec) + earr,
                                         margin=-1e-6).all()
        if pred != oracle:
            mismatches += 1
    trans_bad = 0
    for _ in range(50):
        a = rng.uniform(-math.pi, math.pi)
        sec1 = cgm.SpatialSector(a, a + 1.0)
        sec2 = cgm.SpatialSector(a, a + 1.0, mk.Vec3(*rng.uniform(-3.0, 3.0, 3)))
        e = cgm.SpacelikeDirection.from_angles(rng.uniform(a - 0.3, a + 1.3),
                                               rng.uniform(-1.0, 1.0))
        if cgm.contains_direction(sec1, e) != cgm.contains_direction(sec2, e):
            trans_bad += 1
    records.append(_record("cones", "direction-containment-oracle",
                           {"samples": 200, "margin": 1e-6},
                           {"mismatches": float(mismatches),
                            "translation_violations": float(trans_bad)}, 0.5))

    s1, s2 = p1.sector, p2.sector
    sal = cgm.difference_salient(s1, s2)
    neg = cgm.c12_negative_axis(s1, s2)
    same = cgm.SpatialSector(-0.3, 0.4)
    not_sal = not cgm.difference_salient(same, same)
    anti = cgm.difference_sector(cgm.SpatialSector(-0.1, 0.1),
                                 cgm.SpatialSector(math.pi - 0.1, math.pi + 0.1))
    ok = sal and neg and not_sal and anti is not None
    records.append(Record("cones", "difference-cone-salience",
                          {"configurations": 3}, {"violations": 0.0 if ok else 1.0}, ok))

    worst = 0.0
    count = 0
    base = cgm.single_cone_paths()[1]
    while count < 500:
        g1 = cg.PoincareElement(mk.Vec3(*rng.uniform(-1, 1, 3)),
                                cg.random_element(rng, disk_radius=0.3, windings=1.0))
        g2 = cg.PoincareElement(mk.Vec3(*rng.uniform(-1, 1, 3)),
                                cg.random_element(rng, disk_radius=0.3, windings=1.0))
        try:
            lhs = cgm.poincare_act_path(g1.compose(g2), base)
            rhs = cgm.poincare_act_path(g1, cgm.poincare_act_path(g2, base))
        except cgm.DegenerateImage:
            continue
        count += 1
        worst = max(worst, abs(lhs.accumulated_angle - rhs.accumulated_angle),
                    abs(lhs.sector.alpha - rhs.sector.alpha),
                    abs(lhs.sector.beta - rhs.sector.beta),
                    float(np.max(np.abs(lhs.sector.apex.as_array()
                                        - rhs.sector.apex.as_array()))))
    deck = cgm.poincare_act_path(
        cg.PoincareElement.pure_lorentz(cg.lift_rotation(2.0 * math.pi)), base)
    worst_deck = abs(deck.accumulated_angle - base.accumulated_angle - 2.0 * math.pi)
    wedge_ok = (cgm.in_wedge_class(cg.lift_rotation(math.pi / 2.0))
                and not cgm.in_wedge_class(cg.identity())
                and not cgm.in_wedge_class(cg.lift_rotation(math.pi / 2.0 + 2.0 * math.pi)))
    records.append(Record("cones", "path-action-equivariance",
                          {"samples": 500},
                          {"composition": worst, "deck_shift": worst_deck,
                           "wedge_class_violations": 0.0 if wedge_ok else 1.0},
                          bool(worst < 1e-9 and worst_deck < 1e-12 and wedge_ok)))
    return records


# ---------------------------------------------------------------------------
# pauli-lubanski suite
# ---------------------------------------------------------------------------

def pauli_lubanski_suite(config: SuiteConfig) -> list:
    records = []
    for m, s in ((1.0, 0.0), (1.0, 0.5), (1.7, 0.137)):
        cfg = repn.RepConfig(m, s, 1)
        psi = repn.WaveFunction.gaussian(cfg, center=(0.25, -0.15), width=1.0)
        pts = [mk.shell_point(a, b, m) for a, b in
               ((0.0, 0.0), (0.3, 0.1), (-0.2, 0.4), (0.5, -0.3), (0.1, 0.6), (0.45, 0.25))]
        r = repn.casimir_residual(psi, pts)
        records.append(_record("pauli-lubanski", "casimir-eigenvalue",
                               {"mass": m, "spin": s, "points": len(pts)},
                               {"relative": r}, 1e-6))
    return records


# ---------------------------------------------------------------------------
# spin-statistics suite
# ---------------------------------------------------------------------------

def spinstat_suite(config: SuiteConfig) -> list:
    records = []
    tol = config.tol_pipeline
    for m in config.masses:
        for n in config.multiplicities:
            for s in config.spins:
                inputs = {"spin": s, "mass": m, "n": n, "seed": config.seed,
                          "grid": config.grid}
                try:
                    rep = ss.run_pipeline(s, m, n, seed=config.seed,
                                          grid_size=config.grid)
                except Exception as e:
                    records.append(Record("spinstat", "statistics-phase-pipeline",
                                          _error_inputs(inputs, e), {}, False))
                    continue
                res = {"phase": rep.phase_error, "weak_phase": rep.weak_error,
                       **{k: rep.residuals[k] for k in (
                           "path_invariance", "d_constancy", "pi_rotation", "dual_route",
                           "boundary_closed", "transformation_law", "wigner_cancellation",
                           "kernel_morera", "ode_vs_engine")}}
                tols = {k: tol for k in res}
                tols["weak_phase"] = max(tol, 1e-7)
                tols["ode_vs_engine"] = 1e-6
                tols["wigner_cancellation"] = max(tol, 1e-11)
                min_eig = rep.residuals["dstar_d_min_eig"]
                ok = all(res[k] < tols[k] for k in res) and min_eig > 1e-6
                rec = Record("spinstat", "statistics-phase-pipeline",
                             {**inputs,
                              "omega_hat": [rep.omega_hat.real, rep.omega_hat.imag],
                              "dstar_d_min_eig": min_eig},
                             res, bool(ok))
                records.append(rec)
    return records


_SUITE_FUNCS = {
    "group": group_suite,
    "wigner": wigner_suite,
    "continuation": continuation_suite,
    "cones": cones_suite,
    "pauli-lubanski": pauli_lubanski_suite,
    "spinstat": spinstat_suite,
}


def run_suite(name: str, config: SuiteConfig) -> Report:
    """Run one suite (or 'all'); deterministic for a fixed seed and config.

    An exception that escapes a suite becomes one FAIL record for it, which
    names the exception; the other suites still run.
    """
    if name == "all":
        names = SUITE_NAMES
    elif name in _SUITE_FUNCS:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITE_NAMES + ('all',))}")
    report = Report(version="1", config=asdict(config))
    for n in names:
        t0 = time.perf_counter()
        try:
            recs = _SUITE_FUNCS[n](config)
        except Exception as e:
            recs = [Record(n, "suite-error", _error_inputs({}, e), {}, False)]
        dt = (time.perf_counter() - t0) * 1000.0 / max(1, len(recs))
        for r in recs:
            r.runtime_ms = dt
        report.records.extend(recs)
    return report
