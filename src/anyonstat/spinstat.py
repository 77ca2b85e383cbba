"""The single-particle spin-statistics pipeline on constructed matrix data.

A toy family realises, in closed form, exactly the hypotheses the abstract
argument consumes: two n x n matrix functions on the mass shell whose
boost-dressed versions extend analytically into the strip (after conjugate
transposition for the second one), together with conjugate-sector data built
from the boundary values at i*pi through an injected unitary matrix D and
the target statistics phase.

The verification content is never a tautology: every boundary value that
enters a pipeline identity is recomputed by the branch-tracked continuation
engine and compared against the independent closed forms, whole-product
continuations are compared against factor-wise ones, and the statistics
phase is recovered by least squares from the reflected two-point identity.
Closed forms take one momentum or a MomentumPoint stack; each check takes a
list of momenta, continues once for all of them, and returns an array per residual.

Construction of the families:

    Psi_1(p) = u_pihalf(p, s)  e^{i b1 . p} A1
    Psi_2(p) = conj(u_pihalf(p, -s) e^{i b2 . p}) A2

with Im b_i past directed and A_i fixed well-conditioned matrices.  The
boost-dressed prefactors are then exactly the quarter-rotation compensated
families of `holo`, with spin s for the first and -s for the conjugated
second, so analyticity in the strip holds with closed-form boundary values.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import conegeom as cgm
from . import covergroup as cg
from . import holo
from . import wigner as wg
from .minkowski import (J, MomentumPoint, boost1, minkowski_product, rotation,
                        to_momentum)


class HypothesisViolation(ValueError):
    """A group element left the neighbourhood where strip analyticity holds."""


class NonScalarMismatch(ArithmeticError):
    """No scalar multiple relates the two reflected two-point products."""


def _rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius distance of two matrices relative to their scale; two stacks
    (..., n, n) give one distance per pair of matrices."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    norm_a, norm_b, norm_diff = (np.linalg.norm(x, axis=(-2, -1)) for x in (a, b, a - b))
    return norm_diff / np.maximum(np.maximum(norm_a, norm_b), 1e-30)


def _times(scalar, matrix: np.ndarray) -> np.ndarray:
    """Scalars (...) times a matrix or a stack of them: shape (..., n, n)."""
    return np.asarray(scalar)[..., None, None] * matrix


def _haar_unitary(n: int, rng) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conditioned_matrix(n: int, rng) -> np.ndarray:
    u, v = _haar_unitary(n, rng), _haar_unitary(n, rng)
    d = rng.uniform(0.8, 1.25, size=n)
    return u @ np.diag(d) @ v


@dataclass(frozen=True)
class ToyModel:
    """Parameters of a constructed single-particle family."""

    s: float
    m: float
    n: int
    b1: np.ndarray
    b2: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    d: np.ndarray
    seed: int = 0

    @property
    def omega_target(self) -> complex:
        return cmath.exp(2j * math.pi * self.s)


class WaveMatrixFamily:
    """The four matrix families of one toy model, plus their engine routes.

    All matrices are scalar prefactors times constant matrices, so a momentum
    stack is one array of scalars and each continuation one batched walk;
    boundary pairs are memoized per momentum and fill() walks new ones at once.
    """

    def __init__(self, model: ToyModel):
        self.model = model
        self._d_inv = np.linalg.inv(model.d)
        self._cache: dict = {}

    # -- closed forms on the real shell ------------------------------------

    def psi1(self, p: MomentumPoint) -> np.ndarray:
        m = self.model
        return _times(wg.u_pihalf(p, m.s)
                      * np.exp(1j * minkowski_product(m.b1, p.as_array())), m.a1)

    def psi2(self, p: MomentumPoint) -> np.ndarray:
        m = self.model
        scalar = wg.u_pihalf(p, -m.s) * np.exp(1j * minkowski_product(m.b2, p.as_array()))
        return _times(np.conj(scalar), m.a2)

    def two_point(self, p: MomentumPoint) -> np.ndarray:
        """M(p) = Psi_2(p)^* Psi_1(p); the compensators cancel exactly."""
        m = self.model
        return _times(np.exp(1j * minkowski_product(m.b1 + m.b2, p.as_array())),
                      m.a2.conj().T @ m.a1)

    def hat_closed(self, p: MomentumPoint) -> np.ndarray:
        """Boundary value route of the first family, in closed form."""
        m = self.model
        q = to_momentum(p.as_array() @ rotation(-math.pi / 2.0).T, m.m)
        scalar = (cmath.exp(-1j * math.pi * m.s) * cmath.exp(0.5j * math.pi * m.s)
                  * wg.u_plain(q, m.s)
                  * np.exp(1j * minkowski_product(m.b1.conjugate(), p.as_array())))
        return _times(scalar, m.a1.conjugate())

    def check_closed(self, p: MomentumPoint) -> np.ndarray:
        """Boundary value route of the conjugated second family, closed form."""
        m = self.model
        q = to_momentum(-(p.as_array() @ J @ rotation(math.pi / 2.0).T), m.m)
        scalar = (cmath.exp(-1j * math.pi * m.s) * cmath.exp(0.5j * math.pi * m.s)
                  * wg.u_plain(q, -m.s)
                  * np.exp(-1j * minkowski_product(m.b2, p.as_array())))
        return _times(scalar, m.a2.conjugate())

    def psi1_conj(self, p: MomentumPoint) -> np.ndarray:
        return self._d_inv @ self.hat_closed(p)

    def psi2_conj(self, p: MomentumPoint) -> np.ndarray:
        return (cmath.exp(-2j * math.pi * self.model.s)
                * (self._d_inv @ self.check_closed(p)))

    # -- dressed prefactors for the continuation engine --------------------

    def pref1_expr(self, q) -> holo.PowerProduct:
        """Scalar prefactor of the dressed first family anchored at q (a
        momentum stack gives a batched family)."""
        m = self.model
        return (holo.compensated_family_expr(cg.identity(), q, m.s)
                * holo.exp_mink_dot(m.b1, np.eye(3), q.as_array()))

    def pref2bar_expr(self, q) -> holo.PowerProduct:
        """Scalar prefactor of the conjugated dressed second family."""
        m = self.model
        return (holo.compensated_family_expr(cg.identity(), q, -m.s)
                * holo.exp_mink_dot(m.b2, np.eye(3), q.as_array()))

    def pref2_pi_expr(self, q) -> holo.PowerProduct:
        """Scalar prefactor of the half-turn-rotated second family (a momentum
        stack gives a batched family).

        The half turn conjugates the boost subgroup into its inverse, so the
        family runs with reversed boost direction and the conjugate-symmetric
        compensator; the anchor is matched against the literal closed form.
        """
        m = self.model
        qp_arr = q.as_array() @ rotation(-math.pi).T
        qp = to_momentum(qp_arr, m.m)
        raw = (holo.boost_family_phase_raw(cg.identity(), qp, m.s, eps=-1.0)
               * holo.u_power_raw(np.eye(3), qp_arr, -m.s, m.m, "pihalf_bar", sign=1.0)
               * holo.exp_mink_dot(-m.b2.conjugate(), np.eye(3), qp_arr, sign=1.0)
               * cmath.exp(1j * math.pi * m.s))
        target = cmath.exp(1j * math.pi * m.s) * (
            wg.u_pihalf(qp, -m.s)
            * np.exp(1j * minkowski_product(m.b2, qp_arr))).conjugate()
        return holo.normalize_at(raw, 0.0, target)

    # -- engine boundary values --------------------------------------------

    def fill(self, ps) -> list:
        """Cache the boundary pairs of all new momenta in ps (a list or a
        stack), one batched walk per family; returns the memo keys of ps."""
        pa = holo.stack_momenta(ps)
        keys = list(zip(pa.p1.tolist(), pa.p2.tolist()))
        rows = {k: i for i, k in enumerate(keys) if k not in self._cache}
        if rows:
            idx = list(rows.values())
            qs = _reflected_anchor(MomentumPoint(pa.p1[idx], pa.p2[idx], self.model.m))
            path = holo.StripPath.vertical(0.0)
            v1 = holo.continue_robust(self.pref1_expr(qs), path)
            v2 = holo.continue_robust(self.pref2bar_expr(qs), path)
            self._cache.update(zip(rows, zip(v1.tolist(), v2.tolist())))
        return keys

    def boundary_pair(self, ps) -> tuple:
        """Engine-continued (hat Psi_1, check Psi_2) at the momenta ps (a list
        or a stack), as two stacks (len(ps), n, n); memoized per momentum."""
        v1, v2 = np.array([self._cache[k] for k in self.fill(ps)]).T
        return (_times(np.conj(v1), self.model.a1.conjugate()),
                _times(v2, self.model.a2.conjugate()))


def _reflected_anchor(p: MomentumPoint) -> MomentumPoint:
    """-J p, the positive-shell anchor of every boundary continuation."""
    return to_momentum(-(p.as_array() @ J), p.m)  # J is diagonal: p J = J p


def build_toy_model(s: float, m: float, n: int = 2, seed: int = 0,
                    injected_d: np.ndarray | None = None):
    """Construct a toy model and its family.

    The default D is Haar unitary, which is the only consistent choice for
    the full pipeline; an arbitrary invertible D may be injected to exercise
    the proportionality-extraction round trip on its own.
    """
    if m <= 0.0:
        raise ValueError("mass must be strictly positive")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD07)))
    b1 = rng.uniform(-0.3, 0.3, 3) + 1j * np.array([-1.0, -0.3, 0.0])
    b2 = rng.uniform(-0.3, 0.3, 3) + 1j * np.array([-0.85, 0.2, -0.1])
    a1 = _conditioned_matrix(n, rng)
    a2 = _conditioned_matrix(n, rng)
    d = np.asarray(injected_d, dtype=complex) if injected_d is not None \
        else _haar_unitary(n, rng)
    model = ToyModel(float(s), float(m), int(n), b1, b2, a1, a2, d, seed)
    return model, WaveMatrixFamily(model)


def momentum_grid(m: float, size: int = 5, boosted: int = 2) -> list:
    """Deterministic shell grid; p1 stays away from 0 so the straight
    vertical continuation paths keep clear of power-base zeros."""
    pts = [MomentumPoint(p1, p2, m)
           for p1 in np.linspace(0.15, 0.75, size)
           for p2 in np.linspace(-0.6, 0.6, size)]
    for k in range(boosted):
        src = pts[(k * 7) % len(pts)]
        pts.append(to_momentum(boost1(0.4 + 0.2 * k) @ src.as_array(), m))
    return pts


def dressed_family(family: WaveMatrixFamily, i: int, t, p: MomentumPoint) -> np.ndarray:
    """The boost-dressed matrix family at parameter t.

    For real t this is e^{i s Omega(boost(t), p)} Psi_i(boost1(-t) p).  For
    complex t in the strip the analytic object is the first family itself
    and the conjugate transpose of the second; the returned matrix is that
    analytic continuation (so i=2 yields the continued Psi_2(t; p)^*).
    """
    mdl = family.model
    if abs(complex(t).imag) < 1e-14:
        tr = complex(t).real
        q = to_momentum(boost1(-tr) @ p.as_array(), mdl.m)
        phase = cmath.exp(1j * mdl.s * wg.wigner_angle(cg.lift_boost1(tr), p))
        return phase * (family.psi1(q) if i == 1 else family.psi2(q))
    path = [0.0, complex(t)]
    if i == 1:
        return holo.continue_robust(family.pref1_expr(p), path) * mdl.a1
    if i == 2:
        return holo.continue_robust(family.pref2bar_expr(p), path) * mdl.a2.conj().T
    raise ValueError("family index must be 1 or 2")


@dataclass
class TwoPointKernel:
    """M(p) = Psi_2(p)^* Psi_1(p) together with its strip realisation."""

    family: WaveMatrixFamily

    def scalar_expr(self, q: MomentumPoint) -> holo.PowerProduct:
        return self.family.pref2bar_expr(q) * self.family.pref1_expr(q)

    def matrix_const(self) -> np.ndarray:
        m = self.family.model
        return m.a2.conj().T @ m.a1

    def morera(self, q: MomentumPoint, rect: holo.StripPath | None = None) -> float:
        if rect is None:
            rect = holo.StripPath.rectangle(-0.4, 0.4, 0.15, math.pi - 0.15)
        return holo.morera_residual(self.scalar_expr(q), rect)


def two_point_boundary_check(family: WaveMatrixFamily, ps: list) -> dict:
    """Boundary identity of the two-point kernel at -p, three ways.

    Returns the relative residuals between the whole-product continuation,
    the factor-wise (hat/check) route, and the closed conjugate-family form,
    plus the no-transpose control which must fail for generic data, each as
    an array with one row per momentum of ps.
    """
    pa = holo.stack_momenta(ps)
    hat_v, check_v = family.boundary_pair(pa)
    kernel = TwoPointKernel(family)
    whole = _times(holo.continue_robust(kernel.scalar_expr(_reflected_anchor(pa)),
                                        holo.StripPath.vertical(0.0)),
                   kernel.matrix_const())
    wrong = family.model.omega_target * (family.psi1_conj(pa).conj().swapaxes(-1, -2)
                                         @ family.psi2_conj(pa))
    return {"whole_vs_closed": _rel(whole, wrong.swapaxes(-1, -2)),
            "whole_vs_factor": _rel(whole, check_v.swapaxes(-1, -2) @ hat_v.conj()),
            "transpose_control": _rel(whole, wrong)}


def verify_transformation_law(g: cg.CoverElement, ps: list, family: WaveMatrixFamily) -> dict:
    """Both sides of the reflected covariance law, by independent continuations.

    The left side dresses the transformed family, the right side transforms
    the dressed one; the compensated first factors are continued separately
    and compared against their closed-form boundary values as well.  g is one
    element or one per momentum of ps; each residual has a row per momentum.
    """
    mdl = family.model
    pa = holo.stack_momenta(ps)
    p_arr = pa.as_array()
    g = cg.CoverElement(*(np.broadcast_to(x, pa.p1.shape) for x in (g.gamma, g.omega)))
    gg0 = cg.compose(g, cg.lift_rotation(math.pi / 2.0))
    for i in range(len(p_arr)):
        if not cgm.in_wedge_class(gg0[i]):
            raise HypothesisViolation(
                f"element {i} leaves the strip-analyticity neighbourhood")

    lp_j = cg.act_on_vector(cg.inverse(g), p_arr) @ J  # J is diagonal: x J = J x

    lhs_f1 = holo.compensated_family_expr(g, _reflected_anchor(pa), mdl.s)
    lhs = lhs_f1 * holo.exp_mink_dot(mdl.b1, -cg.project(cg.inverse(g)), p_arr @ J)
    rhs_f1 = (holo.compensated_family_expr(cg.identity(), to_momentum(-lp_j, mdl.m), mdl.s)
              * np.exp(-1j * mdl.s * wg.wigner_angle(g, pa)))
    rhs = rhs_f1 * holo.exp_mink_dot(mdl.b1, -np.eye(3), lp_j)

    side_l, side_r, f1_l, f1_r = (holo.continue_robust(f, holo.StripPath.vertical(0.0))
                                  for f in (lhs, rhs, lhs_f1, rhs_f1))

    bv_vec = to_momentum(-(cg.act_on_vector(cg.inverse(gg0), p_arr) @ J), mdl.m)
    bv = (cmath.exp(1j * math.pi * mdl.s)
          * np.exp(-1j * mdl.s * wg.wigner_angle(gg0, pa))
          * wg.u_plain(bv_vec, mdl.s))
    return {"sides": _rel(_times(side_l, mdl.a1), _times(side_r, mdl.a1)),
            "factor_lhs_vs_closed": np.abs(f1_l - bv) / np.maximum(1.0, np.abs(bv)),
            "factor_rhs_vs_closed": np.abs(f1_r - bv) / np.maximum(1.0, np.abs(bv))}


def extract_D(family: WaveMatrixFamily, grid: list) -> tuple:
    """Recover the proportionality matrix between the engine boundary route
    and the conjugate family, and its constancy defect over the grid."""
    pa = holo.stack_momenta(grid)
    hat_v, _ = family.boundary_pair(pa)
    c1 = family.psi1_conj(pa)
    # conditioning, not det: det scales like e^{-2 p0} with the mass
    if not np.all(np.linalg.cond(c1) < 1e12):
        raise np.linalg.LinAlgError("conjugate family is singular on the grid")
    ds = hat_v @ np.linalg.inv(c1)
    mean = np.mean(ds, axis=0)
    if not np.linalg.cond(mean) < 1e12:
        raise np.linalg.LinAlgError("extracted proportionality matrix is singular")
    return mean, float(np.max(_rel(ds, mean)))


def rotation_pi_relation(family: WaveMatrixFamily, ps: list) -> dict:
    """The half-turn relations linking the two boundary routes.

    Checks that (i) the boundary route of the half-turn-rotated second family
    equals a phase times the conjugated route at the rotated momentum,
    (ii) the conjugated route reproduces the conjugate family through D and
    the squared phase, and (iii) the rotating phase on the conjugate side is
    the expected half-turn value.  Each residual has a row per momentum of
    ps; the cone hypotheses do not depend on the momentum and are checked
    once per call.
    """
    mdl = family.model
    path1, path2 = cgm.antipodal_pair()
    rot_path = cgm.poincare_act_path(
        cg.PoincareElement.pure_lorentz(cg.lift_rotation(math.pi)), path2)
    if not cgm.exchange_hypothesis(path1, path2):
        raise HypothesisViolation("cone pair violates the exchange condition")
    if not cgm.path_equivalent(rot_path, path1, path1.sector):
        raise HypothesisViolation("half-turn image is not the first cone path")

    pa = holo.stack_momenta(ps)
    p_arr = pa.as_array()
    # the momenta and their half turns, read in one boundary_pair call
    both = np.concatenate([p_arr, p_arr @ rotation(math.pi).T])
    _, checks = family.boundary_pair(to_momentum(both, mdl.m))
    check_v, check_rot = np.split(checks, 2)
    v_pi = holo.continue_robust(family.pref2_pi_expr(_reflected_anchor(pa)),
                                holo.StripPath.vertical(0.0))
    turns = wg.wigner_angle(cg.lift_rotation(math.pi), pa)
    hat_pi = _times(np.conj(v_pi), mdl.a2.conjugate())
    rhs1 = cmath.exp(-1j * math.pi * mdl.s) * check_rot
    rhs2 = cmath.exp(2j * math.pi * mdl.s) * (mdl.d @ family.psi2_conj(pa))
    back = family.psi2_conj(to_momentum(p_arr @ rotation(-math.pi).T, mdl.m))
    return {"half_turn_boundary": _rel(hat_pi, rhs1),
            "check_vs_conjugate": _rel(check_v, rhs2),
            "conjugate_side_phase": _rel(_times(np.exp(1j * mdl.s * turns), back),
                                         cmath.exp(1j * math.pi * mdl.s) * back)}


def extract_statistics_phase(family: WaveMatrixFamily, grid: list,
                             mismatch_tol: float = 1e-6) -> tuple:
    """Least-squares scalar relating hat^* check to the conjugate product, and its mismatch.

    Solves for the single complex number multiplying Psi_1^c* Psi_2^c in the
    reflected two-point identity; the injected construction makes that
    number the statistics phase.  A residual above mismatch_tol means no
    scalar works, which signals an inconsistent pipeline.
    """
    pa = holo.stack_momenta(grid)
    hat_v, check_v = family.boundary_pair(pa)
    lhs = hat_v.conj().swapaxes(-1, -2) @ check_v
    rhs = family.psi1_conj(pa).conj().swapaxes(-1, -2) @ family.psi2_conj(pa)
    omega_hat = complex(np.vdot(rhs, lhs)) / float(np.vdot(rhs, rhs).real)
    mismatch = float(np.max(_rel(lhs, omega_hat * rhs)))
    if mismatch > mismatch_tol:
        raise NonScalarMismatch(
            f"no scalar reduces the reflected identity below {mismatch_tol}"
            f" (best {mismatch:.3e})")
    return omega_hat, mismatch


def wigner_cancellation(family: WaveMatrixFamily, p: MomentumPoint,
                        t: float = 0.37) -> float:
    """Dressed product vs transported kernel at real boost parameter."""
    prod = dressed_family(family, 2, t, p).conj().T @ dressed_family(family, 1, t, p)
    direct = family.two_point(to_momentum(boost1(-t) @ p.as_array(), family.model.m))
    return _rel(prod, direct)


def _ode_family(family: WaveMatrixFamily, p: MomentumPoint) -> holo.OdeFamily:
    """The shifted-product data h_{t0}(t) = Psi_2(t;p)^* Psi_1(t+t0;p).

    Writing q = boost1(-t) p, the product equals a fixed-element Wigner phase
    at the continued momentum times shell compensators and exponentials, one
    power product whose rows are the offsets t0, built once per tuple of them.
    """
    mdl = family.model
    eye = np.eye(3)
    p_arr = p.as_array()
    q0 = to_momentum(p_arr, mdl.m)

    @functools.cache
    def build(t0s: tuple) -> holo.PowerProduct:
        g0 = cg.lift_boost1(np.array(t0s))
        lam0_inv = cg.project(cg.inverse(g0))
        expr = (holo.fixed_element_phase_raw(g0, eye, p_arr, mdl.s, mdl.m)
                * holo.u_power_raw(eye, p_arr, -mdl.s, mdl.m, "pihalf")
                * holo.u_power_raw(lam0_inv, p_arr, mdl.s, mdl.m, "pihalf")
                * holo.exp_mink_dot(mdl.b2, eye, p_arr)
                * holo.exp_mink_dot(mdl.b1, lam0_inv, p_arr))
        target = (np.exp(1j * mdl.s * wg.wigner_angle(g0, q0))
                  * wg.u_pihalf(q0, -mdl.s) * wg.u_pihalf(wg.transport(g0, q0), mdl.s)
                  * cmath.exp(1j * minkowski_product(mdl.b2, p_arr))
                  * np.exp(1j * minkowski_product(mdl.b1, lam0_inv @ p_arr)))
        return holo.normalize_at(expr, 0.0, target)

    def h_batch(t0s, zs):
        return (holo.evaluate_along(build(tuple(t0s)), zs)[..., None, None]
                * (mdl.a2.conj().T @ mdl.a1))

    return holo.OdeFamily(h_batch, lambda t: dressed_family(family, 1, float(t), p))


def ode_vs_engine(family: WaveMatrixFamily, p: MomentumPoint,
                  height: float = math.pi / 2.0) -> float:
    """Relative deviation between the ODE route and the direct engine route
    for the dressed first family at an interior strip point."""
    fam = _ode_family(family, p)
    path = holo.StripPath.vertical(0.0, height=height)
    via_ode = holo.ode_continue(fam, path)
    direct = dressed_family(family, 1, 1j * height, p)
    return _rel(via_ode, direct)


@dataclass
class PipelineReport:
    """Residuals of one full pipeline run, consumed by the CLI suites."""

    s: float
    m: float
    n: int
    seed: int
    omega_target: complex
    omega_hat: complex
    residuals: dict = field(default_factory=dict)

    @property
    def phase_error(self) -> float:
        return abs(self.omega_hat - self.omega_target)

    @property
    def weak_error(self) -> float:
        return abs(self.omega_hat ** 2 - self.omega_target ** 2)


def run_pipeline(s: float, m: float = 1.0, n: int = 2, seed: int = 0,
                 grid_size: int = 5) -> PipelineReport:
    """Build a toy family and run every verification stage on it."""
    model, family = build_toy_model(s, m, n, seed)
    grid = momentum_grid(m, grid_size)

    if not cgm.c12_negative_axis(*(p.sector for p in cgm.antipodal_pair())):
        raise HypothesisViolation("cone configuration lost the dual-axis property")

    sub = grid[:: max(1, len(grid) // 4)][:4]
    # the grid, and the half-turned momenta that rotation_pi_relation reads
    turned = holo.stack_momenta(sub).as_array() @ rotation(math.pi).T
    family.fill(to_momentum(np.concatenate([holo.stack_momenta(grid).as_array(), turned]), m))
    dmat, d_res = extract_D(family, grid)
    dstar_d = dmat.conj().T @ dmat
    min_eig = float(np.min(np.linalg.eigvalsh((dstar_d + dstar_d.conj().T) / 2.0)))
    omega_hat, mismatch = extract_statistics_phase(family, grid)

    tp = two_point_boundary_check(family, sub)
    rot = rotation_pi_relation(family, sub)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x71)))
    # two elements for each of the first two momenta, drawn in that order
    draws = np.array([(rng.uniform(-0.2, 0.2), rng.uniform(0, 2 * math.pi),
                       rng.uniform(0.0, 0.25)) for _ in range(4)])
    g = cg.compose(cg.lift_rotation(draws[:, 0]), cg.lift_boost(draws[:, 1], draws[:, 2]))
    tl = verify_transformation_law(g, [p for p in sub[:2] for _ in range(2)], family)

    # spot check: the same boundary value along two path shapes
    spot_expr = family.pref1_expr(_reflected_anchor(grid[0]))
    spot = abs(holo.continue_robust(spot_expr, [0.0, 1j * math.pi])
               - holo.continue_robust(spot_expr, [0.0, 0.4, 0.4 + 0.6j * math.pi,
                                                  1j * math.pi]))

    residuals = {
        "d_constancy": d_res,
        "path_invariance": spot,
        "phase_mismatch": mismatch,
        "boundary_closed": float(np.max(tp["whole_vs_closed"])),
        "dual_route": float(np.max(tp["whole_vs_factor"])),
        "pi_rotation": float(np.max([*rot.values()])),
        "transformation_law": float(np.max([*tl.values()])),
        "wigner_cancellation": wigner_cancellation(family, grid[3]),
        "kernel_morera": TwoPointKernel(family).morera(_reflected_anchor(grid[2])),
        "ode_vs_engine": ode_vs_engine(family, grid[1]),
        "dstar_d_min_eig": min_eig,
    }
    return PipelineReport(s, m, n, seed, model.omega_target, omega_hat, residuals)
