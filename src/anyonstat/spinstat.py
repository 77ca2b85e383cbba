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
phase is recovered by least squares from the reflected two-point identity
and then checked against the half-turn phase of the continued families.
Closed forms take one momentum or a MomentumPoint stack; each check takes a
1-D stack of momenta, continues once for all of them, and returns an array per
residual.

Construction of the families:

    Psi_1(p) = u_pihalf(p, s)  e^{i b1 . p} A1
    Psi_2(p) = conj(u_pihalf(p, -s) e^{i b2 . p}) A2

with Im b_i past directed and A_i fixed well-conditioned matrices.  The
boost-dressed prefactors are then exactly the quarter-rotation compensated
families of `holo`, with spin s for the first and -s for the conjugated
second, so analyticity in the strip holds with closed-form boundary values.

One WaveMatrixFamily holds a family's parameters, closed forms, engine routes
and boundary-value memo; build_toy_model draws one, dataclasses.replace its D.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

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


@dataclass(eq=False)
class WaveMatrixFamily:
    """One constructed single-particle family: its parameters, the four matrix
    families in closed form, and their engine routes.

    All matrices are scalar prefactors times constant matrices, so a momentum
    stack is one array of scalars and each continuation one batched walk;
    boundary values are memoized per momentum, and fill() walks both
    prefactors of all new momenta as one family, in one walk.
    """

    s: float
    m: float
    n: int
    b1: np.ndarray
    b2: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self._d_inv = np.linalg.inv(self.d)
        self._cache: dict = {}

    @property
    def omega_target(self) -> complex:
        return cmath.exp(2j * math.pi * self.s)

    # -- closed forms on the real shell ------------------------------------

    def psi1(self, p: MomentumPoint) -> np.ndarray:
        return _times(wg.u_pihalf(p, self.s)
                      * np.exp(1j * minkowski_product(self.b1, p.as_array())), self.a1)

    def psi2(self, p: MomentumPoint) -> np.ndarray:
        scalar = wg.u_pihalf(p, -self.s) * np.exp(1j * minkowski_product(self.b2, p.as_array()))
        return _times(np.conj(scalar), self.a2)

    def two_point(self, p: MomentumPoint) -> np.ndarray:
        """M(p) = Psi_2(p)^* Psi_1(p); the compensators cancel exactly."""
        return _times(np.exp(1j * minkowski_product(self.b1 + self.b2, p.as_array())),
                      self.a2.conj().T @ self.a1)

    def hat_closed(self, p: MomentumPoint) -> np.ndarray:
        """Boundary value route of the first family, in closed form."""
        q = to_momentum(p.as_array() @ rotation(-math.pi / 2.0).T, self.m)
        scalar = (cmath.exp(-1j * math.pi * self.s) * cmath.exp(0.5j * math.pi * self.s)
                  * wg.u_plain(q, self.s)
                  * np.exp(1j * minkowski_product(self.b1.conjugate(), p.as_array())))
        return _times(scalar, self.a1.conjugate())

    def check_closed(self, p: MomentumPoint) -> np.ndarray:
        """Boundary value route of the conjugated second family, closed form."""
        q = to_momentum(-(p.as_array() @ J @ rotation(math.pi / 2.0).T), self.m)
        scalar = (cmath.exp(-1j * math.pi * self.s) * cmath.exp(0.5j * math.pi * self.s)
                  * wg.u_plain(q, -self.s)
                  * np.exp(-1j * minkowski_product(self.b2, p.as_array())))
        return _times(scalar, self.a2.conjugate())

    def psi1_conj(self, p: MomentumPoint) -> np.ndarray:
        return self._d_inv @ self.hat_closed(p)

    def psi2_conj(self, p: MomentumPoint) -> np.ndarray:
        return cmath.exp(-2j * math.pi * self.s) * (self._d_inv @ self.check_closed(p))

    # -- dressed prefactors for the continuation engine --------------------

    def _pref_expr(self, q, s, b) -> holo.PowerProduct:
        """u_pihalf-compensated factor of spin s times exp(i b . k(z)), anchored
        at the momenta q; s and b may hold one value per momentum of a stack."""
        return (holo.compensated_family_expr(cg.identity(), q, s)
                * holo.exp_mink_dot(b, np.eye(3), q.as_array()))

    def pref1_expr(self, q) -> holo.PowerProduct:
        """Scalar prefactor of the dressed first family anchored at q (a
        momentum stack gives a batched family)."""
        return self._pref_expr(q, self.s, self.b1)

    def pref2bar_expr(self, q) -> holo.PowerProduct:
        """Scalar prefactor of the conjugated dressed second family."""
        return self._pref_expr(q, -self.s, self.b2)

    def pref2_pi_expr(self, q) -> holo.PowerProduct:
        """Scalar prefactor of the half-turn-rotated second family (a momentum
        stack gives a batched family).

        The half turn conjugates the x1-boosts into their inverses: on the
        rotated anchor R(-pi) q the family walks boost1(z) R(-pi) q = R(pi)
        boost1(-z) q, so it is built at q with R(pi) = diag(1, -1, -1) as
        its pre, like every other family.  Its conjugated compensator is
        u_pihalf with k1 flipped, whose pre is then diag(1, 1, -1), and its
        Wigner phase is Omega(boost(z), q).  The anchor is matched against
        the literal closed form at R(-pi) q.
        """
        qa = q.as_array()
        raw = (holo.boost_family_phase_raw(cg.identity(), q, self.s)
               * holo.u_power_raw(np.diag([1.0, 1.0, -1.0]), qa, -self.s, self.m)
               * holo.exp_mink_dot(-self.b2.conjugate(), np.diag([1.0, -1.0, -1.0]), qa))
        qp_arr = qa @ rotation(-math.pi).T
        target = cmath.exp(1j * math.pi * self.s) * (
            wg.u_pihalf(to_momentum(qp_arr, self.m), -self.s)
            * np.exp(1j * minkowski_product(self.b2, qp_arr))).conjugate()
        return holo.normalize_at(raw, target)

    # -- engine boundary values --------------------------------------------

    def fill(self, ps: MomentumPoint) -> np.ndarray:
        """The boundary scalars (v1, v2) of the 1-D stack ps, one array (2,
        len(ps.p1)), memoized per momentum.  The first and the conjugated second
        prefactor of the new momenta are the two halves of one family, spin s
        with b1 and spin -s with b2 at the same anchors, continued in one walk
        along StripPath.vertical(0.0)."""
        keys = list(zip(ps.p1.tolist(), ps.p2.tolist()))
        rows = {k: i for i, k in enumerate(keys) if k not in self._cache}
        if rows:
            new = len(rows)
            qs = _reflected_anchor(ps[list(rows.values()) * 2])
            pair = self._pref_expr(qs, np.repeat([self.s, -self.s], new),
                                   np.repeat([self.b1, self.b2], new, axis=0))
            v1, v2 = np.split(holo.continue_along(pair, holo.StripPath.vertical(0.0)), 2)
            self._cache.update(zip(rows, zip(v1.tolist(), v2.tolist())))
        return np.array([self._cache[k] for k in keys]).T

    def boundary_pair(self, ps: MomentumPoint) -> tuple:
        """Engine-continued (hat Psi_1, check Psi_2) at the momenta of the 1-D
        stack ps, as two stacks (len(ps.p1), n, n); memoized per momentum."""
        v1, v2 = self.fill(ps)
        return _times(np.conj(v1), self.a1.conjugate()), _times(v2, self.a2.conjugate())


def _reflected_anchor(p: MomentumPoint) -> MomentumPoint:
    """-J p, the positive-shell anchor of every boundary continuation."""
    return to_momentum(-(p.as_array() @ J), p.m)  # J is diagonal: p J = J p


def build_toy_model(s: float, m: float, n: int = 2, seed: int = 0) -> WaveMatrixFamily:
    """Draw a toy family.  D is Haar unitary, the only consistent choice for
    the full pipeline; it is drawn last, so dataclasses.replace(family, d=D)
    is the same family with any invertible D (the extract_D round trip)."""
    if m <= 0.0:
        raise ValueError("mass must be strictly positive")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD07)))
    b1 = rng.uniform(-0.3, 0.3, 3) + 1j * np.array([-1.0, -0.3, 0.0])
    b2 = rng.uniform(-0.3, 0.3, 3) + 1j * np.array([-0.85, 0.2, -0.1])
    a1 = _conditioned_matrix(n, rng)
    a2 = _conditioned_matrix(n, rng)
    return WaveMatrixFamily(float(s), float(m), int(n), b1, b2, a1, a2, _haar_unitary(n, rng))


def momentum_grid(m: float, size: int = 5) -> MomentumPoint:
    """Deterministic shell grid plus two boosted points, as one 1-D stack.
    Keeping |p1| >= 0.15 is what keeps the default vertical continuation
    paths clear of power-base zeros: a base zero on a path raises
    PowerBaseVanishes, and its spin's record ends as a FAIL."""
    p1, p2 = np.meshgrid(np.linspace(0.15, 0.75, size), np.linspace(-0.6, 0.6, size),
                         indexing="ij")
    square = MomentumPoint(p1.ravel(), p2.ravel(), m).as_array()
    # 0.4 + 0.2 * k, not [0.4, 0.6]: the two differ by one ulp at k = 1
    boosted = boost1(0.4 + 0.2 * np.arange(2)) @ square[[0, 7 % (size * size + 1)], :, None]
    return to_momentum(np.concatenate([square, boosted[..., 0]]), m)


def dressed_family(family: WaveMatrixFamily, i: int, t, p: MomentumPoint) -> np.ndarray:
    """The boost-dressed matrix family at parameter t.

    For real t this is e^{i s Omega(boost(t), p)} Psi_i(boost1(-t) p).  For
    complex t in the strip the analytic object is the first family itself
    and the conjugate transpose of the second; the returned matrix is that
    analytic continuation (so i=2 yields the continued Psi_2(t; p)^*).
    """
    if abs(complex(t).imag) < 1e-14:
        tr = complex(t).real
        q = to_momentum(boost1(-tr) @ p.as_array(), family.m)
        phase = cmath.exp(1j * family.s * wg.wigner_angle(cg.lift_boost1(tr), p))
        return phase * (family.psi1(q) if i == 1 else family.psi2(q))
    path = [0.0, complex(t)]
    if i == 1:
        return holo.continue_along(family.pref1_expr(p), path) * family.a1
    if i == 2:
        return holo.continue_along(family.pref2bar_expr(p), path) * family.a2.conj().T
    raise ValueError("family index must be 1 or 2")


def two_point_boundary_check(family: WaveMatrixFamily, ps: MomentumPoint) -> dict:
    """Boundary identity of the two-point kernel at -p, three ways.

    Returns the relative residuals between the whole-product continuation,
    the factor-wise (hat/check) route, and the closed conjugate-family form,
    plus the no-transpose control which must fail for generic data, each as
    an array with one row per momentum of ps.
    """
    hat_v, check_v = family.boundary_pair(ps)
    q = _reflected_anchor(ps)
    # the kernel M = Psi_2^* Psi_1: one scalar power product times a2^H a1
    whole = _times(holo.continue_along(family.pref2bar_expr(q) * family.pref1_expr(q),
                                       holo.StripPath.vertical(0.0)),
                   family.a2.conj().T @ family.a1)
    wrong = family.omega_target * (family.psi1_conj(ps).conj().swapaxes(-1, -2)
                                   @ family.psi2_conj(ps))
    return {"whole_vs_closed": _rel(whole, wrong.swapaxes(-1, -2)),
            "whole_vs_factor": _rel(whole, check_v.swapaxes(-1, -2) @ hat_v.conj()),
            "transpose_control": _rel(whole, wrong)}


def verify_transformation_law(g: cg.CoverElement, ps: MomentumPoint,
                              family: WaveMatrixFamily) -> dict:
    """Both sides of the reflected covariance law, by independent continuations.

    The left side dresses the transformed family, the right side transforms
    the dressed one.  Their compensated first factors are the two halves of
    one family, continued in one walk and compared against their closed-form
    boundary values as well; each side is its continued first factor times
    its entire exponential factor exp(i b1 . k) read at i pi.  g is one
    element or one per momentum of ps; each residual has a row per momentum.
    """
    p_arr = ps.as_array()
    g = cg.CoverElement(*(np.broadcast_to(x, ps.p1.shape) for x in (g.gamma, g.omega)))
    gg0 = cg.compose(g, cg.lift_rotation(math.pi / 2.0))
    outside = np.flatnonzero(~cgm.in_wedge_class(gg0))
    if outside.size:
        raise HypothesisViolation(
            f"element {outside[0]} leaves the strip-analyticity neighbourhood")

    lp_j = cg.act_on_vector(cg.inverse(g), p_arr) @ J  # J is diagonal: x J = J x

    # the left side's rows (element g at -J p), then the right side's (the
    # identity at -J Lambda^-1 p): one family, one walk
    rows = len(ps.p1)
    anchors = np.concatenate([p_arr @ J, lp_j])
    both = cg.CoverElement(np.concatenate([g.gamma, np.zeros(rows)]),
                           np.concatenate([g.omega, np.zeros(rows)]))
    f1 = (holo.compensated_family_expr(both, to_momentum(-anchors, family.m), family.s)
          * np.concatenate([np.ones(rows), np.exp(-1j * family.s * wg.wigner_angle(g, ps))]))
    f1_l, f1_r = np.split(holo.continue_along(f1, holo.StripPath.vertical(0.0)), 2)
    # the exponential factors are entire, with no base to track: read at i pi
    pre = np.concatenate([cg.project(cg.inverse(g)), np.broadcast_to(np.eye(3), (rows, 3, 3))])
    expo = holo.exp_mink_dot(family.b1, -pre, anchors)
    e_l, e_r = np.split(holo.eval_principal(expo, [1j * math.pi])[:, 0], 2)
    side_l, side_r = f1_l * e_l, f1_r * e_r

    bv_vec = to_momentum(-(cg.act_on_vector(cg.inverse(gg0), p_arr) @ J), family.m)
    bv = (cmath.exp(1j * math.pi * family.s)
          * np.exp(-1j * family.s * wg.wigner_angle(gg0, ps))
          * wg.u_plain(bv_vec, family.s))
    return {"sides": _rel(_times(side_l, family.a1), _times(side_r, family.a1)),
            "factor_lhs_vs_closed": np.abs(f1_l - bv) / np.maximum(1.0, np.abs(bv)),
            "factor_rhs_vs_closed": np.abs(f1_r - bv) / np.maximum(1.0, np.abs(bv))}


def extract_D(family: WaveMatrixFamily, grid: MomentumPoint) -> tuple:
    """Recover the proportionality matrix between the engine boundary route
    and the conjugate family, and its constancy defect over the grid."""
    hat_v, _ = family.boundary_pair(grid)
    c1 = family.psi1_conj(grid)
    # conditioning, not det: det scales like e^{-2 p0} with the mass
    if not np.all(np.linalg.cond(c1) < holo._COND_MAX):
        raise np.linalg.LinAlgError("conjugate family is singular on the grid")
    ds = hat_v @ np.linalg.inv(c1)
    mean = np.mean(ds, axis=0)
    if not np.linalg.cond(mean) < holo._COND_MAX:
        raise np.linalg.LinAlgError("extracted proportionality matrix is singular")
    return mean, float(np.max(_rel(ds, mean)))


def rotation_pi_relation(family: WaveMatrixFamily, ps: MomentumPoint, omega: complex) -> dict:
    """The half-turn relations linking the two boundary routes.

    Checks that (i) the boundary route of the half-turn-rotated second family
    equals a phase times the conjugated route at the rotated momentum,
    (ii) the conjugated route reproduces the conjugate family through D and
    the squared phase, (iii) the rotating phase on the conjugate side is
    the expected half-turn value, and (iv) the statistics phase omega is c^-2,
    with c the phase of (i) fitted per momentum from the continued families
    alone.  Each residual has a row per momentum of ps; the cone hypotheses
    do not depend on the momentum and are checked once per call.
    """
    path1, path2 = cgm.antipodal_pair()
    rot_path = cgm.poincare_act_path(
        cg.PoincareElement.pure_lorentz(cg.lift_rotation(math.pi)), path2)
    if not cgm.exchange_hypothesis(path1, path2):
        raise HypothesisViolation("cone pair violates the exchange condition")
    if not cgm.path_equivalent(rot_path, path1, path1.sector):
        raise HypothesisViolation("half-turn image is not the first cone path")

    p_arr = ps.as_array()
    # the momenta and their half turns, read in one boundary_pair call
    both = np.concatenate([p_arr, p_arr @ rotation(math.pi).T])
    _, checks = family.boundary_pair(to_momentum(both, family.m))
    check_v, check_rot = np.split(checks, 2)
    v_pi = holo.continue_along(family.pref2_pi_expr(_reflected_anchor(ps)),
                               holo.StripPath.vertical(0.0))
    turns = wg.wigner_angle(cg.lift_rotation(math.pi), ps)
    hat_pi = _times(np.conj(v_pi), family.a2.conjugate())
    rhs1 = cmath.exp(-1j * math.pi * family.s) * check_rot
    rhs2 = family.omega_target * (family.d @ family.psi2_conj(ps))
    back = family.psi2_conj(to_momentum(p_arr @ rotation(-math.pi).T, family.m))
    c = (check_rot.conj() * hat_pi).sum((-2, -1)) / (abs(check_rot) ** 2).sum((-2, -1))
    return {"half_turn_boundary": _rel(hat_pi, rhs1),
            "half_turn_phase": np.abs(omega - c ** -2.0),
            "check_vs_conjugate": _rel(check_v, rhs2),
            "conjugate_side_phase": _rel(_times(np.exp(1j * family.s * turns), back),
                                         cmath.exp(1j * math.pi * family.s) * back)}


def extract_statistics_phase(family: WaveMatrixFamily, grid: MomentumPoint) -> tuple:
    """Least-squares scalar relating hat^* check to the conjugate product, and its mismatch.

    Solves for the single complex number multiplying Psi_1^c* Psi_2^c in the
    reflected two-point identity; the injected construction makes that
    number the statistics phase.  A residual above 1e-6 means no
    scalar works, which signals an inconsistent pipeline.
    """
    hat_v, check_v = family.boundary_pair(grid)
    lhs = hat_v.conj().swapaxes(-1, -2) @ check_v
    rhs = family.psi1_conj(grid).conj().swapaxes(-1, -2) @ family.psi2_conj(grid)
    omega_hat = complex(np.vdot(rhs, lhs)) / float(np.vdot(rhs, rhs).real)
    mismatch = float(np.max(_rel(lhs, omega_hat * rhs)))
    if mismatch > 1e-6:
        raise NonScalarMismatch("no scalar reduces the reflected identity below 1e-06"
                                f" (best {mismatch:.3e})")
    return omega_hat, mismatch


def wigner_cancellation(family: WaveMatrixFamily, p: MomentumPoint, t: float = 0.37) -> float:
    """Dressed product vs transported kernel at real boost parameter."""
    prod = dressed_family(family, 2, t, p).conj().T @ dressed_family(family, 1, t, p)
    direct = family.two_point(to_momentum(boost1(-t) @ p.as_array(), family.m))
    return _rel(prod, direct)


def _ode_family(family: WaveMatrixFamily, p: MomentumPoint) -> holo.OdeFamily:
    """The shifted-product data h_{t0}(t) = Psi_2(t;p)^* Psi_1(t+t0;p).

    Writing q = boost1(-t) p, the product equals a fixed-element Wigner phase
    at the continued momentum times shell compensators and exponentials, one
    power product whose rows are the offsets t0, times the kernel a2^H a1.
    So A is the scalar's log-derivative times I, read from the bases of the
    factors that move with t0 with no walk; cond(h) = cond(a2^H a1) at every
    node, so a singular kernel makes A NaN and every scan singular, and h
    itself is never built.
    """
    eye = np.eye(3)
    p_arr = p.as_array()
    kernel = family.a2.conj().T @ family.a1
    singular = not np.linalg.cond(kernel) < holo._COND_MAX
    unit = np.full(kernel.shape, np.nan) if singular else np.eye(family.n)

    @functools.cache
    def moving(t0s: tuple) -> holo.PowerProduct:
        # the factors of Psi_1(t + t0), one row per offset
        g0 = cg.lift_boost1(np.array(t0s))
        lam0_inv = cg.project(cg.inverse(g0))
        return (holo.fixed_element_phase_raw(g0, eye, p_arr, family.s, family.m)
                * holo.u_power_raw(lam0_inv, p_arr, family.s, family.m)
                * holo.exp_mink_dot(family.b1, lam0_inv, p_arr))

    def log_derivative(zs, delta):
        rate = holo.offset_log_derivative(moving, zs, delta)
        return None, rate[:, None, None] * unit

    return holo.OdeFamily(lambda t: dressed_family(family, 1, float(t), p), log_derivative)


def ode_vs_engine(family: WaveMatrixFamily, p: MomentumPoint,
                  height: float = math.pi / 2.0) -> float:
    """Relative deviation between the ODE route and the direct engine route
    for the dressed first family at an interior strip point."""
    via_ode = holo.ode_continue(_ode_family(family, p),
                                holo.StripPath.vertical(0.0, height=height))
    return _rel(via_ode, dressed_family(family, 1, 1j * height, p))


@dataclass
class PipelineReport:
    """One full pipeline run: the recovered statistics phase, the smallest
    eigenvalue of D^* D (an input floor) and the residuals that the
    `spinstat` record gates."""

    omega_hat: complex
    min_eig: float
    residuals: dict


def run_pipeline(s: float, m: float = 1.0, n: int = 2, seed: int = 0,
                 grid_size: int = 5) -> PipelineReport:
    """Build a toy family and run every verification stage on it."""
    family = build_toy_model(s, m, n, seed)
    grid = momentum_grid(m, grid_size)

    if not cgm.c12_negative_axis(*(p.sector for p in cgm.antipodal_pair())):
        raise HypothesisViolation("cone configuration lost the dual-axis property")

    sub = grid[::max(1, len(grid.p1) // 4)][:4]
    # the grid, and the half-turned momenta that rotation_pi_relation reads
    turned = sub.as_array() @ rotation(math.pi).T
    family.fill(to_momentum(np.concatenate([grid.as_array(), turned]), m))
    dmat, d_res = extract_D(family, grid)
    dstar_d = dmat.conj().T @ dmat
    min_eig = float(np.min(np.linalg.eigvalsh((dstar_d + dstar_d.conj().T) / 2.0)))
    omega_hat, _ = extract_statistics_phase(family, grid)

    tp = two_point_boundary_check(family, sub)
    rot = rotation_pi_relation(family, sub, omega_hat)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x71)))
    # two elements for each of the first two momenta, drawn in that order
    draws = np.array([(rng.uniform(-0.2, 0.2), rng.uniform(0, 2 * math.pi),
                       rng.uniform(0.0, 0.25)) for _ in range(4)])
    g = cg.compose(cg.lift_rotation(draws[:, 0]), cg.lift_boost(draws[:, 1], draws[:, 2]))
    tl = verify_transformation_law(g, sub[[0, 0, 1, 1]], family)

    # spot check: the same boundary value along two path shapes; fill walked
    # the straight one, StripPath.vertical(0.0), for every grid momentum
    (straight,), _ = family.fill(grid[:1])
    spot = abs(straight - holo.continue_along(
        family.pref1_expr(_reflected_anchor(grid[0])),
        [0.0, 0.4, 0.4 + 0.6j * math.pi, 1j * math.pi]))
    q = _reflected_anchor(grid[2])
    kernel = family.pref2bar_expr(q) * family.pref1_expr(q)  # the scalar part of M

    residuals = {
        "phase": abs(omega_hat - family.omega_target),
        "weak_phase": abs(omega_hat ** 2 - family.omega_target ** 2),
        "path_invariance": spot,
        "d_constancy": d_res,
        "pi_rotation": float(np.max([*rot.values()])),
        "dual_route": float(np.max(tp["whole_vs_factor"])),
        "boundary_closed": float(np.max(tp["whole_vs_closed"])),
        "transformation_law": float(np.max([*tl.values()])),
        "wigner_cancellation": wigner_cancellation(family, grid[3]),
        # the kernel varies faster as the mass grows: more panels, still one walk
        "kernel_morera": holo.morera_residual(
            kernel, holo.StripPath.rectangle(-0.4, 0.4, 0.15, math.pi - 0.15),
            panels=4 * max(1, math.ceil(m))),
        "ode_vs_engine": ode_vs_engine(family, grid[1]),
    }
    return PipelineReport(omega_hat, min_eig, residuals)
