"""Branch-tracked analytic continuation of power products along paths in the
strip R + i(0, pi), with Morera certificates, the tube regions of two-point
kernels, and a log-derivative ODE continuation as an independent cross check.

Every family continued here has one shape, a `PowerProduct`:

    c * exp(E_1(z) + ... ) * B_1(z)^{s_1} * B_2(z)^{s_2} * ...

where the exponents E_i and the bases B_j are entire functions of z (boosted
momentum components, exponentials) and the s_j are real.  The bases are the
only multivalued part, and a base carries no global state.  A walk evaluates
every base on all samples of the path at once, as one array, and inserts
midpoints into every interval where some base turns by 0.999 * pi/2 or more,
until none does; each base's argument ledger is then the principal argument
at the start plus the cumulative sum of the angles of consecutive base
ratios.  Values therefore depend only on the homotopy class of the path and
on nothing else: there is no global cut bookkeeping, and the value at each
accepted sample is exact up to float rounding (step size only influences
branch selection, never the numerical value).

The module also provides the builders of the compensated Wigner-phase
families used by the spin-statistics pipeline.  Each builder computes its
boosted momentum k(z) = pre @ boost1(sign z) @ anchor once (`momentum`) and
writes the 2x2 little-group product out by hand; its value at the real
anchor is matched against the closed-form shell functions of `wigner`, so
every continued family agrees with its real-axis definition by construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import covergroup as cg
from . import wigner as wg
from .minkowski import MomentumPoint, boost1, rotation, minkowski_product

_HALF_PI = math.pi / 2.0
# a base below this fraction of its running maximum modulus (at least 1)
# counts as vanishing on the path
_VANISH_TOL = 1e-12


class PowerBaseVanishes(ArithmeticError):
    """A power base passed within tolerance of zero; the path must be perturbed."""


class RefinementLimit(ArithmeticError):
    """Bisection could not bound the per-step phase increment."""


class SingularDeterminant(ArithmeticError):
    """det h stayed below tolerance even after the shifted-argument detour."""


class NotInGamma0(ValueError):
    """The complexified shell point admits no rotated-imaginary-boost form."""


# ---------------------------------------------------------------------------
# power products
# ---------------------------------------------------------------------------

def _per_row(v):
    """A scalar as it is; a 1-D array (one value per anchor) as a (batch, 1) column."""
    return np.asarray(v)[:, None] if np.ndim(v) else v


@dataclass(frozen=True, eq=False)
class PowerProduct:
    """The family z -> scale * exp(sum of exps(z)) * prod of bases(z)^exponents.

    `exps` holds entire functions E(z).  `pows` holds (bases, exponents)
    pairs: bases(z) returns a tuple of entire base arrays, one per exponent,
    so a builder computes what its bases share once.  A family built for a
    batch of anchors evaluates to (batch, samples) arrays, and its scale may
    be a (batch, 1) array.  Families multiply by concatenating their parts;
    a number, or a 1-D array with one number per row, scales a family.
    """
    scale: complex | np.ndarray = 1.0
    exps: tuple = ()
    pows: tuple = ()

    __array_ufunc__ = None   # ndarray * family defers to __rmul__

    def __mul__(self, other):
        if isinstance(other, PowerProduct):
            return PowerProduct(self.scale * other.scale, self.exps + other.exps,
                                self.pows + other.pows)
        return PowerProduct(self.scale * _per_row(other), self.exps, self.pows)

    __rmul__ = __mul__

    def bases(self, z: np.ndarray) -> list:
        """Every power base on the samples z, in the order of the exponents."""
        return [b for fn, _ in self.pows for b in fn(z)]

    def value(self, z: np.ndarray, bases: list, args: list) -> np.ndarray:
        """The family on the samples z, each power taken on the branch given
        by its argument array."""
        total = np.zeros(np.shape(z), dtype=complex)
        for e in self.exps:
            total = total + e(z)
        exponents = [s for _, ss in self.pows for s in ss]
        for s, b, a in zip(exponents, bases, args):
            total = total + s * (np.log(np.abs(b)) + 1j * a)
        return self.scale * np.exp(total)


def momentum(pre, anchor, z, sign: float = -1.0) -> list:
    """The components of k(z) = pre @ boost1(sign z) @ anchor, entire in z.

    A (batch, 3) anchor gives (batch, samples) components.
    """
    v = np.asarray(anchor, dtype=float)
    if v.ndim == 2:
        v = v.T[:, :, None]
    zz = sign * z
    c, s = np.cosh(zz), np.sinh(zz)
    x, y = v[0] * c + v[1] * s, v[0] * s + v[1] * c
    return [row[0] * x + row[1] * y + row[2] * v[2] for row in np.asarray(pre, dtype=float)]


def eval_principal(expr: PowerProduct, z):
    """Pointwise evaluation with principal-branch powers (no ledger).

    Accepts a sample or an array of samples.  This deliberately ignores
    continuity across cuts; it exists as the negative control against which
    the ledgered walk is compared.
    """
    zs = np.asarray(z, dtype=complex)
    bases = expr.bases(zs)
    out = expr.value(zs, bases, [np.angle(b) for b in bases])
    return out if zs.ndim else complex(out)


# ---------------------------------------------------------------------------
# paths and the walker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StripPath:
    """An ordered polyline in the closed strip R + i[0, pi].

    The stored points are geometric waypoints; the walker inserts as many
    intermediate samples as branch continuity requires.
    """

    points: tuple

    def __post_init__(self):
        for z in self.points:
            if not (-1e-12 <= complex(z).imag <= math.pi + 1e-12):
                raise ValueError(f"path point {z} leaves the closed strip")
        if len(self.points) < 2:
            raise ValueError("a path needs at least two points")

    @classmethod
    def line(cls, start, end, samples: int = 9) -> "StripPath":
        ts = np.linspace(0.0, 1.0, max(2, samples))
        return cls(tuple(complex(start) + (complex(end) - complex(start)) * t for t in ts))

    @classmethod
    def vertical(cls, anchor_t: float = 0.0, height: float = math.pi,
                 samples: int = 17) -> "StripPath":
        return cls.line(complex(anchor_t), complex(anchor_t, height), samples)

    @classmethod
    def rectangle(cls, re_lo: float, re_hi: float, im_lo: float, im_hi: float) -> "StripPath":
        a = complex(re_lo, im_lo)
        b = complex(re_hi, im_lo)
        c = complex(re_hi, im_hi)
        d = complex(re_lo, im_hi)
        return cls((a, b, c, d, a))


class Walker:
    """Records the samples of a walk; value() walks the ledger along them."""

    def __init__(self, expr: PowerProduct, z0: complex):
        self._expr = expr
        self.samples = [complex(z0)]

    def step_to(self, z1: complex):
        self.samples.append(complex(z1))

    def value(self) -> complex:
        return continue_along(self._expr, self.samples)


def _path_points(path) -> tuple:
    if isinstance(path, StripPath):
        return path.points
    return tuple(complex(z) for z in path)


def continue_along(expr: PowerProduct, path):
    """The analytic continuation of expr along the path, anchored at its start
    with principal branches; one value per row for a batched family."""
    end = evaluate_along(expr, _path_points(path))[..., -1]
    return end if end.ndim else complex(end)


def evaluate_along(expr: PowerProduct, zs) -> np.ndarray:
    """Ledgered values at each supplied sample, walking them in order.

    Every interval between neighbouring samples in which some power base turns
    by 0.999 * pi/2 or more gets its midpoint inserted, all such intervals at
    once, until no base turns that far; each ledger is then the principal
    argument at the first sample plus the running sum of the turns.  A batched
    family is walked as one (batch, samples) array: an interval is split when
    any row's base turns that far there, and each row keeps its own ledger.
    """
    z = np.array(zs, dtype=complex)
    given = np.ones(len(z), dtype=bool)
    depth = np.zeros(len(z) - 1, dtype=int)
    while True:
        bases = expr.bases(z)
        turns = []
        split = np.zeros(len(z) - 1, dtype=bool)
        for b in bases:
            size = np.abs(b)
            low = size < _VANISH_TOL * np.maximum(1.0, np.maximum.accumulate(size, axis=-1))
            if low.any():
                at = np.argwhere(low)[0]
                row = f" in row {at[0]}" if b.ndim == 2 else ""
                raise PowerBaseVanishes(
                    f"power base within {_VANISH_TOL} of zero near z={z[at[-1]]}{row}")
            turns.append(np.angle(b[..., 1:] / b[..., :-1]))
            big = np.abs(turns[-1]) > 0.999 * _HALF_PI
            split |= big.any(axis=0) if big.ndim == 2 else big
        if not split.any():
            break
        at = np.flatnonzero(split) + 1
        stuck = (depth[split] >= 52) | (np.abs(z[at] - z[at - 1]) < 1e-12)
        if stuck.any():
            raise RefinementLimit(f"cannot bound phase step near z={z[at[stuck][0]]}")
        z = np.insert(z, at, (z[at - 1] + z[at]) / 2.0)
        given = np.insert(given, at, False)
        depth = np.repeat(depth + split, np.where(split, 2, 1))
    args = [np.cumsum(np.concatenate((np.angle(b[..., :1]), t), axis=-1), axis=-1)
            for b, t in zip(bases, turns)]
    return expr.value(z, bases, args)[..., given]


def continue_robust(expr: PowerProduct, path) -> complex:
    """continue_along with the lateral-detour fallback.

    If the straight walk collides with a power-base zero, the interior of the
    path is bowed sideways by +/- 1e-3; the two detours must agree to 1e-9
    relative (they are homotopic in the strip), in every row of a batched
    family, or the collision is reported as unresolvable.
    """
    try:
        return continue_along(expr, path)
    except PowerBaseVanishes:
        pass
    pts = _path_points(path)
    # each interior point moves along the normal of the chord through its neighbours
    normals = [-1j * (b - a) / abs(b - a) if b != a else 1.0 for a, b in zip(pts, pts[2:])]
    r0, r1 = (continue_along(expr, [pts[0], *(z + sgn * 1e-3 * n for z, n in
                                               zip(pts[1:-1], normals)), pts[-1]])
              for sgn in (+1.0, -1.0))
    if np.any(np.abs(r0 - r1) > 1e-9 * np.maximum(1.0, np.abs(r0))):
        raise RefinementLimit(
            "two-sided path perturbation disagrees; collision not resolvable")
    return 0.5 * (r0 + r1)


def morera_residual(expr: PowerProduct, contour, order: int = 8, panels: int = 4,
                    principal: bool = False) -> float:
    """|closed contour integral| by composite Gauss-Legendre quadrature.

    A small value certifies analyticity on the contour's interior.  With
    principal=True the powers are evaluated without ledger; a function whose
    base crosses the cut then produces a large residual, which is the
    documented negative control.
    """
    pts = np.array(_path_points(contour), dtype=complex)
    if abs(pts[0] - pts[-1]) > 1e-14:
        pts = np.append(pts, pts[0])
    if not np.all((1e-9 < pts.imag) & (pts.imag < math.pi - 1e-9)):
        raise ValueError("Morera contour must lie strictly inside the open strip")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    a, b = pts[:-1, None], pts[1:, None]
    pa = a + (b - a) * (np.arange(panels) / panels)
    pb = a + (b - a) * (np.arange(1, panels + 1) / panels)
    mid, half = (pa + pb) / 2.0, (pb - pa) / 2.0
    zs = (mid[..., None] + half[..., None] * nodes).ravel()
    if principal:
        f = eval_principal(expr, zs)
    else:
        f = evaluate_along(expr, np.concatenate(([pts[0]], zs)))[1:]
    return float(abs(np.sum((weights * half[..., None]).ravel() * f)))


# ---------------------------------------------------------------------------
# tube region of the two-point kernels, and its polar decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaRegion:
    """Shell points whose spatial imaginary part lies in an open dual sector."""

    dual_lo: float
    dual_hi: float
    m: float


def gamma_region(c1, c2, m: float) -> GammaRegion:
    """The analyticity tube determined by two localization sectors.

    Built from the dual of the difference sector c2 - c1; raises when the
    difference is not salient, in which case no tube exists.
    """
    from . import conegeom as cgm
    diff = cgm.difference_sector(c1, c2)
    if diff is None:
        raise ValueError("difference of the two sectors is not salient")
    dual = cgm.dual_sector(diff)
    return GammaRegion(dual.alpha, dual.beta, float(m))


def gamma_contains(k, region: GammaRegion, shell_tol: float = 1e-10) -> bool:
    a = np.asarray(k.as_array() if hasattr(k, "as_array") else k, dtype=complex)
    if abs(minkowski_product(a, a) - region.m ** 2) > shell_tol:
        return False
    y = np.array([a[1].imag, a[2].imag])
    r = float(np.hypot(y[0], y[1]))
    if r <= 0.0:
        return False
    ang = math.atan2(y[1], y[0])
    width = region.dual_hi - region.dual_lo
    rel = (ang - region.dual_lo) % (2.0 * math.pi)
    return 1e-12 < rel < width - 1e-12


@dataclass(frozen=True)
class Gamma0Decomposition:
    """k = R(r) boost1(i theta) R(r)^{-1} q with theta in (0, pi), q on the shell."""

    r: float
    theta: float
    q: MomentumPoint

    def recompose(self) -> np.ndarray:
        return rotation(self.r) @ boost1(1j * self.theta) @ rotation(-self.r) @ self.q.as_array()


def gamma0_decompose(k, m: float, tol: float = 1e-10) -> Gamma0Decomposition:
    """Invert the rotated-imaginary-boost form of a complexified shell point."""
    a = np.asarray(k.as_array() if hasattr(k, "as_array") else k, dtype=complex)
    if abs(minkowski_product(a, a) - m * m) > 1e-8:
        raise NotInGamma0(f"point is off the complex shell by {abs(minkowski_product(a, a) - m*m):.2e}")
    x, y = a.real, a.imag
    yr = float(np.hypot(y[1], y[2]))
    if yr < 1e-12:
        raise NotInGamma0("imaginary part vanishes; theta would degenerate to 0")
    r = math.atan2(y[2], y[1])
    theta = math.atan2(yr, x[0])           # in (0, pi) because yr > 0
    if not (1e-12 < theta < math.pi - 1e-12):
        raise NotInGamma0(f"no boost angle in (0, pi), got {theta}")
    cr, sr = math.cos(r), math.sin(r)
    q1p = y[0] / math.sin(theta)
    q2p = -sr * x[1] + cr * x[2]
    q = MomentumPoint(cr * q1p - sr * q2p, sr * q1p + cr * q2p, m)
    dec = Gamma0Decomposition(r, theta, q)
    if np.max(np.abs(dec.recompose() - a)) > tol * max(1.0, float(np.max(np.abs(a)))):
        raise NotInGamma0("recomposition residual exceeds tolerance")
    return dec


# ---------------------------------------------------------------------------
# builders of the compensated families
# ---------------------------------------------------------------------------

def stack_momenta(q) -> MomentumPoint:
    """One momentum as it is, or a batch (a sequence) of momenta as one
    MomentumPoint stack; stack_momenta(q).as_array() is a family's anchor."""
    if isinstance(q, MomentumPoint):
        return q
    return MomentumPoint(*(np.array([getattr(p, k) for p in q]) for k in ("p1", "p2", "m")))


def normalize_at(expr: PowerProduct, z0: complex, target: complex) -> PowerProduct:
    """Scale expr so that its value at z0 equals the closed-form target.

    The correction must be a pure phase (the builders produce the right
    modulus) in every row of a batched family; a modulus mismatch means the
    family's structure is wrong.
    """
    ratio = target / evaluate_along(expr, [z0])[..., 0]
    if np.any(np.abs(np.abs(ratio) - 1.0) > 1e-6):
        raise ArithmeticError(
            f"anchor normalization has modulus {np.abs(ratio)}, expected 1")
    return expr * ratio


def exp_mink_dot(b, pre, anchor, sign: float = -1.0) -> PowerProduct:
    """exp(i b . k(z)) for k(z) = pre @ boost1(sign z) @ anchor, the Minkowski
    dot written out; anchor may be (batch, 3)."""
    b = np.asarray(b, dtype=complex)

    def exponent(z):
        k0, k1, k2 = momentum(pre, anchor, z, sign)
        return 1j * b[0] * k0 - 1j * b[1] * k1 - 1j * b[2] * k2

    return PowerProduct(exps=(exponent,))


def u_power_raw(pre, anchor, s_pow: float, m, variant: str = "pihalf",
                sign: float = -1.0) -> PowerProduct:
    """The quarter-rotated compensator as a product of ledgered powers of
    k(z)-components.

    variant "pihalf_bar" is the componentwise conjugate of "pihalf" on the
    real shell (needed for families that are conjugated before
    continuation).  m is a mass, or one mass per anchor.  The overall branch
    is fixed by the caller through normalize_at.
    """
    if variant not in ("pihalf", "pihalf_bar"):
        raise ValueError(f"unknown compensator variant {variant!r}")
    sgn = 1j if variant == "pihalf" else -1j
    m = _per_row(m)

    def bases(z):
        k0, k1, k2 = momentum(pre, anchor, z, sign)
        y = k0 - k2
        return y / m, y + m + sgn * k1, y + m - sgn * k1

    return PowerProduct(cmath.exp(0.5 * math.pi * s_pow * sgn), (),
                        ((bases, (s_pow, s_pow, -s_pow)),))


# Both raw phase families need V = e00 + i e10 of a 2x2 product E = L R whose
# left factor is L = adj(K) + m = [[k0-k1+m, -k2], [-k2, k0+k1+m]] for a
# momentum k: V = u r00 + w r10 with u = L00 + i L10 and w = L01 + i L11.
# The right factor ends in K' + m = [[k0'+k1'+m, k2'], [k2', k0'-k1'+m]].

def boost_family_phase_raw(g: cg.CoverElement, q: MomentumPoint, s: float,
                           eps: float = 1.0) -> PowerProduct:
    """Raw family z -> e^{i s Omega(boost(eps z) g, q)}.

    Built from the 2x2 little-group matrix b(q)^-1 B1(eps z) A_g (K'(z) + m),
    with K'(z) the spinor of k'(z) = project(g^-1) boost1(-eps z) q: the
    numerator is entire and the two square-root normalizations appear as
    ledgered powers; a sequence of momenta q gives one batched family.  The
    caller anchors the overall phase with normalize_at.
    """
    qs = stack_momenta(q)
    qa, m = qs.as_array(), _per_row(qs.m)
    a00, a01, a10, a11 = cg.sl2_matrix(g).ravel()
    lam_inv = cg.project(cg.inverse(g))
    # b(q)^-1 = (adj(Q) + m) / c_q, constant along the family
    q0, q1, q2 = (_per_row(c) for c in qa.T)
    u, w = q0 - q1 + m - 1j * q2, 1j * (q0 + q1 + m) - q2
    c_q_sq = 2.0 * m * (q0 + m)

    def bases(z):
        k0, k1, k2 = momentum(lam_inv, qa, z, -eps)
        # the x1-boost B1 = diag(e^{eps z/2}, e^{-eps z/2}) sits between the factors
        e = np.exp(0.5 * eps * z)
        kp = k0 + k1 + m
        v = u * e * (a00 * kp + a01 * k2) + w / e * (a10 * kp + a11 * k2)
        return v, 2.0 * m * (k0 + m)

    return PowerProduct(c_q_sq ** (-s), (), ((bases, (2.0 * s, -s)),))


def fixed_element_phase_raw(g: cg.CoverElement, pre, anchor, s: float,
                            m: float) -> PowerProduct:
    """Raw family z -> e^{i s Omega(g, k(z))} with k(z) = pre @ boost1(-z) @ anchor,
    from the 2x2 product (adj(K) + m) A_g (K' + m) for k' = project(g^-1) k."""
    a00, a01, a10, a11 = cg.sl2_matrix(g).ravel()
    lam_inv = cg.project(cg.inverse(g))

    def bases(z):
        k0, k1, k2 = momentum(pre, anchor, z)
        l0, l1, l2 = (r[0] * k0 + r[1] * k1 + r[2] * k2 for r in lam_inv)
        u, w = k0 - k1 + m - 1j * k2, 1j * (k0 + k1 + m) - k2
        lp = l0 + l1 + m
        v = (u * a00 + w * a10) * lp + (u * a01 + w * a11) * l2
        return v, 2.0 * m * (k0 + m), 2.0 * m * (l0 + m)

    return PowerProduct(pows=((bases, (2.0 * s, -s, -s)),))


def compensated_family_expr(g: cg.CoverElement, q: MomentumPoint, s: float) -> PowerProduct:
    """The analytic family z -> e^{i s Omega(boost(z) g, q)} u_pihalf(k'(z)),
    with k'(z) the momentum transported by (boost(z) g)^{-1}.

    This is the quarter-rotation-compensated Wigner factor.  It extends
    analytically into the strip whenever g * quarter-rotation carries the
    reference approach path into the standard wedge class; the family is
    anchored at z = 0 against the exact shell functions.  For a sequence of
    momenta q the family is batched, and each row is anchored at its own one.
    """
    qs = stack_momenta(q)
    raw = (boost_family_phase_raw(g, qs, s)
           * u_power_raw(cg.project(cg.inverse(g)), qs.as_array(), s, qs.m, "pihalf"))
    target = np.exp(1j * s * wg.wigner_angle(g, qs)) * wg.u_pihalf(wg.transport(g, qs), s)
    return normalize_at(raw, 0.0, target)


def uncompensated_phase_expr(g: cg.CoverElement, q: MomentumPoint, s: float) -> PowerProduct:
    """The bare Wigner phase family, normalized at z = 0.

    For non-integer s this has genuine branch points inside the strip (at the
    zeros of the boosted energy factor); it exists as the negative control.
    """
    qs = stack_momenta(q)
    return normalize_at(boost_family_phase_raw(g, qs, s), 0.0,
                        np.exp(1j * s * wg.wigner_angle(g, qs)))


def boost_energy_branch_point(p: MomentumPoint) -> complex:
    """The strip zero of z -> (boost1(-z) p)_0 + m, in closed form.

    Writing p0 = m~ cosh(phi), p1 = m~ sinh(phi) with m~ = sqrt(m^2 + p2^2),
    the zero sits at phi + i arccos(-m/m~), strictly inside the strip as soon
    as p2 is nonzero.
    """
    mt = math.sqrt(p.m ** 2 + p.p2 ** 2)
    # k0(z) = p0 cosh z - p1 sinh z = m~ cosh(z - phi) with tanh(phi) = p1/p0
    phi = 0.5 * math.log((p.p0 + p.p1) / (p.p0 - p.p1))
    return complex(phi, math.acos(-p.m / mt))


# ---------------------------------------------------------------------------
# log-derivative ODE continuation
# ---------------------------------------------------------------------------

@dataclass
class OdeFamily:
    """Data needed by ode_continue.

    h_batch(t0, zs) returns the matrices h_{t0}(z) = f2(z) f1(z + t0) at the
    given strip samples (engine backed for the pipeline families), and
    f1_real(t) evaluates the continued function on the real axis.
    """

    h_batch: callable
    f1_real: callable


def _family_from_callable(h) -> OdeFamily:
    # Closed-form h(z, t0) with f2 = identity, so f1 = h(., 0).
    def batch(t0, zs):
        return np.array([np.atleast_2d(np.asarray(h(z, t0), dtype=complex)) for z in zs])

    def f1_real(t):
        return np.atleast_2d(np.asarray(h(complex(t), 0.0), dtype=complex))

    return OdeFamily(batch, f1_real)


def _uniform_nodes(path, steps: int) -> np.ndarray:
    pts = _path_points(path)
    segs = []
    total = sum(abs(b - a) for a, b in zip(pts[:-1], pts[1:]))
    for a, b in zip(pts[:-1], pts[1:]):
        n = max(1, int(round(steps * abs(b - a) / total)))
        segs.append(np.linspace(a, b, n + 1)[:-1])
    return np.concatenate(segs + [np.array([pts[-1]])])


def _with_midpoints(full: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(full) - 1, dtype=complex)
    out[0::2] = full
    out[1::2] = (full[:-1] + full[1:]) / 2.0
    return out


_FD_OFFSETS = (0.0, 1.0, -1.0, 0.5, -0.5)


def _log_derivative(fam: "OdeFamily", zs, fd_delta: float):
    """h(z), and A(z) = h^{-1} h_hat by Richardson central differences."""
    H = {o: fam.h_batch(o * fd_delta, zs) for o in _FD_OFFSETS}
    d1 = (H[1.0] - H[-1.0]) / (2.0 * fd_delta)
    d2 = (H[0.5] - H[-0.5]) / fd_delta
    hhat = (4.0 * d2 - d1) / 3.0
    A = np.linalg.solve(H[0.0], hhat)
    return H[0.0], A


def ode_continue(family, path, steps: int = 120, fd_delta: float = 1e-3,
                 det_tol: float = 1e-8, shift: float = 0.1,
                 step_budget: float = 0.01, _allow_shift: bool = True) -> np.ndarray:
    """Continue f1 along the path by integrating f1' = f1 (h^{-1} h_hat).

    h_hat is the t0-derivative of h_{t0} at 0 by Richardson-refined central
    differences; the integrator is classical 4th order with the step length
    throttled so that |dz| * ||h^{-1} h_hat|| stays below step_budget.  If
    det h vanishes along the path, the whole problem is rerun at the shifted
    argument z + shift (the zeros are isolated, so they move off the path)
    and mapped back through f1(z) = f1(z+t0) h(z+t0)^{-1} h_{-t0}(z+t0).
    """
    fam = family if isinstance(family, OdeFamily) else _family_from_callable(family)

    coarse = _uniform_nodes(path, max(16, steps // 3))
    try:
        hc, A_scan = _log_derivative(fam, coarse, fd_delta)
        norms = np.linalg.norm(A_scan, axis=(1, 2))
        dets = np.abs(np.linalg.det(hc))
        singular = np.min(dets) < det_tol * max(1.0, float(np.median(dets)))
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        if not _allow_shift:
            raise SingularDeterminant("det h vanishes along the shifted path too")
        pts = _path_points(path)
        shifted = [z + shift for z in pts]
        # g(z) := f1(z + shift) obeys the same ODE with data read at z + shift,
        # i.e. the original family walked along the shifted path.
        g_end = ode_continue(fam, shifted, steps=steps, fd_delta=fd_delta,
                             det_tol=det_tol, shift=shift * 1.7,
                             step_budget=step_budget, _allow_shift=shift < 0.5)
        z_end = pts[-1]
        h_at = fam.h_batch(0.0, [z_end + shift])[0]
        h_minus = fam.h_batch(-shift, [z_end + shift])[0]
        return g_end @ np.linalg.inv(h_at) @ h_minus

    total = sum(abs(b - a) for a, b in zip(coarse[:-1], coarse[1:]))
    base_density = steps / total
    full = [coarse[0]]
    for j in range(len(coarse) - 1):
        a, b = coarse[j], coarse[j + 1]
        w = max(norms[j], norms[j + 1])
        n = max(1, math.ceil(abs(b - a) * max(base_density, w / step_budget)))
        full.extend(a + (b - a) * (k + 1) / n for k in range(n))
    zs = _with_midpoints(np.array(full))

    _, A = _log_derivative(fam, zs, fd_delta)
    f = np.asarray(fam.f1_real(zs[0].real), dtype=complex)
    for j in range(0, len(zs) - 2, 2):
        dz = zs[j + 2] - zs[j]
        k1 = f @ A[j]
        k2 = (f + 0.5 * dz * k1) @ A[j + 1]
        k3 = (f + 0.5 * dz * k2) @ A[j + 1]
        k4 = (f + dz * k3) @ A[j + 2]
        f = f + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return f
