"""Branch-tracked analytic continuation of power-product expressions along
paths in the strip R + i(0, pi), with Morera certificates, boundary values
at i*pi, the tube regions of two-point kernels, and a log-derivative ODE
continuation as an independent cross check.

Expressions are immutable trees.  All complex dependence enters through
entire nodes (boosted momentum components, exponentials, affine maps); the
only multivalued node is Pow, a fractional power with a real exponent.  A
Pow node carries no global state.  A walk evaluates every Pow base on all
samples of the path at once, as one array, and inserts midpoints into every
interval where some base turns by 0.999 * pi/2 or more, until none does;
each Pow's argument ledger is then the principal argument at the start plus
the cumulative sum of the angles of consecutive base ratios.  Values
therefore depend only on the homotopy class of the path and on nothing
else: there is no global cut bookkeeping, and the value at each accepted
sample is exact up to float rounding (step size only influences branch
selection, never the numerical value).

The module also provides the expression builders for the compensated
Wigner-phase families used by the spin-statistics pipeline.  Those builders
return trees whose value at the real anchor is matched exactly against the
closed-form shell functions of `wigner`, so every continued family agrees
with its real-axis definition by construction.
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


class PowerBaseVanishes(ArithmeticError):
    """A power base passed within tolerance of zero; the path must be perturbed."""


class RefinementLimit(ArithmeticError):
    """Bisection could not bound the per-step phase increment."""


class SingularDeterminant(ArithmeticError):
    """det h stayed below tolerance even after the shifted-argument detour."""


class NotInGamma0(ValueError):
    """The complexified shell point admits no rotated-imaginary-boost form."""


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes; supports arithmetic sugar."""

    __slots__ = ()

    def __add__(self, other):
        return Add((self, _as_expr(other)))

    __radd__ = __add__

    def __mul__(self, other):
        return Mul((self, _as_expr(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Div(self, _as_expr(other))

    def __neg__(self):
        return Neg(self)

    def __sub__(self, other):
        return Add((self, Neg(_as_expr(other))))


@dataclass(frozen=True, eq=False)
class Const(Expr):
    """A constant; a batch of constants, one per anchor, is a (batch, 1) array."""
    value: complex


@dataclass(frozen=True, eq=False)
class Affine(Expr):
    """a*z + b."""
    a: complex
    b: complex = 0j


@dataclass(frozen=True, eq=False)
class MomComp(Expr):
    """Component mu of pre @ boost1(sign*z) @ anchor; entire in z.  A batch
    of anchors is a (3, batch, 1) array that broadcasts against the samples."""
    pre: np.ndarray
    anchor: np.ndarray
    mu: int
    sign: float = -1.0


@dataclass(frozen=True, eq=False)
class Add(Expr):
    terms: tuple


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    factors: tuple


@dataclass(frozen=True, eq=False)
class Div(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    """base ** exponent with a per-walk argument ledger.

    The base subtree must itself be single valued (no nested Pow); this is
    checked at construction so ledger updates stay a simple two-pass affair.
    """
    base: Expr
    exponent: float

    def __post_init__(self):
        if _collect_pows(self.base):
            raise ValueError("power bases must not contain nested powers")


def _as_expr(x) -> Expr:
    return x if isinstance(x, Expr) else const(x)


def const(v) -> Const:
    """A constant, or a batch of constants from a 1-D array (one per anchor)."""
    if np.ndim(v):
        return Const(np.asarray(v, dtype=complex)[:, None])
    return Const(complex(v))


def mom_comp(pre, anchor, mu: int, sign: float = -1.0) -> MomComp:
    anchor = np.asarray(anchor, dtype=float)   # a 3-vector or (batch, 3)
    if anchor.ndim == 2:
        anchor = anchor.T[:, :, None]
    return MomComp(np.asarray(pre, dtype=float), anchor, int(mu), float(sign))


def _collect_pows(node: Expr) -> list:
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Pow):
            out.append(n)
            stack.append(n.base)
        elif isinstance(n, Add):
            stack.extend(n.terms)
        elif isinstance(n, Mul):
            stack.extend(n.factors)
        elif isinstance(n, Div):
            stack.extend((n.num, n.den))
        elif isinstance(n, (Neg, Exp)):
            stack.append(n.arg)
    return out


def _eval(node: Expr, z: np.ndarray, pow_values: dict) -> np.ndarray:
    """Evaluate on an array of samples; Pow nodes read their precomputed values.
    A tree with batched constants or anchors evaluates to (batch, samples)."""
    if isinstance(node, Const):
        v = node.value
        if isinstance(v, np.ndarray):
            return np.broadcast_to(v, np.broadcast_shapes(v.shape, z.shape))
        return np.full(z.shape, v, dtype=complex)
    if isinstance(node, Affine):
        return node.a * z + node.b
    if isinstance(node, MomComp):
        v = node.anchor
        zz = node.sign * z
        c, s = np.cosh(zz), np.sinh(zz)
        row = node.pre[node.mu]
        return row[0] * (v[0] * c + v[1] * s) + row[1] * (v[0] * s + v[1] * c) + row[2] * v[2]
    if isinstance(node, Add):
        return sum(_eval(t, z, pow_values) for t in node.terms)
    if isinstance(node, Mul):
        out = (1.0 + 0j) * _eval(node.factors[0], z, pow_values)
        for f in node.factors[1:]:
            v = _eval(f, z, pow_values)
            if v.ndim > out.ndim:
                out = out * v   # a batched factor widens the product
            else:
                out *= v
        return out
    if isinstance(node, Div):
        return _eval(node.num, z, pow_values) / _eval(node.den, z, pow_values)
    if isinstance(node, Neg):
        return -_eval(node.arg, z, pow_values)
    if isinstance(node, Exp):
        return np.exp(_eval(node.arg, z, pow_values))
    if isinstance(node, Pow):
        return pow_values[node]
    raise TypeError(f"unknown node {node!r}")


def _bases(pows: list, z: np.ndarray) -> list:
    return [_eval(n.base, z, {}) for n in pows]


def _eval_with_args(expr: Expr, z: np.ndarray, pows: list, bases: list, args: list):
    """expr at z, each Pow taken on the branch given by its argument array."""
    vals = {n: np.exp(n.exponent * (np.log(np.abs(b)) + 1j * a))
            for n, b, a in zip(pows, bases, args)}
    return _eval(expr, z, vals)


def eval_principal(expr: Expr, z):
    """Pointwise evaluation with principal-branch powers (no ledger).

    Accepts a sample or an array of samples.  This deliberately ignores
    continuity across cuts; it exists as the negative control against which
    the ledgered walk is compared.
    """
    zs = np.asarray(z, dtype=complex)
    pows = _collect_pows(expr)
    bases = _bases(pows, zs)
    out = _eval_with_args(expr, zs, pows, bases, [np.angle(b) for b in bases])
    return out if zs.ndim else complex(out)


def schwarz_reflect(expr: Expr) -> Expr:
    """The tree of z -> conj(expr(conj z)); conjugates every constant."""
    if isinstance(expr, Const):
        return Const(expr.value.conjugate())
    if isinstance(expr, Affine):
        return Affine(expr.a.conjugate(), expr.b.conjugate())
    if isinstance(expr, MomComp):
        return expr
    if isinstance(expr, Add):
        return Add(tuple(schwarz_reflect(t) for t in expr.terms))
    if isinstance(expr, Mul):
        return Mul(tuple(schwarz_reflect(f) for f in expr.factors))
    if isinstance(expr, Div):
        return Div(schwarz_reflect(expr.num), schwarz_reflect(expr.den))
    if isinstance(expr, Neg):
        return Neg(schwarz_reflect(expr.arg))
    if isinstance(expr, Exp):
        return Exp(schwarz_reflect(expr.arg))
    if isinstance(expr, Pow):
        return Pow(schwarz_reflect(expr.base), expr.exponent)
    raise TypeError(f"unknown node {expr!r}")


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

    def __init__(self, expr: Expr, z0: complex, vanish_tol: float = 1e-12):
        self._expr = expr
        self._vanish_tol = vanish_tol
        self.samples = [complex(z0)]

    def step_to(self, z1: complex):
        self.samples.append(complex(z1))

    def value(self) -> complex:
        return continue_along(self._expr, self.samples, self._vanish_tol)


def _path_points(path) -> tuple:
    if isinstance(path, StripPath):
        return path.points
    return tuple(complex(z) for z in path)


def continue_along(expr: Expr, path, vanish_tol: float = 1e-12):
    """The analytic continuation of expr along the path, anchored at its start
    with principal branches; one value per row for a batched tree."""
    end = evaluate_along(expr, _path_points(path), vanish_tol)[..., -1]
    return end if end.ndim else complex(end)


def evaluate_along(expr: Expr, zs, vanish_tol: float = 1e-12) -> np.ndarray:
    """Ledgered values at each supplied sample, walking them in order.

    Every interval between neighbouring samples in which some power base turns
    by 0.999 * pi/2 or more gets its midpoint inserted, all such intervals at
    once, until no base turns that far; each ledger is then the principal
    argument at the first sample plus the running sum of the turns.  A batched
    tree is walked as one (batch, samples) array: an interval is split when
    any row's base turns that far there, and each row keeps its own ledger.
    """
    z = np.array(zs, dtype=complex)
    pows = _collect_pows(expr)
    given = np.ones(len(z), dtype=bool)
    depth = np.zeros(len(z) - 1, dtype=int)
    while True:
        bases = _bases(pows, z)
        turns = []
        split = np.zeros(len(z) - 1, dtype=bool)
        for b in bases:
            size = np.abs(b)
            low = size < vanish_tol * np.maximum(1.0, np.maximum.accumulate(size, axis=-1))
            if low.any():
                at = np.argwhere(low)[0]
                row = f" in row {at[0]}" if b.ndim == 2 else ""
                raise PowerBaseVanishes(
                    f"power base within {vanish_tol} of zero near z={z[at[-1]]}{row}")
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
    return _eval_with_args(expr, z, pows, bases, args)[..., given]


def continue_robust(expr: Expr, path, offset: float = 1e-3,
                    agree_tol: float = 1e-9) -> complex:
    """continue_along with the lateral-detour fallback.

    If the straight walk collides with a power-base zero, the interior of the
    path is bowed sideways by +/- offset; the two detours must agree (they are
    homotopic in the strip), in every row of a batched tree, or the collision
    is reported as unresolvable.
    """
    try:
        return continue_along(expr, path)
    except PowerBaseVanishes:
        pass
    pts = _path_points(path)
    # each interior point moves along the normal of the chord through its neighbours
    normals = [-1j * (b - a) / abs(b - a) if b != a else 1.0 for a, b in zip(pts, pts[2:])]
    r0, r1 = (continue_along(expr, [pts[0], *(z + sgn * offset * n for z, n in
                                               zip(pts[1:-1], normals)), pts[-1]])
              for sgn in (+1.0, -1.0))
    if np.any(np.abs(r0 - r1) > agree_tol * np.maximum(1.0, np.abs(r0))):
        raise RefinementLimit(
            "two-sided path perturbation disagrees; collision not resolvable")
    return 0.5 * (r0 + r1)


def boundary_at_ipi(expr: Expr, anchor_t: float = 0.0, samples: int = 17,
                    validate: bool = False, validate_tol: float = 1e-8) -> complex:
    """Continue straight up from the real anchor to anchor_t + i*pi.

    With validate=True, Morera residuals on two rectangles flanking the
    vertical path certify analyticity before the value is trusted.
    """
    if validate:
        for lo, hi in ((anchor_t - 0.45, anchor_t - 0.05),
                       (anchor_t + 0.05, anchor_t + 0.45)):
            r = morera_residual(expr, StripPath.rectangle(lo, hi, 0.05, math.pi - 0.05))
            if r > validate_tol:
                raise RefinementLimit(
                    f"flanking Morera residual {r:.3e} exceeds {validate_tol}")
    return continue_robust(expr, StripPath.vertical(anchor_t, samples=samples))


def morera_residual(expr: Expr, contour, order: int = 8, panels: int = 4,
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
# expression builders for the compensated families
# ---------------------------------------------------------------------------

def per_momentum(q, fn):
    """fn at one momentum, or the array of fn over a batch (a sequence) of
    momenta; per_momentum(q, MomentumPoint.as_array) is a family's anchor."""
    return fn(q) if isinstance(q, MomentumPoint) else np.array([fn(p) for p in q])


def _mat2(e00, e01, e10, e11) -> tuple:
    return (_as_expr(e00), _as_expr(e01), _as_expr(e10), _as_expr(e11))


def _mat2_mul(A: tuple, B: tuple) -> tuple:
    a00, a01, a10, a11 = A
    b00, b01, b10, b11 = B
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _spinor_plus_m(pre, anchor, m: float, sign: float) -> tuple:
    """K(z) + m for k(z) = pre @ boost1(sign z) @ anchor, as a 2x2 expr."""
    k0 = mom_comp(pre, anchor, 0, sign)
    k1 = mom_comp(pre, anchor, 1, sign)
    k2 = mom_comp(pre, anchor, 2, sign)
    return _mat2(k0 + k1 + const(m), k2, k2, (k0 + (-k1)) + const(m))


def _adj_spinor_plus_m(pre, anchor, m: float, sign: float) -> tuple:
    """adj(K(z)) + m = [[k0-k1+m, -k2], [-k2, k0+k1+m]]."""
    k0 = mom_comp(pre, anchor, 0, sign)
    k1 = mom_comp(pre, anchor, 1, sign)
    k2 = mom_comp(pre, anchor, 2, sign)
    return _mat2((k0 + (-k1)) + const(m), Neg(k2), Neg(k2), k0 + k1 + const(m))


def normalize_at(expr: Expr, z0: complex, target: complex,
                 tol: float = 1e-6) -> Expr:
    """Multiply by the constant making expr(z0) equal the closed-form target.

    The correction must be a pure phase (the builders produce the right
    modulus) in every row of a batched tree; a modulus mismatch means the
    expression structure is wrong.
    """
    ratio = target / evaluate_along(expr, [z0])[..., 0]
    if np.any(np.abs(np.abs(ratio) - 1.0) > tol):
        raise ArithmeticError(
            f"anchor normalization has modulus {np.abs(ratio)}, expected 1")
    return const(ratio) * expr


def exp_mink_dot(b, pre, anchor, sign: float = -1.0) -> Expr:
    """exp(i b . k(z)) for k(z) = pre @ boost1(sign z) @ anchor, the Minkowski
    dot written out; anchor may be (batch, 3)."""
    b = np.asarray(b, dtype=complex)
    arg = (Const(1j * b[0]) * mom_comp(pre, anchor, 0, sign)
           + Const(-1j * b[1]) * mom_comp(pre, anchor, 1, sign)
           + Const(-1j * b[2]) * mom_comp(pre, anchor, 2, sign))
    return Exp(arg)


def u_power_raw(pre, anchor, s_pow: float, m: float, variant: str = "plain",
                sign: float = -1.0) -> Expr:
    """The compensator as a product of ledgered powers of k(z)-components.

    variant "plain" is the x1-axis form, "pihalf" the quarter-rotated form,
    and "pihalf_bar" its componentwise conjugate on the real shell (needed
    for families that are conjugated before continuation).  The overall
    branch is fixed by the caller through normalize_at.
    """
    k0 = mom_comp(pre, anchor, 0, sign)
    k1 = mom_comp(pre, anchor, 1, sign)
    k2 = mom_comp(pre, anchor, 2, sign)
    if variant == "plain":
        x = k0 + (-k1)
        return (Pow(const(1.0 / m) * x, s_pow)
                * Pow(x + const(m) + Const(-1j) * k2, s_pow)
                * Pow(x + const(m) + Const(1j) * k2, -s_pow))
    if variant in ("pihalf", "pihalf_bar"):
        y = k0 + (-k2)
        sgn = 1j if variant == "pihalf" else -1j
        phase = cmath.exp(0.5j * s_pow * math.pi) if variant == "pihalf" \
            else cmath.exp(-0.5j * s_pow * math.pi)
        return (Const(phase)
                * Pow(const(1.0 / m) * y, s_pow)
                * Pow(y + const(m) + Const(sgn) * k1, s_pow)
                * Pow(y + const(m) + Const(-sgn) * k1, -s_pow))
    raise ValueError(f"unknown compensator variant {variant!r}")


def boost_family_phase_raw(g: cg.CoverElement, q: MomentumPoint, s: float,
                           eps: float = 1.0) -> Expr:
    """Raw tree for z -> e^{i s Omega(boost(eps z) g, q)}.

    Built from the 2x2 little-group matrix: the numerator is entire and the
    two square-root normalizations appear as ledgered powers; a sequence of
    momenta q gives one batched tree.  The caller anchors the overall phase
    with normalize_at.
    """
    qa, m = per_momentum(q, MomentumPoint.as_array), per_momentum(q, lambda p: p.m)
    A_g = _mat2(*cg.sl2_matrix(g).ravel())
    lam_inv = cg.project(cg.inverse(g))
    # b(q)^-1 = (adj(Q) + m) / c_q, a constant matrix along the family
    q0, q1, q2 = qa[..., 0], qa[..., 1], qa[..., 2]
    binv_num = _mat2(q0 - q1 + m, -q2, -q2, q0 + q1 + m)
    c_q_sq = 2.0 * m * (q0 + m)

    # the x1-boost acts diagonally on [[x0+x1, x2], [x2, x0-x1]]
    half = 0.5 * eps
    B1 = (Exp(Affine(half)), Const(0j), Const(0j), Exp(Affine(-half)))

    Kp = _spinor_plus_m(lam_inv, qa, m, sign=-eps)
    E = _mat2_mul(_mat2_mul(binv_num, B1), _mat2_mul(A_g, Kp))
    V = E[0] + Const(1j) * E[2]

    kp0 = mom_comp(lam_inv, qa, 0, -eps)
    return (Pow(V, 2.0 * s)
            * Pow(const(2.0 * m) * (kp0 + const(m)), -s)
            * const(c_q_sq ** (-s)))


def fixed_element_phase_raw(g: cg.CoverElement, pre, anchor, s: float, m: float,
                            sign: float = -1.0) -> Expr:
    """Raw tree for z -> e^{i s Omega(g, k(z))} with k(z) = pre@boost1(sign z)@anchor."""
    A_g = _mat2(*cg.sl2_matrix(g).ravel())
    lam_inv = cg.project(cg.inverse(g))
    pre = np.asarray(pre, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    Ktil = _adj_spinor_plus_m(pre, anchor, m, sign)
    Kp = _spinor_plus_m(lam_inv @ pre, anchor, m, sign)
    E = _mat2_mul(_mat2_mul(Ktil, A_g), Kp)
    V = E[0] + Const(1j) * E[2]
    k0 = mom_comp(pre, anchor, 0, sign)
    kp0 = mom_comp(lam_inv @ pre, anchor, 0, sign)
    return (Pow(V, 2.0 * s)
            * Pow(Const(2.0 * m) * (k0 + const(m)), -s)
            * Pow(Const(2.0 * m) * (kp0 + const(m)), -s))


def compensated_family_expr(g: cg.CoverElement, q: MomentumPoint, s: float,
                            eps: float = 1.0) -> Expr:
    """The analytic family z -> e^{i s Omega(boost(eps z) g, q)} u_pihalf(k'(z)),
    with k'(z) the momentum transported by (boost(eps z) g)^{-1}.

    This is the quarter-rotation-compensated Wigner factor.  It extends
    analytically into the strip whenever g * quarter-rotation carries the
    reference approach path into the standard wedge class; the expression is
    anchored at z = 0 against the exact shell functions.  For a sequence of
    momenta q the tree is batched, and each row is anchored at its own one.
    """
    lam_inv = cg.project(cg.inverse(g))
    raw = (boost_family_phase_raw(g, q, s, eps)
           * u_power_raw(lam_inv, per_momentum(q, MomentumPoint.as_array),
                         s, per_momentum(q, lambda p: p.m), "pihalf", sign=-eps))
    target = per_momentum(q, lambda p: cmath.exp(1j * s * wg.wigner_angle(g, p))
                           * wg.u_pihalf(wg.transport(g, p), s))
    return normalize_at(raw, 0.0, target)


def uncompensated_phase_expr(g: cg.CoverElement, q: MomentumPoint, s: float,
                             eps: float = 1.0) -> Expr:
    """The bare Wigner phase family, normalized at z = 0.

    For non-integer s this has genuine branch points inside the strip (at the
    zeros of the boosted energy factor); it exists as the negative control.
    """
    raw = boost_family_phase_raw(g, q, s, eps)
    target = per_momentum(q, lambda p: cmath.exp(1j * s * wg.wigner_angle(g, p)))
    return normalize_at(raw, 0.0, target)


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


def cocycle_family_expr(g_wedge: cg.CoverElement, p: MomentumPoint, s: float,
                        g0: cg.CoverElement | None = None) -> Expr:
    """z -> c(boost(z) g_wedge, p) for a wedge-class element g_wedge.

    Uses the identity u(p) c(boost(z) g g0, p) = e^{i s Omega(boost(z) g, p)}
    u_l0 of the transported momentum, writing g_wedge = g * g0 with g0 the
    quarter rotation.
    """
    if g0 is None:
        g0 = cg.lift_rotation(math.pi / 2.0)
    g = cg.compose(g_wedge, cg.inverse(g0))
    return Const(1.0 / wg.u_plain(p, s)) * compensated_family_expr(g, p, s)


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
