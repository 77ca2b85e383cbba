"""Branch-tracked analytic continuation of power products along paths in the
strip R + i(0, pi), with Morera certificates and a log-derivative ODE
continuation as an independent cross check.

Every family continued here has one shape, a `PowerProduct`:

    c * exp(E_1(z) + ... ) * B_1(z)^{s_1} * B_2(z)^{s_2} * ...

where the exponents E_i and the bases B_j are entire functions of z (boosted
momentum components, exponentials) and the s_j are real.  The bases are the
only multivalued part.  A walk keeps every base of a family in one (bases,
..., samples) array: the first round evaluates them on the given samples,
and each later round only at the midpoints it inserts into every interval
where some base turns by 0.999 * pi/2 or more, until none does; each base's
argument ledger is then the principal argument at the start plus the
cumulative sum of the angles of consecutive base ratios.  Values therefore
depend only on the homotopy class of the path and on nothing else: there is
no global cut bookkeeping, and the value at each accepted sample is exact up
to float rounding (step size only influences branch selection, never the
numerical value).

The walk reads the bases and the entire exponents only; the scale and the
exponents s_j enter afterwards, in scale * exp(E + sum_j s_j L_j) with
L_j = log|B_j| + i arg B_j.  So a walk depends on its samples and on the
family's geometry, never on its spin, and the module keeps the
_WALK_MEMO_SIZE most recently used walks in a memo.  The key is the sample
bytes plus, for each base and exponent function, its code object and the
exact values it captures (`_boosted`'s a, b and c, m, u and w, the SL(2)
entries, b).  Only the functions of the builders in `_KEYED_CODE` are
keyed, because they read nothing but their samples and what they capture.
A hit therefore returns the very arrays a fresh walk computes, and every
value stays bit for bit the same.  A family with any other part, such as a
function written in a test, walks without the memo.
`fixed_element_phase_raw` is left out on purpose: the ODE route reads its
log-derivative pointwise, with no walk, and its one walk, the map-back of a
shifted rerun, fires on no default config and would only crowd the memo.

The module also provides the builders of the compensated Wigner-phase
families used by the spin-statistics pipeline.  Every builder walks the one
boosted momentum k(z) = pre @ boost1(-z) @ anchor, written as a cosh z -
b sinh z + c with a, b and c set up once when it builds the family; a half
turn enters only as a pre matrix.  Each builder writes the 2x2 little-group
product out by hand; its value at the real anchor is matched against the
closed-form shell functions of `wigner`, so every continued family agrees
with its real-axis definition by construction.  A spin, and an
exponential's b, may hold one value per row, so families of different
spins at the same anchors walk as one.
"""

from __future__ import annotations

import math
import types
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import covergroup as cg
from . import wigner as wg
from .minkowski import MomentumPoint

_HALF_PI = math.pi / 2.0
# a base below this fraction of its running maximum modulus (at least 1)
# counts as vanishing on the path
_VANISH_TOL = 1e-12
# walks kept in the memo; one default `spinstat` record makes 14 distinct ones
_WALK_MEMO_SIZE = 32
# the 8-point Gauss-Legendre rule on [-1, 1] that morera_residual applies on
# every panel: np.polynomial.legendre.leggauss(8), bit for bit
_GAUSS_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GAUSS_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])


class PowerBaseVanishes(ArithmeticError):
    """A power base passed within tolerance of zero on the walked path.  No
    walk steps round it: a suite turns it into a FAIL record that names it."""


class RefinementLimit(ArithmeticError):
    """Bisection could not bound the per-step phase increment."""


class SingularDeterminant(ArithmeticError):
    """det h stayed below tolerance even after the shifted-argument detour."""


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

    def bases(self, z: np.ndarray) -> np.ndarray:
        """Every power base on the 1-D samples z, in the order of the
        exponents, as one (bases, ..., samples) array."""
        bases = [b for fn, _ in self.pows for b in fn(z)]
        out = np.empty((len(bases),) + (np.broadcast(*bases).shape if bases else z.shape),
                       dtype=complex)
        for row, b in zip(out, bases):
            row[...] = b
        return out

    def entire(self, z: np.ndarray) -> np.ndarray:
        """The summed entire exponents E(z) on the 1-D samples z."""
        total = np.zeros(np.shape(z), dtype=complex)
        for e in self.exps:
            total = total + e(z)
        return total

    def read(self, entire: np.ndarray, logs) -> np.ndarray:
        """scale * exp(E + sum_j s_j L_j) from the summed exponents E and the
        complex logs L_j = log|B_j| + i arg B_j, one (..., samples) array per
        base in the order of the exponents, each argument on the branch the
        caller chose."""
        total = entire
        exponents = [s for _, ss in self.pows for s in ss]
        for s, log in zip(exponents, logs):
            total = total + s * log
        return self.scale * np.exp(total)


def _complex_log(base: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """log|B| + i arg for the values of one base B and their arguments."""
    return np.log(np.abs(base)) + 1j * arg


def _boosted(pre, anchor):
    """z -> the components of k(z) = pre @ boost1(-z) @ anchor on 1-D samples,
    as one (3, ..., samples) array.

    k(z) = a cosh z - b sinh z + c, with a, b and c set up here once; a
    (batch, 3) anchor or (batch, 3, 3) pre gives them a batch axis.  Every
    family is continued in this one boost orientation: a half turn enters
    only through pre, since boost1(z) R(-pi) = R(pi) boost1(-z).
    """
    pre, v = np.asarray(pre, dtype=float), np.asarray(anchor, dtype=float)[..., None, :]
    # (..., 3) components; .T puts the component first, ahead of the batch axis
    a, b, c = (x.T[..., None] for x in (
        pre[..., 0] * v[..., 0] + pre[..., 1] * v[..., 1],
        pre[..., 0] * v[..., 1] + pre[..., 1] * v[..., 0],
        pre[..., 2] * v[..., 2]))

    def at(z):
        return a * np.cosh(z) - b * np.sinh(z) + c

    return at


def eval_principal(expr: PowerProduct, z):
    """Pointwise evaluation with principal-branch powers (no ledger).

    Accepts a sample or an array of samples.  This deliberately ignores
    continuity across cuts; it exists as the negative control against which
    the ledgered walk is compared.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    bases = expr.bases(flat)
    out = expr.read(expr.entire(flat), (_complex_log(b, np.angle(b)) for b in bases))
    return out.reshape(out.shape[:-1] + zs.shape)[()]


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
    return evaluate_along(expr, _path_points(path))[..., -1][()]


def _check_vanishing(bases: np.ndarray, z: np.ndarray):
    """Raise PowerBaseVanishes at the first sample where a base of the
    (bases, ..., samples) array is below _VANISH_TOL of its running maximum
    modulus (at least 1)."""
    size = np.abs(bases)
    low = size < _VANISH_TOL * np.maximum(1.0, np.maximum.accumulate(size, axis=-1))
    if low.any():
        at = np.argwhere(low)[0]
        row = f" in row {at[1]}" if bases.ndim == 3 else ""
        raise PowerBaseVanishes(
            f"power base within {_VANISH_TOL} of zero near z={z[at[-1]]}{row}")


def evaluate_along(expr: PowerProduct, zs) -> np.ndarray:
    """Ledgered values at each supplied sample, walking them in order.

    Every interval between neighbouring samples in which some power base turns
    by 0.999 * pi/2 or more gets its midpoint inserted, all such intervals at
    once, until no base turns that far; each ledger is then the principal
    argument at the first sample plus the running sum of the turns.  The
    bases are kept across rounds as one (bases, ..., samples) array, and a
    round evaluates them at its new midpoints only.  A batched family is
    walked as one (batch, samples) array: an interval is split when any row's
    base turns that far there, and each row keeps its own ledger.  A walk of
    the same samples and geometry is read from the memo (module docstring).
    """
    logs, entire = _memo_walk(expr, np.array(zs, dtype=complex))
    return expr.read(entire, logs)


def _walk(expr: PowerProduct, z: np.ndarray) -> tuple:
    """The spin-free part of evaluate_along: each base's complex log on its
    ledger and the summed entire exponents, at the samples z only.  The logs
    come one base at a time, so that a walk that is not kept never holds
    them all at once."""
    given = np.ones(len(z), dtype=bool)
    depth = np.zeros(len(z) - 1, dtype=int)
    bases = expr.bases(z)
    while True:
        _check_vanishing(bases, z)
        turns = np.angle(bases[..., 1:] / bases[..., :-1])
        split = (np.abs(turns) > 0.999 * _HALF_PI).any(axis=tuple(range(turns.ndim - 1)))
        if not split.any():
            break
        del turns  # the last round's turns build the ledgers; free the others early
        at = np.flatnonzero(split) + 1
        stuck = (depth[split] >= 52) | (np.abs(z[at] - z[at - 1]) < 1e-12)
        if stuck.any():
            raise RefinementLimit(f"cannot bound phase step near z={z[at[stuck][0]]}")
        mid = (z[at - 1] + z[at]) / 2.0
        z = np.insert(z, at, mid)
        bases = np.insert(bases, at, expr.bases(mid), axis=-1)
        given = np.insert(given, at, False)
        depth = np.repeat(depth + split, np.where(split, 2, 1))
    args = np.cumsum(np.concatenate((np.angle(bases[..., :1]), turns), axis=-1), axis=-1)
    logs = (_complex_log(b[..., given], a[..., given]) for b, a in zip(bases, args))
    return logs, expr.entire(z[given])


# (sample bytes, geometry key) -> the read-only result of _walk, least recently used first
_WALKS: OrderedDict = OrderedDict()


def _memo_walk(expr: PowerProduct, z: np.ndarray) -> tuple:
    """_walk through the memo when every part of expr has a geometry key."""
    parts = []
    for fn in (*(fn for fn, _ in expr.pows), *expr.exps):
        part = _geometry_key(fn)
        if part is None:
            return _walk(expr, z)
        parts.append(part)
    key = (z.tobytes(), len(expr.pows), tuple(parts))
    walked = _WALKS.get(key)
    if walked is None:
        logs, entire = _walk(expr, z)
        walked = _WALKS[key] = tuple(logs), entire
        for a in (*walked[0], entire):
            a.flags.writeable = False
        if len(_WALKS) > _WALK_MEMO_SIZE:
            _WALKS.popitem(last=False)
    else:
        _WALKS.move_to_end(key)
    return walked


def _geometry_key(fn):
    """fn's code object and the exact values it captures, or None when fn
    may read anything else (its code is not in _KEYED_CODE, or it captures
    something other than numbers, plain arrays and keyed functions)."""
    if getattr(fn, "__code__", None) not in _KEYED_CODE:
        return None
    key = [fn.__code__]
    for cell in fn.__closure__ or ():
        v = cell.cell_contents
        if type(v) is np.ndarray:
            part = (v.dtype.str, v.shape, v.tobytes())
        elif type(v) is types.FunctionType:
            part = _geometry_key(v)
            if part is None:
                return None
        elif isinstance(v, (int, float, complex, np.number)):
            part = (type(v), np.asarray(v).tobytes())
        else:
            return None
        key.append(part)
    return tuple(key)


# not a second walk: perfbench/tracer.py wraps this name, and ROADMAP items
# 3 and 9 delete it together with Walker
continue_robust = continue_along


def morera_residual(expr: PowerProduct, contour, panels: int = 4,
                    principal: bool = False) -> float:
    """|closed contour integral| by composite Gauss-Legendre quadrature: the
    fixed 8-point rule (_GAUSS_NODES, _GAUSS_WEIGHTS) on each of `panels`
    equal panels of every edge.

    A small value certifies analyticity on the contour's interior; a batched
    family gives the largest |integral| over its rows.  With principal=True
    the powers are evaluated without ledger; a function whose base crosses
    the cut then produces a large residual, which is the documented negative
    control.
    """
    pts = np.array(_path_points(contour), dtype=complex)
    if abs(pts[0] - pts[-1]) > 1e-14:
        pts = np.append(pts, pts[0])
    if not np.all((1e-9 < pts.imag) & (pts.imag < math.pi - 1e-9)):
        raise ValueError("Morera contour must lie strictly inside the open strip")
    a, b = pts[:-1, None], pts[1:, None]
    pa = a + (b - a) * (np.arange(panels) / panels)
    pb = a + (b - a) * (np.arange(1, panels + 1) / panels)
    mid, half = (pa + pb) / 2.0, (pb - pa) / 2.0
    zs = (mid[..., None] + half[..., None] * _GAUSS_NODES).ravel()
    if principal:
        f = eval_principal(expr, zs)
    else:
        f = evaluate_along(expr, np.concatenate(([pts[0]], zs)))[..., 1:]
    # Python's abs per row: np.abs can differ from it in the last bit
    integrals = np.sum((_GAUSS_WEIGHTS * half[..., None]).ravel() * f, axis=-1)
    return float(max(map(abs, np.atleast_1d(integrals))))


# ---------------------------------------------------------------------------
# builders of the compensated families
# ---------------------------------------------------------------------------

def normalize_at(expr: PowerProduct, target: complex) -> PowerProduct:
    """Scale expr so that its value at the anchor z = 0 equals the closed-form target.

    The correction must be a pure phase (the builders produce the right
    modulus) in every row of a batched family; a modulus mismatch means the
    family's structure is wrong.
    """
    ratio = target / evaluate_along(expr, [0.0])[..., 0]
    if np.any(np.abs(np.abs(ratio) - 1.0) > 1e-6):
        raise ArithmeticError(
            f"anchor normalization has modulus {np.abs(ratio)}, expected 1")
    return expr * ratio


def exp_mink_dot(b, pre, anchor) -> PowerProduct:
    """exp(i b . k(z)) for k(z) = pre @ boost1(-z) @ anchor, the Minkowski
    dot written out; anchor may be (batch, 3), and b is (3,) or one row per
    anchor."""
    b0, b1, b2 = (_per_row(c) for c in np.asarray(b, dtype=complex).T)
    k = _boosted(pre, anchor)

    def exponent(z):
        k0, k1, k2 = k(z)
        return 1j * b0 * k0 - 1j * b1 * k1 - 1j * b2 * k2

    return PowerProduct(exps=(exponent,))


def u_power_raw(pre, anchor, s_pow, m) -> PowerProduct:
    """The quarter-rotated compensator u_pihalf(k(z), s_pow) as a product of
    ledgered powers of the components of k(z) = pre @ boost1(-z) @ anchor.

    On the real shell its complex conjugate is, up to a constant phase, the
    same family with k1 flipped, i.e. with diag(1, -1, 1) folded into pre.
    s_pow and m are numbers, or hold one value per anchor.  The overall
    branch is fixed by the caller through normalize_at.
    """
    s_pow, m = _per_row(s_pow), _per_row(m)
    k = _boosted(pre, anchor)

    def bases(z):
        k0, k1, k2 = k(z)
        y = k0 - k2
        return y / m, y + m + 1j * k1, y + m - 1j * k1

    return PowerProduct(np.exp(0.5 * math.pi * s_pow * 1j), (),
                        ((bases, (s_pow, s_pow, -s_pow)),))


# Both raw phase families need V = e00 + i e10 of a 2x2 product E = L R whose
# left factor is L = adj(K) + m = [[k0-k1+m, -k2], [-k2, k0+k1+m]] for a
# momentum k: V = u r00 + w r10 with u = L00 + i L10 and w = L01 + i L11.
# The right factor ends in K' + m = [[k0'+k1'+m, k2'], [k2', k0'-k1'+m]].

def boost_family_phase_raw(g: cg.CoverElement, q: MomentumPoint, s) -> PowerProduct:
    """Raw family z -> e^{i s Omega(boost(z) g, q)}.

    Built from the 2x2 little-group matrix b(q)^-1 B1(z) A_g (K'(z) + m),
    with K'(z) the spinor of k'(z) = project(g^-1) boost1(-z) q: the
    numerator is entire and the two square-root normalizations appear as
    ledgered powers; a MomentumPoint stack q, a stack of elements g, or both
    give one batched family, and s is a number or one spin per row.  The
    reversed boost needs no family of its own: with R = R(pi),
    Omega(boost(-z) g, q) = Omega(boost(z) R^-1 g R, R^-1 q).  The caller
    anchors the phase with normalize_at.
    """
    qa, m, s = q.as_array(), _per_row(q.m), _per_row(s)
    a00, a01, a10, a11 = (_per_row(e) for e in cg._sl2_entries(g.gamma, g.omega))
    k = _boosted(cg.project(cg.inverse(g)), qa)
    # b(q)^-1 = (adj(Q) + m) / c_q, constant along the family
    q0, q1, q2 = (_per_row(c) for c in qa.T)
    u, w = q0 - q1 + m - 1j * q2, 1j * (q0 + q1 + m) - q2
    c_q_sq = 2.0 * m * (q0 + m)

    def bases(z):
        k0, k1, k2 = k(z)
        # the x1-boost B1 = diag(e^{z/2}, e^{-z/2}) sits between the factors
        e = np.exp(0.5 * z)
        kp = k0 + k1 + m
        v = u * e * (a00 * kp + a01 * k2) + w / e * (a10 * kp + a11 * k2)
        return v, 2.0 * m * (k0 + m)

    return PowerProduct(c_q_sq ** (-s), (), ((bases, (2.0 * s, -s)),))


def fixed_element_phase_raw(g: cg.CoverElement, pre, anchor, s: float,
                            m: float) -> PowerProduct:
    """Raw family z -> e^{i s Omega(g, k(z))} with k(z) = pre @ boost1(-z) @ anchor,
    from the 2x2 product (adj(K) + m) A_g (K' + m) for k' = project(g^-1) k;
    a stack of elements g gives one row per element."""
    a00, a01, a10, a11 = (_per_row(e) for e in cg._sl2_entries(g.gamma, g.omega))
    k = _boosted(pre, anchor)
    moved = _boosted(cg.project(cg.inverse(g)) @ np.asarray(pre, dtype=float), anchor)

    def bases(z):
        k0, k1, k2 = k(z)
        l0, l1, l2 = moved(z)
        u, w = k0 - k1 + m - 1j * k2, 1j * (k0 + k1 + m) - k2
        lp = l0 + l1 + m
        v = (u * a00 + w * a10) * lp + (u * a01 + w * a11) * l2
        return v, 2.0 * m * (k0 + m), 2.0 * m * (l0 + m)

    return PowerProduct(pows=((bases, (2.0 * s, -s, -s)),))


# The builders whose base and exponent functions read nothing but their
# samples and what they capture; fixed_element_phase_raw is left out (module
# docstring).
_KEYED_CODE = frozenset(c for f in (_boosted, exp_mink_dot, u_power_raw, boost_family_phase_raw)
                        for c in f.__code__.co_consts if isinstance(c, types.CodeType))


def compensated_family_expr(g: cg.CoverElement, q: MomentumPoint, s: float) -> PowerProduct:
    """The analytic family z -> e^{i s Omega(boost(z) g, q)} u_pihalf(k'(z)),
    with k'(z) the momentum transported by (boost(z) g)^{-1}.

    This is the quarter-rotation-compensated Wigner factor.  It extends
    analytically into the strip whenever g * quarter-rotation carries the
    reference approach path into the standard wedge class; the family is
    anchored at z = 0 against the exact shell functions.  For a MomentumPoint
    stack q the family is batched, and each row is anchored at its own momentum.
    """
    raw = (boost_family_phase_raw(g, q, s)
           * u_power_raw(cg.project(cg.inverse(g)), q.as_array(), s, q.m))
    moved = wg.transport(g, q)
    target = (np.exp(1j * s * wg._little_group_element(g, q, moved).omega)
              * wg.u_pihalf(moved, s))
    return normalize_at(raw, target)


def uncompensated_phase_expr(g: cg.CoverElement, q: MomentumPoint, s: float) -> PowerProduct:
    """The bare Wigner phase family, normalized at z = 0.

    For non-integer s this has genuine branch points inside the strip (at the
    zeros of the boosted energy factor); it exists as the negative control.
    """
    return normalize_at(boost_family_phase_raw(g, q, s),
                        np.exp(1j * s * wg.wigner_angle(g, q)))


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

    h_batch(t0s, zs) returns h_{t0}(z) = f2(z) f1(z + t0) for an array of
    offsets at the strip samples, shape (offsets, samples, n, n).  f1_real(t)
    is f1 on the real axis.  log_derivative(zs, delta), if given, returns
    A = h^{-1} dh/dt0 at the samples, shape (samples, n, n), and checks the
    conditioning of h itself; h_batch then only maps a shifted rerun back.
    A closed-form h(z, t0) given to ode_continue instead receives the whole
    sample array z and returns one scalar or one n x n matrix per sample.
    """

    h_batch: callable
    f1_real: callable
    log_derivative: callable = None


def _family_from_callable(h) -> OdeFamily:
    # Closed-form h(z, t0) with f2 = identity, so f1 = h(., 0); one call per
    # offset on all samples, a scalar per sample read as a 1x1 matrix.
    def batch(t0s, zs):
        zs = np.asarray(zs, dtype=complex)
        rows = [np.asarray(h(zs, t0), dtype=complex) for t0 in t0s]
        return np.stack([r if r.ndim > zs.ndim else r[..., None, None] for r in rows])

    return OdeFamily(batch, lambda t: batch([0.0], [complex(t)])[0, 0])


def _split(counts: np.ndarray):
    """For segments of counts[i] steps each: every step's segment and its
    number k = 0 .. counts[i] - 1 within that segment."""
    seg = np.repeat(np.arange(len(counts)), counts)
    return seg, np.arange(len(seg)) - (np.cumsum(counts) - counts)[seg]


def _uniform_nodes(path, steps: int) -> np.ndarray:
    """About `steps` nodes along the path, spread over its segments by length;
    segment a -> b of n steps gives a + k * ((b - a) / n), k = 0 .. n - 1, the
    float operations of np.linspace(a, b, n + 1)[:-1], then the path's end."""
    pts = np.array(_path_points(path), dtype=complex)
    delta = np.diff(pts)
    lengths = np.abs(delta)
    # Python's left-to-right sum, as np.sum adds 8 or more terms pairwise
    counts = np.maximum(1, np.round(steps * lengths / sum(lengths.tolist()))).astype(int)
    seg, k = _split(counts)
    return np.append(k * (delta / counts)[seg] + pts[seg], pts[-1])


def _subdivide(nodes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The nodes with interval a -> b cut into n = counts[i] equal steps,
    at a + (b - a) * j / n for j = 1 .. n - 1 and at b itself, so that every
    node is one of the samples."""
    seg, k = _split(counts)
    fine = nodes[seg] + np.diff(nodes)[seg] * (k + 1) / counts[seg]
    fine[np.cumsum(counts) - 1] = nodes[1:]
    return np.concatenate((nodes[:1], fine))


def _with_midpoints(full: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(full) - 1, dtype=complex)
    out[0::2] = full
    out[1::2] = (full[:-1] + full[1:]) / 2.0
    return out


_FD_OFFSETS = (0.0, 1.0, -1.0, 0.5, -0.5)
_FD_DELTA = 1e-3
# the fine pass steps _FD_DELTA * min(1, _FD_NORM / max ||A|| over the scan)
_FD_NORM = 10.0
# the argument shifts of the reruns of a singular problem: 0.1, then 1.7 times the last
_SHIFTS = (0.1, 0.1 * 1.7, 0.1 * 1.7 * 1.7, 0.1 * 1.7 * 1.7 * 1.7, 0.1 * 1.7 * 1.7 * 1.7 * 1.7)
_STEPS = 120
_STEP_BUDGET = 0.01
_MAX_STEPS = 100_000
_COND_MAX = 1e12


def _richardson(full, half, delta: float):
    """The t0-derivative at 0 of F from the central differences full =
    F(delta) - F(-delta) and half = F(delta/2) - F(-delta/2), Richardson-refined."""
    return (4.0 * (half / delta) - full / (2.0 * delta)) / 3.0


def offset_log_derivative(build, zs, delta: float) -> np.ndarray:
    """d/dt0 log f_{t0}(z) at t0 = 0 on the 1-D samples zs, with no walk, by
    the Richardson pair of _log_derivative.

    build(t0s) returns f_{t0} as a PowerProduct with one row per offset and
    one scale and set of exponents for all rows.  log f_{t0} - log f_{-t0}
    is the difference of the entire exponents plus each s_j times the
    principal log of B_j(t0) / B_j(-t0), which is the difference of the
    rows' ledgered logs while that ratio stays near 1, as it does for a
    small offset away from a zero of the base.  The scale cancels, and so
    does any factor that does not move with t0, which build may leave out.
    """
    rows = build((delta, -delta, 0.5 * delta, -0.5 * delta))
    z = np.asarray(zs, dtype=complex)
    entire = rows.entire(z)
    diff = entire[0::2] - entire[1::2]
    exponents = [s for _, ss in rows.pows for s in ss]
    for s, b in zip(exponents, rows.bases(z)):
        ratio = b[0::2] / b[1::2]
        # log|r| + i arg r, not np.log(r): the same principal log, several times faster
        diff = diff + s * _complex_log(ratio, np.angle(ratio))
    return _richardson(diff[0], diff[1], delta)


def _log_derivative(fam: "OdeFamily", zs, delta: float):
    """A(z) = h^{-1} h_hat by Richardson central differences of step delta,
    from fam.log_derivative if the family has one, else from h_batch at the
    offsets delta * _FD_OFFSETS; and h(z), or None when h was not read."""
    if fam.log_derivative is not None:
        return None, fam.log_derivative(zs, delta)
    H = dict(zip(_FD_OFFSETS, fam.h_batch(delta * np.array(_FD_OFFSETS), zs)))
    hhat = _richardson(H[1.0] - H[-1.0], H[0.5] - H[-0.5], delta)
    return H[0.0], np.linalg.solve(H[0.0], hhat)


@dataclass
class _Rerun(OdeFamily):
    """A family rerun on a shifted path; shifts are those left to its reruns."""
    shifts: tuple = ()


def ode_continue(family, path) -> np.ndarray:
    """Continue f1 along the path by integrating f1' = f1 (h^{-1} h_hat).

    family is an OdeFamily or a closed-form h(z, t0) on arrays of samples
    (see OdeFamily).  h_hat is the t0-derivative of h_{t0} at 0 by Richardson-
    refined central differences (_log_derivative): a coarse scan at delta =
    _FD_DELTA sizes the steps and the fine pass's delta (_FD_NORM), the fine
    pass reuses the scan's A at the coarse nodes when its delta is the same,
    and _rk4_walk integrates with the step length throttled so that
    |dz| * ||h^{-1} h_hat|| stays below _STEP_BUDGET.  If h is singular on
    the path (condition number _COND_MAX or more at a coarse node, a
    non-finite A, or a log-derivative so large that the throttle would need
    more than _MAX_STEPS steps, as at a zero of det h on a node), the problem
    is rerun at z + shift, shift the next of _SHIFTS (the zeros are isolated,
    so they move off the path), and mapped back through
    f1(z) = f1(z+t0) h(z+t0)^{-1} h_{-t0}(z+t0).
    """
    fam = family if isinstance(family, OdeFamily) else _family_from_callable(family)
    shifts = fam.shifts if isinstance(fam, _Rerun) else _SHIFTS

    coarse = _uniform_nodes(path, max(16, _STEPS // 3))
    seg = np.abs(np.diff(coarse))
    try:
        hc, A_scan = _log_derivative(fam, coarse, _FD_DELTA)
        norms = np.linalg.norm(A_scan, axis=(1, 2))
        w = np.maximum(norms[:-1], norms[1:])
        steps = np.maximum(1, np.ceil(seg * np.maximum(_STEPS / seg.sum(), w / _STEP_BUDGET)))
        # conditioning, not det, as in extract_D: det h scales with the mass;
        # the step count sees a zero of a 1x1 h, whose condition number is 1
        singular = not (np.all(np.isfinite(norms)) and steps.sum() <= _MAX_STEPS
                        and (hc is None or np.max(np.linalg.cond(hc)) < _COND_MAX))
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        if not shifts:
            raise SingularDeterminant(
                f"h is singular (condition number >= {_COND_MAX:g} or more than "
                f"{_MAX_STEPS} steps) along the shifted path too")
        shift, pts = shifts[0], _path_points(path)
        # g(z) := f1(z + shift) obeys the same ODE with data read at z + shift,
        # i.e. the original family walked along the shifted path.
        g_end = ode_continue(_Rerun(fam.h_batch, fam.f1_real, fam.log_derivative, shifts[1:]),
                             [z + shift for z in pts])
        h_at, h_minus = fam.h_batch(np.array([0.0, -shift]), [pts[-1] + shift])[:, 0]
        return g_end @ np.linalg.inv(h_at) @ h_minus

    counts = steps.astype(int)
    zs = _with_midpoints(_subdivide(coarse, counts))
    delta = _FD_DELTA * (_FD_NORM / max(_FD_NORM, np.max(norms)))
    A = np.empty((len(zs),) + A_scan.shape[1:], dtype=complex)
    fresh = np.ones(len(zs), dtype=bool)
    if delta == _FD_DELTA:
        # the coarse nodes, every second sample of _subdivide's, already have A
        nodes = 2 * np.concatenate(([0], np.cumsum(counts)))
        A[nodes], fresh[nodes] = A_scan, False
    _, A[fresh] = _log_derivative(fam, zs[fresh], delta)
    return _rk4_walk(np.asarray(fam.f1_real(zs[0].real), dtype=complex), A, zs)


def _rk4_walk(f, A, zs) -> np.ndarray:
    """f carried along f' = f A by classical RK4 steps zs[j] -> zs[j + 2].

    The ODE is linear, so step j is f -> f P_j with P_j = I + dz/6 (K1 + 2 K2
    + 2 K3 + K4), K1 = A_j, K2 = (I + dz/2 K1) A_{j+1/2}, K3 = (I + dz/2 K2)
    A_{j+1/2}, K4 = (I + dz K3) A_{j+1}; the P_j multiply in order, pairwise."""
    eye = np.eye(A.shape[-1])
    dz = (zs[2::2] - zs[:-2:2])[:, None, None]
    k1 = A[:-2:2]
    k2 = (eye + 0.5 * dz * k1) @ A[1::2]
    k3 = (eye + 0.5 * dz * k2) @ A[1::2]
    k4 = (eye + dz * k3) @ A[2::2]
    P = eye + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    while len(P) > 1:
        if len(P) % 2:
            P = np.concatenate((P, eye[None]))
        P = P[0::2] @ P[1::2]
    return f @ P[0]
