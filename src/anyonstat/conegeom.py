"""Space-like directions, rest-frame cone classes, dual cones, approach paths
with winding, the Poincare action on paths, and the exchange predicate.

The set of space-like unit directions retracts onto the spatial circle (the
spatial part of a unit space-like vector never vanishes), so a homotopy
class of approach paths is encoded by a single real lifted angle.  Cones are
the causal completions of open salient sectors in the rest plane; a boosted
cone is represented by its transported direction interval, which is all the
path predicates ever consume.

Directions, sectors and paths may be stacks (array angles, vectors (..., 3));
a stack row whose image degenerates is NaN, which the checks let through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import covergroup as cg
from .minkowski import Vec3, any_set, as_array, minkowski_product

TWO_PI = 2.0 * math.pi

#: The standard reference direction (0, 0, -1), lifted angle -pi/2.
REFERENCE_ANGLE = -math.pi / 2.0


class DegenerateImage(ValueError):
    """A transformed direction interval stopped being an open interval."""


@dataclass(frozen=True)
class SpacelikeDirection:
    """A unit space-like vector together with a lift of its spatial angle."""

    e: Vec3
    lifted_angle: float

    def __post_init__(self):
        a = self.e.as_array()
        if any_set(abs(minkowski_product(a, a) + 1.0) > 1e-12):
            raise ValueError("direction must satisfy e.e = -1")
        ang = np.arctan2(a[..., 2], a[..., 1])
        if any_set(abs(_wrap(self.lifted_angle - ang)) > 1e-9):
            raise ValueError("lifted_angle does not project to the spatial angle")

    @classmethod
    def from_angles(cls, lifted_angle: float, tilt: float = 0.0) -> "SpacelikeDirection":
        """Unit space-like direction at the given lifted spatial angle.

        tilt is the time component; the spatial radius sqrt(1 + tilt^2) keeps
        the vector on the unit space-like hyperboloid.
        """
        r = math.sqrt(1.0 + tilt * tilt)
        return cls(Vec3(tilt, r * math.cos(lifted_angle), r * math.sin(lifted_angle)),
                   lifted_angle)


def _wrap(a: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    return (a + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True, eq=False)
class SpatialSector:
    """An open salient cone alpha < angle < beta in the rest plane, with apex.

    After a boost the pair (alpha, beta) is reinterpreted as the transported
    direction interval and the true edge directions (no longer pure spatial)
    are kept alongside, so that repeated transformations compose exactly.
    The opening must stay inside (0, pi).
    """

    alpha: float
    beta: float
    apex: Vec3 = field(default_factory=lambda: Vec3(0.0, 0.0, 0.0))
    edges: tuple | None = None

    def __post_init__(self):
        opening = self.beta - self.alpha
        if any_set((opening <= 0.0) | (opening >= math.pi)):
            raise ValueError(f"sector opening must lie in (0, pi), got {opening}")
        if self.edges is not None:
            for v, ang in zip(self.edges, (self.alpha, self.beta)):
                a = as_array(v)
                if any_set(abs(minkowski_product(a, a) + 1.0) > 1e-9):
                    raise ValueError("sector edge directions must be unit space-like")
                if any_set(abs(_wrap(np.arctan2(a[..., 2], a[..., 1]) - ang)) > 1e-9):
                    raise ValueError("edge direction does not project to its angle")

    @property
    def opening(self) -> float:
        return self.beta - self.alpha

    def edge_vectors(self) -> tuple:
        if self.edges is not None:
            return tuple(as_array(v) for v in self.edges)
        return _rest_direction(self.alpha), _rest_direction(self.beta)

    def angle_inside(self, phi, tol: float = 1e-12):
        rel = (phi - self.alpha) % TWO_PI
        return (-tol <= rel) & (rel <= self.opening + tol)


def _rest_direction(angle) -> np.ndarray:
    """The unit spatial directions (0, cos, sin) at the given angles, (..., 3)."""
    return Vec3(0.0 * angle, np.cos(angle), np.sin(angle)).as_array()


def _ray_distance(v, angle: float):
    """Euclidean distance from planar points (..., 2) to the closed ray at `angle`."""
    u = np.array([math.cos(angle), math.sin(angle)])
    t = np.maximum(0.0, v @ u)
    off = v - t[..., None] * u
    return np.hypot(off[..., 0], off[..., 1])


def sector_depth(sector: SpatialSector, v):
    """Distance from spatial points (..., 2) to the complement of the sector cone.

    Zero when the point is outside; for points inside, the nearest complement
    point lies on one of the two boundary rays.
    """
    v = np.asarray(v, dtype=float)
    depth = np.minimum(_ray_distance(v, sector.alpha), _ray_distance(v, sector.beta))
    inside = sector.angle_inside(np.arctan2(v[..., 1], v[..., 0]))
    return np.where(inside, depth, 0.0)[()]  # [()]: a single point gives a scalar


def cone_contains_point(sector: SpatialSector, x, margin: float = 0.0):
    """Membership of spacetime points (..., 3) in the causal completion of the sector."""
    v = np.asarray(x.as_array() if hasattr(x, "as_array") else x, dtype=float)
    v = v - sector.apex.as_array()
    return sector_depth(sector, v[..., 1:]) > np.abs(v[..., 0]) + margin


def contains_direction(sector: SpatialSector, direction) -> bool:
    """Whether translating the cone along the direction keeps it inside itself.

    For a convex cone this is membership of the direction in the closure of
    the apex-at-origin causal completion: the spatial part must lie in the
    closed angular interval and its depth must dominate the time component.
    """
    e = as_array(direction.e if isinstance(direction, SpacelikeDirection) else direction)
    phi = math.atan2(e[2], e[1])
    if not sector.angle_inside(phi):
        return False
    return bool(sector_depth(sector, e[1:]) >= abs(e[0]) - 1e-12)


def direction_in_wedge(e, strict_margin: float = 1e-12) -> bool:
    """Strict interior of the standard wedge x1 > |x0| for a direction."""
    a = as_array(e)
    return a[1] - abs(a[0]) > strict_margin


def dual_sector(sector: SpatialSector) -> SpatialSector:
    """The open dual cone; for an interval (a, b) it is (b - pi/2, a + pi/2)."""
    return SpatialSector(sector.beta - math.pi / 2.0, sector.alpha + math.pi / 2.0)


def difference_sector(c1: SpatialSector, c2: SpatialSector) -> SpatialSector | None:
    """The sector hull of c2 - c1 (pointwise differences), or None if not salient."""
    a2, b2 = c2.alpha, c2.beta
    base = (a2 + b2) / 2.0
    mid1 = (c1.alpha + c1.beta) / 2.0 + math.pi
    best = None
    k0 = round((base - mid1) / TWO_PI)
    for k in (k0 - 1, k0, k0 + 1):
        a1 = c1.alpha + math.pi + k * TWO_PI
        b1 = c1.beta + math.pi + k * TWO_PI
        lo, hi = min(a2, a1), max(b2, b1)
        if best is None or hi - lo < best[1] - best[0]:
            best = (lo, hi)
    if best[1] - best[0] >= math.pi - 1e-12:
        return None
    return SpatialSector(best[0], best[1])


def difference_salient(c1: SpatialSector, c2: SpatialSector) -> bool:
    return difference_sector(c1, c2) is not None


def c12_negative_axis(c1: SpatialSector, c2: SpatialSector) -> bool:
    """Whether the dual of the difference sector contains the negative x-axis."""
    d = difference_sector(c1, c2)
    if d is None:
        return False
    dual = dual_sector(d)
    rel = (math.pi - dual.alpha) % TWO_PI
    return 1e-12 < rel < dual.opening - 1e-12


_ORACLE_RADII = (0.7, 1.4, 2.8, 5.6)
_ORACLE_FRACS = (0.03, 0.25, 0.5, 0.75, 0.97)
_ORACLE_TIMES = (-1.0, -0.95, -0.5, 0.0, 0.5, 0.95, 1.0)


def _cone_samples(sector: SpatialSector) -> np.ndarray:
    """A deterministic spread of points inside the cone, boundary-heavy.

    Radius-major, then fraction, then time: shape (radii * fracs * times, 3).
    """
    ang = sector.alpha + np.array(_ORACLE_FRACS) * sector.opening
    v = np.array(_ORACLE_RADII)[:, None, None] * np.stack([np.cos(ang), np.sin(ang)], -1)
    t = np.array(_ORACLE_TIMES) * sector_depth(sector, v)[..., None]
    v = np.broadcast_to(v[:, :, None, :], t.shape + (2,))
    return (np.concatenate([t[..., None], v], -1) + sector.apex.as_array()).reshape(-1, 3)


def causally_separated(c1: SpatialSector, c2: SpatialSector,
                       margin: float = 1e-9) -> bool:
    """Space-like separation of two cones.

    Requires disjoint direction intervals plus a pairwise space-like check on
    a deterministic boundary-heavy sample of both cones.
    """
    gap1 = (c2.alpha - c1.beta) % TWO_PI
    gap2 = (c1.alpha - c2.beta) % TWO_PI
    if gap1 < 1e-12 or gap2 < 1e-12 or gap1 + gap2 > TWO_PI:
        return False
    xs, ys = _cone_samples(c1), _cone_samples(c2)
    d = xs[:, None, :] - ys[None, :, :]
    sq = d[..., 0] ** 2 - d[..., 1] ** 2 - d[..., 2] ** 2
    return bool(np.max(sq) < -margin)


@dataclass(frozen=True, eq=False)
class ConePath:
    """A cone together with the homotopy class of its approach path.

    accumulated_angle is the endpoint of the lifted direction path from the
    reference direction; its residue mod 2*pi must land in the direction
    interval of the cone.  Transformed paths also remember the true endpoint
    direction so further transformations compose exactly.
    """

    sector: SpatialSector
    accumulated_angle: float
    direction: SpacelikeDirection | None = None

    def __post_init__(self):
        rel = (self.accumulated_angle - self.sector.alpha) % TWO_PI
        if any_set((rel < -1e-9) | (rel > self.sector.opening + 1e-9)):
            raise ValueError("accumulated angle does not end inside the sector")
        if self.direction is not None:
            if any_set(abs(self.direction.lifted_angle - self.accumulated_angle) > 1e-9):
                raise ValueError("endpoint direction lift disagrees with the path")

    def endpoint_vector(self) -> np.ndarray:
        if self.direction is not None:
            return self.direction.e.as_array()
        return _rest_direction(self.accumulated_angle)


def path_equivalent(p1: ConePath, p2: ConePath, ambient: SpatialSector) -> bool:
    """Whether two approach paths are deformable into each other inside ambient.

    Both accumulated angles must land in the ambient interval; equivalence
    means they land on the same lifted copy of it.
    """
    ks = []
    for p in (p1, p2):
        rel = (p.accumulated_angle - ambient.alpha) % TWO_PI
        if not -1e-9 <= rel <= ambient.opening + 1e-9:
            raise ValueError("path does not end inside the ambient sector")
        ks.append(round((p.accumulated_angle - ambient.alpha - rel) / TWO_PI))
    return ks[0] == ks[1]


def exchange_hypothesis(p1: ConePath, p2: ConePath) -> bool:
    """The ordered exchange condition for a pair of localization paths.

    True when the cones are causally separated and the composite path from
    cone 2 to cone 1 proceeds directly in the mathematically positive sense,
    i.e. the lifted angle difference lies in (0, 2*pi).  The condition is
    deliberately not symmetric under swapping the arguments.
    """
    if not causally_separated(p1.sector, p2.sector):
        return False
    delta = p1.accumulated_angle - p2.accumulated_angle
    return 1e-12 < delta < TWO_PI - 1e-12


def _lifted_circle_action(g: cg.CoverElement, vecs, lift_start) -> np.ndarray:
    """The lifted angles of the directions vecs transported by g.

    The group element is connected to the identity along the canonical path
    sigma -> (sigma * gamma, sigma * omega) and the retracted angle of each
    moving image is tracked continuously over a sigma grid: every step
    between neighbouring grid images must turn by at most one radian, else
    the grid is doubled.  Any path to g in the cover gives the same lift,
    which is what makes repeated transports compose exactly; deck elements
    shift the result by full turns.

    A stack g of shape G takes vecs of shape G + (..., 3); each row has its
    grid doubled only while its own steps are too large, and a row that
    cannot be tracked is NaN (a single g raises DegenerateImage).
    """
    rows = np.shape(g.omega)
    e = np.asarray(vecs, dtype=float)
    shape = e.shape[:-1]
    e = e.reshape((math.prod(rows), -1, 3))
    gamma, omega = np.asarray(g.gamma).reshape(-1), np.asarray(g.omega).reshape(-1)
    turn, todo = np.empty(e.shape[:-1]), np.arange(len(e))
    n = max(16, int(8 * (1.0 + np.abs(omega).max(initial=0.0) / math.pi)))
    for _ in range(6):
        lam = cg.project_path(cg.CoverElement(gamma[todo], omega[todo]),
                              np.arange(1, n + 1) / n)
        ee = e[todo]
        images = np.einsum("rkij,rvj->rvki", lam[:, :, 1:], ee)
        pts = np.concatenate([ee[:, :, None, 1:], images], axis=2)
        prev, cur = pts[..., :-1, :], pts[..., 1:, :]
        steps = np.arctan2(prev[..., 0] * cur[..., 1] - prev[..., 1] * cur[..., 0],
                           prev[..., 0] * cur[..., 0] + prev[..., 1] * cur[..., 1])
        fine = ~(np.abs(steps) > 1.0).any(axis=(1, 2))
        turn[todo[fine]] = np.cumsum(steps[fine], axis=-1)[..., -1]
        todo, n = todo[~fine], 2 * n
        if not todo.size:
            return (lift_start + turn.reshape(shape))[()]
    if not rows:
        raise DegenerateImage("direction transport could not be tracked continuously")
    turn[todo] = np.nan
    return (lift_start + turn.reshape(shape))[()]


def poincare_act_path(g: cg.PoincareElement, path: ConePath) -> ConePath:
    """The natural action on paths of cones.

    The cone's edge directions and the path's endpoint direction are moved by
    the projected matrix (exact), while their lifted angles are transported
    by the lifted circle action, so deck elements act by full-turn shifts.
    g may be a stack of elements and path a stack of paths, acting row by
    row; a row whose image degenerates is NaN (a single path raises).
    """
    sec = path.sector
    starts = np.stack(np.broadcast_arrays(sec.alpha, sec.beta, path.accumulated_angle), -1)
    vecs = np.stack(np.broadcast_arrays(*sec.edge_vectors(), path.endpoint_vector()), -2)
    shape = np.broadcast_shapes(np.shape(g.lorentz.omega), starts.shape[:-1])
    lor = cg.CoverElement(*(np.broadcast_to(x, shape)[()]
                            for x in (g.lorentz.gamma, g.lorentz.omega)))
    lifts = _lifted_circle_action(lor, np.broadcast_to(vecs, shape + (3, 3)), starts)
    a2, b2, acc = lifts[..., 0], lifts[..., 1], lifts[..., 2]
    bad = ~((0.0 < b2 - a2) & (b2 - a2 < math.pi))
    if not shape and bad:
        raise DegenerateImage(f"transformed direction interval has opening {b2 - a2}")
    lam = cg.project(lor)
    moved = (lam[..., None, :, :] @ vecs[..., None])[..., 0]
    ea, eb, d = moved[..., 0, :], moved[..., 1, :], moved[..., 2, :]
    apex = (lam @ sec.apex.as_array()[..., None])[..., 0] + g.translation.as_array()
    nan = np.where(bad, np.nan, 0.0)[()]  # NaN on the degenerate rows
    a2, b2, acc = a2 + nan, b2 + nan, acc + nan
    ea, eb, d, apex = (x + nan[..., None] for x in (ea, eb, d, apex))
    sector = SpatialSector(a2, b2, Vec3.from_array(apex), edges=(ea, eb))
    return ConePath(sector, acc, direction=SpacelikeDirection(Vec3.from_array(d), acc))


def in_wedge_class(g: cg.CoverElement) -> bool:
    """Whether g carries the reference path class into the standard wedge class.

    The endpoint direction must lie strictly inside the wedge and the lifted
    angle must land on the wedge's own copy of (-pi/2, pi/2): a 2*pi winding
    disqualifies even though the endpoint direction is unchanged.
    """
    e0 = np.array([0.0, 0.0, -1.0])
    if not direction_in_wedge(cg.project(g) @ e0):
        return False
    acc = _lifted_circle_action(g, e0, REFERENCE_ANGLE)
    return bool(-math.pi / 2.0 < acc < math.pi / 2.0)


# ----------------------------------------------------------------------------
# canonical configurations used by the verification suites
# ----------------------------------------------------------------------------

def single_cone_paths(opening: float = 0.6):
    """One cone, three approach paths: two in the same class, one wound once.

    Returns (ambient sector, direct path, equivalent path, wound path).
    """
    sector = SpatialSector(-opening / 2.0, opening / 2.0)
    direct = ConePath(sector, 0.0)
    nearby = ConePath(sector, opening / 4.0)
    wound = ConePath(sector, TWO_PI)
    return sector, direct, nearby, wound


def antipodal_pair(gap: float = 0.15, apex_offset: float = 1.0):
    """Two oppositely pointing cones whose paths satisfy the exchange
    condition in the order (first, second).

    The first cone points along +x with its approach path wound up to 2*pi,
    the second along -x approached directly at pi; the difference sector dual
    contains the negative x-axis, which is the configuration the statistics
    pipeline requires.
    """
    c1 = SpatialSector(-gap, gap, Vec3(0.0, apex_offset, 0.0))
    c2 = SpatialSector(math.pi - gap, math.pi + gap, Vec3(0.0, -apex_offset, 0.0))
    return ConePath(c1, TWO_PI), ConePath(c2, math.pi)
