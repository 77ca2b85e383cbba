"""Space-like directions, rest-frame cone classes, dual cones, approach paths
with winding, the Poincare action on paths, and the exchange predicate.

The set of space-like unit directions retracts onto the spatial circle (the
spatial part of a unit space-like vector never vanishes), so a homotopy
class of approach paths is encoded by a single real lifted angle.  Cones are
the causal completions of open salient sectors in the rest plane; a boosted
cone is represented by its transported direction interval, which is all the
path predicates ever consume.

Directions, sectors, paths and cover elements may be stacks (array angles,
vectors (..., 3)), and contains_direction, in_wedge_class and
poincare_act_path answer row by row; exchange_hypothesis takes stacks of
lifted angles over one pair of cones.  A single input gives a single answer,
and a stack row whose image degenerates is NaN, which the checks let through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import covergroup as cg
from .minkowski import _stack3, as_array, minkowski_product

TWO_PI = 2.0 * math.pi

#: The standard reference direction (0, 0, -1), lifted angle -pi/2.
REFERENCE_ANGLE = -math.pi / 2.0


class DegenerateImage(ValueError):
    """A transformed direction interval stopped being an open interval."""


@dataclass(frozen=True)
class SpacelikeDirection:
    """A unit space-like vector together with a lift of its spatial angle."""

    e: np.ndarray
    lifted_angle: float

    def __post_init__(self):
        a = as_array(self.e)
        if np.asarray(abs(minkowski_product(a, a) + 1.0) > 1e-12).any():
            raise ValueError("direction must satisfy e.e = -1")
        ang = np.arctan2(a[..., 2], a[..., 1])
        if np.asarray(abs(_wrap(self.lifted_angle - ang)) > 1e-9).any():
            raise ValueError("lifted_angle does not project to the spatial angle")

    @classmethod
    def from_angles(cls, lifted_angle, tilt=0.0) -> "SpacelikeDirection":
        """Unit space-like directions at the given lifted spatial angles.

        tilt is the time component; the spatial radius sqrt(1 + tilt^2) keeps
        the vector on the unit space-like hyperboloid.
        """
        r = np.sqrt(1.0 + tilt * tilt)
        return cls(_stack3(tilt + 0.0 * lifted_angle, r * np.cos(lifted_angle),
                           r * np.sin(lifted_angle)),
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
    apex: np.ndarray = field(default_factory=lambda: np.zeros(3))
    edges: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "apex", np.asarray(as_array(self.apex), dtype=float))
        opening = self.beta - self.alpha
        if np.asarray((opening <= 0.0) | (opening >= math.pi)).any():
            raise ValueError(f"sector opening must lie in (0, pi), got {opening}")
        if self.edges is not None:
            for v, ang in zip(self.edges, (self.alpha, self.beta)):
                a = as_array(v)
                if np.asarray(abs(minkowski_product(a, a) + 1.0) > 1e-9).any():
                    raise ValueError("sector edge directions must be unit space-like")
                if np.asarray(abs(_wrap(np.arctan2(a[..., 2], a[..., 1]) - ang)) > 1e-9).any():
                    raise ValueError("edge direction does not project to its angle")

    @property
    def opening(self) -> float:
        return self.beta - self.alpha

    def edge_vectors(self) -> tuple:
        if self.edges is not None:
            return tuple(as_array(v) for v in self.edges)
        return _rest_direction(self.alpha), _rest_direction(self.beta)

    def angle_inside(self, phi):
        return (phi - self.alpha) % TWO_PI <= self.opening + 1e-12


def _rest_direction(angle) -> np.ndarray:
    """The unit spatial directions (0, cos, sin) at the given angles, (..., 3)."""
    return _stack3(0.0 * angle, np.cos(angle), np.sin(angle))


def _ray_distance(v, angle):
    """Euclidean distance from planar points (..., 2) to the closed rays at the angles."""
    c, s = np.cos(angle), np.sin(angle)
    t = np.maximum(0.0, v[..., 0] * c + v[..., 1] * s)
    return np.hypot(v[..., 0] - t * c, v[..., 1] - t * s)


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
    v = np.asarray(as_array(x), dtype=float) - sector.apex
    return sector_depth(sector, v[..., 1:]) > np.abs(v[..., 0]) + margin


def contains_direction(sector: SpatialSector, direction):
    """Whether translating the cone along the direction keeps it inside itself.

    For a convex cone this is membership of the direction in the closure of
    the apex-at-origin causal completion: the spatial part must lie in the
    closed angular interval and its depth must dominate the time component.
    """
    e = as_array(direction.e if isinstance(direction, SpacelikeDirection) else direction)
    inside = sector.angle_inside(np.arctan2(e[..., 2], e[..., 1]))
    return (inside & (sector_depth(sector, e[..., 1:]) >= np.abs(e[..., 0]) - 1e-12))[()]


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
    """Whether the dual of the difference sector contains the negative x-axis:
    the analyticity-tube hypothesis for every x1-boost walk.  A walk point
    boost1(-t - i theta) q, 0 < theta < pi, has spatial imaginary part
    (-sin theta (boost1(-t) q)_0, 0) on -x, and the tube holds the complex
    shell points whose spatial imaginary part lies in this dual sector."""
    d = difference_sector(c1, c2)
    if d is None:
        return False
    dual = dual_sector(d)
    rel = (math.pi - dual.alpha) % TWO_PI
    return 1e-12 < rel < dual.opening - 1e-12


_ORACLE_RADII = np.array([0.7, 1.4, 2.8, 5.6])
_ORACLE_FRACS = np.array([0.03, 0.25, 0.5, 0.75, 0.97])
_ORACLE_TIMES = np.array([-1.0, -0.95, -0.5, 0.0, 0.5, 0.95, 1.0])


def _cone_samples(sector: SpatialSector) -> np.ndarray:
    """A deterministic spread of points inside the cone, boundary-heavy, of
    shape (radii * fracs * times, *batch, 3) for sectors of shape batch:
    radius-major, then fraction, then time."""
    batch = np.shape(sector.alpha)
    lead = (-1,) + (1,) * len(batch)  # the sample axes go before the batch axes
    ang = sector.alpha + _ORACLE_FRACS.reshape(lead) * sector.opening
    v = _ORACLE_RADII.reshape(lead + (1, 1)) * np.stack([np.cos(ang), np.sin(ang)], -1)
    t = _ORACLE_TIMES.reshape(lead) * sector_depth(sector, v)[:, :, None]
    v = np.broadcast_to(v[:, :, None], t.shape + (2,))
    return (np.concatenate([t[..., None], v], -1) + sector.apex).reshape(-1, *batch, 3)


def causally_separated(c1: SpatialSector, c2: SpatialSector) -> bool:
    """Space-like separation of two cones.

    Requires disjoint direction intervals plus a pairwise space-like check on
    a deterministic boundary-heavy sample of both cones.
    """
    gap1 = (c2.alpha - c1.beta) % TWO_PI
    gap2 = (c1.alpha - c2.beta) % TWO_PI
    if gap1 < 1e-12 or gap2 < 1e-12 or gap1 + gap2 > TWO_PI:
        return False
    # measured from c1's apex, so that the squares stay the size of the cones
    xs, ys = _cone_samples(c1) - c1.apex, _cone_samples(c2) - c1.apex
    # (x - y)^2 = x^2 + y^2 - 2 x.y for every pair of samples: one matmul
    sq = (minkowski_product(xs, xs)[:, None] + minkowski_product(ys, ys)
          - 2.0 * (xs * (1.0, -1.0, -1.0)) @ ys.T)
    return bool(np.max(sq) < -1e-9)


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
        if np.asarray((rel < -1e-9) | (rel > self.sector.opening + 1e-9)).any():
            raise ValueError("accumulated angle does not end inside the sector")
        if self.direction is not None:
            if np.asarray(abs(self.direction.lifted_angle - self.accumulated_angle) > 1e-9).any():
                raise ValueError("endpoint direction lift disagrees with the path")

    def endpoint_vector(self) -> np.ndarray:
        if self.direction is not None:
            return as_array(self.direction.e)
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


def exchange_hypothesis(p1: ConePath, p2: ConePath):
    """The ordered exchange condition for a pair of localization paths.

    True when the cones are causally separated and the composite path from
    cone 2 to cone 1 proceeds directly in the mathematically positive sense,
    i.e. the lifted angle difference lies in (0, 2*pi).  The condition is
    deliberately not symmetric under swapping the arguments.  The causal
    separation of the one pair of cones is checked once for a whole stack.
    """
    delta = np.asarray(p1.accumulated_angle - p2.accumulated_angle)
    direct = (1e-12 < delta) & (delta < TWO_PI - 1e-12)
    return (direct & causally_separated(p1.sector, p2.sector))[()]


def _lifted_circle_action(g: cg.CoverElement, vecs, lift_start) -> np.ndarray:
    """The lifted angles of the directions vecs transported by g, in closed form.

    g = lift_rotation(omega) * (gamma, 0) exactly, and (gamma, 0) is a pure
    boost.  A pure boost keeps the spatial component orthogonal to its own
    direction, so it moves a space-like direction's spatial part within one
    open half-plane (or along one ray) and turns it by less than pi: the
    principal angle from the spatial part of e to that of boost @ e is the
    turn.  The rotation then adds omega, so deck elements shift the result by
    full turns, and any path to g in the cover gives the same lift, which is
    what makes repeated transports compose exactly.

    A stack g of shape G takes vecs of shape G + (..., 3).
    """
    e = np.asarray(vecs, dtype=float)
    lead = np.shape(g.omega) + (1,) * (e.ndim - 1 - np.ndim(g.omega))
    boost = cg.project(cg.CoverElement(g.gamma, 0.0 * g.omega)).reshape(lead + (3, 3))
    moved = (boost @ e[..., None])[..., 0]
    turn = np.arctan2(e[..., 1] * moved[..., 2] - e[..., 2] * moved[..., 1],
                      e[..., 1] * moved[..., 1] + e[..., 2] * moved[..., 2])
    return (lift_start + np.reshape(g.omega, lead) + turn)[()]


def poincare_act_path(g: cg.PoincareElement, path: ConePath) -> ConePath:
    """The natural action on paths of cones.

    The cone's edge directions and the path's endpoint direction are moved by
    the projected matrix, while their lifted angles are transported by the
    closed-form lifted circle action, so deck elements act by full-turn
    shifts.  g may be a stack of elements and path a stack of paths, acting
    row by row; a row whose transformed direction interval is not an opening
    in (0, pi) is NaN (a single path raises DegenerateImage).
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
    apex = (lam @ sec.apex[..., None])[..., 0] + g.translation
    nan = np.where(bad, np.nan, 0.0)[()]  # NaN on the degenerate rows
    a2, b2, acc = a2 + nan, b2 + nan, acc + nan
    ea, eb, d, apex = (x + nan[..., None] for x in (ea, eb, d, apex))
    sector = SpatialSector(a2, b2, apex, edges=(ea, eb))
    return ConePath(sector, acc, direction=SpacelikeDirection(d, acc))


def in_wedge_class(g: cg.CoverElement):
    """Whether g carries the reference path class into the standard wedge class.

    The endpoint direction must lie strictly inside the wedge x1 > |x0| and
    the lifted angle must land on the wedge's own copy of (-pi/2, pi/2): a
    2*pi winding disqualifies even though the endpoint direction is
    unchanged.
    """
    e0 = np.array([0.0, 0.0, -1.0])
    e = cg.project(g) @ e0
    inside = e[..., 1] - np.abs(e[..., 0]) > 1e-12
    acc = _lifted_circle_action(g, np.broadcast_to(e0, e.shape), REFERENCE_ANGLE)
    return (inside & (-math.pi / 2.0 < acc) & (acc < math.pi / 2.0))[()]


# ----------------------------------------------------------------------------
# canonical configurations used by the verification suites
# ----------------------------------------------------------------------------

def single_cone_paths():
    """One cone (opening 0.6), three approach paths: two in one class, one wound once.

    Returns (ambient sector, direct path, equivalent path, wound path).
    """
    sector = SpatialSector(-0.3, 0.3)
    direct = ConePath(sector, 0.0)
    nearby = ConePath(sector, 0.15)
    wound = ConePath(sector, TWO_PI)
    return sector, direct, nearby, wound


def antipodal_pair():
    """Two oppositely pointing cones whose paths satisfy the exchange
    condition in the order (first, second).

    The first cone points along +x with its approach path wound up to 2*pi,
    the second along -x approached directly at pi; the difference sector dual
    contains the negative x-axis, which is the configuration the statistics
    pipeline requires.
    """
    c1 = SpatialSector(-0.15, 0.15, (0.0, 1.0, 0.0))
    c2 = SpatialSector(math.pi - 0.15, math.pi + 0.15, (0.0, -1.0, 0.0))
    return ConePath(c1, TWO_PI), ConePath(c2, math.pi)
