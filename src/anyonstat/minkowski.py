"""Vectors, the metric, mass shells and the complexified x1-boost in 2+1d.

Signature is (+, -, -) and natural units are used throughout. Every other
module imports METRIC, J and boost1 from here, so the conventions are fixed
exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0])

# Reflection of x0 and x1, leaving x2 unchanged. Proper but antichronous;
# equals the x1-boost at imaginary rapidity +/- i*pi.
J = np.diag([-1.0, -1.0, 1.0])


def as_array(x) -> np.ndarray:
    """Coerce Vec3 / MomentumPoint / any 3-sequence to an ndarray."""
    if hasattr(x, "as_array"):
        return x.as_array()
    a = np.asarray(x)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Vec3:
    """A real spacetime point or translation."""

    x0: float
    x1: float
    x2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2], dtype=float)

    @classmethod
    def from_array(cls, a) -> "Vec3":
        a = np.asarray(a, dtype=float)
        return cls(float(a[0]), float(a[1]), float(a[2]))

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x0 + other.x0, self.x1 + other.x1, self.x2 + other.x2)


@dataclass(frozen=True)
class MomentumPoint:
    """A point on the positive mass shell.

    Only the spatial components and the mass are stored; the energy is
    recomputed on every access so the on-shell identity cannot drift.
    """

    p1: float
    p2: float
    m: float

    def __post_init__(self):
        if not self.m > 0.0:
            raise ValueError(f"mass must be strictly positive, got {self.m}")

    @property
    def p0(self) -> float:
        return float(np.sqrt(self.p1 ** 2 + self.p2 ** 2 + self.m ** 2))

    def as_array(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2], dtype=float)


def shell_point(p1: float, p2: float, m: float) -> MomentumPoint:
    """Construct the positive-shell point with spatial momentum (p1, p2)."""
    return MomentumPoint(float(p1), float(p2), float(m))


def to_momentum(vec, m: float, tol: float = 1e-8) -> MomentumPoint:
    """Reinterpret a real on-shell 3-vector as a MomentumPoint.

    The supplied energy component must match the recomputed one; this guards
    transported momenta against silent off-shell drift.
    """
    a = as_array(vec)
    if np.iscomplexobj(a):
        if np.max(np.abs(a.imag)) > tol:
            raise ValueError("momentum vector has a non-negligible imaginary part")
        a = a.real
    p = MomentumPoint(float(a[1]), float(a[2]), float(m))
    if abs(a[0] - p.p0) > tol * max(1.0, abs(p.p0)):
        raise ValueError(f"vector is not on the m={m} shell: p0={a[0]} vs {p.p0}")
    return p


def minkowski_product(x, y):
    """x0*y0 - x1*y1 - x2*y2 for real or complex 3-vectors."""
    a, b = as_array(x), as_array(y)
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2]


def boost1(z) -> np.ndarray:
    """The x1-boost at (possibly complex) rapidity z.

    The matrix entries are entire functions of z, so this single formula is
    the analytic extension of the real one-parameter group. For z = t + i*theta
    it factors as (diag(cos th, cos th, 1) + i sin th * sigma) @ boost1(t) with
    sigma mapping (x0, x1, x2) to (x1, x0, 0); at z = +/- i*pi it equals J.
    """
    c, s = np.cosh(z), np.sinh(z)
    return np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation(omega: float) -> np.ndarray:
    """Spatial rotation by omega in the (x1, x2)-plane."""
    c, s = np.cos(omega), np.sin(omega)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def j_reflect(x) -> np.ndarray:
    """Apply the x0,x1 reflection J. Involutive; swaps the two mass shells."""
    return J @ as_array(x)


def lorentz_residual(M) -> float:
    """Largest entry of M^T g M - g; zero exactly for complex Lorentz matrices."""
    M = np.asarray(M)
    return float(np.max(np.abs(M.T @ METRIC @ M - METRIC)))


def on_shell_error(k, m: float) -> float:
    """|k . k - m^2| for a complexified momentum."""
    a = as_array(k)
    return float(abs(minkowski_product(a, a) - m * m))
