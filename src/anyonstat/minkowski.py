"""Vectors, the metric, mass shells and the complexified x1-boost in 2+1d.

Signature is (+, -, -) and natural units are used throughout. Every other
module imports METRIC, J and boost1 from here, so the conventions are fixed
exactly once.
Points, translations and directions are float arrays (..., 3), and a
MomentumPoint holds one momentum or a stack; the vector helpers act on the
last axis, and one point and a stack share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0])

# Reflection of x0 and x1, leaving x2 unchanged. Proper but antichronous;
# equals the x1-boost at imaginary rapidity +/- i*pi.
J = np.diag([-1.0, -1.0, 1.0])

# to_momentum's bound on an imaginary part, and on energy drift / max(1, p0)
_SHELL_TOL = 1e-8


def as_array(x) -> np.ndarray:
    """Coerce a MomentumPoint or any (..., 3) array-like to an ndarray."""
    if hasattr(x, "as_array"):
        return x.as_array()
    a = np.asarray(x)
    if a.shape[-1:] != (3,):
        raise ValueError(f"expected 3-vectors, got shape {a.shape}")
    return a


def _components(a: np.ndarray) -> tuple:
    """The three components of vectors (..., 3)."""
    return a[..., 0], a[..., 1], a[..., 2]


def _stack3(a, b, c) -> np.ndarray:
    """Components of equal shape stacked on a new last axis, shape (..., 3)."""
    out = np.array([a, b, c], dtype=float)
    return out.transpose(tuple(range(1, out.ndim)) + (0,))


@dataclass(frozen=True)
class MomentumPoint:
    """A point on the positive mass shell, or a stack of them.

    Only the spatial components and the mass are stored; the energy is
    recomputed on every access so the on-shell identity cannot drift.  A
    stack keeps its exact masses: m is a scalar or an array like p1 and p2.
    p[index] picks rows of a stack, and p[None] makes one point a stack of one.
    """

    p1: float
    p2: float
    m: float

    def __post_init__(self):
        if not np.asarray(self.m > 0.0).all():
            raise ValueError(f"mass must be strictly positive, got {self.m}")

    def __getitem__(self, index) -> "MomentumPoint":
        return MomentumPoint(np.asarray(self.p1)[index], np.asarray(self.p2)[index],
                             np.broadcast_to(self.m, np.shape(self.p1))[index])

    @property
    def p0(self) -> float:
        return np.sqrt(self.p1 ** 2 + self.p2 ** 2 + self.m ** 2)

    def as_array(self) -> np.ndarray:
        return _stack3(self.p0, self.p1, self.p2)


def shell_point(p1: float, p2: float, m: float) -> MomentumPoint:
    """Construct the positive-shell point with spatial momentum (p1, p2)."""
    return MomentumPoint(float(p1), float(p2), float(m))


def to_momentum(vec, m) -> MomentumPoint:
    """Reinterpret real on-shell 3-vectors (..., 3) as a MomentumPoint.

    The supplied energy component must match the recomputed one to _SHELL_TOL;
    this guards transported momenta against silent off-shell drift.
    """
    a = as_array(vec)
    if a.dtype.kind == "c":
        if (np.abs(a.imag) > _SHELL_TOL).any():
            raise ValueError("momentum vector has a non-negligible imaginary part")
        a = a.real
    e0, p1, p2 = _components(a)
    p = MomentumPoint(p1, p2, m)
    p0 = p.p0
    drift = abs(e0 - p0)
    if np.asarray((drift > _SHELL_TOL) & (drift > _SHELL_TOL * p0)).any():
        raise ValueError(f"vector is not on the m={m} shell: p0={e0} vs {p0}")
    return p


def minkowski_product(x, y):
    """x0*y0 - x1*y1 - x2*y2 for real or complex 3-vectors (..., 3)."""
    a0, a1, a2 = _components(as_array(x))
    b0, b1, b2 = _components(as_array(y))
    return a0 * b0 - a1 * b1 - a2 * b2


def boost1(z) -> np.ndarray:
    """The x1-boost at (possibly complex) rapidity z.

    The matrix entries are entire functions of z, so this single formula is
    the analytic extension of the real one-parameter group. For z = t + i*theta
    it factors as (diag(cos th, cos th, 1) + i sin th * sigma) @ boost1(t) with
    sigma mapping (x0, x1, x2) to (x1, x0, 0); at z = +/- i*pi it equals J.
    An array of rapidities gives a stack (..., 3, 3).
    """
    c, s = np.cosh(z), np.sinh(z)
    out = np.zeros(np.shape(c) + (3, 3), dtype=np.result_type(c))
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1] = out[..., 1, 0] = s
    out[..., 2, 2] = 1.0
    return out


def rotation(omega: float) -> np.ndarray:
    """Spatial rotation by omega in the (x1, x2)-plane."""
    c, s = np.cos(omega), np.sin(omega)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def j_reflect(x) -> np.ndarray:
    """Apply the x0,x1 reflection J. Involutive; swaps the two mass shells."""
    return as_array(x) @ J  # J is diagonal, so x J = J x


def lorentz_residual(M) -> float:
    """Largest entry of M^T g M - g (over a stack); zero exactly for complex
    Lorentz matrices."""
    M = np.asarray(M)
    return float(np.max(np.abs(np.swapaxes(M, -1, -2) @ METRIC @ M - METRIC)))


def on_shell_error(k, m: float) -> float:
    """|k . k - m^2| for a complexified momentum."""
    a = as_array(k)
    return float(abs(minkowski_product(a, a) - m * m))
