"""The universal covering group of the proper orthochronous Lorentz group
in 2+1 dimensions, and the corresponding Poincare cover.

Elements are stored in disk coordinates (gamma, omega).  The underlying
double cover is realised as real unimodular 2x2 matrices acting on symmetric
matrices X = [[x0+x1, x2], [x2, x0-x1]] by X -> B X B^T, which is conjugate
to a pseudo-unitary 2x2 group whose entries are alpha = e^{i omega/2} /
sqrt(1-|gamma|^2) and beta = gamma * alpha.  Taking omega unbounded instead
of mod 4*pi gives the universal cover with an exact winding coordinate; the
group law below is closed form, so no path tracking is ever needed.

Conventions fixed here:
  * lift_rotation(w) projects to the spatial rotation by w, and has
    disk coordinates (0, w); a 2*pi rotation is a nontrivial deck element.
  * lift_boost1(t) projects to minkowski.boost1(t).
  * j_conjugate implements the unique lift of L -> J L J fixing the identity;
    in disk coordinates it is (gamma, omega) -> (conj(gamma), -omega).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .minkowski import Vec3, as_array


@dataclass(frozen=True)
class CoverElement:
    """An element of the covering group in disk coordinates."""

    gamma: complex
    omega: float

    def __post_init__(self):
        if not abs(self.gamma) < 1.0:
            raise ValueError(f"disk coordinate must satisfy |gamma| < 1, got {self.gamma}")


IDENTITY = CoverElement(0j, 0.0)


def identity() -> CoverElement:
    return IDENTITY


def compose(a: CoverElement, b: CoverElement) -> CoverElement:
    """Group product a * b.

    The winding correction 2*Arg(1 + gamma_a * conj(gamma_b) * e^{-i omega_b})
    is continuous because the argument always lies in the open right half
    plane (|gamma| < 1 strictly).
    """
    w = a.gamma * b.gamma.conjugate() * cmath.exp(-1j * b.omega)
    gamma = (b.gamma + a.gamma * cmath.exp(-1j * b.omega)) / (1.0 + w)
    omega = a.omega + b.omega + 2.0 * cmath.phase(1.0 + w)
    return CoverElement(gamma, omega)


def inverse(g: CoverElement) -> CoverElement:
    return CoverElement(-g.gamma * cmath.exp(1j * g.omega), -g.omega)


def _alpha_beta(g: CoverElement) -> tuple[complex, complex]:
    alpha = cmath.exp(0.5j * g.omega) / math.sqrt(1.0 - abs(g.gamma) ** 2)
    return alpha, g.gamma * alpha


def sl2_matrix(g: CoverElement) -> np.ndarray:
    """The real unimodular 2x2 matrix onto which g projects."""
    alpha, beta = _alpha_beta(g)
    a = alpha.real + beta.real
    b = beta.imag - alpha.imag
    c = alpha.imag + beta.imag
    d = alpha.real - beta.real
    return np.array([[a, b], [c, d]])


def from_sl2(B, omega_hint: float = 0.0) -> CoverElement:
    """Lift a real unimodular 2x2 matrix, choosing the winding nearest the hint."""
    B = np.asarray(B, dtype=float)
    a, b, c, d = B[0, 0], B[0, 1], B[1, 0], B[1, 1]
    alpha = complex(a + d, c - b) / 2.0
    beta = complex(a - d, b + c) / 2.0
    gamma = beta / alpha
    omega = 2.0 * cmath.phase(alpha)
    omega += 4.0 * math.pi * round((omega_hint - omega) / (4.0 * math.pi))
    return CoverElement(gamma, omega)


_X_BASIS = (
    np.array([[1.0, 0.0], [0.0, 1.0]]),    # x0
    np.array([[1.0, 0.0], [0.0, -1.0]]),   # x1
    np.array([[0.0, 1.0], [1.0, 0.0]]),    # x2
)


def project(g: CoverElement) -> np.ndarray:
    """The proper orthochronous Lorentz matrix onto which g projects."""
    B = sl2_matrix(g)
    cols = []
    for X in _X_BASIS:
        Y = B @ X @ B.T
        cols.append([(Y[0, 0] + Y[1, 1]) / 2.0, (Y[0, 0] - Y[1, 1]) / 2.0, Y[0, 1]])
    return np.array(cols).T


def act_on_vector(g: CoverElement, x) -> np.ndarray:
    return project(g) @ as_array(x)


def lift_rotation(omega: float) -> CoverElement:
    return CoverElement(0j, float(omega))


def lift_boost1(t: float) -> CoverElement:
    return CoverElement(complex(math.tanh(t / 2.0)), 0.0)


def lift_boost(direction: float, rapidity: float) -> CoverElement:
    """Boost with rapidity along the spatial direction at angle `direction`."""
    r = lift_rotation(direction)
    return compose(compose(r, lift_boost1(rapidity)), inverse(r))


def lift_one_parameter(kind: str, param: float, direction: float = 0.0) -> CoverElement:
    """Dispatcher over the three one-parameter subgroups used by the toolkit."""
    if kind == "rotation":
        return lift_rotation(param)
    if kind == "boost1":
        return lift_boost1(param)
    if kind == "boost_dir":
        return lift_boost(direction, param)
    raise ValueError(f"unknown subgroup kind {kind!r}")


def j_conjugate(g: CoverElement) -> CoverElement:
    """The lifted adjoint action of the x0,x1 reflection J.

    Continuous involutive automorphism; fixes lift_boost1 elementwise and
    sends lift_rotation(w) to lift_rotation(-w).
    """
    return CoverElement(g.gamma.conjugate(), -g.omega)


def random_element(rng, disk_radius: float = 0.8, windings: float = 2.0) -> CoverElement:
    """A pseudo-random element for property tests, exercising several sheets.

    disk_radius 0.8 corresponds to rapidities up to about 2.2; beyond that the
    projected matrix entries grow enough that float error crosses 1e-12.
    """
    r = disk_radius * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    omega = rng.uniform(-windings, windings) * 2.0 * math.pi
    return CoverElement(r * cmath.exp(1j * phi), omega)


@dataclass(frozen=True)
class PoincareElement:
    """A pair (translation, covering Lorentz element)."""

    translation: Vec3
    lorentz: CoverElement

    @classmethod
    def identity(cls) -> "PoincareElement":
        return cls(Vec3(0.0, 0.0, 0.0), IDENTITY)

    @classmethod
    def pure_translation(cls, a: Vec3) -> "PoincareElement":
        return cls(a, IDENTITY)

    @classmethod
    def pure_lorentz(cls, g: CoverElement) -> "PoincareElement":
        return cls(Vec3(0.0, 0.0, 0.0), g)

    def compose(self, other: "PoincareElement") -> "PoincareElement":
        shifted = project(self.lorentz) @ other.translation.as_array()
        return PoincareElement(
            Vec3.from_array(self.translation.as_array() + shifted),
            compose(self.lorentz, other.lorentz),
        )

    def act(self, x) -> np.ndarray:
        return project(self.lorentz) @ as_array(x) + self.translation.as_array()
