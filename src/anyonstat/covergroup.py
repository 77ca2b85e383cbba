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


def _sl2_entries(gamma, omega):
    """Entries (a, b, c, d) of the real unimodular image; broadcasts over arrays.

    |gamma|^2 is taken from the parts, not from a rounded modulus, and each
    part of alpha is divided exactly: numpy's complex / real multiplies by a
    reciprocal, which costs an ulp in the projected matrix.
    """
    scale = np.sqrt(1.0 - (gamma.real ** 2 + gamma.imag ** 2))
    unit = np.exp(0.5j * omega)
    alpha = unit.real / scale + 1j * (unit.imag / scale)
    beta = gamma * alpha
    return (alpha.real + beta.real, beta.imag - alpha.imag,
            alpha.imag + beta.imag, alpha.real - beta.real)


def sl2_matrix(g: CoverElement) -> np.ndarray:
    """The real unimodular 2x2 matrix onto which g projects."""
    a, b, c, d = _sl2_entries(g.gamma, g.omega)
    return np.array([[a, b], [c, d]])


def _lorentz(gamma, omega) -> np.ndarray:
    """Lorentz matrices of disk coordinates, shape (..., 3, 3).

    Column j holds the components of B X_j B^T for the symmetric basis
    X_0 = 1, X_1 = diag(1, -1), X_2 = [[0, 1], [1, 0]] (x0 = trace / 2,
    x1 = half the diagonal difference, x2 = the off-diagonal entry), written
    out as quadratics in the entries of B = [[a, b], [c, d]].
    """
    a, b, c, d = _sl2_entries(gamma, omega)
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    rows = [[((aa + bb) + (cc + dd)) / 2.0, ((aa - bb) + (cc - dd)) / 2.0, a * b + c * d],
            [((aa + bb) - (cc + dd)) / 2.0, ((aa - bb) - (cc - dd)) / 2.0, a * b - c * d],
            [a * c + b * d, a * c - b * d, b * c + a * d]]
    lam = np.array(rows)
    return lam.transpose(tuple(range(2, lam.ndim)) + (0, 1))


def project(g: CoverElement) -> np.ndarray:
    """The proper orthochronous Lorentz matrix onto which g projects."""
    return _lorentz(g.gamma, g.omega)


def project_path(g: CoverElement, sigma) -> np.ndarray:
    """Lorentz matrices along the canonical path sigma -> (sigma gamma, sigma omega).

    Returns shape (len(sigma), 3, 3); at sigma = 1 this is project(g).
    """
    sigma = np.asarray(sigma, dtype=float)
    return _lorentz(g.gamma * sigma, g.omega * sigma)


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
