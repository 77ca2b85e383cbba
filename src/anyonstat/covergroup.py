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

A CoverElement may hold equal-shape arrays of gamma and omega, one element
per entry; every function here broadcasts over them, and a scalar element
goes through the same code and stays scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .minkowski import Vec3, all_set, as_array


@dataclass(frozen=True)
class CoverElement:
    """An element of the covering group in disk coordinates, or an array of
    them: gamma and omega are scalars or arrays of one shape."""

    gamma: complex
    omega: float

    def __post_init__(self):
        inside = abs(self.gamma) < 1.0
        if not all_set(inside):
            row = tuple(int(i) for i in np.argwhere(~np.asarray(inside))[0])
            at = f" at index {row}" if row else ""
            raise ValueError(f"disk coordinate must satisfy |gamma| < 1, got "
                             f"{np.asarray(self.gamma)[row]}{at}")
        if getattr(self.gamma, "shape", ()) != getattr(self.omega, "shape", ()):
            raise ValueError(f"gamma and omega shapes differ: {np.shape(self.gamma)}")

    def __getitem__(self, index) -> "CoverElement":
        return CoverElement(self.gamma[index], self.omega[index])


IDENTITY = CoverElement(0j, 0.0)


def identity() -> CoverElement:
    return IDENTITY


def compose(a: CoverElement, b: CoverElement) -> CoverElement:
    """Group product a * b.

    The winding correction 2*Arg(1 + gamma_a * conj(gamma_b) * e^{-i omega_b})
    is continuous because the argument always lies in the open right half
    plane (|gamma| < 1 strictly).
    """
    turn = np.exp(-1j * b.omega)
    w = 1.0 + a.gamma * np.conjugate(b.gamma) * turn
    gamma = (b.gamma + a.gamma * turn) / w
    return CoverElement(gamma, a.omega + b.omega + 2.0 * np.arctan2(w.imag, w.real))


def inverse(g: CoverElement) -> CoverElement:
    return CoverElement(-g.gamma * np.exp(1j * g.omega), -g.omega)


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
    """The real unimodular 2x2 matrices onto which g projects, shape (..., 2, 2)."""
    a, b, c, d = _sl2_entries(g.gamma, g.omega)
    mat = np.array([[a, b], [c, d]])
    return mat if mat.ndim == 2 else np.moveaxis(mat, (0, 1), (-2, -1))


def _lorentz_rows(a, b, c, d) -> list:
    """Rows of the Lorentz matrix of B = [[a, b], [c, d]].

    Column j holds the components of B X_j B^T for the symmetric basis
    X_0 = 1, X_1 = diag(1, -1), X_2 = [[0, 1], [1, 0]] (x0 = trace / 2,
    x1 = half the diagonal difference, x2 = the off-diagonal entry), written
    out as quadratics in the entries.
    """
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    return [[((aa + bb) + (cc + dd)) / 2.0, ((aa - bb) + (cc - dd)) / 2.0, a * b + c * d],
            [((aa + bb) - (cc + dd)) / 2.0, ((aa - bb) - (cc - dd)) / 2.0, a * b - c * d],
            [a * c + b * d, a * c - b * d, b * c + a * d]]


def _lorentz(gamma, omega) -> np.ndarray:
    """Lorentz matrices of disk coordinates, shape (..., 3, 3)."""
    lam = np.array(_lorentz_rows(*_sl2_entries(gamma, omega)))
    return lam.transpose(tuple(range(2, lam.ndim)) + (0, 1))


def project(g: CoverElement) -> np.ndarray:
    """The proper orthochronous Lorentz matrices onto which g projects,
    shape (..., 3, 3)."""
    return _lorentz(g.gamma, g.omega)


def project_path(g: CoverElement, sigma) -> np.ndarray:
    """Lorentz matrices along the canonical path sigma -> (sigma gamma, sigma omega).

    Returns shape g's shape + (len(sigma), 3, 3); at sigma = 1 this is project(g).
    """
    sigma = np.asarray(sigma, dtype=float)
    return _lorentz(np.multiply.outer(g.gamma, sigma), np.multiply.outer(g.omega, sigma))


def act_on_vector(g: CoverElement, x) -> np.ndarray:
    """project(g) applied to vectors (..., 3), the stacks broadcast."""
    return (project(g) @ as_array(x)[..., None])[..., 0]


def lift_rotation(omega: float) -> CoverElement:
    omega = np.asarray(omega, dtype=float)[()]
    return CoverElement(np.zeros(np.shape(omega), dtype=complex)[()], omega)


def lift_boost1(t: float) -> CoverElement:
    t = np.asarray(t, dtype=float)[()]
    return CoverElement(np.tanh(t / 2.0) + 0j, np.zeros(np.shape(t))[()])


def lift_boost(direction: float, rapidity: float) -> CoverElement:
    """Boost with rapidity along the spatial direction at angle `direction`."""
    r = lift_rotation(direction)
    return compose(compose(r, lift_boost1(rapidity)), inverse(r))


def j_conjugate(g: CoverElement) -> CoverElement:
    """The lifted adjoint action of the x0,x1 reflection J.

    Continuous involutive automorphism; fixes lift_boost1 elementwise and
    sends lift_rotation(w) to lift_rotation(-w).
    """
    return CoverElement(np.conjugate(g.gamma), -g.omega)


def random_element(rng, disk_radius: float = 0.8, windings: float = 2.0) -> CoverElement:
    """A pseudo-random element for property tests, exercising several sheets.

    disk_radius 0.8 corresponds to rapidities up to about 2.2; beyond that the
    projected matrix entries grow enough that float error crosses 1e-12.
    """
    return element_from_draws(rng.uniform(size=3), disk_radius, windings)


def element_from_draws(u, disk_radius: float = 0.8, windings: float = 2.0) -> CoverElement:
    """The element random_element makes of its uniform draws u[..., :3]: a
    block rng.uniform(size=(n, 3)) gives, bit for bit, n calls' elements."""
    u = np.asarray(u, dtype=float)
    r = disk_radius * np.sqrt(u[..., 0])
    phi = 2.0 * math.pi * u[..., 1]
    omega = (-windings + 2.0 * windings * u[..., 2]) * 2.0 * math.pi
    return CoverElement(r * np.exp(1j * phi), omega)


@dataclass(frozen=True)
class PoincareElement:
    """A pair (translation, covering Lorentz element), or a stack of pairs:
    a Vec3 of arrays with a CoverElement of the same shape."""

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
        return PoincareElement(Vec3.from_array(self.act(other.translation)),
                               compose(self.lorentz, other.lorentz))

    def act(self, x) -> np.ndarray:
        return act_on_vector(self.lorentz, x) + self.translation.as_array()
