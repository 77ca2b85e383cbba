"""The massive spin-s representation (times n) on mass-shell wave functions,
numerical generators, and the quadratic Casimir check.

The representation acts by (U(a, g) psi)(p) = e^{i s Omega(g, p)} e^{i a.p}
psi(Lambda^{-1} p), unitary for the invariant measure d^2p / (2 p0).  The
generators are obtained by Richardson-refined central differences, keeping
the representation itself a black box; the Casimir J.P with J = (-L0, L2,
-L1) must act as the scalar -m*s.

Wave functions take a momentum or a stack of them (a MomentumPoint stack or
on-shell vectors (..., 3)) and return (..., n); act and inner_product
evaluate whole grids of momenta in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import covergroup as cg
from . import wigner as wg
from .minkowski import MomentumPoint, minkowski_product, to_momentum


class QuadratureSupportError(ValueError):
    """The quadrature box does not cover the effective support."""


@dataclass(frozen=True)
class RepConfig:
    m: float
    s: float
    n: int = 1

    def __post_init__(self):
        if not self.m > 0.0:
            raise ValueError("mass must be strictly positive")
        if self.n < 1:
            raise ValueError("multiplicity must be a positive integer")


class WaveFunction:
    """A smooth C^n-valued function on the positive mass shell.

    fn maps real on-shell 3-vectors (..., 3) of components (p0, p1, p2) to
    complex vectors (..., n).  Instances are immutable in practice; act()
    wraps rather than mutates.
    """

    def __init__(self, config: RepConfig, fn):
        self.config = config
        self._fn = fn

    def __call__(self, p) -> np.ndarray:
        arr = p.as_array() if hasattr(p, "as_array") else np.asarray(p, dtype=float)
        return np.asarray(self._fn(arr), dtype=complex)

    @classmethod
    def gaussian(cls, config: RepConfig, center=(0.0, 0.0), width: float = 0.6,
                 vector=None, poly=None) -> "WaveFunction":
        """Gaussian envelope times an optional polynomial times a fixed vector."""
        c = np.asarray(center, dtype=float)
        v = np.ones(config.n, dtype=complex) if vector is None \
            else np.asarray(vector, dtype=complex)

        def fn(parr):
            d = parr[..., 1:] - c
            val = np.exp(-(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) / width ** 2)
            if poly is not None:
                val = val * poly(parr)
            return val[..., None] * v

        return cls(config, fn)


def act(g: cg.PoincareElement, psi: WaveFunction) -> WaveFunction:
    """(U(a, g) psi)(p) = e^{i s Omega} e^{i a.p} psi(Lambda^{-1} p)."""
    cfg = psi.config
    a = g.translation.as_array()

    def fn(parr):
        p = to_momentum(parr, cfg.m)
        phase = (np.exp(1j * cfg.s * wg.wigner_angle(g.lorentz, p))
                 * np.exp(1j * minkowski_product(a, parr)))
        return phase[..., None] * psi(wg.transport(g.lorentz, p))

    return WaveFunction(cfg, fn)


@dataclass(frozen=True)
class QuadGrid:
    """Tensor Gauss-Legendre grid over a spatial box for shell integrals."""

    center: tuple = (0.0, 0.0)
    halfwidth: float = 3.4
    order: int = 64

    def nodes_weights(self):
        x, w = np.polynomial.legendre.leggauss(self.order)
        p1 = self.center[0] + self.halfwidth * x
        p2 = self.center[1] + self.halfwidth * x
        W = np.outer(w, w) * self.halfwidth ** 2
        return p1, p2, W


def inner_product(phi: WaveFunction, psi: WaveFunction,
                  grid: QuadGrid | None = None, check_support: bool = True) -> complex:
    """Integral of conj(phi).psi against d^2p / (2 p0) over the grid box."""
    if grid is None:
        grid = QuadGrid()
    m = psi.config.m
    p1, p2, W = grid.nodes_weights()
    p = MomentumPoint(*np.meshgrid(p1, p2, indexing="ij"), m)
    vals = psi(p)
    total = np.sum(W * np.sum(phi(p).conj() * vals, axis=-1) / (2.0 * p.p0))
    mag = np.sum(np.abs(vals) ** 2, axis=-1)
    bulk_max = float(np.max(mag))
    edge_max = float(max(np.max(mag[[0, -1], :]), np.max(mag[:, [0, -1]])))
    # envelope < 1e-12 of peak at the box edge, i.e. 1e-24 on |psi|^2
    if check_support and bulk_max > 0 and edge_max > 1e-24 * bulk_max:
        raise QuadratureSupportError(
            f"integrand at box edge is {edge_max / bulk_max:.2e} of its peak")
    return complex(total)


_BOOST_KINDS = {
    "L0": lambda t: cg.lift_rotation(t),
    "L1": lambda t: cg.lift_boost1(t),
    "L2": lambda t: cg.lift_boost(math.pi / 2.0, t),
}


def _group_value(psi: WaveFunction, kind: str, t: float, parr: np.ndarray) -> np.ndarray:
    g = _BOOST_KINDS[kind](t)
    p = to_momentum(parr, psi.config.m)
    phase = np.exp(1j * psi.config.s * wg.wigner_angle(g, p))
    return phase * psi(cg.project(cg.inverse(g)) @ parr)


def generator(psi: WaveFunction, kind: str, p, step: float = 0.004) -> np.ndarray:
    """-i d/dt U(g(t)) psi at t=0, by central differences plus Richardson.

    kind is one of L0 (rotation), L1, L2 (boosts along x1, x2) or P0, P1, P2
    (multiplication by the momentum components).
    """
    parr = p.as_array() if hasattr(p, "as_array") else np.asarray(p, dtype=float)
    if kind in ("P0", "P1", "P2"):
        return parr[int(kind[1])] * psi(parr)
    if kind not in _BOOST_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")

    def central(h):
        return (_group_value(psi, kind, h, parr)
                - _group_value(psi, kind, -h, parr)) / (2.0 * h)

    d = (4.0 * central(step / 2.0) - central(step)) / 3.0
    return -1j * d


def pauli_lubanski(psi: WaveFunction, p, step: float = 0.004) -> np.ndarray:
    """The Casimir J.P applied to psi at p, multiplication acting first.

    J = (-L0, L2, -L1); on a mass-m spin-s representation the result equals
    -m*s*psi(p) at every shell point.
    """
    cfg = psi.config
    out = np.zeros(cfg.n, dtype=complex)
    for coeff, jkind, mu in ((-1.0, "L0", 0), (1.0, "L2", 1), (-1.0, "L1", 2)):
        mult = WaveFunction(cfg, lambda parr, mu=mu: parr[..., mu, None] * psi(parr))
        out += coeff * generator(mult, jkind, p, step)
    return out


def casimir_residual(psi: WaveFunction, points, step: float = 0.004) -> float:
    """max over points of ||J.P psi + m s psi|| / ||psi||."""
    cfg = psi.config
    worst = 0.0
    for p in points:
        w = pauli_lubanski(psi, p, step)
        v = psi(p)
        denom = float(np.linalg.norm(v))
        if denom == 0.0:
            continue
        worst = max(worst, float(np.linalg.norm(w + cfg.m * cfg.s * v)) / denom)
    return worst
