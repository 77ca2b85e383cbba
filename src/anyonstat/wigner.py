"""Standard boosts, the lifted Wigner rotation, compensating functions and
their cocycles on the positive mass shell.

The Wigner angle is an additive real cocycle: Omega(ab, p) = Omega(a, p) +
Omega(b, A^{-1} p), with Omega(identity, p) = 0 (the additive law leaves no
other choice for the unit element) and Omega(lift_rotation(w), p) = w for
every real w, including full turns.

All fractional powers taken here live on the real shell where the bracket
arguments avoid the cut R^-_0, so principal branches are safe.  Evaluation
at complex boost parameters is deliberately *not* done in this module; that
is the job of the continuation engine in `holo`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import covergroup as cg
from .minkowski import MomentumPoint, to_momentum


class BranchCutError(ValueError):
    """A power base landed on the cut R^-_0 where no principal value exists."""


def standard_boost(p: MomentumPoint) -> cg.CoverElement:
    """The rotation-free cover element carrying the rest momentum to p.

    At the 2x2 level this is the positive square root (P + m)/sqrt(2m(p0+m))
    of the momentum's spinor matrix, lifted with zero winding; its disk
    coordinates are gamma = (p1 + i p2)/(p0 + m) and omega = 0.
    """
    return cg.CoverElement(complex(p.p1, p.p2) / (p.p0 + p.m), 0.0)


def transport(g: cg.CoverElement, p: MomentumPoint) -> MomentumPoint:
    """The momentum Lambda^{-1} p, reattached to the shell."""
    arr = cg.project(cg.inverse(g)) @ p.as_array()
    return to_momentum(arr, p.m)


def little_group_element(g: cg.CoverElement, p: MomentumPoint) -> cg.CoverElement:
    """b(p)^{-1} g b(Lambda^{-1} p); projects into the rest-momentum stabiliser."""
    q = transport(g, p)
    w = cg.compose(cg.inverse(standard_boost(p)), cg.compose(g, standard_boost(q)))
    if abs(w.gamma) > 1e-8:
        raise ArithmeticError(
            f"little-group element has |gamma| = {abs(w.gamma):.3e}; "
            "standard-boost conventions are broken"
        )
    return w


def wigner_angle(g: cg.CoverElement, p: MomentumPoint) -> float:
    """The lifted (unbounded) Wigner rotation angle Omega(g, p)."""
    return little_group_element(g, p).omega


def little_group_phase(g: cg.CoverElement, p: MomentumPoint) -> complex:
    """Closed-form e^{i Omega} from the 2x2 little-group matrix.

    With the conventions above the spinor matrix of the little-group element
    is the 2x2 rotation by Omega/2, so e^{i Omega} = (W00 + i W10)^2.  This is
    the independent oracle used by the property tests before the continuation
    engine relies on the same structure.
    """
    q = transport(g, p)
    B = (
        np.linalg.inv(cg.sl2_matrix(standard_boost(p)))
        @ cg.sl2_matrix(g)
        @ cg.sl2_matrix(standard_boost(q))
    )
    return complex(B[0, 0], B[1, 0]) ** 2


def _principal_power(bracket: complex, s: float) -> complex:
    if bracket.imag == 0.0 and bracket.real <= 0.0:
        raise BranchCutError(f"power base {bracket} lies on the cut R^-_0")
    return bracket ** s


def u_plain(p: MomentumPoint, s: float) -> complex:
    """((p0-p1)/m * (p0-p1+m-i p2)/(p0-p1+m+i p2))^s, principal branch."""
    x = p.p0 - p.p1
    bracket = (x / p.m) * complex(x + p.m, -p.p2) / complex(x + p.m, p.p2)
    return _principal_power(bracket, s)


def u_pihalf(p: MomentumPoint, s: float) -> complex:
    """e^{i s pi/2} ((p0-p2)/m * (p0-p2+m+i p1)/(p0-p2+m-i p1))^s."""
    y = p.p0 - p.p2
    bracket = (y / p.m) * complex(y + p.m, p.p1) / complex(y + p.m, -p.p1)
    return cmath.exp(0.5j * s * math.pi) * _principal_power(bracket, s)


def u_l0(p: MomentumPoint, s: float, g0: cg.CoverElement) -> complex:
    """e^{i s Omega(g0, p)} u(Lambda_0^{-1} p): the g0-shifted compensator."""
    return cmath.exp(1j * s * wigner_angle(g0, p)) * u_plain(transport(g0, p), s)


def cocycle(g: cg.CoverElement, p: MomentumPoint, s: float,
            variant: str = "c", g0: cg.CoverElement | None = None) -> complex:
    """The compensated Wigner factor u(p)^{-1} e^{i s Omega(g, p)} u(Lambda^{-1} p).

    variant "c" uses the plain compensator, variant "c_l0" the g0-shifted one
    (g0 defaults to the quarter rotation).  Both satisfy the multiplicative
    cocycle law in (g, p).
    """
    q = transport(g, p)
    phase = cmath.exp(1j * s * wigner_angle(g, p))
    if variant == "c":
        return phase * u_plain(q, s) / u_plain(p, s)
    if variant == "c_l0":
        if g0 is None:
            g0 = cg.lift_rotation(math.pi / 2.0)
        return phase * u_l0(q, s, g0) / u_l0(p, s, g0)
    raise ValueError(f"unknown cocycle variant {variant!r}")
