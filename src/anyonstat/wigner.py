"""Standard boosts, the lifted Wigner rotation, compensating functions and
their cocycles on the positive mass shell.

The Wigner angle is an additive real cocycle: Omega(ab, p) = Omega(a, p) +
Omega(b, A^{-1} p), with Omega(identity, p) = 0 (the additive law leaves no
other choice for the unit element) and Omega(lift_rotation(w), p) = w for
every real w, including full turns.

Every function broadcasts over an array-valued CoverElement and a
MomentumPoint stack (`minkowski.to_momentum` makes one of vectors (..., 3));
a single element and momentum give a scalar, or a MomentumPoint.

All fractional powers taken here live on the real shell where the bracket
arguments avoid the cut R^-_0, so principal branches are safe.  Evaluation
at complex boost parameters is deliberately *not* done in this module; that
is the job of the continuation engine in `holo`.
"""

from __future__ import annotations

import math

import numpy as np

from . import covergroup as cg
from .minkowski import MomentumPoint, _stack3, to_momentum


class BranchCutError(ValueError):
    """A power base landed on the cut R^-_0 where no principal value exists."""


def standard_boost(p: MomentumPoint) -> cg.CoverElement:
    """The rotation-free cover element carrying the rest momentum to p.

    At the 2x2 level this is the positive square root (P + m)/sqrt(2m(p0+m))
    of the momentum's spinor matrix, lifted with zero winding; its disk
    coordinates are gamma = (p1 + i p2)/(p0 + m) and omega = 0.
    """
    e = p.p0 + p.m
    gamma = p.p1 / e + 1j * (p.p2 / e)  # parts divided exactly, as in _sl2_entries
    return cg.CoverElement(gamma, np.zeros(np.shape(gamma))[()])


def transport(g: cg.CoverElement, p: MomentumPoint) -> MomentumPoint:
    """The momentum Lambda^{-1} p, reattached to the shell.

    p moves as its spinor matrix does, P -> B^{-1} P B^{-T}, with the entries
    [[d, -b], [-c, a]] of B^{-1} put into the quadratics of the projection
    and no 3x3 matrix built.
    """
    a, b, c, d = cg._sl2_entries(g.gamma, g.omega)
    p0 = p.p0
    q = (r[0] * p0 + r[1] * p.p1 + r[2] * p.p2 for r in cg._lorentz_rows(d, -b, -c, a))
    return to_momentum(_stack3(*q), p.m)


def little_group_element(g: cg.CoverElement, p: MomentumPoint) -> cg.CoverElement:
    """b(p)^{-1} g b(Lambda^{-1} p); projects into the rest-momentum stabiliser."""
    return _little_group_element(g, p, transport(g, p))


def _little_group_element(g: cg.CoverElement, p: MomentumPoint,
                          q: MomentumPoint) -> cg.CoverElement:
    """little_group_element for a caller that holds q = transport(g, p) already."""
    w = cg.compose(cg.inverse(standard_boost(p)), cg.compose(g, standard_boost(q)))
    if np.asarray(abs(w.gamma) > 1e-8).any():
        raise ArithmeticError(
            f"little-group element has |gamma| = {np.max(abs(w.gamma)):.3e}; "
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
    return (B[..., 0, 0] + 1j * B[..., 1, 0]) ** 2


def _principal_power(bracket: complex, s: float) -> complex:
    on_cut = (bracket.imag == 0.0) & (bracket.real <= 0.0)
    if np.asarray(on_cut).any():
        bad = np.asarray(bracket)[np.asarray(on_cut)][0]
        raise BranchCutError(f"power base {bad} lies on the cut R^-_0")
    return bracket ** s


def u_plain(p: MomentumPoint, s: float) -> complex:
    """((p0-p1)/m * (p0-p1+m-i p2)/(p0-p1+m+i p2))^s, principal branch."""
    x = p.p0 - p.p1
    bracket = (x / p.m) * ((x + p.m) - 1j * p.p2) / ((x + p.m) + 1j * p.p2)
    return _principal_power(bracket, s)


def u_pihalf(p: MomentumPoint, s: float) -> complex:
    """e^{i s pi/2} ((p0-p2)/m * (p0-p2+m+i p1)/(p0-p2+m-i p1))^s."""
    y = p.p0 - p.p2
    bracket = (y / p.m) * ((y + p.m) + 1j * p.p1) / ((y + p.m) - 1j * p.p1)
    return np.exp(0.5j * s * math.pi) * _principal_power(bracket, s)


def u_l0(p: MomentumPoint, s: float, g0: cg.CoverElement) -> complex:
    """e^{i s Omega(g0, p)} u(Lambda_0^{-1} p): the g0-shifted compensator."""
    return np.exp(1j * s * wigner_angle(g0, p)) * u_plain(transport(g0, p), s)


def cocycle(g: cg.CoverElement, p: MomentumPoint, s: float) -> complex:
    """The compensated Wigner factor u(p)^{-1} e^{i s Omega(g, p)} u(Lambda^{-1} p).

    It satisfies the multiplicative cocycle law in (g, p).  Shifting the
    compensator by g0, u -> u_l0(., s, g0), turns it into
    u_l0(p)^{-1} e^{i s Omega(g, p)} u_l0(Lambda^{-1} p) = c(g g0, p) u(p) / u_l0(p).
    """
    return (np.exp(1j * s * wigner_angle(g, p)) * u_plain(transport(g, p), s)
            / u_plain(p, s))
