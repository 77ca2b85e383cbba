#!/usr/bin/env python3
"""Branch-tracked continuation into the strip: boundary values at i*pi,
Morera certificates, and the negative control showing why the compensator
is not optional."""

import cmath
import math

from anyonstat import covergroup as cg
from anyonstat import holo
from anyonstat import minkowski as mk
from anyonstat import wigner as wg

S = 1 / 3
print("=" * 70)
print("Continuation of the compensated boost family, spin s = 1/3")
print("=" * 70)

p = mk.shell_point(0.4, -0.3, 1.0)
g = cg.compose(cg.lift_rotation(0.13), cg.lift_boost(0.4, 0.21))
f = holo.compensated_family_expr(g, p, S)

cont = holo.continue_along(f, holo.StripPath.vertical(0.0))
g0 = cg.lift_rotation(math.pi / 2)
gg0 = cg.compose(g, g0)
vec = mk.J @ cg.project(cg.inverse(gg0)) @ mk.J @ p.as_array()
closed = (cmath.exp(1j * math.pi * S)
          * cmath.exp(1j * S * wg.wigner_angle(cg.j_conjugate(gg0), p))
          * wg.u_plain(mk.to_momentum(vec, 1.0), S))
print(f"\nEngine value at i*pi:   {cont:.12f}")
print(f"Closed-form boundary:   {closed:.12f}")
print(f"difference:             {abs(cont - closed):.2e}")

r = holo.morera_residual(f, holo.StripPath.rectangle(-0.4, 0.4, 0.15, math.pi - 0.15))
print(f"\nMorera certificate on a strip rectangle: |contour integral| = {r:.2e}")

print("\n" + "-" * 70)
print("Negative control: the bare phase factor alone")
print("-" * 70)
pb = mk.shell_point(0.5, 1.0, 1.0)
zstar = holo.boost_energy_branch_point(pb)
print(f"\nFor p = (p1,p2) = (0.5, 1.0) the boosted energy vanishes at")
print(f"  z* = {zstar:.6f}, strictly inside the strip.")
bare = holo.uncompensated_phase_expr(cg.identity(), pb, S)
rect = holo.StripPath.rectangle(zstar.real - 0.3, zstar.real + 0.3,
                                zstar.imag - 0.3, zstar.imag + 0.3)
print(f"Morera residual of the bare phase around z*:    {holo.morera_residual(bare, rect):.3f}")

zend = complex(zstar.real, zstar.imag + 0.5)
left = [0.0, zstar.real - 0.4, complex(zstar.real - 0.4, zend.imag), zend]
right = [0.0, zstar.real + 0.4, complex(zstar.real + 0.4, zend.imag), zend]
vl, vr = holo.continue_along(bare, left), holo.continue_along(bare, right)
print(f"Continuations left/right of z* disagree by a monodromy factor:")
print(f"  ratio = {vl / vr:.6f}   (|1 - ratio| = {abs(1 - vl/vr):.3f})")

comp = holo.compensated_family_expr(cg.identity(), pb, S)
cl, cr = holo.continue_along(comp, left), holo.continue_along(comp, right)
print(f"\nThe compensated family is path independent around the same point:")
print(f"  |left - right| = {abs(cl - cr):.2e}")
