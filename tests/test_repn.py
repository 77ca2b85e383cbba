import cmath
import math

import numpy as np
import pytest

from anyonstat import covergroup as cg
from anyonstat import minkowski as mk
from anyonstat import repn
from anyonstat.minkowski import Vec3


def test_identity_and_translation():
    cfg = repn.RepConfig(1.0, 0.25, 2)
    psi = repn.WaveFunction.gaussian(cfg, vector=[1.0, -0.5j])
    p = mk.shell_point(0.3, -0.2, 1.0)
    assert np.allclose(repn.act(cg.PoincareElement.identity(), psi)(p), psi(p), atol=0)
    a = Vec3(0.4, -0.1, 0.7)
    shifted = repn.act(cg.PoincareElement.pure_translation(a), psi)
    phase = cmath.exp(1j * mk.minkowski_product(a.as_array(), p.as_array()))
    assert np.allclose(shifted(p), phase * psi(p), atol=1e-15)


def test_full_rotation_scalar():
    for s in (0.0, 0.5, 1 / 3, 0.137):
        cfg = repn.RepConfig(1.0, s, 1)
        psi = repn.WaveFunction.gaussian(cfg)
        g = cg.PoincareElement.pure_lorentz(cg.lift_rotation(2 * math.pi))
        p = mk.shell_point(0.5, 0.1, 1.0)
        assert abs(repn.act(g, psi)(p)[0]
                   - cmath.exp(2j * math.pi * s) * psi(p)[0]) < 1e-12


def test_representation_law():
    cfg = repn.RepConfig(1.0, 1 / 3, 2)
    psi = repn.WaveFunction.gaussian(cfg, vector=[1.0, 0.3 + 0.2j])
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        g1 = cg.PoincareElement(Vec3(*rng.uniform(-1, 1, 3)),
                                cg.random_element(rng, disk_radius=0.5))
        g2 = cg.PoincareElement(Vec3(*rng.uniform(-1, 1, 3)),
                                cg.random_element(rng, disk_radius=0.5))
        p = mk.shell_point(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), 1.0)
        lhs = repn.act(g1, repn.act(g2, psi))(p)
        rhs = repn.act(g1.compose(g2), psi)(p)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-9


def test_inner_product_properties():
    cfg = repn.RepConfig(1.0, 0.25, 1)
    psi = repn.WaveFunction.gaussian(cfg, center=(0.2, 0.0), width=0.5)
    phi = repn.WaveFunction.gaussian(cfg, center=(-0.1, 0.2), width=0.6)
    norm = repn.inner_product(psi, psi)
    assert abs(norm.imag) < 1e-14
    assert norm.real > 0
    gb = cg.PoincareElement.pure_lorentz(cg.lift_boost(0.7, 0.25))
    wide = repn.QuadGrid(halfwidth=3.9, order=72)  # boosted support needs room
    ip0 = repn.inner_product(phi, psi, wide)
    ip1 = repn.inner_product(repn.act(gb, phi), repn.act(gb, psi), wide)
    assert abs(ip0 - ip1) < 1e-8
    gt = cg.PoincareElement(Vec3(0.3, -0.2, 0.5), cg.lift_rotation(0.4))
    ip2 = repn.inner_product(repn.act(gt, phi), repn.act(gt, psi), wide)
    assert abs(ip0 - ip2) < 1e-8


def _scalar_inner_product(phi, psi, grid=None):
    """The node-by-node loop inner_product replaced, as an oracle: the sum
    and the edge-support check, one shell point at a time."""
    grid = grid or repn.QuadGrid()
    m = psi.config.m
    p1, p2, W = grid.nodes_weights()
    total, edge_max, bulk_max = 0j, 0.0, 0.0
    for i, a in enumerate(p1):
        for j, b in enumerate(p2):
            parr = np.array([math.sqrt(a * a + b * b + m * m), a, b])
            total += W[i, j] * np.vdot(phi(parr), psi(parr)) / (2.0 * parr[0])
            mag = abs(np.vdot(psi(parr), psi(parr)))
            bulk_max = max(bulk_max, mag)
            if i in (0, len(p1) - 1) or j in (0, len(p2) - 1):
                edge_max = max(edge_max, mag)
    return total, edge_max > 1e-24 * bulk_max


def test_inner_product_matches_the_pointwise_loop():
    cfg = repn.RepConfig(1.0, 1 / 3, 2)
    psi = repn.WaveFunction.gaussian(cfg, center=(0.2, 0.0), width=0.5, vector=[1.0, 0.5j])
    phi = repn.WaveFunction.gaussian(cfg, center=(-0.1, 0.2), width=0.6,
                                     poly=lambda a: 1.0 + a[..., 1] * a[..., 2])
    g = cg.PoincareElement(Vec3(0.3, -0.2, 0.5), cg.compose(cg.lift_rotation(0.4),
                                                             cg.lift_boost(0.7, 0.25)))
    grid = repn.QuadGrid(halfwidth=3.9, order=24)
    for f, h in ((phi, psi), (repn.act(g, phi), repn.act(g, psi))):
        ref, outside = _scalar_inner_product(f, h, grid)
        assert not outside
        assert abs(repn.inner_product(f, h, grid) - ref) < 1e-14 * max(1.0, abs(ref))
    # the batched action agrees with the action at single momenta
    upsi = repn.act(g, psi)
    pts = np.array([[0.3, -0.1], [-0.7, 0.45], [1.2, 0.0]])
    batch = upsi(mk.to_momentum(
        np.column_stack([np.sqrt(1.0 + (pts ** 2).sum(1)), pts]), 1.0))
    assert batch.shape == (3, 2)
    for row, (a, b) in zip(batch, pts):
        assert np.max(np.abs(row - upsi(mk.shell_point(a, b, 1.0)))) < 1e-15
    # support leaking through one pair of box edges only, either pair
    for center in ((0.0, 3.0), (3.0, 0.0), (0.0, -3.0)):
        leak = repn.WaveFunction.gaussian(cfg, center=center, width=0.6)
        assert _scalar_inner_product(leak, leak, grid)[1]
        with pytest.raises(repn.QuadratureSupportError):
            repn.inner_product(leak, leak, grid)


def test_orthogonal_components():
    cfg = repn.RepConfig(1.0, 0.5, 2)
    psi = repn.WaveFunction.gaussian(cfg, vector=[1.0, 0.0])
    phi = repn.WaveFunction.gaussian(cfg, vector=[0.0, 1.0])
    assert abs(repn.inner_product(phi, psi)) < 1e-14


def test_support_violation_detected():
    cfg = repn.RepConfig(1.0, 0.0, 1)
    wide = repn.WaveFunction.gaussian(cfg, width=4.0)
    with pytest.raises(repn.QuadratureSupportError):
        repn.inner_product(wide, wide)


def test_momentum_generator():
    cfg = repn.RepConfig(1.0, 0.5, 1)
    psi = repn.WaveFunction.gaussian(cfg)
    p = mk.shell_point(0.3, 0.4, 1.0)
    assert np.allclose(repn.generator(psi, "P0", p), p.p0 * psi(p), atol=0)
    assert np.allclose(repn.generator(psi, "P2", p), p.p2 * psi(p), atol=0)


def test_rotation_generator_at_rest():
    # rotation-invariant profile: L0 reduces to the spin term at rest
    rest = mk.shell_point(0.0, 0.0, 1.0)
    for s in (0.0, 1 / 3):
        cfg = repn.RepConfig(1.0, s, 1)
        psi = repn.WaveFunction.gaussian(cfg, center=(0.0, 0.0))
        l0 = repn.generator(psi, "L0", rest)
        assert np.max(np.abs(l0 - s * psi(rest))) < 1e-10


def test_casimir_eigenvalue():
    cases = ((1.0, 0.0, 1e-8), (1.0, 0.5, 1e-6), (1.7, 0.137, 1e-6))
    pts = [(0.0, 0.0), (0.3, 0.1), (-0.2, 0.4), (0.5, -0.3), (0.1, 0.6), (0.45, 0.25)]
    for m, s, tol in cases:
        cfg = repn.RepConfig(m, s, 1)
        psi = repn.WaveFunction.gaussian(cfg, center=(0.25, -0.15), width=1.0)
        points = [mk.shell_point(a, b, m) for a, b in pts]
        assert repn.casimir_residual(psi, points) < tol
    # the eigenvalue -m*s for the generic pair, to the printed precision
    m, s = 1.7, 0.137
    cfg = repn.RepConfig(m, s, 1)
    psi = repn.WaveFunction.gaussian(cfg, center=(0.25, -0.15), width=1.0)
    p = mk.shell_point(0.3, 0.1, m)
    w = repn.pauli_lubanski(psi, p)
    ratio = w[0] / psi(p)[0]
    assert abs(ratio - (-0.23290)) < 1e-4


def test_casimir_commutes_with_representation():
    cfg = repn.RepConfig(1.0, 1 / 3, 1)
    psi = repn.WaveFunction.gaussian(cfg, center=(0.1, 0.1), width=1.0)
    g = cg.PoincareElement.pure_lorentz(
        cg.compose(cg.lift_rotation(0.3), cg.lift_boost1(0.2)))
    upsi = repn.act(g, psi)
    lam_inv = cg.project(cg.inverse(g.lorentz))
    import anyonstat.wigner as wg
    for p in (mk.shell_point(0.2, 0.3, 1.0), mk.shell_point(-0.4, 0.1, 1.0)):
        w_u = repn.pauli_lubanski(upsi, p)
        q = mk.to_momentum(lam_inv @ p.as_array(), 1.0)
        phase = cmath.exp(1j * cfg.s * wg.wigner_angle(g.lorentz, p))
        u_w = phase * repn.pauli_lubanski(psi, q)
        denom = float(np.linalg.norm(psi(q)))
        assert np.max(np.abs(w_u - u_w)) / denom < 1e-5


def test_operator_ordering_documented_cross_check():
    # multiplying before differentiating differs from the reverse order by
    # the commutator; for a boost and the energy component it is nonzero
    cfg = repn.RepConfig(1.0, 0.5, 1)
    psi = repn.WaveFunction.gaussian(cfg, center=(0.2, 0.1), width=1.0)
    p = mk.shell_point(0.4, 0.2, 1.0)
    mult_first = repn.generator(
        repn.WaveFunction(cfg, lambda a: a[0] * psi(a)), "L2", p)
    gen_first = p.p0 * repn.generator(psi, "L2", p)
    assert np.max(np.abs(mult_first - gen_first)) > 1e-3
    # while a boost along x2 commutes with multiplication by p1 exactly
    mult_p1 = repn.generator(
        repn.WaveFunction(cfg, lambda a: a[1] * psi(a)), "L2", p)
    assert np.max(np.abs(mult_p1 - p.p1 * repn.generator(psi, "L2", p))) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        repn.RepConfig(0.0, 0.5, 1)
    with pytest.raises(ValueError):
        repn.RepConfig(1.0, 0.5, 0)
