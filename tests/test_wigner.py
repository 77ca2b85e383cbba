import cmath
import math

import numpy as np
import pytest

from anyonstat import covergroup as cg
from anyonstat import minkowski as mk
from anyonstat import wigner as wg


def random_shell(rng, m=1.0):
    return mk.shell_point(rng.uniform(-1, 1), rng.uniform(-1, 1), m)


def minus_j(p):
    return mk.to_momentum(-mk.j_reflect(p.as_array()), p.m)


def test_standard_boost_rest_is_identity():
    b = wg.standard_boost(mk.shell_point(0.0, 0.0, 1.0))
    assert abs(b.gamma) == 0.0 and b.omega == 0.0


def test_standard_boost_absorbs_x1_boosts():
    for t in (0.3, -1.4, 2.0):
        p = mk.to_momentum(mk.boost1(t) @ np.array([1.0, 0, 0]), 1.0)
        sb = wg.standard_boost(p)
        assert np.max(np.abs(cg.project(sb) - mk.boost1(t))) < 1e-12
        assert abs(sb.omega) == 0.0


def test_standard_boost_defining_property():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = random_shell(rng, m=1.3)
        out = cg.act_on_vector(wg.standard_boost(p), [1.3, 0.0, 0.0])
        assert np.max(np.abs(out - p.as_array())) < 1e-12


def test_standard_boost_is_the_positive_spinor_square_root():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m = rng.uniform(0.3, 3.0)
        p = mk.shell_point(*rng.uniform(-4.0, 4.0, 2), m)
        spinor = np.array([[p.p0 + p.p1, p.p2], [p.p2, p.p0 - p.p1]])
        B = (spinor + m * np.eye(2)) / math.sqrt(2.0 * m * (p.p0 + m))
        sb = wg.standard_boost(p)
        assert sb.omega == 0.0
        assert np.max(np.abs(cg.sl2_matrix(sb) - B)) < 1e-12


def test_wigner_angle_basics():
    rng = np.random.default_rng(1)
    p = random_shell(rng)
    assert wg.wigner_angle(cg.identity(), p) == 0.0
    for w in (0.7, -2.2, 2 * math.pi, 4 * math.pi):
        assert abs(wg.wigner_angle(cg.lift_rotation(w), p) - w) < 1e-10
    t = 0.9
    pb = mk.to_momentum(mk.boost1(t) @ np.array([1.0, 0, 0]), 1.0)
    assert abs(wg.wigner_angle(cg.lift_boost1(t), pb)) < 1e-12


def test_cocycle_additivity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        a, b = cg.random_element(rng), cg.random_element(rng)
        p = random_shell(rng)
        lhs = wg.wigner_angle(cg.compose(a, b), p)
        rhs = wg.wigner_angle(a, p) + wg.wigner_angle(b, wg.transport(a, p))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9


def test_reflection_identity():
    rng = np.random.default_rng(3)
    for _ in range(300):
        g = cg.random_element(rng)
        p = random_shell(rng)
        assert abs(wg.wigner_angle(cg.j_conjugate(g), p)
                   + wg.wigner_angle(g, minus_j(p))) < 1e-9


def test_little_group_phase_oracle():
    rng = np.random.default_rng(4)
    for _ in range(300):
        g = cg.random_element(rng)
        p = random_shell(rng)
        assert abs(cmath.exp(1j * wg.wigner_angle(g, p))
                   - wg.little_group_phase(g, p)) < 1e-10


def test_unbounded_lift_matches_path_tracking():
    # the cross-check oracle: track the little-group phase continuously along
    # a path from the identity and compare the accumulated angle to the lift
    rng = np.random.default_rng(12)
    n = 400
    k = np.arange(1, n + 1)
    for _ in range(20):
        g = cg.random_element(rng)
        p = random_shell(rng)
        steps = cg.CoverElement(g.gamma * k / n, g.omega * k / n)
        phases = np.concatenate(([1.0 + 0j], wg.little_group_phase(steps, p)))
        total = np.sum(np.angle(phases[1:] / phases[:-1]))
        assert abs(total - wg.wigner_angle(g, p)) < 1e-9


def test_loop_deck_accumulation():
    rng = np.random.default_rng(5)
    for k in (-2, 0, 1, 3):
        p = random_shell(rng)
        gs = [cg.random_element(rng, disk_radius=0.5) for _ in range(3)]
        chain = gs + [cg.inverse(g) for g in reversed(gs)] \
            + [cg.lift_rotation(2 * math.pi * k)]
        total, cur = 0.0, p
        for g in chain:
            total += wg.wigner_angle(g, cur)
            cur = wg.transport(g, cur)
        assert abs(total - 2 * math.pi * k) < 1e-9


def test_u_values():
    rest = mk.shell_point(0.0, 0.0, 1.0)
    for s in (0.0, 0.5, 1 / 3, 0.137):
        assert abs(wg.u_plain(rest, s) - 1.0) < 1e-15
        assert abs(wg.u_pihalf(rest, s) - cmath.exp(0.5j * math.pi * s)) < 1e-15
    p = mk.shell_point(0.4, -0.9, 1.0)
    assert wg.u_plain(p, 0.0) == 1.0
    assert abs(abs(wg.u_pihalf(p, 0.0)) - 1.0) < 1e-15


def test_u_reflection_symmetry():
    rng = np.random.default_rng(6)
    s = 1 / 3
    for _ in range(100):
        p = random_shell(rng)
        assert abs(wg.u_plain(minus_j(p), s) - wg.u_plain(p, s).conjugate()) < 1e-14


def test_u_l0_matches_quarter_rotation_form():
    rng = np.random.default_rng(7)
    g0 = cg.lift_rotation(math.pi / 2)
    for s in (0.5, 1 / 3, 0.137):
        for _ in range(100):
            p = random_shell(rng)
            assert abs(wg.u_l0(p, s, g0) - wg.u_pihalf(p, s)) < 1e-13
    assert abs(wg.u_l0(mk.shell_point(0.1, 0.2, 1.0), 0.25, g0)
               - wg.u_pihalf(mk.shell_point(0.1, 0.2, 1.0), 0.25)) < 1e-13


def test_cocycle_law_and_modulus():
    rng = np.random.default_rng(8)
    s = 0.137
    worst_law, worst_mod = 0.0, 0.0
    for _ in range(1000):
        a, b = cg.random_element(rng), cg.random_element(rng)
        p = random_shell(rng)
        lhs = wg.cocycle(cg.compose(a, b), p, s)
        rhs = wg.cocycle(a, p, s) * wg.cocycle(b, wg.transport(a, p), s)
        worst_law = max(worst_law, abs(lhs - rhs))
        worst_mod = max(worst_mod, abs(
            abs(lhs) - abs(wg.u_plain(wg.transport(cg.compose(a, b), p), s))
            / abs(wg.u_plain(p, s))))
    assert worst_law < 1e-10
    assert worst_mod < 1e-10
    p = random_shell(rng)
    assert abs(wg.cocycle(cg.identity(), p, s) - 1.0) < 1e-15


def test_shifted_cocycle_identity():
    rng = np.random.default_rng(9)
    s = 1 / 3
    g0 = cg.lift_rotation(math.pi / 2)
    for _ in range(200):
        g = cg.random_element(rng)
        p = random_shell(rng)
        # u_l0(p) c_l0(g, p), the cocycle of the g0-shifted compensator
        lhs = cmath.exp(1j * s * wg.wigner_angle(g, p)) * wg.u_l0(wg.transport(g, p), s, g0)
        rhs = wg.u_plain(p, s) * wg.cocycle(cg.compose(g, g0), p, s)
        assert abs(lhs - rhs) < 1e-12


def test_reflected_cocycle_equals_conjugated():
    # the real-axis form of the reflection boundary identity
    rng = np.random.default_rng(10)
    s = 0.25
    for _ in range(200):
        g = cg.random_element(rng)
        p = random_shell(rng)
        lhs = wg.cocycle(cg.j_conjugate(g), p, s)
        rhs = wg.cocycle(g, minus_j(p), s).conjugate()
        assert abs(lhs - rhs) < 1e-11


def test_branch_cut_guard():
    with pytest.raises(wg.BranchCutError):
        wg._principal_power(complex(-2.0, 0.0), 0.5)
