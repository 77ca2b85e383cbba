import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anyonstat import covergroup as cg
from anyonstat import minkowski as mk

elements = st.builds(
    cg.CoverElement,
    gamma=st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
    omega=st.floats(-12.0, 12.0),
)


def close(a: cg.CoverElement, b: cg.CoverElement, tol_g=1e-12, tol_w=1e-10):
    return abs(a.gamma - b.gamma) < tol_g and abs(a.omega - b.omega) < tol_w


def test_identity_neutral():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = cg.random_element(rng)
        assert close(cg.compose(cg.identity(), g), g)
        assert close(cg.compose(g, cg.identity()), g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(elements, elements, elements)
def test_associativity(a, b, c):
    lhs = cg.compose(cg.compose(a, b), c)
    rhs = cg.compose(a, cg.compose(b, c))
    assert abs(lhs.gamma - rhs.gamma) < 1e-12
    assert abs(lhs.omega - rhs.omega) < 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(elements, elements)
def test_projection_homomorphism(a, b):
    assert np.max(np.abs(cg.project(cg.compose(a, b))
                         - cg.project(a) @ cg.project(b))) < 1e-12


_X_BASIS = (
    np.array([[1.0, 0.0], [0.0, 1.0]]),    # x0
    np.array([[1.0, 0.0], [0.0, -1.0]]),   # x1
    np.array([[0.0, 1.0], [1.0, 0.0]]),    # x2
)


def _project_reference(g):
    """The defining action X -> B X B^T on the symmetric basis, one column each."""
    alpha = cmath.exp(0.5j * g.omega) / math.sqrt(1.0 - abs(g.gamma) ** 2)
    beta = g.gamma * alpha
    B = np.array([[alpha.real + beta.real, beta.imag - alpha.imag],
                  [alpha.imag + beta.imag, alpha.real - beta.real]])
    cols = []
    for X in _X_BASIS:
        Y = B @ X @ B.T
        cols.append([(Y[0, 0] + Y[1, 1]) / 2.0, (Y[0, 0] - Y[1, 1]) / 2.0, Y[0, 1]])
    return np.array(cols).T


def test_project_matches_the_defining_action():
    rng = np.random.default_rng(10)
    for _ in range(200):
        g = cg.random_element(rng, windings=3.0)
        assert np.max(np.abs(cg.project(g) - _project_reference(g))) < 1e-12


def test_projection_is_proper_orthochronous():
    rng = np.random.default_rng(3)
    for _ in range(200):
        L = cg.project(cg.random_element(rng))
        assert mk.lorentz_residual(L) < 1e-12
        assert abs(np.linalg.det(L) - 1.0) < 1e-12
        assert L[0, 0] >= 1.0 - 1e-12


def test_deck_transformations():
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = cg.random_element(rng)
        for k in (-2, -1, 1, 2):
            deck = cg.compose(cg.lift_rotation(2 * math.pi * k), g)
            assert np.max(np.abs(cg.project(deck) - cg.project(g))) < 1e-12
            assert abs(deck.omega - g.omega - 2 * math.pi * k) < 1e-10
            assert not close(deck, g)


def test_subgroup_projections():
    assert np.allclose(cg.project(cg.lift_rotation(math.pi / 2)),
                       mk.rotation(math.pi / 2), atol=1e-14)
    for t in (-1.3, 0.2, 2.0):
        assert np.allclose(cg.project(cg.lift_boost1(t)), mk.boost1(t), atol=1e-13)
    assert np.allclose(cg.project(cg.lift_rotation(2 * math.pi)), np.eye(3), atol=1e-14)


def test_one_parameter_laws():
    assert close(cg.lift_rotation(0.0), cg.identity())
    for s, t in ((0.3, 1.1), (-0.7, 0.2)):
        assert close(cg.compose(cg.lift_boost1(s), cg.lift_boost1(t)),
                     cg.lift_boost1(s + t))
        assert close(cg.compose(cg.lift_rotation(s), cg.lift_rotation(t)),
                     cg.lift_rotation(s + t))
    assert not close(cg.lift_rotation(4 * math.pi), cg.lift_rotation(0.0))
    assert close(cg.lift_boost(0.0, 0.8), cg.lift_boost1(0.8), tol_w=1e-12)


def test_half_turn_boost_relation():
    for t in (0.4, -1.2):
        lhs = cg.compose(cg.lift_rotation(math.pi), cg.lift_boost1(t))
        rhs = cg.compose(cg.lift_boost1(-t), cg.lift_rotation(math.pi))
        assert close(lhs, rhs, tol_g=1e-14, tol_w=1e-12)


def test_inverse():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        g = cg.random_element(rng)
        e = cg.compose(cg.inverse(g), g)
        assert abs(e.gamma) < 1e-12
        assert abs(e.omega) < 1e-10


def test_j_conjugate_properties():
    rng = np.random.default_rng(6)
    for t in (0.3, -1.0):
        assert close(cg.j_conjugate(cg.lift_boost1(t)), cg.lift_boost1(t))
    for w in (0.4, 2 * math.pi, -5.0):
        assert close(cg.j_conjugate(cg.lift_rotation(w)), cg.lift_rotation(-w))
    for _ in range(200):
        g, h = cg.random_element(rng), cg.random_element(rng)
        gg = cg.j_conjugate(cg.j_conjugate(g))
        assert gg.gamma == g.gamma and gg.omega == g.omega
        assert np.max(np.abs(cg.project(cg.j_conjugate(g))
                             - mk.J @ cg.project(g) @ mk.J)) < 1e-12
        assert close(cg.j_conjugate(cg.compose(g, h)),
                     cg.compose(cg.j_conjugate(g), cg.j_conjugate(h)))


def test_j_conjugate_continuity_along_path():
    rng = np.random.default_rng(7)
    g = cg.random_element(rng)
    prev = cg.identity()
    for k in range(1, 101):
        cur = cg.j_conjugate(cg.CoverElement(g.gamma * k / 100, g.omega * k / 100))
        assert abs(cur.gamma - prev.gamma) + abs(cur.omega - prev.omega) < 0.3
        prev = cur


def test_act_on_vector():
    rng = np.random.default_rng(8)
    x = rng.normal(size=3)
    assert np.allclose(cg.act_on_vector(cg.identity(), x), x, atol=0)
    e = cg.act_on_vector(cg.lift_rotation(math.pi / 2), [0.0, 0.0, -1.0])
    assert e[1] > abs(e[0]) + 0.5  # lands inside the standard wedge
    m = 1.7
    out = cg.act_on_vector(cg.lift_boost1(0.9), [m, 0.0, 0.0])
    assert np.allclose(out, [m * math.cosh(0.9), m * math.sinh(0.9), 0.0], atol=1e-13)


def test_poincare_composition():
    rng = np.random.default_rng(9)
    for _ in range(100):
        g1 = cg.PoincareElement(rng.uniform(-1, 1, 3), cg.random_element(rng))
        g2 = cg.PoincareElement(rng.uniform(-1, 1, 3), cg.random_element(rng))
        x = rng.normal(size=3)
        assert np.max(np.abs(g1.compose(g2).act(x) - g1.act(g2.act(x)))) < 1e-11


def test_disk_coordinate_validation():
    with pytest.raises(ValueError):
        cg.CoverElement(1.0 + 0j, 0.0)
