import math

import numpy as np
import pytest

from anyonstat import minkowski as mk


def series_expm(M, terms=40):
    """Truncated power-series matrix exponential; the independent oracle."""
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


K1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_products():
    assert mk.minkowski_product([1, 0, 0], [1, 0, 0]) == 1.0
    assert mk.minkowski_product([0, 0, -1], [0, 0, -1]) == -1.0
    p = mk.shell_point(0.7, -1.3, 2.0)
    assert abs(mk.minkowski_product(p, p) - 4.0) < 1e-12


def test_shell_point():
    rest = mk.shell_point(0.0, 0.0, 1.0)
    assert rest.as_array() == pytest.approx([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        mk.shell_point(3.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        mk.shell_point(3.0, 4.0, -1.0)
    p = mk.shell_point(1.0, 1.0, 1.0)
    assert p.p0 == pytest.approx(math.sqrt(3.0))


def test_indexing_a_momentum_stack_gives_its_shell_points():
    p1, p2 = np.array([0.4, -0.2, 1.5, 0.0]), np.array([-0.3, 0.7, 0.2, 0.9])
    for m in (1.3, np.array([0.5, 1.0, 2.0, 3.0])):
        stack, ms = mk.MomentumPoint(p1, p2, m), np.broadcast_to(m, p1.shape)

        def assert_rows(got, rows):
            assert got.p1.shape == got.p2.shape == np.shape(got.m) == (len(rows),)
            for i, r in enumerate(rows):
                assert got[i] == mk.shell_point(p1[r], p2[r], ms[r])

        assert np.ndim(stack[2].p1) == np.ndim(stack[2].m) == 0
        assert stack[2] == mk.shell_point(1.5, 0.2, ms[2])
        assert stack[-1] == mk.shell_point(0.0, 0.9, ms[3])
        assert_rows(stack[1:3], [1, 2])
        assert_rows(stack[[3, 0, 3, 3]], [3, 0, 3, 3])
        assert_rows(stack[None][0], [0, 1, 2, 3])
    one = mk.shell_point(0.7, -1.3, 2.0)
    assert one[None].p1.shape == np.shape(one[None].m) == (1,)
    assert one[None][0] == one
    assert np.array_equal(one[None].as_array(), [one.as_array()])


def test_to_momentum_guards_off_shell():
    with pytest.raises(ValueError):
        mk.to_momentum([5.0, 0.1, 0.2], 1.0)


def test_boost1_identity_and_reflection():
    assert np.allclose(mk.boost1(0.0), np.eye(3), atol=0)
    assert np.max(np.abs(mk.boost1(1j * math.pi) - mk.J)) < 1e-14
    assert np.max(np.abs(mk.boost1(-1j * math.pi) - mk.J)) < 1e-14


def test_boost1_matches_exponential_oracle():
    z = 0.3 + 0.7j
    assert np.max(np.abs(mk.boost1(z) - series_expm(z * K1))) < 1e-13


def test_boost1_group_law():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        a, b = rng.uniform(-2, 2, 2)
        worst = max(worst, np.max(np.abs(
            mk.boost1(a) @ mk.boost1(b) - mk.boost1(a + b))))
    assert worst < 1e-12


def test_boost1_strip_grid_against_oracle_and_metric():
    worst_e, worst_m = 0.0, 0.0
    for t in np.linspace(-2, 2, 20):
        for th in np.linspace(0, math.pi, 20):
            z = complex(t, th)
            B = mk.boost1(z)
            worst_e = max(worst_e, np.max(np.abs(B - series_expm(z * K1))))
            worst_m = max(worst_m, mk.lorentz_residual(B))
    assert worst_e < 1e-12
    assert worst_m < 1e-12


def test_boost1_factored_strip_form():
    sigma = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0.0]])
    for t, th in ((0.4, 0.9), (-1.1, 2.5), (0.0, math.pi)):
        lhs = mk.boost1(complex(t, th))
        rhs = (np.diag([math.cos(th), math.cos(th), 1.0])
               + 1j * math.sin(th) * sigma) @ mk.boost1(t)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_j_reflect():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=3)
        assert np.allclose(mk.j_reflect(mk.j_reflect(x)), x, atol=0)
    assert np.allclose(mk.j_reflect([1, 0, 0]), [-1, 0, 0])
    # J carries the positive shell onto the negative one
    for _ in range(20):
        p = mk.shell_point(rng.uniform(-2, 2), rng.uniform(-2, 2), 1.3)
        q = mk.j_reflect(p.as_array())
        assert q[0] < 0
        assert abs(mk.minkowski_product(q, q) - 1.3 ** 2) < 1e-12


def test_j_commutes_with_boost1():
    for t in np.linspace(-2, 2, 9):
        assert np.max(np.abs(mk.J @ mk.boost1(t) @ mk.J - mk.boost1(t))) < 1e-14
