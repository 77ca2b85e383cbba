"""Array-valued cover elements and momentum stacks against scalar oracles.

The oracles below are the per-element cmath implementations the batched
functions replaced, kept verbatim in spirit: disk coordinates as a
(gamma, omega) pair, a momentum as (p1, p2, m), the inverse transformation
as a 3x3 matrix.  Every batched result is compared entry by entry.
"""

import cmath
import copy
import math

import numpy as np
import pytest

from anyonstat import conegeom as cgm
from anyonstat import covergroup as cg
from anyonstat import minkowski as mk
from anyonstat import suites
from anyonstat import wigner as wg


# ---------------------------------------------------------------------------
# scalar oracles
# ---------------------------------------------------------------------------

def o_compose(a, b):
    w = a[0] * b[0].conjugate() * cmath.exp(-1j * b[1])
    gamma = (b[0] + a[0] * cmath.exp(-1j * b[1])) / (1.0 + w)
    return gamma, a[1] + b[1] + 2.0 * cmath.phase(1.0 + w)


def o_inverse(g):
    return -g[0] * cmath.exp(1j * g[1]), -g[1]


def o_project(g):
    alpha = cmath.exp(0.5j * g[1]) / math.sqrt(1.0 - abs(g[0]) ** 2)
    beta = g[0] * alpha
    a, b = alpha.real + beta.real, beta.imag - alpha.imag
    c, d = alpha.imag + beta.imag, alpha.real - beta.real
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    return np.array([[(aa + bb + cc + dd) / 2, (aa - bb + cc - dd) / 2, a * b + c * d],
                     [(aa + bb - cc - dd) / 2, (aa - bb - cc + dd) / 2, a * b - c * d],
                     [a * c + b * d, a * c - b * d, b * c + a * d]])


def o_energy(p):
    return math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)


def o_transport(g, p):
    v = o_project(o_inverse(g)) @ np.array([o_energy(p), p[0], p[1]])
    assert abs(v[0] - o_energy((v[1], v[2], p[2]))) < 1e-8 * max(1.0, abs(v[0]))
    return float(v[1]), float(v[2]), p[2]


def o_standard_boost(p):
    return complex(p[0], p[1]) / (o_energy(p) + p[2]), 0.0


def o_little_group_element(g, p):
    q = o_transport(g, p)
    w = o_compose(o_inverse(o_standard_boost(p)), o_compose(g, o_standard_boost(q)))
    assert abs(w[0]) < 1e-8
    return w


def o_wigner_angle(g, p):
    return o_little_group_element(g, p)[1]


def o_u_plain(p, s):
    x = o_energy(p) - p[0]
    bracket = (x / p[2]) * complex(x + p[2], -p[1]) / complex(x + p[2], p[1])
    assert not (bracket.imag == 0.0 and bracket.real <= 0.0)
    return bracket ** s


def o_cocycle(g, p, s):
    q = o_transport(g, p)
    return cmath.exp(1j * s * o_wigner_angle(g, p)) * o_u_plain(q, s) / o_u_plain(p, s)


def o_random_element(rng, disk_radius=0.8, windings=2.0):
    r = disk_radius * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    omega = rng.uniform(-windings, windings) * 2.0 * math.pi
    return r * cmath.exp(1j * phi), omega


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

def _elements(rng, n, windings=4.0):
    """n elements up to disk radius 0.8 and +-4 turns, every fourth a deck
    element (a whole number of turns, gamma = 0)."""
    g = cg.element_from_draws(rng.uniform(size=(n, 3)), 0.8, windings)
    deck = np.arange(n) % 4 == 0
    turns = 2.0 * math.pi * np.round(g.omega / (2.0 * math.pi))
    return cg.CoverElement(np.where(deck, 0j, g.gamma), np.where(deck, turns, g.omega))


def _momenta(rng, n):
    p = rng.uniform(-2.0, 2.0, size=(n, 2))
    return mk.MomentumPoint(p[:, 0], p[:, 1], rng.uniform(0.3, 2.0, size=n))


def _pairs(g):
    return list(zip(np.ravel(g.gamma).tolist(), np.ravel(g.omega).tolist()))


def _triples(p):
    return list(zip(*(np.broadcast_to(x, np.shape(p.p1)).ravel().tolist()
                      for x in (p.p1, p.p2, p.m))))


def test_compose_and_inverse_match_the_scalar_oracle():
    rng = np.random.default_rng(31)
    a, b = _elements(rng, 400), _elements(rng, 400)
    ab, inv = cg.compose(a, b), cg.inverse(a)
    assert ab.gamma.shape == ab.omega.shape == (400,)
    for i, (x, y) in enumerate(zip(_pairs(a), _pairs(b))):
        g, w = o_compose(x, y)
        assert abs(ab.gamma[i] - g) < 1e-13 and abs(ab.omega[i] - w) < 1e-12
        g, w = o_inverse(x)
        assert abs(inv.gamma[i] - g) < 1e-15 and inv.omega[i] == w
    # a scalar element against a stack, in both orders
    h = cg.random_element(rng, windings=4.0)
    for lhs, pairs in ((cg.compose(h, b), [((h.gamma, h.omega), y) for y in _pairs(b)]),
                       (cg.compose(b, h), [(y, (h.gamma, h.omega)) for y in _pairs(b)])):
        for i, (x, y) in enumerate(pairs):
            g, w = o_compose(x, y)
            assert abs(lhs.gamma[i] - g) < 1e-13 and abs(lhs.omega[i] - w) < 1e-12


def test_deck_elements_shift_the_winding_exactly_in_a_batch():
    rng = np.random.default_rng(32)
    g = _elements(rng, 200)
    k = np.arange(-4, 5)[:, None]
    deck = cg.compose(cg.lift_rotation(2.0 * math.pi * k), g)
    assert deck.omega.shape == (9, 200)
    assert np.max(np.abs(deck.omega - g.omega - 2.0 * math.pi * k)) < 1e-12
    assert np.max(np.abs(cg.project(deck) - cg.project(g))) < 1e-12


def test_transport_and_wigner_angle_match_the_scalar_oracle():
    rng = np.random.default_rng(33)
    g, p = _elements(rng, 300), _momenta(rng, 300)
    q, angle = wg.transport(g, p), wg.wigner_angle(g, p)
    assert isinstance(q, mk.MomentumPoint) and q.p1.shape == angle.shape == (300,)
    for i, (x, y) in enumerate(zip(_pairs(g), _triples(p))):
        ref = o_transport(x, y)
        scale = max(1.0, abs(ref[0]), abs(ref[1]))
        assert abs(q.p1[i] - ref[0]) < 1e-12 * scale and abs(q.p2[i] - ref[1]) < 1e-12 * scale
        assert abs(angle[i] - o_wigner_angle(x, y)) < 1e-11
        w = wg.little_group_element(g[i], mk.MomentumPoint(*y))
        assert abs(w.omega - o_little_group_element(x, y)[1]) < 1e-11


def test_scalar_element_broadcasts_over_a_momentum_grid():
    rng = np.random.default_rng(34)
    g = cg.random_element(rng, windings=4.0)
    p = mk.MomentumPoint(*np.meshgrid(np.linspace(-1.5, 1.5, 7), np.linspace(-1, 1, 5)), 1.3)
    angle = wg.wigner_angle(g, p)
    assert angle.shape == (5, 7)
    for a, y in zip(angle.ravel(), _triples(p)):
        assert abs(a - o_wigner_angle((g.gamma, g.omega), y)) < 1e-11
    # a single element and momentum stay scalar, MomentumPoint in and out
    one = mk.shell_point(0.3, -0.4, 1.3)
    q = wg.transport(g, one)
    assert isinstance(q, mk.MomentumPoint) and np.ndim(q.p1) == 0
    assert np.ndim(wg.wigner_angle(g, one)) == 0 and np.ndim(wg.cocycle(g, one, 0.3)) == 0


def test_cocycle_matches_the_scalar_oracle():
    rng = np.random.default_rng(35)
    s = 0.137
    g, p = _elements(rng, 200), _momenta(rng, 200)
    c = wg.cocycle(g, p, s)
    for i, (x, y) in enumerate(zip(_pairs(g), _triples(p))):
        assert abs(c[i] - o_cocycle(x, y, s)) < 1e-10


def test_cover_element_rejects_a_batch_and_names_the_row():
    gamma = np.full(6, 0.3 + 0.1j)
    gamma[4] = 1.0
    with pytest.raises(ValueError, match=r"index \(4,\)"):
        cg.CoverElement(gamma, np.zeros(6))
    grid = np.zeros((2, 3), dtype=complex)
    grid[1, 2] = 0.6 + 0.9j
    with pytest.raises(ValueError, match=r"index \(1, 2\)"):
        cg.CoverElement(grid, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shapes differ"):
        cg.CoverElement(np.zeros(3, dtype=complex), 0.0)
    assert cg.CoverElement(np.full(6, 0.3 + 0.1j), np.zeros(6)).gamma.shape == (6,)


def test_blocks_of_draws_equal_the_scalar_draw_sequence():
    for seed in (3, 7, 26):
        for radius, windings in ((0.8, 2.0), (0.3, 1.0), (0.5, 2.0)):
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            ref = [o_random_element(old, radius, windings) for _ in range(300)]
            block = cg.element_from_draws(new.uniform(size=(300, 3)), radius, windings)
            assert _pairs(block) == ref
            one = cg.random_element(new, radius, windings)
            assert (one.gamma, one.omega) == o_random_element(old, radius, windings)
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = [mk.shell_point(old.uniform(-0.7, 0.7), old.uniform(-0.7, 0.7), 1.0).as_array()
               for _ in range(300)]
        got = suites._shell(new.uniform(size=(300, 2)), spread=0.7)
        assert np.array_equal(got.as_array(), np.array(ref))


def _scalar_equivariance(rng, base, count):
    """The per-draw loop the batched record replaced: indices of the kept
    draws, their defects and their elements (g1, g2) as (gamma, omega, t)."""
    rows, defects, elements, i = [], [], [], -1
    while len(rows) < count:
        i += 1
        g1 = cg.PoincareElement(mk.Vec3(*rng.uniform(-1, 1, 3)),
                                cg.random_element(rng, disk_radius=0.3, windings=1.0))
        g2 = cg.PoincareElement(mk.Vec3(*rng.uniform(-1, 1, 3)),
                                cg.random_element(rng, disk_radius=0.3, windings=1.0))
        try:
            lhs = cgm.poincare_act_path(g1.compose(g2), base)
            rhs = cgm.poincare_act_path(g1, cgm.poincare_act_path(g2, base))
        except cgm.DegenerateImage:
            continue
        rows.append(i)
        elements.append([(g.lorentz.gamma, g.lorentz.omega, *g.translation.as_array())
                         for g in (g1, g2)])
        defects.append(max(abs(lhs.accumulated_angle - rhs.accumulated_angle),
                           abs(lhs.sector.alpha - rhs.sector.alpha),
                           abs(lhs.sector.beta - rhs.sector.beta),
                           float(np.max(np.abs(lhs.sector.apex.as_array()
                                               - rhs.sector.apex.as_array())))))
    return np.array(rows), np.array(defects), np.array(elements)


@pytest.mark.parametrize("seed", [3, 7])
def test_batched_path_action_equivariance_keeps_the_scalar_draws(seed, monkeypatch):
    seen, acted = [], []
    batched, act = suites._equivariance_defects, cgm.poincare_act_path

    def spy(rng, base, count):
        seen.append(copy.deepcopy(rng))
        out = batched(rng, base, count)
        seen.append(out)
        return out

    def record(g, path):
        if np.ndim(g.lorentz.omega):
            acted.append(g)
        return act(g, path)

    monkeypatch.setattr(suites, "_equivariance_defects", spy)
    monkeypatch.setattr(cgm, "poincare_act_path", record)
    rec = suites.cones_suite(suites.SuiteConfig(seed=seed))[-1]
    assert rec.anchor == "path-action-equivariance" and rec.passed
    start, (rows, defects) = seen
    base = cgm.single_cone_paths()[1]
    ref_rows, ref_defects, ref_elements = _scalar_equivariance(start, base, 500)
    assert np.array_equal(rows, ref_rows)
    assert np.max(np.abs(defects - ref_defects)) < 1e-12
    assert rec.residuals["composition"] == np.max(defects)
    # per block the record acts with g1 g2, then g2, then g1: the elements
    # of the kept draws are those the loop drew, bit for bit
    g1s, g2s = acted[2::3], acted[1::3]
    elements = np.array([[(g.lorentz.gamma[j], g.lorentz.omega[j], *g.translation.as_array()[j])
                          for g in (g1s[b], g2s[b])]
                         for b, j in (divmod(int(r), len(g1s[0].lorentz.omega)) for r in rows)])
    assert np.array_equal(elements, ref_elements)


def test_degenerate_rows_are_masked_and_skipped(monkeypatch):
    # an image is declared degenerate for every draw whose first translation
    # component is negative; the batch must skip exactly those draws, as the
    # per-draw loop does when poincare_act_path raises
    real = cgm.poincare_act_path

    def flaky(g, path):
        out = real(g, path)
        t = g.translation.as_array()[..., 0]
        if np.ndim(t) == 0:
            if t < 0:
                raise cgm.DegenerateImage("forced")
            return out
        acc = np.where(t < 0, np.nan, out.accumulated_angle)
        return cgm.ConePath(out.sector, acc, cgm.SpacelikeDirection(out.direction.e, acc))

    monkeypatch.setattr(cgm, "poincare_act_path", flaky)
    base = cgm.single_cone_paths()[1]
    rows, defects = suites._equivariance_defects(np.random.default_rng(5), base, 150)
    ref_rows, ref_defects, _ = _scalar_equivariance(np.random.default_rng(5), base, 150)
    assert len(rows) == 150 and rows[-1] > 2 * 64 and np.array_equal(rows, ref_rows)
    assert np.max(np.abs(defects - ref_defects)) < 1e-12


def test_stacked_paths_degenerate_rows_are_nan_and_a_single_path_raises(monkeypatch):
    # swapping the two edge lifts of the element turning by 0.2 makes its
    # transformed interval empty
    base = cgm.single_cone_paths()[1]
    real = cgm._lifted_circle_action

    def swap_at_02(lor, vecs, start):
        out = np.array(real(lor, vecs, start))
        flip = np.isclose(lor.omega, 0.2)[..., None]
        out[..., :2] = np.where(flip, out[..., 1::-1], out[..., :2])
        return out

    monkeypatch.setattr(cgm, "_lifted_circle_action", swap_at_02)
    g = cg.PoincareElement(mk.Vec3.from_array(np.zeros((3, 3))),
                           cg.lift_rotation(np.array([0.1, 0.2, 0.3])))
    out = cgm.poincare_act_path(g, base)
    assert np.isnan(out.accumulated_angle).tolist() == [False, True, False]
    assert np.isnan(out.sector.apex.as_array()[1]).all()
    assert np.isnan(out.sector.edges[0][1]).all() and not np.isnan(out.sector.edges[0][2]).any()
    assert abs(out.accumulated_angle[2] - base.accumulated_angle - 0.3) < 1e-12
    with pytest.raises(cgm.DegenerateImage):
        cgm.poincare_act_path(cg.PoincareElement.pure_lorentz(cg.lift_rotation(0.2)), base)
    assert abs(cgm.poincare_act_path(cg.PoincareElement.pure_lorentz(cg.lift_rotation(0.3)),
                                     base).accumulated_angle - 0.3) < 1e-12


def test_only_the_rows_with_large_steps_have_their_grid_doubled(monkeypatch):
    # a rapidity-7 boost swings a direction almost orthogonal to it by more
    # than a radian per step of the starting grid; a mild boost beside it in
    # the stack is tracked once, on the starting grid, as it is on its own
    grids = []
    sl2_entries = cg._sl2_entries

    def record(gamma, omega):
        grids.append(np.shape(omega))  # (rows tracked, grid points)
        return sl2_entries(gamma, omega)

    monkeypatch.setattr(cg, "_sl2_entries", record)
    g = cg.lift_boost(0.0, np.array([0.3, 7.0]))
    vecs = np.array([[[0.0, 0.6, 0.8]], [[0.0, math.cos(1.56), math.sin(1.56)]]])
    starts = np.array([[math.atan2(0.8, 0.6)], [1.56]])
    both = cgm._lifted_circle_action(g, vecs, starts)
    assert both.shape == (2, 1)
    assert grids[0] == (2, 16) and len(grids) > 1 and all(rows == 1 for rows, _ in grids[1:])
    assert [n for _, n in grids] == [16 * 2 ** k for k in range(len(grids))]
    for i in range(2):
        assert both[i, 0] == cgm._lifted_circle_action(g[i], vecs[i], starts[i])
