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


_ANG = np.linspace(-0.6, 0.6, 5)
_P = mk.MomentumPoint(np.linspace(-1.0, 1.0, 5), np.full(5, 0.3), 1.0)


def _with(x, delta, row=3):
    """x with delta added to one row."""
    delta = np.asarray(delta)
    out = np.array(x, dtype=np.result_type(x, delta))
    out[row] += delta
    return out


def _rays(a):
    return np.stack([np.zeros_like(a), np.cos(a), np.sin(a)], axis=-1)


# guard: (build a stack whose row 3 is moved by delta, delta, exception, message)
_STACK_GUARDS = {
    "momentum-mass": (lambda d: mk.MomentumPoint(_P.p1, _P.p2, _with(np.ones(5), d)),
                      -2.0, ValueError, "strictly positive"),
    "off-shell": (lambda d: mk.to_momentum(_with(_P.as_array(), [d, 0.0, 0.0]), 1.0),
                  1e-3, ValueError, "not on the m=1.0 shell"),
    "imaginary-part": (lambda d: mk.to_momentum(_with(_P.as_array() + 0j, [0.0, d, 0.0]), 1.0),
                       1e-3j, ValueError, "imaginary part"),
    "direction-norm": (lambda d: cgm.SpacelikeDirection(
        _with(_rays(_ANG), [0.0, d, 0.0]), _ANG), 0.01, ValueError, "e.e = -1"),
    "direction-lift": (lambda d: cgm.SpacelikeDirection(_rays(_ANG),
                                                        _with(_ANG, d)),
                       0.1, ValueError, "does not project"),
    "sector-opening": (lambda d: cgm.SpatialSector(_ANG, _with(_ANG + 1.0, d)),
                       2.5, ValueError, "opening must lie in"),
    "edge-norm": (lambda d: cgm.SpatialSector(_ANG, _ANG + 1.0, edges=(
        _rays(_ANG), _with(_rays(_ANG + 1.0), [0.0, d, 0.0]))),
                  0.01, ValueError, "unit space-like"),
    "edge-angle": (lambda d: cgm.SpatialSector(_ANG, _ANG + 1.0, edges=(
        _rays(_ANG), _rays(_with(_ANG + 1.0, d)))), 0.1, ValueError, "project to its angle"),
    "cone-path": (lambda d: cgm.ConePath(cgm.SpatialSector(_ANG, _ANG + 1.0),
                                         _with(_ANG + 0.5, d)),
                  1.0, ValueError, "does not end inside"),
    "cone-path-direction": (lambda d: cgm.ConePath(
        cgm.SpatialSector(_ANG, _ANG + 1.0), _ANG + 0.5,
        cgm.SpacelikeDirection.from_angles(_with(_ANG + 0.5, d), np.zeros(5))),
                            0.1, ValueError, "lift disagrees"),
    "principal-power": (lambda d: wg._principal_power(
        _with(np.array([1 + 1j, 2.0, 3j, 1.5, -1j]), d), 0.25),
                        -3.0, wg.BranchCutError, "lies on the cut"),
}


@pytest.mark.parametrize("guard", _STACK_GUARDS)
def test_a_stack_with_one_bad_row_is_rejected(guard):
    build, delta, error, message = _STACK_GUARDS[guard]
    build(0.0)  # the valid stack passes
    with pytest.raises(error, match=message):
        build(delta)


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
        g1 = cg.PoincareElement(rng.uniform(-1, 1, 3),
                                cg.random_element(rng, disk_radius=0.3, windings=1.0))
        g2 = cg.PoincareElement(rng.uniform(-1, 1, 3),
                                cg.random_element(rng, disk_radius=0.3, windings=1.0))
        try:
            lhs = cgm.poincare_act_path(g1.compose(g2), base)
            rhs = cgm.poincare_act_path(g1, cgm.poincare_act_path(g2, base))
        except cgm.DegenerateImage:
            continue
        rows.append(i)
        elements.append([(g.lorentz.gamma, g.lorentz.omega, *g.translation)
                         for g in (g1, g2)])
        defects.append(max(abs(lhs.accumulated_angle - rhs.accumulated_angle),
                           abs(lhs.sector.alpha - rhs.sector.alpha),
                           abs(lhs.sector.beta - rhs.sector.beta),
                           float(np.max(np.abs(lhs.sector.apex - rhs.sector.apex)))))
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
    rec = list(suites.cones_suite(suites.SuiteConfig(seed=seed)))[-1]
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
    elements = np.array([[(g.lorentz.gamma[j], g.lorentz.omega[j], *g.translation[j])
                          for g in (g1s[b], g2s[b])]
                         for b, j in (divmod(int(r), len(g1s[0].lorentz.omega)) for r in rows)])
    assert np.array_equal(elements, ref_elements)


@pytest.mark.parametrize("seed", [3, 7])
def test_path_action_equivariance_acts_on_its_500_pairs_as_one_stack(seed, monkeypatch):
    # one block of 500 draws: g1 g2, g2 and g1 each act once on all its rows
    rows, act = [], cgm.poincare_act_path

    def record(g, path):
        if np.ndim(g.lorentz.omega):
            rows.append(np.shape(g.lorentz.omega))
        return act(g, path)

    monkeypatch.setattr(cgm, "poincare_act_path", record)
    assert all(r.passed for r in suites.cones_suite(suites.SuiteConfig(seed=seed)))
    assert rows == [(500,)] * 3


def _scalar_exchange(rng, p1, p2):
    """The per-pair loop the exchange record replaced: the drawn lifted
    angles of both paths and the count of pairs that exchange both ways."""
    angles, both = [], 0
    for _ in range(100):
        d1 = cgm.ConePath(p1.sector, p1.accumulated_angle
                          + 2.0 * math.pi * rng.integers(-2, 3))
        d2 = cgm.ConePath(p2.sector, p2.accumulated_angle
                          + 2.0 * math.pi * rng.integers(-2, 3))
        angles.append((d1.accumulated_angle, d2.accumulated_angle))
        if cgm.exchange_hypothesis(d1, d2) and cgm.exchange_hypothesis(d2, d1):
            both += 1
    return np.array(angles), both


def _scalar_containment(rng):
    """The containment oracle's per-draw rejection loop: per tested draw its
    (a, b, apex, lifted angle, tilt), and the count of tested draws whose
    translated cone samples disagree with contains_direction."""
    rows, mismatches = [], 0
    while len(rows) < 200:
        a = rng.uniform(-math.pi, math.pi)
        b = a + rng.uniform(0.2, 2.8)
        sec = cgm.SpatialSector(a, b, rng.uniform(-1.0, 1.0, 3))
        e = cgm.SpacelikeDirection.from_angles(rng.uniform(a - 0.5, b + 0.5),
                                               rng.uniform(-1.2, 1.2))
        earr = e.e
        if abs(cgm.sector_depth(sec, earr[1:]) - abs(earr[0])) < 1e-6:
            continue
        rows.append((a, b, *sec.apex, e.lifted_angle, e.e[..., 0]))
        oracle = cgm.cone_contains_point(sec, cgm._cone_samples(sec) + earr,
                                         margin=-1e-6).all()
        if cgm.contains_direction(sec, e) != oracle:
            mismatches += 1
    return np.array(rows), mismatches


def _scalar_translation(rng):
    """The translation check one copy at a time: per copy its (a, apex,
    lifted angle, tilt), and the count of copies whose translated cone
    samples disagree with contains_direction."""
    rows, bad = [], 0
    for _ in range(50):
        a = rng.uniform(-math.pi, math.pi)
        sec = cgm.SpatialSector(a, a + 1.0, rng.uniform(-3.0, 3.0, 3))
        e = cgm.SpacelikeDirection.from_angles(rng.uniform(a - 0.3, a + 1.3),
                                               rng.uniform(-1.0, 1.0))
        rows.append((a, *sec.apex, e.lifted_angle, e.e[..., 0]))
        oracle = cgm.cone_contains_point(sec, cgm._cone_samples(sec) + e.e,
                                         margin=-1e-6).all()
        if cgm.contains_direction(sec, e) != oracle:
            bad += 1
    return np.array(rows), bad


class _Tape:
    """A generator that logs the size and a copy of its state before each draw."""

    def __init__(self, rng):
        self.rng, self.log = rng, []

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def logged(*args, **kwargs):
            self.log.append((kwargs.get("size"), copy.deepcopy(self.rng)))
            return draw(*args, **kwargs)

        return logged


def _taped_cones_suite(seed, monkeypatch):
    """The cones battery run on a logging generator: its records by anchor,
    the tape, and the stacked exchange_hypothesis and contains_direction
    calls, each as its arguments followed by its result."""
    tapes, exchanges, containments = [], [], []
    rng_for, exchange, contains = suites._rng, cgm.exchange_hypothesis, cgm.contains_direction

    def taped(config, salt):
        tapes.append(_Tape(rng_for(config, salt)))
        return tapes[-1]

    def stacked(fn, seen):
        def spy(*args):
            out = fn(*args)
            if np.ndim(out):
                seen.append((*args, out))
            return out
        return spy

    monkeypatch.setattr(suites, "_rng", taped)
    monkeypatch.setattr(cgm, "exchange_hypothesis", stacked(exchange, exchanges))
    monkeypatch.setattr(cgm, "contains_direction", stacked(contains, containments))
    records = {r.anchor: r for r in suites.cones_suite(suites.SuiteConfig(seed=seed))}
    (tape,) = tapes
    return records, tape, exchanges, containments


def _replay_containment_blocks(records, tape, oracle_calls):
    """Assert that the containment oracle's blocks of seven uniforms, less the
    draws at the oracle margin, are the loop's tested draws, that the generator
    ends where the loop left it and that the mismatch counts agree; return the
    number of margin draws the blocks skipped."""
    blocks = [k for k, (size, _) in enumerate(tape.log)
              if size is not None and size[1:] == (7,)]
    rng = tape.log[blocks[0]][1]
    rows, mismatches = _scalar_containment(rng)
    assert rng.bit_generator.state == tape.log[blocks[-1] + 1][1].bit_generator.state
    assert len(oracle_calls) == len(blocks)
    kept = []
    for sec, e, _ in oracle_calls:
        earr = e.e
        at_margin = np.abs(cgm.sector_depth(sec, earr[:, 1:]) - np.abs(earr[:, 0])) < 1e-6
        drawn = np.column_stack([sec.alpha, sec.beta, sec.apex,
                                 e.lifted_angle, e.e[..., 0]])
        kept.append(drawn[~at_margin])
    assert np.array_equal(np.concatenate(kept), rows)
    assert records["direction-containment-oracle"].residuals["mismatches"] == mismatches
    return sum(len(sec.alpha) for sec, _, _ in oracle_calls) - len(rows)


@pytest.mark.parametrize("seed", [3, 7])
def test_stacked_cone_records_keep_the_scalar_draws(seed, monkeypatch):
    records, tape, exchanges, containments = _taped_cones_suite(seed, monkeypatch)
    assert all(r.passed for r in records.values())
    sizes = [size for size, _ in tape.log]

    # the exchange record: its block of windings is the loop's draws, and the
    # generator ends where the loop left it
    i = sizes.index((100, 2))
    rng = tape.log[i][1]
    angles, both = _scalar_exchange(rng, *cgm.antipodal_pair())
    assert rng.bit_generator.state == tape.log[i + 1][1].bit_generator.state
    (d1, d2, forward), (_, _, backward) = exchanges
    assert np.array_equal(np.column_stack([d1.accumulated_angle, d2.accumulated_angle]), angles)
    assert int(np.sum(forward & backward)) == both == 0

    # the containment oracle's blocks, then its translation check, the last
    # stacked contains_direction call
    *oracle_calls, translation_call = containments
    _replay_containment_blocks(records, tape, oracle_calls)

    # the translation check of the containment record, likewise
    j = sizes.index((50, 6))
    rng = tape.log[j][1]
    rows, bad = _scalar_translation(rng)
    assert rng.bit_generator.state == tape.log[j + 1][1].bit_generator.state
    sec, e, _ = translation_call
    drawn = np.column_stack([sec.alpha, sec.apex, e.lifted_angle, e.e[..., 0]])
    assert np.array_equal(drawn, rows)
    assert records["direction-containment-oracle"].residuals["translation_violations"] == bad


def test_containment_blocks_replace_the_draws_at_the_margin(monkeypatch):
    # no suite seed in 0..39 draws a direction at the oracle margin; zeroing
    # every tilt below -1 (about one draw in twelve) puts each such direction
    # that falls outside its sector there (depth 0 = |tilt|), and the blocks
    # must skip and replace exactly the draws the loop skips
    real = cgm.SpacelikeDirection.from_angles
    monkeypatch.setattr(cgm.SpacelikeDirection, "from_angles",
                        staticmethod(lambda angle, tilt=0.0: real(angle, tilt * (tilt >= -1.0))))
    records, tape, _, containments = _taped_cones_suite(7, monkeypatch)
    assert _replay_containment_blocks(records, tape, containments[:-1]) > 0


def test_degenerate_rows_are_masked_and_skipped(monkeypatch):
    # an image is declared degenerate for every draw whose first translation
    # component is negative; the batch must skip exactly those draws, as the
    # per-draw loop does when poincare_act_path raises
    real = cgm.poincare_act_path

    def flaky(g, path):
        out = real(g, path)
        t = g.translation[..., 0]
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
    # about half the rows of the first block of 150 degenerate, so a top-up
    # block supplies the last kept rows
    assert len(rows) == 150 and rows[-1] >= 150 and np.array_equal(rows, ref_rows)
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
    g = cg.PoincareElement(np.zeros((3, 3)),
                           cg.lift_rotation(np.array([0.1, 0.2, 0.3])))
    out = cgm.poincare_act_path(g, base)
    assert np.isnan(out.accumulated_angle).tolist() == [False, True, False]
    assert np.isnan(out.sector.apex[1]).all()
    assert np.isnan(out.sector.edges[0][1]).all() and not np.isnan(out.sector.edges[0][2]).any()
    assert abs(out.accumulated_angle[2] - base.accumulated_angle - 0.3) < 1e-12
    with pytest.raises(cgm.DegenerateImage):
        cgm.poincare_act_path(cg.PoincareElement.pure_lorentz(cg.lift_rotation(0.2)), base)
    assert abs(cgm.poincare_act_path(cg.PoincareElement.pure_lorentz(cg.lift_rotation(0.3)),
                                     base).accumulated_angle - 0.3) < 1e-12
