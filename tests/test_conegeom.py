import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anyonstat import conegeom as cgm
from anyonstat import covergroup as cg
from anyonstat import suites

from test_mutants import _ignores_apex

TWO_PI = 2 * math.pi


def test_single_cone_path_equivalences():
    sector, direct, nearby, wound = cgm.single_cone_paths()
    assert cgm.path_equivalent(direct, nearby, sector)
    assert not cgm.path_equivalent(direct, wound, sector)
    assert cgm.path_equivalent(direct, direct, sector)


def test_path_equivalent_requires_ending_inside():
    sector, direct, *_ = cgm.single_cone_paths()
    outside = cgm.ConePath(cgm.SpatialSector(1.0, 1.5), 1.2)
    with pytest.raises(ValueError):
        cgm.path_equivalent(direct, outside, sector)


def test_exchange_hypothesis_figure():
    p1, p2 = cgm.antipodal_pair()
    assert cgm.exchange_hypothesis(p1, p2)
    assert not cgm.exchange_hypothesis(p2, p1)
    wound = cgm.ConePath(p1.sector, p1.accumulated_angle + TWO_PI)
    assert not cgm.exchange_hypothesis(wound, p2)


def test_exchange_hypothesis_never_symmetric():
    rng = np.random.default_rng(0)
    p1, p2 = cgm.antipodal_pair()
    for _ in range(200):
        d1 = cgm.ConePath(p1.sector, p1.accumulated_angle + TWO_PI * rng.integers(-2, 3))
        d2 = cgm.ConePath(p2.sector, p2.accumulated_angle + TWO_PI * rng.integers(-2, 3))
        assert not (cgm.exchange_hypothesis(d1, d2) and cgm.exchange_hypothesis(d2, d1))


def test_difference_sector_predicates():
    p1, p2 = cgm.antipodal_pair()
    assert cgm.difference_salient(p1.sector, p2.sector)
    assert cgm.c12_negative_axis(p1.sector, p2.sector)
    assert not cgm.c12_negative_axis(p2.sector, p1.sector)
    s = cgm.SpatialSector(-0.3, 0.4)
    assert not cgm.difference_salient(s, s)
    d = cgm.difference_sector(cgm.SpatialSector(-0.1, 0.1),
                              cgm.SpatialSector(math.pi - 0.1, math.pi + 0.1))
    assert d is not None
    dual = cgm.dual_sector(d)
    rel = (math.pi - dual.alpha) % TWO_PI
    assert 0 < rel < dual.opening


angles = st.floats(-math.pi, math.pi)
openings = st.floats(0.15, 2.9)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(angles, openings)
def test_double_dual(alpha, opening):
    s = cgm.SpatialSector(alpha, alpha + opening)
    dd = cgm.dual_sector(cgm.dual_sector(s))
    assert abs(dd.alpha - s.alpha) < 1e-12
    assert abs(dd.beta - s.beta) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(angles, st.floats(0.3, 2.6))
def test_dual_order_reversing(alpha, opening):
    outer = cgm.SpatialSector(alpha, alpha + opening)
    inner = cgm.SpatialSector(alpha + 0.05, alpha + opening - 0.05)
    do, di = cgm.dual_sector(outer), cgm.dual_sector(inner)
    assert di.alpha <= do.alpha + 1e-12
    assert do.beta <= di.beta + 1e-12


def test_dual_narrow_sector_contains_axis():
    d = cgm.dual_sector(cgm.SpatialSector(-0.05, 0.05))
    assert d.angle_inside(0.0)  # positive x-axis direction


def test_contains_direction_examples():
    sec = cgm.SpatialSector(-0.4, 0.4)
    center = cgm.SpacelikeDirection.from_angles(0.0)
    assert cgm.contains_direction(sec, center)
    tilted_outside = cgm.SpacelikeDirection.from_angles(1.2, tilt=0.4)
    assert not cgm.contains_direction(sec, tilted_outside)
    # too much tilt beats the depth even on-axis
    steep = cgm.SpacelikeDirection.from_angles(0.0, tilt=3.0)
    assert not cgm.contains_direction(sec, steep)


def _translation_mismatches(contains_point):
    """Over 100 translated copies of a sector, the count whose
    contains_direction disagrees with contains_point on the copy's own cone
    samples moved along the direction."""
    rng = np.random.default_rng(1)
    bad = 0
    for _ in range(100):
        a = rng.uniform(-math.pi, math.pi)
        sec = cgm.SpatialSector(a, a + 1.0, rng.uniform(-3, 3, 3))
        e = cgm.SpacelikeDirection.from_angles(rng.uniform(a - 0.3, a + 1.3),
                                               rng.uniform(-1, 1))
        moved = cgm._cone_samples(sec) + e.e
        bad += bool(cgm.contains_direction(sec, e)
                    != contains_point(sec, moved, margin=-1e-6).all())
    return bad


def test_contains_direction_translation_invariance():
    # wherever its apex lies, a cone holds its samples moved along e exactly
    # when contains_direction says so; an oracle blind to the apex disagrees
    assert _translation_mismatches(cgm.cone_contains_point) == 0
    assert _translation_mismatches(_ignores_apex) > 0


def test_contains_direction_against_sampling_oracle():
    rng = np.random.default_rng(2)
    tested = 0
    while tested < 200:
        a = rng.uniform(-math.pi, math.pi)
        b = a + rng.uniform(0.2, 2.8)
        sec = cgm.SpatialSector(a, b, rng.uniform(-1, 1, 3))
        e = cgm.SpacelikeDirection.from_angles(rng.uniform(a - 0.5, b + 0.5),
                                               rng.uniform(-1.2, 1.2))
        earr = e.e
        if abs(cgm.sector_depth(sec, earr[1:]) - abs(earr[0])) < 1e-6:
            continue  # boundary-ambiguous at the oracle margin
        tested += 1
        oracle = all(cgm.cone_contains_point(sec, x + earr, margin=-1e-6)
                     for x in cgm._cone_samples(sec))
        assert cgm.contains_direction(sec, e) == oracle


def test_containment_oracle_samples_the_lightlike_boundary():
    # at suite seed 3 a direction about 1e-3 outside its cone was called
    # inside by an oracle that had no sample on the cone's lightlike boundary
    recs = suites.cones_suite(suites.SuiteConfig(seed=3))
    rec = next(r for r in recs if r.anchor == "direction-containment-oracle")
    assert rec.passed and rec.residuals["mismatches"] == 0.0
    sec = cgm.SpatialSector(0.2, 1.4, (0.3, -0.1, 0.5))
    rel = cgm._cone_samples(sec) - sec.apex
    depth = np.array([cgm.sector_depth(sec, x[1:]) for x in rel])
    assert np.any(np.isclose(rel[:, 0], depth)) and np.any(np.isclose(rel[:, 0], -depth))


def test_cones_passes_at_the_seeds_its_oracle_once_failed():
    # before the oracle sampled the lightlike boundary, the containment record
    # failed at these suite seeds; each one draws its equivariance pairs as
    # one block of 500
    for seed in (3, 8, 13, 29, 35, 37):
        recs = suites.run_suite("cones", suites.SuiteConfig(seed=seed)).records
        assert len(recs) == 6 and all(r.passed for r in recs), seed


def test_cone_samples_of_a_stack_are_each_sectors_samples():
    rng = np.random.default_rng(17)
    a = rng.uniform(-math.pi, math.pi, 20)
    b = a + rng.uniform(0.2, 2.8, 20)
    apex = rng.uniform(-3, 3, (20, 3))
    stacked = cgm._cone_samples(cgm.SpatialSector(a, b, apex))
    assert stacked.shape == (140, 20, 3)
    for i in range(20):
        one = cgm._cone_samples(cgm.SpatialSector(a[i], b[i], apex[i]))
        assert np.array_equal(stacked[:, i], one)


def test_cone_predicates_on_arrays_match_pointwise_calls():
    sec = cgm.SpatialSector(-0.7, 1.9, (0.2, 0.4, -0.3))
    rng = np.random.default_rng(5)
    xs = rng.uniform(-3.0, 3.0, (6, 7, 3))
    inside = cgm.cone_contains_point(sec, xs, margin=0.1)
    depth = cgm.sector_depth(sec, xs[..., 1:])
    assert inside.shape == depth.shape == (6, 7)
    for idx in np.ndindex(6, 7):
        assert inside[idx] == cgm.cone_contains_point(sec, xs[idx], margin=0.1)
        assert abs(depth[idx] - cgm.sector_depth(sec, xs[idx][1:])) < 1e-14
    assert 0 < inside.sum() < inside.size


def _tracked_lift(g, vec, lift_start):
    """Reference transport: one projection and one step per grid point.

    Returns the lifted angle and the grid size that was accepted.
    """
    e = np.asarray(vec, dtype=float)
    n = max(16, int(8 * (1.0 + abs(g.omega) / math.pi)))
    for _ in range(6):
        theta, prev, ok = lift_start, e[1:], True
        for k in range(1, n + 1):
            sigma = k / n
            cur = (cg.project(cg.CoverElement(g.gamma * sigma, g.omega * sigma)) @ e)[1:]
            step = math.atan2(prev[0] * cur[1] - prev[1] * cur[0],
                              prev[0] * cur[0] + prev[1] * cur[1])
            if abs(step) > 1.0:
                ok = False
                break
            theta += step
            prev = cur
        if ok:
            return theta, n
        n *= 2
    raise cgm.DegenerateImage("reference tracker gave up")


def test_lifted_circle_action_matches_the_scalar_tracker():
    # the last pass draws tilts up to 30, which bring the unit space-like
    # directions within about 3e-4 rad of the light cone
    rng = np.random.default_rng(11)
    for disk_radius, tilt in ((0.8, 1.5), (0.95, 1.5), (0.8, 30.0)):
        for _ in range(100):
            g = cg.random_element(rng, disk_radius=rng.uniform(0.0, disk_radius),
                                  windings=3.0)
            lift = rng.uniform(-3 * math.pi, 3 * math.pi)
            d = cgm.SpacelikeDirection.from_angles(lift, rng.uniform(-tilt, tilt))
            ref, _ = _tracked_lift(g, d.e, lift)
            assert abs(cgm._lifted_circle_action(g, d.e, lift) - ref) < 1e-12


def test_poincare_act_path_transports_all_three_vectors_like_the_tracker():
    rng = np.random.default_rng(12)
    path = cgm.ConePath(cgm.SpatialSector(0.3, 1.5, (0.1, 0.2, 0.3)), 0.9 + TWO_PI)
    for _ in range(50):
        g = cg.PoincareElement(rng.uniform(-1, 1, 3),
                               cg.random_element(rng, disk_radius=0.8, windings=3.0))
        try:
            out = cgm.poincare_act_path(g, path)
        except cgm.DegenerateImage:
            continue
        ea, eb = path.sector.edge_vectors()
        for vec, start, got in ((ea, path.sector.alpha, out.sector.alpha),
                                (eb, path.sector.beta, out.sector.beta),
                                (path.endpoint_vector(), path.accumulated_angle,
                                 out.accumulated_angle)):
            assert abs(got - _tracked_lift(g.lorentz, vec, start)[0]) < 1e-12


def test_each_row_of_a_stack_lifts_as_it_does_alone_and_like_the_tracker():
    # a rapidity-7 boost, a three-turn rotation and the identity in one stack,
    # each moving the same two directions almost orthogonal to the boost
    g = cg.CoverElement(np.array([math.tanh(3.5), 0.0, 0.0]) + 0j,
                        np.array([0.0, 3 * TWO_PI, 0.0]))
    vecs = np.array([[0.0, math.cos(1.56), math.sin(1.56)],
                     [0.0, math.cos(-1.56), math.sin(-1.56)]])
    starts = np.array([1.56, -1.56 - TWO_PI])
    stack = cgm._lifted_circle_action(g, np.broadcast_to(vecs, (3, 2, 3)), starts)
    assert stack.shape == (3, 2)
    for i in range(3):
        assert np.array_equal(stack[i], cgm._lifted_circle_action(g[i], vecs, starts))
        for lift, vec, start in zip(stack[i], vecs, starts):
            assert lift == cgm._lifted_circle_action(g[i], vec, start)
            assert abs(lift - _tracked_lift(g[i], vec, start)[0]) < 1e-12
    assert np.array_equal(stack[2], starts)
    assert np.allclose(stack[1] - starts, 3 * TWO_PI, rtol=0.0, atol=1e-12)


def test_lifted_circle_action_retry_matches_the_tracker():
    # a rapidity-7 boost swings a direction almost orthogonal to it through
    # more than one radian on the last step of the starting grid
    g = cg.lift_boost(0.0, 7.0)
    vecs = np.array([[0.0, math.cos(a), math.sin(a)]
                     for a in (math.pi / 2 - 1e-2, -math.pi / 2 + 1e-2, 0.4)])
    starts = np.array([math.pi / 2 - 1e-2, -math.pi / 2 + 1e-2, 0.4 - TWO_PI])
    got = cgm._lifted_circle_action(g, vecs, starts)
    assert got.shape == (3,)
    refs = [_tracked_lift(g, v, s) for v, s in zip(vecs, starts)]
    assert refs[0][1] > 16  # the starting grid was refused at least once
    for lift, (ref, _) in zip(got, refs):
        assert abs(lift - ref) < 1e-12


def test_causal_separation():
    p1, p2 = cgm.antipodal_pair()
    assert cgm.causally_separated(p1.sector, p2.sector)
    overlapping = cgm.SpatialSector(-0.3, 0.3)
    assert not cgm.causally_separated(overlapping, cgm.SpatialSector(0.0, 0.5))


def test_causal_separation_matches_the_pairwise_differences():
    # sectors with disjoint direction intervals, so the verdict rests on the
    # samples; each pair's interval (x - y)^2 taken one difference at a time
    rng = np.random.default_rng(11)
    verdicts = []
    for _ in range(200):
        a1, o1, gap = rng.uniform(0, TWO_PI), rng.uniform(0.1, 2.5), rng.uniform(0.05, 1.0)
        o2 = rng.uniform(0.1, min(3.0, TWO_PI - o1 - gap - 0.05))
        apex = rng.normal(size=3) * rng.choice([0.0, 1.0, 20.0])
        c1 = cgm.SpatialSector(a1, a1 + o1, apex)
        c2 = cgm.SpatialSector(a1 + o1 + gap, a1 + o1 + gap + o2, apex + rng.normal(size=3))
        d = cgm._cone_samples(c1)[:, None, :] - cgm._cone_samples(c2)[None, :, :]
        want = np.max(d[..., 0] ** 2 - d[..., 1] ** 2 - d[..., 2] ** 2) < -1e-9
        assert cgm.causally_separated(c1, c2) == want
        verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)


def test_poincare_action_deck_and_equivariance():
    _, base, *_ = cgm.single_cone_paths()
    deck = cgm.poincare_act_path(
        cg.PoincareElement.pure_lorentz(cg.lift_rotation(TWO_PI)), base)
    assert abs(deck.accumulated_angle - base.accumulated_angle - TWO_PI) < 1e-12
    rng = np.random.default_rng(3)
    count = 0
    while count < 200:
        g1 = cg.PoincareElement(rng.uniform(-1, 1, 3),
                                cg.random_element(rng, disk_radius=0.3, windings=1.0))
        g2 = cg.PoincareElement(rng.uniform(-1, 1, 3),
                                cg.random_element(rng, disk_radius=0.3, windings=1.0))
        try:
            lhs = cgm.poincare_act_path(g1.compose(g2), base)
            rhs = cgm.poincare_act_path(g1, cgm.poincare_act_path(g2, base))
        except cgm.DegenerateImage:
            continue
        count += 1
        assert abs(lhs.accumulated_angle - rhs.accumulated_angle) < 1e-9
        assert abs(lhs.sector.alpha - rhs.sector.alpha) < 1e-9
        assert np.max(np.abs(lhs.sector.apex - rhs.sector.apex)) < 1e-9


def test_identity_action_is_trivial():
    _, base, *_ = cgm.single_cone_paths()
    out = cgm.poincare_act_path(cg.PoincareElement.pure_lorentz(cg.identity()), base)
    assert out.accumulated_angle == base.accumulated_angle
    assert out.sector.alpha == pytest.approx(base.sector.alpha, abs=1e-14)


def test_deck_action_is_free_on_paths():
    _, base, *_ = cgm.single_cone_paths()
    ga = cg.PoincareElement.pure_lorentz(cg.lift_rotation(0.1))
    gb = cg.PoincareElement.pure_lorentz(cg.lift_rotation(0.1 + TWO_PI))
    pa, pb = cgm.poincare_act_path(ga, base), cgm.poincare_act_path(gb, base)
    assert not cgm.path_equivalent(pa, pb, pa.sector)


def test_extreme_boost_keeps_interval_salient():
    # the circle action commutes with the antipodal map, so salient stays
    # salient; the DegenerateImage guard is purely numerical insurance
    wide = cgm.ConePath(cgm.SpatialSector(-1.5, 1.5), 0.0)
    for direction in (0.0, math.pi / 2, 2.3):
        huge = cg.PoincareElement.pure_lorentz(cg.lift_boost(direction, 5.0))
        out = cgm.poincare_act_path(huge, wide)
        assert 0.0 < out.sector.opening < math.pi


def test_in_wedge_class():
    assert cgm.in_wedge_class(cg.lift_rotation(math.pi / 2))
    assert not cgm.in_wedge_class(cg.identity())
    assert not cgm.in_wedge_class(cg.lift_rotation(math.pi / 2 + TWO_PI))
    # the quarter rotation composed with small elements stays in the class
    g = cg.compose(cg.lift_rotation(0.1), cg.lift_boost(0.7, 0.2))
    assert cgm.in_wedge_class(cg.compose(g, cg.lift_rotation(math.pi / 2)))


def test_contains_direction_on_stacks_equals_the_scalar_calls():
    rng = np.random.default_rng(11)
    a = rng.uniform(-math.pi, math.pi, 200)
    b = a + rng.uniform(0.2, 2.8, 200)
    lift, tilt = rng.uniform(a - 0.5, b + 0.5), rng.uniform(-1.2, 1.2, 200)
    # edge cases: untilted directions on an edge, on an edge one turn on,
    # and on the bisector with more tilt than depth
    lift[:4], tilt[:4] = (a[0], b[1], a[2] + TWO_PI, (a[3] + b[3]) / 2), (0, 0, 0, 3)
    sectors = cgm.SpatialSector(a, b)
    dirs = cgm.SpacelikeDirection.from_angles(lift, tilt)
    scalar = [cgm.contains_direction(cgm.SpatialSector(a[i], b[i]),
                                     cgm.SpacelikeDirection.from_angles(lift[i], tilt[i]))
              for i in range(200)]
    stacked = cgm.contains_direction(sectors, dirs)
    assert stacked.shape == (200,) and np.array_equal(stacked, scalar)
    assert 0 < stacked.sum() < 200 and not stacked[3]
    assert np.array_equal(cgm.contains_direction(sectors, dirs.e), scalar)
    # one sector against a stack of directions
    one = cgm.SpatialSector(a[0], b[0])
    assert np.array_equal(cgm.contains_direction(one, dirs),
                          [cgm.contains_direction(one, dirs.e[i])
                           for i in range(200)])


def test_from_angles_on_a_stack_with_the_default_tilt_equals_the_scalar_calls():
    lift = np.linspace(-7.0, 7.0, 9)
    dirs = cgm.SpacelikeDirection.from_angles(lift)
    singles = [cgm.SpacelikeDirection.from_angles(a) for a in lift]
    assert np.array_equal(dirs.e, [d.e for d in singles])
    assert np.array_equal(dirs.lifted_angle, lift)


def test_exchange_hypothesis_on_stacks_equals_the_scalar_calls(monkeypatch):
    rng = np.random.default_rng(13)
    p1, p2 = cgm.antipodal_pair()
    k, off = rng.integers(-3, 4, size=(200, 2)), rng.uniform(-0.14, 0.14, size=(200, 2))
    a1 = p1.accumulated_angle + TWO_PI * k[:, 0] + off[:, 0]
    a2 = p2.accumulated_angle + TWO_PI * k[:, 1] + off[:, 1]
    # edge cases: the figure's pair, and its first path wound once more
    a1[:2], a2[:2] = (p1.accumulated_angle, p1.accumulated_angle + TWO_PI), p2.accumulated_angle
    d1, d2 = cgm.ConePath(p1.sector, a1), cgm.ConePath(p2.sector, a2)
    separated, calls = cgm.causally_separated, []
    monkeypatch.setattr(cgm, "causally_separated",
                        lambda c1, c2: calls.append(1) or separated(c1, c2))
    for q1, q2 in ((d1, d2), (d2, d1)):
        stacked = cgm.exchange_hypothesis(q1, q2)
        assert np.array_equal(stacked, [
            cgm.exchange_hypothesis(cgm.ConePath(q1.sector, x), cgm.ConePath(q2.sector, y))
            for x, y in zip(q1.accumulated_angle, q2.accumulated_angle)])
        assert 0 < stacked.sum() < 200
    assert calls == [1] * 402  # once per call, whatever the stack
    assert cgm.exchange_hypothesis(d1, d2)[:2].tolist() == [True, False]
    # cones that overlap never exchange
    overlap = cgm.ConePath(cgm.SpatialSector(-0.3, 0.3), np.linspace(-0.2, 0.2, 5))
    assert not cgm.exchange_hypothesis(overlap, cgm.ConePath(cgm.SpatialSector(0.0, 0.5),
                                                             np.full(5, 0.25))).any()


def test_in_wedge_class_on_a_stack_equals_the_scalar_calls():
    rng = np.random.default_rng(12)
    near = cg.compose(cg.element_from_draws(rng.uniform(size=(196, 3)), 0.6, 2.0),
                      cg.lift_rotation(math.pi / 2))
    # edge cases: the identity, the quarter rotation, and it wound either way
    edges = np.array([0.0, math.pi / 2, math.pi / 2 + TWO_PI, math.pi / 2 - TWO_PI])
    stack = cg.CoverElement(np.concatenate([near.gamma, np.zeros(4)]),
                            np.concatenate([near.omega, edges]))
    stacked = cgm.in_wedge_class(stack)
    assert np.array_equal(stacked, [cgm.in_wedge_class(stack[i]) for i in range(200)])
    assert 0 < stacked[:196].sum() < 196
    assert stacked[196:].tolist() == [False, True, False, False]
    # elements with no endpoint inside the wedge, alone or in a stack
    assert not cgm.in_wedge_class(cg.identity())
    assert not cgm.in_wedge_class(cg.lift_rotation(np.array([0.0, math.pi, -0.5]))).any()


def test_direction_validation():
    with pytest.raises(ValueError):
        cgm.SpacelikeDirection((0.0, 1.0, 1.0), 0.0)  # not unit space-like
    with pytest.raises(ValueError):
        cgm.SpacelikeDirection((0.0, 1.0, 0.0), 1.0)  # wrong lift
    with pytest.raises(ValueError):
        cgm.SpatialSector(0.0, math.pi + 0.1)  # not salient
    with pytest.raises(ValueError):
        cgm.ConePath(cgm.SpatialSector(-0.2, 0.2), 2.0)  # ends outside


@pytest.mark.parametrize("make", [lambda x: cgm.SpatialSector(0.3, 1.5, x),
                                  lambda x: cg.PoincareElement(x, cg.identity())])
@pytest.mark.parametrize("vec", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4), np.zeros((4, 2)), 0.5])
def test_apex_and_translation_must_be_3_vectors(make, vec):
    with pytest.raises(ValueError, match="expected 3-vectors"):
        make(vec)


def test_poincare_act_path_moves_the_apex_like_act():
    rng = np.random.default_rng(4)
    path = cgm.ConePath(cgm.SpatialSector(0.3, 1.5, (0.1, 0.2, 0.3)), 0.9)
    for _ in range(20):
        g = cg.PoincareElement(rng.uniform(-1, 1, 3),
                               cg.random_element(rng, disk_radius=0.5, windings=1.0))
        try:
            out = cgm.poincare_act_path(g, path)
        except cgm.DegenerateImage:
            continue
        want = g.act(path.sector.apex)
        assert np.max(np.abs(out.sector.apex - want)) < 1e-14
