import cmath
import math

import numpy as np
import pytest

from anyonstat import covergroup as cg
from anyonstat import holo
from anyonstat import minkowski as mk
from anyonstat import wigner as wg

S = 1 / 3
QUARTER = cg.lift_rotation(math.pi / 2)


def reflected_point(p):
    return mk.to_momentum(-mk.j_reflect(p.as_array()), p.m)


def closed_boundary(g, p, s):
    """The closed-form boundary value of the compensated family at i*pi."""
    gg0 = cg.compose(g, QUARTER)
    vec = mk.J @ cg.project(cg.inverse(gg0)) @ mk.J @ p.as_array()
    return (cmath.exp(1j * math.pi * s)
            * cmath.exp(1j * s * wg.wigner_angle(cg.j_conjugate(gg0), p))
            * wg.u_plain(mk.to_momentum(vec, p.m), s))


def _rest_light_cone_power():
    # the base k0 - k1 of the rest momentum is exactly m e^z
    rest = mk.shell_point(0.0, 0.0, 1.0).as_array()

    def bases(z):
        k0, k1, _ = holo._boosted(np.eye(3), rest)(z)
        return (k0 - k1,)

    return holo.PowerProduct(pows=((bases, (S,)),))


def test_constant_expression():
    e = holo.PowerProduct(2.0 - 1.5j)
    assert holo.continue_along(e, holo.StripPath.vertical(0.0)) == 2.0 - 1.5j


def test_momentum_node_at_ipi_is_reflection():
    p = mk.shell_point(0.6, -0.4, 1.0)
    vals = holo._boosted(np.eye(3), p.as_array())(np.array([0.0, 1j * math.pi]))
    assert np.max(np.abs(np.array(vals)[:, 0] - p.as_array())) < 1e-15
    assert np.max(np.abs(np.array(vals)[:, 1] - mk.J @ p.as_array())) < 1e-13
    # a batch of anchors gives one row per anchor
    batch = np.array([p.as_array(), mk.shell_point(0.1, 0.2, 2.0).as_array()])
    k = holo._boosted(np.eye(3), batch)(np.array([0.0, 1j * math.pi]))
    assert np.max(np.abs(np.array(k)[:, :, 0] - batch.T)) < 1e-15
    assert np.max(np.abs(np.array(k)[:, :, 1] - mk.J @ batch.T)) < 1e-13


def test_simple_power_continuation_and_halved_step():
    expr = _rest_light_cone_power()
    # base is exactly m e^z, so the continued power is m^s e^{s z}
    v = holo.continue_along(expr, holo.StripPath.vertical(0.0))
    assert abs(v - cmath.exp(1j * math.pi * S)) < 1e-13
    v2 = holo.continue_along(expr, holo.StripPath.vertical(0.0, samples=129))
    assert abs(v - v2) < 1e-11


def test_two_point_walk_bisects_each_large_turn():
    # the base m e^z turns by pi over [0, i pi]: one bisection leaves two
    # quarter turns at the 0.999 pi/2 bound, a second leaves eighth turns
    expr = _rest_light_cone_power()
    assert abs(holo.continue_along(expr, [0.0, 1j * math.pi])
               - cmath.exp(1j * math.pi * S)) < 1e-13
    # a three-quarter turn in one step reads as -pi/2 without bisection
    z = 1.5j * math.pi
    assert abs(holo.evaluate_along(expr, [0.0, z])[-1] - cmath.exp(z * S)) < 1e-13
    assert abs(holo.eval_principal(expr, z) - cmath.exp(-0.5j * math.pi * S)) < 1e-13


BATCH = mk.MomentumPoint(*np.array([(0.4, -0.3), (0.02, 0.99), (1.5, 0.2), (-0.7, 0.6)]).T, 1.0)


def _final_samples(expr, zs):
    """How many samples the walk of expr over zs ends with: the walk evaluates
    the bases once per sample, new midpoints only in each later round, so this
    is the sum of the sample counts of its calls of the first bases."""
    seen = []
    (fn, ss), *rest = expr.pows
    counted = ((lambda z: seen.append(len(z)) or fn(z), ss), *rest)
    holo.evaluate_along(holo.PowerProduct(expr.scale, expr.exps, counted), zs)
    return sum(seen)


def _energy_factor(anchors):
    # (k0 + m)^s passes close to zero, and turns fast, where p0 cos y = -m
    # on the vertical path when p1 is small
    return holo.PowerProduct(
        pows=((lambda z: (holo._boosted(np.eye(3), anchors)(z)[0] + 1.0,), (S,)),))


def test_batched_walk_matches_per_row_scalar_walks():
    zs = holo.StripPath.vertical(0.0, samples=5).points
    anchors = np.array([p.as_array() for p in BATCH])
    batched = holo.evaluate_along(_energy_factor(anchors), zs)
    assert batched.shape == (len(BATCH.p1), len(zs))
    counts = []
    for a, row in zip(anchors, batched):
        scalar = holo.evaluate_along(_energy_factor(a), zs)
        assert np.max(np.abs(row - scalar)) < 1e-14
        counts.append(_final_samples(_energy_factor(a), zs))
    # the rows need different bisection depths; the batch takes them all
    assert len(set(counts)) > 1
    assert _final_samples(_energy_factor(anchors), zs) >= max(counts)

    family = holo.compensated_family_expr(cg.identity(), BATCH, S)
    values = holo.continue_along(family, holo.StripPath.vertical(0.0))
    assert values.shape == (len(BATCH.p1),)
    for p, v in zip(BATCH, values):
        scalar = holo.continue_along(holo.compensated_family_expr(cg.identity(), p, S),
                                     holo.StripPath.vertical(0.0))
        assert isinstance(scalar, complex)
        assert abs(v - scalar) < 1e-14 * max(1.0, abs(scalar))
        assert abs(v - closed_boundary(cg.identity(), p, S)) < 1e-12


def test_product_of_families_matches_its_factors():
    # the product walks the bases of both factors in one ledger; on a path
    # that needs bisection its values are still the product of the factors'
    zs = [0.0, 0.3 + 1.0j, -0.2 + 2.0j, 0.1 + 1j * math.pi]
    batched = holo.compensated_family_expr(cg.identity(), BATCH, S)
    p = mk.shell_point(0.5, 1.0, 1.0)
    single = (holo.uncompensated_phase_expr(cg.identity(), p, S)
              * holo.exp_mink_dot((0.2, -0.1j, 0.3), np.eye(3), p.as_array()))
    f, g = holo.evaluate_along(batched, zs), holo.evaluate_along(single, zs)
    both = holo.evaluate_along(batched * single, zs)
    assert both.shape == (len(BATCH.p1), len(zs))
    assert np.max(np.abs(both - f * g)) < 1e-13 * np.max(np.abs(f * g))
    assert np.max(np.abs(holo.evaluate_along(single * batched, zs) - both)) < 1e-13
    # a number, or an array with one number per row, scales the family
    assert np.max(np.abs(holo.evaluate_along(single * (2 - 1j), zs) - (2 - 1j) * g)) < 1e-14
    assert np.max(np.abs(holo.evaluate_along(0.5j * batched, zs) - 0.5j * f)) < 1e-14
    rows = np.arange(1.0, len(BATCH.p1) + 1.0)
    scaled = rows * batched
    assert isinstance(scaled, holo.PowerProduct)
    assert np.max(np.abs(holo.evaluate_along(scaled, zs) - rows[:, None] * f)) < 1e-13


@pytest.mark.parametrize("s", [S, 0.137, -2.4])
def test_phase_builders_match_wigner_angle_on_the_real_line(s):
    # once normalised at 0, each raw phase family is e^{i s Omega} at every
    # real t, not only at the anchor
    g = cg.compose(cg.lift_rotation(0.2), cg.lift_boost(1.1, 0.3))
    ts = np.linspace(-1.0, 1.0, 21)
    q = mk.shell_point(0.4, -0.3, 1.0)
    fam = holo.normalize_at(holo.boost_family_phase_raw(g, q, s),
                            cmath.exp(1j * s * wg.wigner_angle(g, q)))
    vals = holo.evaluate_along(fam, np.concatenate(([0.0], ts)))[1:]
    want = [cmath.exp(1j * s * wg.wigner_angle(cg.compose(cg.lift_boost1(t), g), q))
            for t in ts]
    assert np.max(np.abs(vals - want)) < 1e-13
    # the reversed boost is the same builder conjugated by the half turn R:
    # Omega(boost(-z) g, q) = Omega(boost(z) R^-1 g R, R^-1 q)
    half = cg.lift_rotation(math.pi)
    turned = cg.compose(cg.compose(cg.inverse(half), g), half)
    q_turned = mk.to_momentum(mk.rotation(-math.pi) @ q.as_array(), q.m)
    fam = holo.normalize_at(holo.boost_family_phase_raw(turned, q_turned, s),
                            cmath.exp(1j * s * wg.wigner_angle(g, q)))
    vals = holo.evaluate_along(fam, np.concatenate(([0.0], ts)))[1:]
    want = [cmath.exp(1j * s * wg.wigner_angle(cg.compose(cg.lift_boost1(-t), g), q))
            for t in ts]
    assert np.max(np.abs(vals - want)) < 1e-13
    pre = cg.project(cg.lift_rotation(0.7))
    anchor = mk.shell_point(0.2, 0.5, 1.3).as_array()

    def k(t):
        return mk.to_momentum(pre @ mk.boost1(-t) @ anchor, 1.3)

    fam = holo.normalize_at(holo.fixed_element_phase_raw(g, pre, anchor, s, 1.3),
                            cmath.exp(1j * s * wg.wigner_angle(g, k(0.0))))
    vals = holo.evaluate_along(fam, np.concatenate(([0.0], ts)))[1:]
    want = [cmath.exp(1j * s * wg.wigner_angle(g, k(t))) for t in ts]
    assert np.max(np.abs(vals - want)) < 1e-13


# deck elements, half turns either way, and boosts on other sheets
ELEMENTS = [cg.identity(), cg.lift_rotation(2 * math.pi), cg.lift_rotation(-2 * math.pi),
            cg.lift_rotation(math.pi), cg.lift_rotation(-math.pi),
            cg.compose(cg.lift_rotation(4 * math.pi), cg.lift_boost(1.1, 0.3)),
            cg.compose(cg.lift_rotation(-0.2), cg.lift_boost(-0.4, 0.7))]


def test_builders_take_a_stack_of_elements_through_the_scalar_code():
    # each row of a family built for a stack of elements is the family of its
    # own element, on a coarse path that the walk has to bisect
    stack = cg.CoverElement(np.array([g.gamma for g in ELEMENTS], dtype=complex),
                            np.array([g.omega for g in ELEMENTS]))
    zs = [0.0, 0.3 + 1.0j, -0.2 + 2.0j, 0.1 + 1j * math.pi]
    qs = BATCH[np.arange(len(ELEMENTS)) % len(BATCH.p1)]
    pre = cg.project(cg.lift_rotation(0.7))
    anchor = mk.shell_point(0.2, 0.5, 1.3).as_array()
    builders = [
        lambda g, i: holo.fixed_element_phase_raw(g, pre, anchor, S, 1.3),
        lambda g, i: holo.boost_family_phase_raw(g, qs if i is None else qs[i], S),
        lambda g, i: holo.compensated_family_expr(g, qs if i is None else qs[i], S),
        lambda g, i: holo.exp_mink_dot((0.2, -0.1j, 0.3), cg.project(g) @ pre, anchor)
        * holo.u_power_raw(cg.project(cg.inverse(g)), anchor, S, 1.3),
    ]
    for build in builders:
        batched = holo.evaluate_along(build(stack, None), zs)
        assert batched.shape == (len(ELEMENTS), len(zs))
        counts = []
        for i, g in enumerate(ELEMENTS):
            single = holo.evaluate_along(build(g, i), zs)
            assert single.shape == (len(zs),)
            assert np.max(np.abs(batched[i] - single)) < 1e-13 * max(1.0, np.max(np.abs(single)))
            counts.append(_final_samples(build(g, i), zs))
        assert max(counts) > len(zs)
    k = holo._boosted(cg.project(stack), anchor)(np.array(zs))
    for i, g in enumerate(ELEMENTS):
        row = holo._boosted(cg.project(g), anchor)(np.array(zs))
        assert np.max(np.abs(np.array(k)[:, i] - np.array(row))) < 1e-14


def test_vanishing_base_in_one_row_names_its_z():
    # p1 = 0 puts the energy-factor zero of the second row on the path, at
    # z = i arccos(-m / m~)
    zs = holo.StripPath.vertical(0.0, samples=129).points
    hit = mk.shell_point(0.0, 1.0, 1.0)
    anchors = np.array([BATCH[0].as_array(), hit.as_array(), BATCH[2].as_array()])
    with pytest.raises(holo.PowerBaseVanishes) as err:
        holo.evaluate_along(_energy_factor(anchors), zs)
    zstar = holo.boost_energy_branch_point(hit)
    assert str(err.value).endswith(f"near z={zstar} in row 1")
    with pytest.raises(holo.PowerBaseVanishes) as alone:
        holo.evaluate_along(_energy_factor(hit.as_array()), zs)
    assert str(alone.value).endswith(f"near z={zstar}")


def test_normalize_at_checks_every_row():
    raw = holo.boost_family_phase_raw(cg.identity(), BATCH, S)
    values = holo.evaluate_along(raw, [0.0])[:, 0]
    phases = np.exp(1j * np.arange(len(BATCH.p1)))
    fixed = holo.normalize_at(raw, phases * np.abs(values))
    assert np.max(np.abs(holo.evaluate_along(fixed, [0.0])[:, 0]
                         - phases * np.abs(values))) < 1e-14
    wrong = phases * np.abs(values)
    wrong[2] *= 1.1
    with pytest.raises(ArithmeticError):
        holo.normalize_at(raw, wrong)


def test_eval_principal_on_array_matches_pointwise():
    p = mk.shell_point(0.5, 1.0, 1.0)
    bare = holo.uncompensated_phase_expr(cg.identity(), p, S)
    zs = np.array([0.1 + 0.2j, -0.4 + 1.5j, 0.9 + 2.9j, 1.3 + 0.7j]).reshape(2, 2)
    vals = holo.eval_principal(bare, zs)
    assert vals.shape == zs.shape
    for z, v in zip(zs.ravel(), vals.ravel()):
        pointwise = holo.eval_principal(bare, complex(z))
        assert isinstance(pointwise, complex)
        assert abs(v - pointwise) < 1e-15 * max(1.0, abs(v))


def test_compensated_boundary_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = cg.compose(cg.lift_rotation(rng.uniform(-0.25, 0.25)),
                       cg.lift_boost(rng.uniform(0, 2 * math.pi), rng.uniform(0, 0.3)))
        if not __import__("anyonstat.conegeom", fromlist=["x"]).in_wedge_class(
                cg.compose(g, QUARTER)):
            continue
        p = mk.shell_point(rng.uniform(0.1, 0.8), rng.uniform(-0.8, 0.8), 1.0)
        f = holo.compensated_family_expr(g, p, S)
        v = holo.continue_along(f, holo.StripPath.vertical(0.0))
        assert abs(v - closed_boundary(g, p, S)) < 1e-12


def test_cocycle_family_boundary_identities():
    p = mk.shell_point(0.4, -0.3, 1.0)
    gw = cg.compose(cg.lift_rotation(0.13), QUARTER)
    # u(p) c(boost(z) g QUARTER, p) = e^{i s Omega(boost(z) g, p)} u_l0(k'(z))
    g = cg.compose(gw, cg.inverse(QUARTER))
    cf = holo.compensated_family_expr(g, p, S) * (1 / wg.u_plain(p, S))
    v = holo.continue_along(cf, holo.StripPath.vertical(0.0))
    mjp = reflected_point(p)
    assert abs(v - cmath.exp(1j * math.pi * S) * wg.cocycle(gw, mjp, S).conjugate()) < 1e-13
    assert abs(v - cmath.exp(1j * math.pi * S)
               * wg.cocycle(cg.j_conjugate(gw), p, S)) < 1e-13


def test_morera_entire_node():
    # perimeter-4 rectangle strictly inside the open strip
    p = mk.shell_point(0.3, 0.5, 1.0)
    ent = holo.exp_mink_dot((0.7, 0.0, 0.0), np.eye(3), p.as_array())
    r = holo.morera_residual(ent, holo.StripPath.rectangle(-0.5, 0.5, 0.8, 1.8))
    assert r < 1e-10


def test_morera_quadrature_order_certificate():
    # the composite 8-point rule's error falls like step^16; each halving of
    # the step must gain 2^10 (0.10, 2.7e-6 and 1.2e-10 at 1, 2 and 4 panels)
    p = mk.shell_point(0.3, 0.5, 1.0)
    osc = holo.exp_mink_dot((0.0, -3.0, 0.0), np.eye(3), p.as_array())
    rect = holo.StripPath.rectangle(-0.6, 0.6, 0.4, 2.8)
    r1, r2, r4 = (holo.morera_residual(osc, rect, panels=k) for k in (1, 2, 4))
    assert r2 < r1 / 2 ** 10
    assert r4 < r2 / 2 ** 10


def test_morera_rule_is_leggauss_of_order_8():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert holo._GAUSS_NODES.tobytes() == nodes.tobytes()
    assert holo._GAUSS_WEIGHTS.tobytes() == weights.tobytes()


class _Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.polynomial.{name} used")


def test_suites_do_not_touch_numpy_polynomial(monkeypatch):
    from anyonstat import suites
    monkeypatch.setattr(np, "polynomial", _Untouchable())
    config = suites.SuiteConfig(spins=(0.25,), grid=2)
    for name in ("continuation", "spinstat"):
        records = suites.run_suite(name, config).records
        assert all(r.passed for r in records), [r.inputs.get("error") for r in records]


def test_morera_compensated_family():
    p = mk.shell_point(0.4, -0.3, 1.0)
    f = holo.compensated_family_expr(cg.identity(), p, S)
    r = holo.morera_residual(f, holo.StripPath.rectangle(-0.4, 0.4, 0.15, math.pi - 0.15))
    assert r < 1e-8


def test_negative_control_uncompensated_phase():
    p = mk.shell_point(0.5, 1.0, 1.0)
    zstar = holo.boost_energy_branch_point(p)
    assert 0.0 < zstar.imag < math.pi
    bare = holo.uncompensated_phase_expr(cg.identity(), p, S)
    rect = holo.StripPath.rectangle(zstar.real - 0.3, zstar.real + 0.3,
                                    zstar.imag - 0.3, zstar.imag + 0.3)
    assert holo.morera_residual(bare, rect) > 1e-3
    zend = complex(zstar.real, min(zstar.imag + 0.5, 3.1))
    left = [0.0, complex(zstar.real - 0.4, 0), complex(zstar.real - 0.4, zend.imag), zend]
    right = [0.0, complex(zstar.real + 0.4, 0), complex(zstar.real + 0.4, zend.imag), zend]
    vl, vr = holo.continue_along(bare, left), holo.continue_along(bare, right)
    assert abs(vl - vr) > 1e-3
    # the monodromy is exactly a full turn of the energy-factor power
    assert abs(vl / vr - cmath.exp(2j * math.pi * S)) < 1e-10
    comp = holo.compensated_family_expr(cg.identity(), p, S)
    assert abs(holo.continue_along(comp, left) - holo.continue_along(comp, right)) < 1e-12


def test_negative_control_principal_branch():
    # evaluating a power without its ledger breaks analyticity across the cut
    p = mk.shell_point(0.5, 1.0, 1.0)
    zstar = holo.boost_energy_branch_point(p)
    bare = holo.uncompensated_phase_expr(cg.identity(), p, S)
    rect = holo.StripPath.rectangle(zstar.real - 0.3, zstar.real + 0.3,
                                    zstar.imag - 0.3, zstar.imag + 0.3)
    assert holo.morera_residual(bare, rect, principal=True) > 1e-3


def test_morera_residual_of_a_batch_is_its_worst_row():
    # the compensated families and the bare phase around its branch point,
    # whose principal-branch residual is large
    rect = holo.StripPath.rectangle(-0.4, 0.4, 0.15, math.pi - 0.15)
    stack = cg.CoverElement(np.array([g.gamma for g in ELEMENTS], dtype=complex),
                            np.array([g.omega for g in ELEMENTS]))
    qs = BATCH[np.arange(len(ELEMENTS)) % len(BATCH.p1)]
    hit = mk.shell_point(0.5, 1.0, 1.0)
    zstar = holo.boost_energy_branch_point(hit)
    box = holo.StripPath.rectangle(zstar.real - 0.3, zstar.real + 0.3,
                                   zstar.imag - 0.3, zstar.imag + 0.3)
    cases = [(lambda i: holo.compensated_family_expr(stack if i is None else ELEMENTS[i],
                                                     qs if i is None else qs[i], S),
              len(ELEMENTS), rect, False)]
    bare_qs = mk.MomentumPoint(*np.array([(0.4, -0.3), (0.5, 1.0), (1.5, 0.2)]).T, 1.0)
    for principal in (False, True):
        cases.append((lambda i: holo.uncompensated_phase_expr(
            cg.identity(), bare_qs if i is None else bare_qs[i], S), 3, box, principal))
    for build, rows, contour, principal in cases:
        got = holo.morera_residual(build(None), contour, principal=principal)
        want = max(holo.morera_residual(build(i), contour, principal=principal)
                   for i in range(rows))
        assert abs(got - want) < 1e-15 * max(1.0, want)
    assert got > 1e-3


def test_morera_residual_of_one_row_keeps_its_value():
    # the continuation suite's negative control, to the bit
    p = mk.shell_point(0.5, 1.0, 1.0)
    zstar = holo.boost_energy_branch_point(p)
    bare = holo.uncompensated_phase_expr(cg.identity(), p, S)
    box = holo.StripPath.rectangle(zstar.real - 0.3, zstar.real + 0.3,
                                   zstar.imag - 0.3, zstar.imag + 0.3)
    assert holo.morera_residual(bare, box) == 1.6795342006623755
    assert holo.morera_residual(bare, box, principal=True) == 1.278992743281049
    zend = complex(zstar.real, min(zstar.imag + 0.5, 3.1))
    left = [0.0, complex(zstar.real - 0.4, 0.0), complex(zstar.real - 0.4, zend.imag), zend]
    right = [0.0, complex(zstar.real + 0.4, 0.0), complex(zstar.real + 0.4, zend.imag), zend]
    assert abs(holo.continue_along(bare, left)
               - holo.continue_along(bare, right)) == 2.2046207431184817
    f = holo.compensated_family_expr(cg.identity(), mk.shell_point(0.4, -0.3, 1.0), S)
    assert holo.morera_residual(
        f, holo.StripPath.rectangle(-0.4, 0.4, 0.15, math.pi - 0.15)) == 6.661338147750939e-16


def test_path_and_anchor_independence():
    p = mk.shell_point(0.4, -0.3, 1.0)
    f = holo.compensated_family_expr(cg.identity(), p, S)
    v0 = holo.continue_along(f, [0.0, 1j * math.pi])
    vz = holo.continue_along(f, [0.0, -0.4, -0.4 + 0.5j * math.pi,
                                 0.3 + 0.8j * math.pi, 1j * math.pi])
    assert abs(v0 - vz) < 1e-12
    # fresh principal anchoring at t=0.5 agrees with walking there from 0
    w = holo.Walker(f, 0.5)
    walked = holo.evaluate_along(f, [0.0, 0.25, 0.5])[-1]
    assert abs(w.value() - walked) < 1e-13
    for z in (0.5 + 0.5j * math.pi, 0.5 + 1j * math.pi, 1j * math.pi):
        w.step_to(z)
    assert abs(w.value() - v0) < 1e-12


def test_boundary_at_ipi_with_validation():
    p = mk.shell_point(0.4, -0.3, 1.0)
    f = holo.compensated_family_expr(cg.identity(), p, S)
    # Morera residuals on two rectangles flanking the vertical path certify
    # analyticity there before the boundary value is trusted
    for lo, hi in ((-0.45, -0.05), (0.05, 0.45)):
        assert holo.morera_residual(f, holo.StripPath.rectangle(lo, hi, 0.05, math.pi - 0.05)) < 1e-8
    v = holo.continue_along(f, holo.StripPath.vertical(0.0))
    assert abs(v - closed_boundary(cg.identity(), p, S)) < 1e-12


def test_morera_contour_must_be_interior():
    e = holo.PowerProduct(1.0)
    with pytest.raises(ValueError):
        holo.morera_residual(e, holo.StripPath.rectangle(-1, 1, 0.0, 1.0))


# --- the tube: every x1-boost walk point lies over the negative x-axis ------

@pytest.mark.parametrize("m", [0.001, 1.0, 4.0, 8.0, 50.0])
def test_walk_points_lie_on_the_complex_shell_over_the_negative_x_axis(m):
    # the pipeline's anchors; conegeom.c12_negative_axis relies on this
    from anyonstat import spinstat as ss
    q = ss._reflected_anchor(ss.momentum_grid(m, 5))
    t, theta = np.meshgrid(np.linspace(-2.0, 2.0, 9), np.linspace(0.05, math.pi - 0.05, 11))
    z = (t + 1j * theta).ravel()
    k0, k1, k2 = holo._boosted(np.eye(3), q.as_array())(z)
    assert np.max(np.abs(k0 ** 2 - k1 ** 2 - k2 ** 2 - m * m)) < 1e-10 * max(1.0, m * m)
    energy = (mk.boost1(-z.real) @ q.as_array().T)[:, 0, :].T     # (boost1(-t) q)_0
    assert np.max(np.abs(k1.imag + np.sin(z.imag) * energy)) < 1e-12 * np.max(np.abs(k1))
    assert np.all(k2.imag == 0.0) and np.all(k1.imag < 0.0)


# --- log-derivative ODE ------------------------------------------------------

def test_ode_scalar_exponential():
    a = 0.7
    val = holo.ode_continue(lambda z, t0: np.exp(1j * a * (z + t0)),
                            holo.StripPath.vertical(0.0, height=math.pi / 2))
    assert abs(val[0, 0] - cmath.exp(1j * a * 1j * math.pi / 2)) < 1e-8


def _counting_ode(monkeypatch):
    # the shifted reruns of ode_continue call it through the module, so each
    # call, the first one included, lands in `calls`
    calls, real = [], holo.ode_continue

    def ode_continue(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(holo, "ode_continue", ode_continue)
    return calls


def _diag_family(f, g):
    def h(z, t0):
        out = np.zeros(np.shape(z) + (2, 2), dtype=complex)
        out[..., 0, 0], out[..., 1, 1] = f(z + t0), g(z + t0)
        return out
    return h


def test_ode_singular_determinant_detour(monkeypatch):
    # f1 = cosh vanishes at i pi/2, a coarse node of the default path; a 1x1 h
    # has condition number 1 wherever it is nonzero, so the step count of the
    # pole of A = tanh sends it round the shifted path and back to i pi,
    # which gives cosh(i pi)
    calls = _counting_ode(monkeypatch)
    val = holo.ode_continue(lambda z, t0: np.cosh(z + t0), holo.StripPath.vertical())
    assert len(calls) == 2
    assert abs(val[0, 0] - cmath.cosh(1j * math.pi)) < 1e-5


def test_ode_raises_where_det_h_vanishes_at_the_end(monkeypatch):
    # every rerun walks back to the path's end, so a zero of det h there
    # (cosh at i pi/2) leaves every shifted scan singular too
    calls = _counting_ode(monkeypatch)
    with pytest.raises(holo.SingularDeterminant, match="shifted path too"):
        holo.ode_continue(lambda z, t0: np.cosh(z + t0),
                          holo.StripPath.vertical(0.0, height=math.pi / 2))
    assert len(calls) == 1 + len(holo._SHIFTS)


@pytest.mark.parametrize("h, height, calls", [
    # the zero i pi/2 is no coarse node: the throttle walks through the pole
    (lambda z, t0: np.cosh(z + t0), 2.2, 1),
    # diag(exp, cosh) loses rank on the node i pi/2 of the default path
    (_diag_family(np.exp, np.cosh), math.pi, 2)], ids=["between-nodes", "matrix-on-node"])
def test_ode_detours_only_for_a_zero_on_a_coarse_node(h, height, calls, monkeypatch):
    counted = _counting_ode(monkeypatch)
    val = holo.ode_continue(h, holo.StripPath.vertical(0.0, height=height))
    assert len(counted) == calls
    want = np.reshape(h(np.array([1j * height]), 0.0), val.shape)
    assert np.max(np.abs(val - want)) < 1e-5


def test_ode_ill_conditioned_family_fails_on_every_shift(monkeypatch):
    # condition number 1e13 on every path while A = I stays small, so only the
    # condition test sees it: the shifts 0.1 * 1.7^k run out and it raises
    calls = _counting_ode(monkeypatch)
    with pytest.raises(holo.SingularDeterminant, match="shifted path too"):
        holo.ode_continue(_diag_family(np.exp, lambda z: 1e-13 * np.exp(z)),
                          holo.StripPath.vertical())
    assert len(calls) == 6


def _stepwise_rk4(f, A, zs):
    # the classical RK4 loop, one step zs[j] -> zs[j + 2] at a time
    for j in range(0, len(zs) - 2, 2):
        dz = zs[j + 2] - zs[j]
        k1 = f @ A[j]
        k2 = (f + 0.5 * dz * k1) @ A[j + 1]
        k3 = (f + 0.5 * dz * k2) @ A[j + 1]
        k4 = (f + dz * k3) @ A[j + 2]
        f = f + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return f


def _triangular(z, t0):
    # f1(z) = [[e^{z/2}, z], [0, 1]]: its log-derivative A(z) = [[1/2, e^{-z/2}], [0, 0]]
    # does not commute with itself along the path
    w = np.asarray(z) + t0
    out = np.zeros(w.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 1] = np.exp(0.5 * w), w, 1.0
    return out


def test_ode_step_product_matches_the_stepwise_loop(monkeypatch):
    from anyonstat import spinstat as ss
    fam = ss.build_toy_model(1 / 3, 1.0, 2, seed=7)
    cases = [
        (lambda z, t0: np.exp(0.7j * (z + t0)), holo.StripPath.vertical(0.0, height=math.pi / 2)),
        (lambda z, t0: np.cosh(z + t0), holo.StripPath.vertical(0.0, height=2.2)),
        (ss._ode_family(fam, mk.shell_point(0.35, -0.2, 1.0)),
         holo.StripPath.vertical(0.0, height=math.pi / 2)),
        (_triangular, holo.StripPath.vertical(0.0, height=2.0)),
        (_triangular, [0.0, 0.3 + 0.1j, 0.7j]),
    ]
    steps = []

    def counted(f, A, zs, _walk=holo._rk4_walk):
        steps.append((len(zs) - 1) // 2)
        return _walk(f, A, zs)

    for family, path in cases:
        with monkeypatch.context() as mp:
            mp.setattr(holo, "_rk4_walk", counted)
            got = holo.ode_continue(family, path)
        with monkeypatch.context() as mp:
            mp.setattr(holo, "_rk4_walk", _stepwise_rk4)
            want = holo.ode_continue(family, path)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    # the last path takes an odd number of steps, so the first pairing pads
    assert steps[-1] % 2 == 1
    end = 0.7j
    assert np.max(np.abs(got - _triangular(end, 0.0))) < 1e-8


def _linspace_nodes(path, steps):
    # the reference: one np.linspace per segment
    pts = holo._path_points(path)
    segs = []
    total = sum(abs(b - a) for a, b in zip(pts[:-1], pts[1:]))
    for a, b in zip(pts[:-1], pts[1:]):
        n = max(1, int(round(steps * abs(b - a) / total)))
        segs.append(np.linspace(a, b, n + 1)[:-1])
    return np.concatenate(segs + [np.array([pts[-1]])])


def _looped_subdivision(nodes, counts):
    # the fine samples of ode_continue, one Python step at a time; each
    # segment ends exactly on its node
    full = [nodes[0]]
    for a, b, n in zip(nodes[:-1], nodes[1:], counts.tolist()):
        full.extend(a + (b - a) * (k + 1) / n for k in range(n - 1))
        full.append(b)
    return np.array(full)


def test_ode_samples_match_the_per_segment_construction():
    vertical = holo.StripPath.vertical()
    paths = [holo.StripPath.vertical(0.0, math.pi / 2), vertical,
             [z + 0.1 for z in vertical.points],  # the first rerun's shift
             [0.0, 0.3 + 0.1j, 0.7j],
             [0.0, -0.4, -0.4 + 0.5j * math.pi, 0.3 + 0.8j * math.pi, 1j * math.pi]]
    rng = np.random.default_rng(2)
    for path in paths:
        for steps in (holo._STEPS // 3, *rng.integers(1, 300, 6)):
            nodes = holo._uniform_nodes(path, int(steps))
            assert nodes.tobytes() == _linspace_nodes(path, int(steps)).tobytes()
            counts = rng.integers(1, 40, len(nodes) - 1)
            assert (holo._subdivide(nodes, counts).tobytes()
                    == _looped_subdivision(nodes, counts).tobytes())
