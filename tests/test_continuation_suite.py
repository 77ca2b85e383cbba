"""The continuation suite's batched records against the scalar loops they
replace, and the suite's deterministic work counts."""

import cmath
import math

import numpy as np
import pytest

from anyonstat import conegeom as cgm
from anyonstat import covergroup as cg
from anyonstat import holo
from anyonstat import minkowski as mk
from anyonstat import suites
from anyonstat import wigner as wg

S = 1.0 / 3.0
QUARTER = cg.lift_rotation(math.pi / 2.0)


def _hypothesis_element(rng):
    """One element at a time, rejection-sampled: the reference draws of
    suites._hypothesis_elements."""
    while True:
        g = cg.compose(cg.lift_rotation(rng.uniform(-0.3, 0.3)),
                       cg.lift_boost(rng.uniform(0.0, 2.0 * math.pi),
                                     rng.uniform(0.0, 0.35)))
        if cgm.in_wedge_class(cg.compose(g, QUARTER)):
            return g


def _scalar_oracle(seed):
    """The first two records one element at a time: the draws of each loop
    and its worst residual."""
    rng = suites._rng(suites.SuiteConfig(seed=seed), 3)
    boundary, worst_boundary = [], 0.0
    for _ in range(50):
        g = _hypothesis_element(rng)
        p = mk.shell_point(rng.uniform(0.1, 0.8) * rng.choice((-1.0, 1.0)),
                           rng.uniform(-0.8, 0.8), 1.0)
        f = holo.compensated_family_expr(g, p, S)
        cont = holo.continue_along(f, holo.StripPath.vertical(0.0))
        gg0 = cg.compose(g, QUARTER)
        vec = mk.J @ cg.project(cg.inverse(gg0)) @ mk.J @ p.as_array()
        closed = (cmath.exp(1j * math.pi * S)
                  * cmath.exp(1j * S * wg.wigner_angle(cg.j_conjugate(gg0), p))
                  * wg.u_plain(mk.to_momentum(vec, 1.0), S))
        worst_boundary = max(worst_boundary, abs(cont - closed))
        boundary.append((g, p))
    morera, worst_morera = [], 0.0
    for _ in range(6):
        g = _hypothesis_element(rng)
        p = suites._shell(rng.uniform(size=2), spread=0.7)
        f = holo.compensated_family_expr(g, p, S)
        worst_morera = max(worst_morera, holo.morera_residual(
            f, holo.StripPath.rectangle(-0.4, 0.4, 0.15, math.pi - 0.15)))
        morera.append((g, p))
    return (boundary, worst_boundary), (morera, worst_morera)


def _assert_same_draws(g, p, draws):
    assert np.array_equal(g.gamma, [d[0].gamma for d in draws])
    assert np.array_equal(g.omega, [d[0].omega for d in draws])
    for k in ("p1", "p2", "m"):
        assert np.array_equal(np.broadcast_to(getattr(p, k), (len(draws),)),
                              [getattr(d[1], k) for d in draws])


@pytest.mark.parametrize("seed", [3, 7, 26])
def test_batched_records_match_the_scalar_loops(seed, monkeypatch):
    built = []

    def spy(g, q, s, _build=holo.compensated_family_expr):
        built.append((g, q))
        return _build(g, q, s)

    monkeypatch.setattr(holo, "compensated_family_expr", spy)
    recs = {r.anchor: r for r in suites.continuation_suite(suites.SuiteConfig(seed=seed))}
    monkeypatch.undo()
    (boundary, worst_boundary), (morera, worst_morera) = _scalar_oracle(seed)
    _assert_same_draws(*built[0], boundary)
    _assert_same_draws(*built[1], morera)
    got = recs["compensated-boundary-value"].residuals["value"]
    assert abs(got - worst_boundary) < 1e-13
    assert abs(recs["strip-morera"].residuals["compensated"] - worst_morera) < 1e-13


def test_a_hypothesis_element_outside_the_wedge_is_a_fail_record(monkeypatch):
    # the suite's bounds never leave the wedge, so force one row out
    def second_row_outside(g, _check=cgm.in_wedge_class):
        inside = np.array(_check(g))
        if inside.ndim:
            inside[1] = False
        return inside

    monkeypatch.setattr(cgm, "in_wedge_class", second_row_outside)
    records = suites.run_suite("continuation", suites.SuiteConfig()).records
    assert [(r.anchor, r.passed) for r in records] == [("suite-error", False)]
    assert records[0].inputs["error"] == \
        "HypothesisViolation: element 1 leaves the wedge class"


COUNTED = ("compensated_family_expr", "continue_along", "morera_residual", "evaluate_along")


def _count_calls(run) -> dict:
    counts = dict.fromkeys(COUNTED, 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in COUNTED:
            def counted(*args, _fn=getattr(holo, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            mp.setattr(holo, name, counted)
        run()
    return counts


@pytest.mark.parametrize("seed", [7, 26])
def test_continuation_work_counts(seed):
    # one family for the 50 boundary values and one for the six Morera
    # rectangles; one element or momentum at a time gives 59, 9 and 131 for
    # the builds, the Morera residuals and the walks.  Every walk of the
    # suite that reads only its end goes through continue_along, and the
    # ODE route of log-derivative-ode walks only its direct engine route
    counts = _count_calls(lambda: list(suites.continuation_suite(suites.SuiteConfig(seed=seed))))
    assert counts == {"compensated_family_expr": 5, "continue_along": 11,
                      "morera_residual": 4, "evaluate_along": 20}
