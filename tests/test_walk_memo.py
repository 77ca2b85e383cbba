"""The walk memo of `holo`: a walk read from it is the walk itself, a mutated
geometry or base formula never reads a stale walk, and it keeps at most
_WALK_MEMO_SIZE walks and none of the ODE route's."""

import inspect
import math
import types

import numpy as np
import pytest

from anyonstat import covergroup as cg
from anyonstat import holo
from anyonstat import minkowski as mk
from anyonstat import spinstat as ss
from anyonstat import suites

SPINS = suites.SuiteConfig().spins
ANCHORS = mk.MomentumPoint(np.array([0.4, 0.9, 0.1]), np.array([-0.3, 0.6, 0.4]), 1.0)
# rotations in every element, so that a transposed projection moves every row
ELEMENTS = cg.compose(cg.lift_rotation(np.array([0.3, -0.2, 0.1])),
                      cg.lift_boost(np.array([0.5, 1.0, 2.0]), np.array([0.1, 0.05, 0.2])))


@pytest.fixture(autouse=True)
def cold_memo():
    holo._WALKS.clear()
    yield
    holo._WALKS.clear()


def _counted_walks(monkeypatch) -> list:
    """A list that gets one entry per walk that the memo did not answer."""
    walks = []

    def counted(expr, z, _walk=holo._walk):
        walks.append(len(z))
        return _walk(expr, z)

    monkeypatch.setattr(holo, "_walk", counted)
    return walks


def test_the_memo_cannot_change_a_pipeline_result(monkeypatch):
    def pipeline(s):
        rep = ss.run_pipeline(s, seed=7)
        return rep.omega_hat, rep.min_eig, rep.residuals

    walks = _counted_walks(monkeypatch)
    cold = {}
    for s in SPINS:
        holo._WALKS.clear()
        cold[s] = pipeline(s)
    cold_walks = len(walks)
    forward = {s: pipeline(s) for s in SPINS}
    backward = {s: pipeline(s) for s in reversed(SPINS)}
    assert forward == cold and backward == cold
    # the warm runs read most of their walks from the memo
    assert len(walks) - cold_walks < cold_walks / 2


def _outcomes() -> dict:
    """Every compensated family walked up the vertical path: its values, or
    the error that building or walking it raised."""
    family = ss.build_toy_model(1 / 3, 1.0, 2, seed=7)
    builds = {"moved": lambda: holo.compensated_family_expr(ELEMENTS, ANCHORS, 1 / 3),
              "identity": lambda: holo.compensated_family_expr(cg.identity(), ANCHORS, 0.25),
              "pref1": lambda: family.pref1_expr(ANCHORS),
              "pref2bar": lambda: family.pref2bar_expr(ANCHORS),
              "pref2_pi": lambda: family.pref2_pi_expr(ANCHORS)}
    out = {}
    for name, build in builds.items():
        try:
            out[name] = holo.evaluate_along(build(), holo.StripPath.vertical(0.0).points)
        except ArithmeticError as e:
            out[name] = f"{type(e).__name__}: {e}"
    return out


def _same(a: dict, b: dict) -> bool:
    return all(type(a[k]) is type(b[k]) and np.array_equal(a[k], b[k]) for k in a)


def test_a_family_reads_from_the_memo_what_it_walks_without_it(monkeypatch):
    first, again = _outcomes(), _outcomes()  # the second from the memo
    monkeypatch.setattr(holo, "_KEYED_CODE", frozenset())
    unkept = _outcomes()
    assert _same(first, unkept) and _same(again, unkept)


def _transposed_project(monkeypatch):
    project = cg.project
    monkeypatch.setattr(holo.cg, "project", lambda x: np.swapaxes(project(x), -1, -2))


def _flipped_compensator(monkeypatch):
    source = inspect.getsource(holo.u_power_raw)
    flipped = source.replace("y + m + 1j * k1, y + m - 1j * k1",
                             "y + m - 1j * k1, y + m + 1j * k1")
    assert flipped != source
    namespace = dict(vars(holo))
    exec(compile(flipped, holo.__file__, "exec"), namespace)
    mutant = namespace["u_power_raw"]
    monkeypatch.setattr(holo, "u_power_raw", mutant)
    # admitted to the memo like the original, so that only its code object
    # tells its walks apart from the original's
    (bases,) = [c for c in mutant.__code__.co_consts if isinstance(c, types.CodeType)]
    monkeypatch.setattr(holo, "_KEYED_CODE", holo._KEYED_CODE | {bases})


@pytest.mark.parametrize("mutate", [_transposed_project, _flipped_compensator],
                         ids=["transposed-project", "flipped-compensator"])
def test_a_warm_memo_cannot_hide_a_mutant(mutate, monkeypatch):
    clean = _outcomes()  # and the memo now holds every clean walk
    mutate(monkeypatch)
    warm = _outcomes()
    holo._WALKS.clear()
    cold = _outcomes()
    assert _same(warm, cold)
    assert not _same(warm, clean)


def test_the_memo_keeps_its_bound_and_no_walk_of_the_ode_route(monkeypatch):
    def walk(i, top=0.5j):
        anchor = mk.shell_point(0.01 * i, 0.2, 1.0).as_array()
        holo.evaluate_along(holo.u_power_raw(np.eye(3), anchor, 0.25, 1.0), [0.0, top])

    walks = _counted_walks(monkeypatch)
    size = holo._WALK_MEMO_SIZE
    for i in range(size + 5):
        walk(i)
    assert len(holo._WALKS) == size and len(walks) == size + 5
    # walks 5 .. size + 4 are kept; a hit makes 5 the most recently used, so
    # the next new walk drops 6; other samples are another walk
    for i, top, new in ((5, 0.5j, False), (size + 5, 0.5j, True), (5, 0.5j, False),
                        (6, 0.5j, True), (size + 5, 0.6j, True)):
        before = len(walks)
        walk(i, top)
        assert len(walks) == before + new and len(holo._WALKS) == size

    holo._WALKS.clear()
    family = ss.build_toy_model(0.25, 1.0, 2, seed=7)
    p = mk.shell_point(0.35, -0.2, 1.0)
    ss.dressed_family(family, 1, 1j * (math.pi / 2.0), p)  # ode_vs_engine's direct route
    kept, walked = set(holo._WALKS), len(walks)
    # the ODE route walks nothing; the direct route reads its walks from the memo
    ss.ode_vs_engine(family, p)
    assert set(holo._WALKS) == kept and len(walks) == walked
    # nor a family whose base function is not a builder's
    holo.evaluate_along(holo.PowerProduct(pows=((lambda z: (z + 3.0,), (0.5,)),)), [0.0, 1.0])
    assert set(holo._WALKS) == kept
