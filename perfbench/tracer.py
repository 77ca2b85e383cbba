"""Outside-in tracing: wrap public module attributes of anyonstat with spans.

Nothing inside the program changes.  Each wrapped call opens a span on a
stack; on close it adds its duration to its parent's child time, so a
span's self time is its duration minus the time its wrapped children took.

What this cannot see:
- names bound with `from .minkowski import ...` (`boost1`, `to_momentum`,
  `rotation` inside `spinstat` and `holo`) keep the unwrapped function, so
  `minkowski.boost1.calls` counts only calls through the module attribute;
- `suites._SUITE_FUNCS` holds the unwrapped suite functions, so per-suite
  times come from calling `run_suite` once per suite name;
- the private hot paths `holo._eval` and `conegeom._lifted_circle_action`
  are not wrapped; their time is counted inside their public callers
  (`Walker` methods and `poincare_act_path` / `in_wedge_class`).
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

_HOLO_BUILD = ("compensated_family_expr", "uncompensated_phase_expr",
               "boost_family_phase_raw", "u_power_raw", "fixed_element_phase_raw",
               "exp_mink_dot", "normalize_at")

# (module, attribute path, span name).  Several attributes may share a span
# name; nested calls of one span name add to its inclusive time only once.
SPANS = (
    [("holo", "Walker.__init__", "holo.Walker"),
     ("holo", "Walker.step_to", "holo.Walker.step_to"),
     ("holo", "Walker.value", "holo.Walker"),
     ("holo", "continue_along", "holo.continue_along"),
     ("holo", "continue_robust", "holo.continue_robust"),
     ("holo", "evaluate_along", "holo.evaluate_along"),
     ("holo", "ode_continue", "holo.ode_continue"),
     ("holo", "morera_residual", "holo.morera_residual"),
     ("holo", "eval_principal", "holo.eval_principal")]
    + [("holo", f, "holo.build") for f in _HOLO_BUILD]
    + [("spinstat", f, "spinstat." + f)
       for f in ("run_pipeline", "extract_D", "ode_vs_engine", "verify_transformation_law",
                 "rotation_pi_relation", "two_point_boundary_check")]
    + [("spinstat", "WaveMatrixFamily.boundary_pair", "spinstat.boundary_pair"),
       ("conegeom", "poincare_act_path", "conegeom.poincare_act_path"),
       ("conegeom", "in_wedge_class", "conegeom.in_wedge_class"),
       ("conegeom", "causally_separated", "conegeom.causally_separated"),
       ("covergroup", "project", "covergroup.project"),
       ("covergroup", "compose", "covergroup.compose"),
       ("wigner", "wigner_angle", "wigner.wigner_angle"),
       ("wigner", "cocycle", "wigner.cocycle"),
       ("repn", "casimir_residual", "repn.casimir_residual"),
       ("minkowski", "boost1", "minkowski.boost1")]
)

# span -> child span: count the calls of the span that made no direct call
# of the child (_NO_CHILD) or more than one (_MANY_CHILDREN).
_NO_CHILD = {"holo.Walker.step_to": "holo.Walker.step_to",
             "spinstat.boundary_pair": "holo.continue_robust"}
_MANY_CHILDREN = {"holo.continue_robust": "holo.continue_along"}
_KEEP_DURATIONS = {"spinstat.run_pipeline"}


class Tracer:
    """Span stack and per-span-name aggregates for one traced process."""

    def __init__(self):
        self.stack = []
        self.active = Counter()
        self.calls = Counter()
        self.nested_calls = Counter()
        self.no_child = Counter()
        self.many_children = Counter()
        self.points = Counter()
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)

    def install(self, modules: dict):
        """Replace every SPANS attribute in the given {name: module} map."""
        for mod_name, attr, span in SPANS:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self._wrap(span, getattr(owner, leaf)))

    def _wrap(self, span, fn):
        counts_points = span == "holo.evaluate_along"

        def wrapper(*args, **kwargs):
            if counts_points:
                self.points[span] += len(args[1] if len(args) > 1 else kwargs["zs"])
            self._enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def _enter(self, span):
        if self.stack:
            self.stack[-1][3][span] += 1
        if self.active[span]:
            self.nested_calls[span] += 1
        self.active[span] += 1
        self.stack.append([span, time.perf_counter(), 0.0, Counter()])

    def _exit(self):
        end = time.perf_counter()
        span, start, child_s, kids = self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        self.active[span] -= 1
        self.calls[span] += 1
        self.self_s[span] += dur - child_s
        if not self.active[span]:
            self.incl_s[span] += dur
        if span in _NO_CHILD and not kids[_NO_CHILD[span]]:
            self.no_child[span] += 1
        if span in _MANY_CHILDREN and kids[_MANY_CHILDREN[span]] > 1:
            self.many_children[span] += 1
        if span in _KEEP_DURATIONS:
            self.durations[span].append(dur)

    def aggregates(self) -> dict:
        return {"calls": dict(self.calls), "nested_calls": dict(self.nested_calls),
                "no_child": dict(self.no_child), "many_children": dict(self.many_children),
                "points": dict(self.points), "incl_s": dict(self.incl_s),
                "self_s": dict(self.self_s), "durations": dict(self.durations)}


def _ratio(num, den):
    return num / den if den else 0.0


def _pipeline_median(a):
    d = a["durations"].get("spinstat.run_pipeline", [])
    return statistics.median(d) if d else 0.0


def _calls(span):
    return lambda a: a["calls"].get(span, 0)


def _incl(span):
    return lambda a: a["incl_s"].get(span, 0.0)


def _self(*spans):
    return lambda a: sum(a["self_s"].get(s, 0.0) for s in spans)


def _calls_and_time(prefix, span):
    return [(prefix + ".calls", "count", "lower", _calls(span)),
            (prefix + ".s", "s", "lower", _incl(span))]


# (metric name, unit, better, function of the aggregates).  Times are sums
# over the workload run of the outermost calls of a span, unless named self_s.
LAYER_METRICS = (
    [("holo.walker_steps", "count", "lower", _calls("holo.Walker.step_to")),
     ("holo.walker_accept_ratio", "ratio", "higher",
      lambda a: _ratio(a["no_child"].get("holo.Walker.step_to", 0),
                       a["calls"].get("holo.Walker.step_to", 0))),
     ("holo.walker_self_s", "s", "lower", _self("holo.Walker", "holo.Walker.step_to"))]
    + _calls_and_time("holo.continue_robust", "holo.continue_robust")
    + [("holo.detours", "count", "lower",
        lambda a: a["many_children"].get("holo.continue_robust", 0))]
    + _calls_and_time("holo.evaluate_along", "holo.evaluate_along")
    + [("holo.evaluate_along.points", "count", "lower",
        lambda a: a["points"].get("holo.evaluate_along", 0)),
       ("holo.ode_continue.self_s", "s", "lower", _self("holo.ode_continue")),
       ("holo.ode_shifts", "count", "lower",
        lambda a: a["nested_calls"].get("holo.ode_continue", 0))]
    + _calls_and_time("holo.morera_residual", "holo.morera_residual")
    + _calls_and_time("holo.eval_principal", "holo.eval_principal")
    + [("holo.build.calls", "count", "lower", _calls("holo.build")),
       ("holo.build_s", "s", "lower", _incl("holo.build")),
       ("spinstat.run_pipeline.calls", "count", "lower", _calls("spinstat.run_pipeline")),
       ("spinstat.run_pipeline.s", "s", "lower", _pipeline_median),
       ("spinstat.extract_D.s", "s", "lower", _incl("spinstat.extract_D")),
       ("spinstat.ode_vs_engine.calls", "count", "lower", _calls("spinstat.ode_vs_engine")),
       ("spinstat.ode_vs_engine.s", "s", "lower", _incl("spinstat.ode_vs_engine")),
       ("spinstat.verify_transformation_law.s", "s", "lower",
        _incl("spinstat.verify_transformation_law")),
       ("spinstat.rotation_pi_relation.s", "s", "lower", _incl("spinstat.rotation_pi_relation")),
       ("spinstat.two_point_boundary_check.s", "s", "lower",
        _incl("spinstat.two_point_boundary_check")),
       ("spinstat.boundary_pair.calls", "count", "lower", _calls("spinstat.boundary_pair")),
       ("spinstat.boundary_pair.hit_ratio", "ratio", "higher",
        lambda a: _ratio(a["no_child"].get("spinstat.boundary_pair", 0),
                         a["calls"].get("spinstat.boundary_pair", 0)))]
    + _calls_and_time("conegeom.poincare_act_path", "conegeom.poincare_act_path")
    + _calls_and_time("conegeom.in_wedge_class", "conegeom.in_wedge_class")
    + _calls_and_time("conegeom.causally_separated", "conegeom.causally_separated")
    + [("covergroup.project.calls", "count", "lower", _calls("covergroup.project")),
       ("covergroup.project.self_s", "s", "lower", _self("covergroup.project")),
       ("covergroup.compose.calls", "count", "lower", _calls("covergroup.compose")),
       ("covergroup.compose.self_s", "s", "lower", _self("covergroup.compose"))]
    + _calls_and_time("wigner.wigner_angle", "wigner.wigner_angle")
    + _calls_and_time("wigner.cocycle", "wigner.cocycle")
    + _calls_and_time("repn.casimir_residual", "repn.casimir_residual")
    + [("minkowski.boost1.calls", "count", "lower", _calls("minkowski.boost1"))]
)


def layer_values(aggregates: dict) -> dict:
    return {name: fn(aggregates) for name, _, _, fn in LAYER_METRICS}
