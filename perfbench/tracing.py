"""Spans around the public functions of each hubloc layer.

The benchmark traces hubloc from the outside: :meth:`Tracer.install`
rebinds every module attribute (and every ``CLAIM_CHECKS`` entry) that
holds a traced function to a wrapper that records a span, and
:meth:`Tracer.uninstall` puts the originals back.  Nothing under ``src/``
changes, so the untraced passes run exactly the shipped code.

Code that should be traced must call hubloc through module attributes
(``milp.solve_milp(...)``), never through a name imported before
``install``.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, public functions, span name).  Builders share one span name so
# that model construction shows as one layer.
LAYERS = (
    ("cli", ("run",), "cli.run"),
    ("claims", ("check_theorem1", "check_eq20_redundancy",
                "check_tk_never_one", "check_i_redundancy",
                "check_cc_nc_consistency"), "claims.check"),
    ("regret", ("solve_ccu", "solve_ocu"), "regret.solve"),
    ("regret", ("compute_baselines",), "regret.compute_baselines"),
    ("regret", ("evaluate_design",), "regret.evaluate_design"),
    ("formulations", ("build_nc", "build_cc", "build_ccu", "build_ocu",
                      "build_scenario_deterministic",
                      "build_coupling_polytope"), "formulations.build"),
    ("model", ("check_feasibility",), "model.check_feasibility"),
    ("milp", ("solve_milp",), "milp.solve_milp"),
    ("milp", ("solve_by_enumeration",), "milp.solve_by_enumeration"),
    ("simplex", ("solve_lp",), "simplex.solve_lp"),
    ("simplex", ("verify_certificate",), "simplex.verify_certificate"),
)

MODULES = ("hubloc", "hubloc.cli", "hubloc.claims", "hubloc.regret",
           "hubloc.formulations", "hubloc.model", "hubloc.milp",
           "hubloc.simplex")

# The span that called an LP solve decides its tag.
LP_TAGS = {"milp.solve_milp": "bnb", "milp.solve_by_enumeration": "enum",
           "claims.check": "probe"}

# LP counters reported per tag: the ones an optimization of that kind of
# LP work is expected to move.
LP_METRICS = {
    "bnb": ("calls", "s", "pivots", "pivots_per_lp", "us_per_pivot",
            "ms_per_lp", "infeasible_frac"),
    "enum": ("calls", "ms_per_lp", "pivots_per_lp"),
    "probe": ("calls", "s", "pivots_per_lp"),
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "item", "attrs")

    def __init__(self, id, name, start, parent, item):
        self.id, self.name, self.start = id, name, start
        self.parent, self.item = parent, item
        self.end = None
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


def model_key(model):
    """Identity of a model's contents (variables, objective, rows)."""
    return hash((tuple(model.variables), tuple(model.objective),
                 tuple(model.constraints)))


class Tracer:
    """Records one span per call into a traced hubloc function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, object, object]] = []
        self._t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, time.perf_counter() - self._t0,
                        parent.id if parent else None, self.item)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter() - self._t0
                self._stack.pop()
            self._annotate(span, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _annotate(self, span, args, kwargs, result):
        """Counters taken where the work happens, after the span closed."""
        if span.name == "simplex.solve_lp":
            tag = next((LP_TAGS[s.name] for s in reversed(self._stack)
                        if s.name in LP_TAGS), "other")
            span.attrs.update(tag=tag, pivots=result.iterations,
                              status=result.status)
        elif span.name == "milp.solve_milp":
            model = args[0] if args else kwargs["model"]
            span.attrs.update(nodes=result.nodes_explored,
                              model=model_key(model))
        elif span.name == "formulations.build":
            span.attrs.update(rows=len(result.constraints),
                              cols=result.num_variables)

    # -- patching ------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers = {}
        for mod, funcs, span in LAYERS:
            owner = importlib.import_module(f"hubloc.{mod}")
            for f in funcs:
                original = getattr(owner, f)
                wrappers[id(original)] = self._wrap(span, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        checks = importlib.import_module("hubloc.claims").CLAIM_CHECKS
        for key, value in list(checks.items()):
            if id(value) in wrappers:
                self._patched.append((checks, key, value))
                checks[key] = wrappers[id(value)]

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.id, "name": s.name,
                                    "start": s.start, "end": s.end,
                                    "parent": s.parent, "item": s.item,
                                    **{k: v for k, v in s.attrs.items()
                                       if k != "model"}}) + "\n")


def self_times(spans):
    """Span duration minus the part its child spans cover.

    The traced code is single-threaded, so children of one span never
    overlap and their cover is the sum of their durations.
    """
    cover = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            cover[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, cover)]


def layer_summary(spans):
    """Per span name: calls, total seconds and self seconds."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, item_seconds):
    """The per-layer metrics, named as in BENCHMARK.json.

    ``item_seconds`` is the summed wall time of the traced items, the base
    of ``simplex.solve_lp.share``.
    """
    summary = layer_summary(spans)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    m = {}
    lps = [s for s in spans if s.name == "simplex.solve_lp"]
    for tag, names in LP_METRICS.items():
        mine = [s for s in lps if s.attrs["tag"] == tag]
        secs = sum(s.duration for s in mine)
        pivots = sum(s.attrs["pivots"] for s in mine)
        infeasible = sum(s.attrs["status"] == "infeasible" for s in mine)
        values = {
            "calls": len(mine), "s": secs, "pivots": pivots,
            "pivots_per_lp": _ratio(pivots, len(mine)),
            "ms_per_lp": 1e3 * _ratio(secs, len(mine)),
            "us_per_pivot": 1e6 * _ratio(secs, pivots),
            "infeasible_frac": _ratio(infeasible, len(mine)),
        }
        for name in names:
            m[f"simplex.solve_lp.{tag}.{name}"] = values[name]
    m["simplex.solve_lp.share"] = _ratio(total("simplex.solve_lp"),
                                         item_seconds)
    m["simplex.verify_certificate.calls"] = calls("simplex.verify_certificate")
    m["simplex.verify_certificate.s"] = total("simplex.verify_certificate")

    milps = [s for s in spans if s.name == "milp.solve_milp"]
    distinct = len({(s.item, s.attrs["model"]) for s in milps})
    nodes = sum(s.attrs["nodes"] for s in milps)
    m["milp.solve_milp.calls"] = len(milps)
    m["milp.solve_milp.distinct"] = distinct
    m["milp.solve_milp.distinct_frac"] = _ratio(distinct, len(milps))
    m["milp.solve_milp.self_s"] = own("milp.solve_milp")
    m["milp.nodes"] = nodes
    m["milp.nodes_per_solve"] = _ratio(nodes, len(milps))
    enum_ids = {s.id for s in spans if s.name == "milp.solve_by_enumeration"}
    m["milp.solve_by_enumeration.calls"] = len(enum_ids)
    m["milp.solve_by_enumeration.lps"] = sum(s.parent in enum_ids for s in lps)
    m["milp.solve_by_enumeration.self_s"] = own("milp.solve_by_enumeration")

    builds = [s for s in spans if s.name == "formulations.build"]
    m["formulations.build.calls"] = len(builds)
    m["formulations.build.s"] = total("formulations.build")
    m["formulations.rows_max"] = max((s.attrs["rows"] for s in builds),
                                     default=0)
    m["formulations.cols_max"] = max((s.attrs["cols"] for s in builds),
                                     default=0)
    for name in ("model.check_feasibility", "regret.evaluate_design"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    m["regret.compute_baselines.calls"] = calls("regret.compute_baselines")
    for name in ("claims.check", "cli.run"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = own(name)
    return m
