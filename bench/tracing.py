"""Span recording at sliceq's layer boundaries, for the traced benchmark run.

The tracer replaces public functions with recording wrappers in the module
namespace their callers look them up in (``sliceq.engine.run_replication``
is what ``run_monte_carlo`` and the benchmark call, for example), and puts
the originals back afterwards. Calls that happen once per simulated event
(``serve_queues`` and the tenant rules) are leaves: their count and time are
added to the enclosing span rather than kept one record each, which keeps a
traced run's memory small. Spans stay in memory until the run writes them.
"""
from __future__ import annotations

import contextlib
import importlib
import itertools
from collections import defaultdict
from time import perf_counter

from workloads import REGIMES, events

TENANT_RULES = ("balk_decision", "end_profit", "renege_avg_wait", "renege_blind",
                "renege_position", "renege_serving_rate")


def _matrix_mb(mat) -> float:
    if hasattr(mat, "indptr"):
        nbytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    else:
        nbytes = mat.nbytes
    return nbytes / 2**20


def _config_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["config"]


# (module, attribute, span name, attributes read from (args, kwargs, result))
SPANS = (
    ("sliceq.core", "enumerate_regions", "core.enumerate_regions",
     lambda a, k, r: {"states": r.n_feasible}),
    ("sliceq.core", "random_strategy", "core.random_strategy", None),
    ("sliceq.markov", "random_strategy", "core.random_strategy", None),
    ("sliceq.engine", "run_replication", "engine.run_replication",
     lambda a, k, r: {"regime": _config_arg(a, k).knowledge.kind, "events": events(r)}),
    ("sliceq.engine", "summarize_run", "engine.summarize_run", None),
    ("sliceq.engine", "isolated_queue_sim", "engine.isolated_queue_sim",
     lambda a, k, r: {"events": events(r)}),
    ("sliceq.markov", "strategy_search", "markov.strategy_search", None),
    ("sliceq.markov", "analytic_evaluation", "markov.analytic_evaluation", None),
    ("sliceq.markov", "build_transition_matrix", "markov.build_transition_matrix",
     lambda a, k, r: {"mb": _matrix_mb(r)}),
    ("sliceq.markov", "long_run_distribution", "markov.long_run_distribution",
     lambda a, k, r: {"iterations": r.iterations}),
    ("sliceq.markov", "bootstrap_service_rates", "markov.bootstrap", None),
    ("sliceq.markov", "impatient_pmf", "queueing.impatient_pmf", None),
    ("sliceq.queueing", "impatient_pmf", "queueing.impatient_pmf", None),
    ("sliceq.queueing", "wait_densities", "queueing.wait_densities", None),
    ("sliceq.fitting", "fit_geometric", "fitting.fit_geometric", None),
)
LEAVES = (("sliceq.controller", "serve_queues", "controller"),) + tuple(
    ("sliceq.engine", rule, "tenants") for rule in TENANT_RULES
)


class Tracer:
    """Records spans while installed; ``spans`` holds one dict per call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.leaf_totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[dict] = []
        self._ids = itertools.count()

    def _span_wrapper(self, fn, name, attrs):
        spans, stack, ids = self.spans, self._stack, self._ids

        def wrapper(*args, **kwargs):
            span = {"id": next(ids), "name": name,
                    "parent": stack[-1]["id"] if stack else None, "leaf": {}}
            stack.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            spans.append(span)  # a call that raised leaves no span
            return result

        return wrapper

    def _leaf_wrapper(self, fn, layer):
        stack, total = self._stack, self.leaf_totals[layer]

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                total[0] += 1
                total[1] += dt
                if stack:
                    cell = stack[-1]["leaf"].setdefault(layer, [0, 0.0])
                    cell[0] += 1
                    cell[1] += dt

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap the recording wrappers in; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, name, attrs in SPANS:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._span_wrapper(getattr(mod, attr), name, attrs))
            for mod_name, attr, layer in LEAVES:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._leaf_wrapper(getattr(mod, attr), layer))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def layer_metrics(self, rounds: int, slowdown: float = 1.0) -> dict[str, float]:
        """Per-layer figures; totals are per traced round.

        Span times are divided by ``slowdown``, the measured over the
        normalized time of the traced work, so that they are in the same
        normalized seconds as the end-to-end figures. Only layers the traced
        calls reached appear in the result.
        """
        by_name: dict[str, list] = defaultdict(list)
        for s in self.spans:
            by_name[s["name"]].append(s)

        def dur(s):
            return (s["end"] - s["start"]) / slowdown

        def per_round(name):
            return sum(dur(s) for s in by_name[name]) / rounds

        out: dict[str, float] = {}
        if by_name["core.enumerate_regions"]:
            spans = by_name["core.enumerate_regions"]
            out["core.enumerate_regions.states_per_s"] = (
                sum(s["states"] for s in spans) / sum(dur(s) for s in spans))
        if by_name["core.random_strategy"]:
            spans = by_name["core.random_strategy"]
            out["core.random_strategy.s"] = sum(dur(s) for s in spans) / len(spans)
        for layer, label in (("controller", "controller.serve_queues"), ("tenants", "tenants")):
            calls, secs = self.leaf_totals.get(layer, (0, 0.0))
            if calls:
                out[f"{label}.calls"] = calls / rounds
                out[f"{label}.s"] = secs / slowdown / rounds
        reps = by_name["engine.run_replication"]
        if reps:
            self_s = sum(dur(s) - sum(c[1] for c in s["leaf"].values()) / slowdown
                         for s in reps)
            out["engine.self_s"] = self_s / rounds
            for regime in REGIMES:
                spans = [s for s in reps if s["regime"] == regime]
                if spans:
                    out[f"engine.events_per_s.{regime}"] = (
                        sum(s["events"] for s in spans) / sum(dur(s) for s in spans))
        if by_name["engine.summarize_run"]:
            out["engine.summarize_run.s"] = per_round("engine.summarize_run")
        if by_name["engine.isolated_queue_sim"]:
            spans = by_name["engine.isolated_queue_sim"]
            out["engine.isolated_queue_sim.events_per_s"] = (
                sum(s["events"] for s in spans) / sum(dur(s) for s in spans))
        for name, key in (("markov.analytic_evaluation", "markov.analytic_evaluation.s"),
                          ("markov.build_transition_matrix", "markov.build_transition_matrix.s"),
                          ("markov.long_run_distribution", "markov.long_run_distribution.s"),
                          ("markov.bootstrap", "markov.bootstrap.s"),
                          ("queueing.impatient_pmf", "queueing.impatient_pmf.s"),
                          ("queueing.wait_densities", "queueing.wait_densities.s"),
                          ("fitting.fit_geometric", "fitting.fit_geometric.s")):
            if by_name[name]:
                out[key] = per_round(name)
        if by_name["markov.long_run_distribution"]:
            spans = by_name["markov.long_run_distribution"]
            out["markov.iterations"] = sum(s["iterations"] for s in spans) / len(spans)
        if by_name["markov.build_transition_matrix"]:
            out["markov.matrix_mb"] = max(s["mb"] for s in by_name["markov.build_transition_matrix"])
        return out
