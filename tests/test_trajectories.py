"""The benchmark's contract with the package: its pinned runs still hash to
the digests kept in ``bench/digests.json``, and every name it reads exists."""
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_pinned_run_digests_match_bench_reference():
    # no bytecode is written, so the run leaves bench/ as it found it
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "bench/run.py", "--digests"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    reference = json.loads((ROOT / "bench" / "digests.json").read_text())
    assert json.loads(out.stdout) == reference


def test_every_name_the_benchmark_reads_resolves(monkeypatch):
    # the traced run swaps wrappers in for these names; one deleted from the
    # package would fail only there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    for module, attr, *_ in tracing.SPANS + tracing.LEAVES:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    from sliceq.markov import LongRunResult
    assert "iterations" in {f.name for f in dataclasses.fields(LongRunResult)}


def test_tracer_sees_the_controller_and_tenant_leaves(monkeypatch):
    # the event loop binds the names it calls once per run, after the tracer
    # has swapped its wrappers in; a loop that bound them at import, or took
    # serve_queues from the controller itself, would leave these totals zero
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    from sliceq import core, engine
    scenario = core.demo_scenario()
    region = core.enumerate_regions(scenario)
    strat = core.random_strategy(region, np.random.default_rng(0))
    for kind in workloads.REGIMES:
        cfg = workloads.Regimes.config(kind, 0, 100.0)
        tracer = tracing.Tracer()
        with tracer.installed():
            engine.run_replication(scenario, strat, cfg, 0, region=region)
        assert tracer.leaf_totals["controller"][0] > 0, kind
        assert tracer.leaf_totals["tenants"][0] > 0, kind


def test_tracer_sees_every_replication_of_a_search_and_a_bootstrap(monkeypatch):
    # markov reaches the engine through the module, so the tracer's wrappers
    # see each call; names imported from the engine once would bypass them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    from sliceq import core, engine, markov
    scenario = core.demo_scenario()
    region = core.enumerate_regions(scenario)
    replications, n_random = 3, 2
    cfg = engine.SimConfig(horizon=5.0, replications=replications, master_seed=1)
    tracer = tracing.Tracer()
    with tracer.installed():
        rows = markov.strategy_search(scenario, region, n_random, cfg)
        markov.analytic_evaluation(scenario, core.naive_strategy(region, [2, 1, 0]), region)
    spans = {s["id"]: s for s in tracer.spans}

    def named(name):
        return [s for s in tracer.spans if s["name"] == name]

    (search,) = named("markov.strategy_search")
    (bootstrap,) = named("markov.bootstrap")
    assert len(rows) == n_random + 3
    for name in ("engine.run_replication", "engine.summarize_run"):
        under_search = [s for s in named(name) if s["parent"] == search["id"]]
        assert len(under_search) == len(rows) * replications, name
    (boot_run,) = [s for s in named("engine.run_replication") if s["parent"] == bootstrap["id"]]
    assert spans[bootstrap["parent"]]["name"] == "markov.analytic_evaluation"
    assert boot_run["regime"] == "patient"
