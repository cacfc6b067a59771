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
