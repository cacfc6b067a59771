"""Experiment presets at miniature scales: schemas, manifests, determinism."""
import csv
import inspect
import json
import tracemalloc

import pytest

from sliceq import presets
from sliceq.core import Scenario, SliceType, demo_scenario, enumerate_regions, random_strategy
from sliceq.engine import SimConfig, run_replication, substream
from sliceq.errors import InvalidInputError
from sliceq.presets import (
    OutputDir,
    PRESETS,
    run_fig4_iat,
    run_fig5_reneging,
    run_fig6_search,
    run_preset,
    run_table3,
    scaled,
)


def test_scaled_floors_at_one():
    assert scaled(1000, 0.1) == 100
    assert scaled(10, 0.001) == 1
    assert scaled(25, 1.0) == 25


def test_output_dir_refuses_nonempty(tmp_path):
    target = tmp_path / "out"
    out = OutputDir.create(target, force=False)
    out.write_json("x.json", {"a": 1})
    with pytest.raises(InvalidInputError):
        OutputDir.create(target, force=False)
    OutputDir.create(target, force=True)


def test_table3_schema(tmp_path):
    sc = demo_scenario()
    out = OutputDir.create(tmp_path / "t3", force=False)
    summary = run_table3(sc, out, scale=1 / 1000, seed=2)
    out.finalize()
    with open(tmp_path / "t3" / "table3_summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    regimes = [r["regime"] for r in rows]
    assert regimes == ["patient", "blind_1", "blind_0.1", "blind_0.01",
                       "position", "avg_wait", "serving_rate", "full"]
    for col in ("total_profit_1", "mean_profit_1", "profiting_chance_1",
                "total_profit_2", "mean_profit_2", "profiting_chance_2"):
        assert col in rows[0]
    assert summary["n_strategies"] == 1


def _traced(fn):
    """(bytes still traced when ``fn`` returns while its result is held,
    peak traced bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
        del result
        return current, peak
    finally:
        tracemalloc.stop()


def test_table3_memory_does_not_grow_with_strategies(tmp_path, monkeypatch):
    # A strategy adds its own columns and CSV rows, tens of kB, and no
    # request. Holding every record of a regime would add one run's records
    # per strategy, less the run at n=1 that overlaps the previous regime's
    # last one: from 1 to 4 strategies, twice what a run's records hold.
    # Three more strategies must add less than that once.
    sc = demo_scenario()
    region = enumerate_regions(sc)
    horizon = 100.0
    monkeypatch.setattr(presets, "TABLE3_HORIZON", horizon)
    strat = random_strategy(region, substream(2, 0, 998))
    held = [_traced(lambda: run_replication(
        sc, strat, SimConfig(horizon=horizon, master_seed=2, collect_records=collect),
        0, region=region))[0] for collect in (True, False)]
    record_bytes = held[0] - held[1]
    assert record_bytes > 0
    peaks = [_traced(lambda: run_table3(sc, OutputDir.create(tmp_path / str(n), force=False),
                                        scale=n / 1000, seed=2))[1] for n in (1, 4)]
    assert peaks[1] - peaks[0] < record_bytes


def test_fig5_schema(tmp_path):
    sc = demo_scenario()
    out = OutputDir.create(tmp_path / "f5", force=False)
    run_fig5_reneging(sc, out, scale=2 / 1000, seed=4)
    out.finalize()
    with open(tmp_path / "f5" / "fig5_fits.csv") as fh:
        rows = list(csv.DictReader(fh))
    campaigns = {r["campaign"] for r in rows}
    assert campaigns == {"random", "prefer2"}
    hist = (tmp_path / "f5" / "fig5_histogram.csv").read_text()
    assert hist.startswith("campaign,queue,bin_lo,bin_hi,count")


def _csv_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))[1:]


def test_fig4_and_fig5_leave_a_queue_with_under_two_samples_unfitted(tmp_path):
    # type 2 arrives about once in 1e9 time units: its queue accepts and
    # reneges nobody, while type 1's queue fills and full tenants renege
    sc = Scenario(resources=(1.0,), slice_types=(
        SliceType(cost=(0.3,), arrival_rate=3.0, release_rate=0.5,
                  waiting_cost_rate=1.0, profit_rate=4.0),
        SliceType(cost=(0.1,), arrival_rate=1e-9, release_rate=0.5,
                  waiting_cost_rate=1.0, profit_rate=4.0)))
    out = OutputDir.create(tmp_path / "f4", force=False)
    summary = run_fig4_iat(sc, out, scale=1 / 1000, seed=3)
    rows = _csv_rows(tmp_path / "f4" / "fig4_iat_fits.csv")
    assert [r for r in rows if r[2] == "2"] == [
        ["patient", "0", "2", "0", "", "", "0"], ["impatient", "0", "2", "0", "", "", "0"]]
    assert all(r[4] and r[6] == "1" for r in rows if r[2] == "1")
    # an unfitted queue counts as a failed fit
    assert summary["patient_success_rate"] == summary["impatient_success_rate"] == 0.5

    out = OutputDir.create(tmp_path / "f5", force=False)
    summary = run_fig5_reneging(sc, out, scale=1 / 1000, seed=3)
    rows = _csv_rows(tmp_path / "f5" / "fig5_fits.csv")
    assert [r for r in rows if r[1] == "2"] == [["random", "2", "0", "", ""],
                                                ["prefer2", "2", "0", "", ""]]
    assert all(int(r[2]) >= 2 and r[3] for r in rows if r[1] == "1")
    assert {r[1] for r in _csv_rows(tmp_path / "f5" / "fig5_histogram.csv")} == {"1"}
    assert sorted(summary) == ["prefer2_tail_diag_1", "random_tail_diag_1"]


def test_fig6_schema_and_benchmarks(tmp_path):
    sc = demo_scenario()
    out = OutputDir.create(tmp_path / "f6", force=False)
    summary = run_fig6_search(sc, out, scale=3 / 10000, seed=5)
    out.finalize()
    with open(tmp_path / "f6" / "fig6_search.csv") as fh:
        rows = list(csv.DictReader(fh))
    kinds = [r["kind"] for r in rows]
    assert kinds.count("random") == 3
    for bench in ("prefer1", "prefer2", "greedy_single"):
        assert kinds.count(bench) == 1
    assert "best_random_u_sigma" in summary


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_preset_runner_takes_only_what_run_preset_passes(name):
    # so a campaign's size can only come from a value the manifest records
    params = inspect.signature(PRESETS[name]).parameters
    assert list(params) == ["scenario", "out", "scale", "seed", "progress"]
    assert [p.default for p in params.values()] == [inspect.Parameter.empty] * 4 + [None]


def test_manifest_contents(tmp_path):
    sc = demo_scenario()
    run_preset("regions", sc, tmp_path / "r", scale=1.0, seed=7)
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert manifest["preset"] == "regions"
    assert manifest["seed"] == 7
    assert manifest["scenario_fingerprint"] == sc.fingerprint()
    assert "regions.json" in manifest["outputs"]
    assert "package_version" in manifest


def test_unknown_preset_rejected(tmp_path):
    with pytest.raises(InvalidInputError):
        run_preset("fig9", demo_scenario(), tmp_path / "x", 1.0, 0)
