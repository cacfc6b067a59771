"""MLE fits, KL divergence and profit summaries."""
import math

import numpy as np
import pytest

from sliceq.core import demo_scenario, enumerate_regions, naive_strategy
from sliceq.engine import SimConfig, run_replication
from sliceq.errors import InvalidInputError
from sliceq.fitting import (
    fit_exponential,
    fit_geometric,
    fit_success,
    floor_binned,
    kld_vs_geometric,
    profit_summary,
)
from sliceq.tenants import KnowledgeRegime

from helpers import issued_tallies

DEMO = demo_scenario()
DEMO_REGION = enumerate_regions(DEMO)


def test_fit_geometric_degenerate_all_zero():
    fit = fit_geometric([0] * 50)
    assert fit.parameter == 1.0
    assert fit.degenerate
    assert not fit.converged


def test_fit_geometric_closed_form():
    fit = fit_geometric([0, 2, 1, 1])  # mean 1
    assert fit.parameter == pytest.approx(0.5)
    assert fit.converged is False  # fewer than the minimum samples
    fit = fit_geometric([1] * 20)
    assert fit.parameter == pytest.approx(0.5)
    assert fit.converged


def test_fit_geometric_consistency():
    rng = np.random.default_rng(0)
    samples = rng.geometric(0.3, size=100_000) - 1  # shift to support {0,1,...}
    fit = fit_geometric(samples)
    assert fit.parameter == pytest.approx(0.3, abs=0.005)
    assert fit.kld < 1e-3
    assert fit_success(fit)


def test_fit_geometric_empty_and_negative():
    with pytest.raises(InvalidInputError):
        fit_geometric([])
    with pytest.raises(InvalidInputError):
        fit_geometric([1, -2])
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            fit_geometric([1, bad])


def test_kld_identical_is_zero():
    p_hat = 0.4
    counts = [int(1e9 * (1 - p_hat) ** k * p_hat) for k in range(40)]
    assert kld_vs_geometric(counts, p_hat) == pytest.approx(0.0, abs=1e-6)


def test_kld_point_mass():
    assert kld_vs_geometric([4], 0.5) == pytest.approx(math.log(2.0))


def test_kld_nonnegative_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        samples = rng.integers(0, 10, size=rng.integers(2, 80))
        counts = np.bincount(samples).tolist()
        p_hat = float(rng.uniform(0.05, 1.0))
        assert kld_vs_geometric(counts, p_hat) >= -1e-12


def test_kld_invariant_to_trailing_zero_support():
    samples = [0, 1, 2, 1, 0, 3]
    fit = fit_geometric(samples)
    padded = np.bincount(samples).tolist() + [0, 0, 0]
    assert kld_vs_geometric(padded, fit.parameter) == pytest.approx(fit.kld)


def test_success_gate_calibration():
    # true geometric samples of moderate size should almost always pass
    rng = np.random.default_rng(7)
    passes = 0
    trials = 1000
    for _ in range(trials):
        samples = rng.geometric(0.35, size=100) - 1
        passes += fit_success(fit_geometric(samples))
    assert passes / trials >= 0.99


def test_fit_exponential_consistency():
    rng = np.random.default_rng(1)
    samples = rng.exponential(0.5, size=100_000)
    fit = fit_exponential(samples)
    assert fit.parameter == pytest.approx(2.0, abs=0.02)
    assert fit.tail_diagnostic == pytest.approx(1.0, abs=0.05)


def test_fit_exponential_constant_samples():
    fit = fit_exponential([2.0] * 50)
    assert fit.tail_diagnostic < 1.0  # no tail at all


def test_fit_exponential_fat_tail_flagged():
    rng = np.random.default_rng(3)
    samples = rng.lognormal(mean=0.0, sigma=1.5, size=100_000)
    fit = fit_exponential(samples)
    assert fit.tail_diagnostic > 1.5


def test_fit_exponential_validation():
    with pytest.raises(InvalidInputError):
        fit_exponential([])
    with pytest.raises(InvalidInputError):
        fit_exponential([1.0, 0.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            fit_exponential([1.0, bad])


@pytest.mark.parametrize("fit", [fit_geometric, fit_exponential])
def test_fits_read_lists_and_arrays_alike(fit):
    # a list, an integer array and a float array of the same gaps fit alike,
    # and as their element-by-element copy does
    gaps = np.floor(np.random.default_rng(4).exponential(3.0, 4300)).astype(int) + 1
    expected = fit(np.asarray(list(gaps), dtype=float))
    for samples in (gaps.tolist(), gaps, gaps.astype(float)):
        assert fit(samples) == expected
    for bad in ([], [1.0], [1.0, -1.0], [1.0, math.nan], np.array([1.0, math.inf])):
        with pytest.raises(InvalidInputError):
            fit(bad)


def test_floor_binned():
    assert list(floor_binned([0.2, 1.7, 2.0, 5.9])) == [0, 1, 2, 5]
    with pytest.raises(InvalidInputError):
        floor_binned([-0.1])


def test_profit_summary_basic():
    # type 1 issued an accepted request worth 10 and a reneged one losing 2
    table = profit_summary([2, 1], [8.0, 5.0], [1, 1])
    assert table[1] == {"n_issued": 2, "total_profit": 8.0, "mean_profit": 4.0,
                        "profiting_chance": 0.5}
    assert table[2]["profiting_chance"] == 1.0


def test_profit_summary_empty_flag():
    table = profit_summary([0, 1], [0.0, 5.0], [0, 1])
    assert table[1]["total_profit"] == 0.0
    assert table[1]["n_issued"] == 0
    assert table[1]["mean_profit"] == table[1]["profiting_chance"] == 0.0


def _run(seed, **kwargs):
    cfg = SimConfig(horizon=60.0, master_seed=seed, initial_state="random_full", **kwargs)
    return run_replication(DEMO, naive_strategy(DEMO_REGION, [2, 1, 0]), cfg, region=DEMO_REGION)


def test_profit_summary_linearity():
    # tallies pool by addition: the pooled summary totals what the runs total,
    # and what a scan of the runs' records together gives
    runs = [_run(seed, knowledge=KnowledgeRegime("blind", risk_factor=0.1)) for seed in (1, 2)]
    pooled = [[a + b for a, b in zip(*tally)]
              for tally in zip(*((m.n_issued, m.profit, m.profiting) for m in runs))]
    scan = issued_tallies(runs[0].records + runs[1].records, 2)
    for t in (1, 2):
        whole = profit_summary(*pooled)[t]
        split = [profit_summary(m.n_issued, m.profit, m.profiting)[t] for m in runs]
        assert whole["total_profit"] == pytest.approx(sum(s["total_profit"] for s in split))
        assert whole["total_profit"] == pytest.approx(scan[1][t - 1])
        assert whole["n_issued"] == sum(s["n_issued"] for s in split) == scan[0][t - 1]


def test_profit_summary_excludes_waiting():
    # balked, capacity-rejected and still-waiting requests never issued: a run
    # with all three tallies what a scan of its issued records gives
    m = _run(3, knowledge=KnowledgeRegime("avg_wait"), queue_cap=20)
    assert {"balked", "cap_rejected", "waiting"} <= {r.disposition for r in m.records}
    n_issued, profit, profiting, _ = issued_tallies(m.records, 2)
    assert m.n_issued == n_issued
    assert profit_summary(m.n_issued, m.profit, m.profiting) \
        == profit_summary(n_issued, profit, profiting)
