"""MLE fits, KL divergence and profit summaries."""
import math

import numpy as np
import pytest

from sliceq.engine import RequestRecord
from sliceq.errors import InvalidInputError
from sliceq.fitting import (
    EmpiricalPMF,
    fit_exponential,
    fit_geometric,
    fit_success,
    floor_binned,
    kld_vs_geometric,
    profit_summary,
)


def _record(slice_type, disposition, profit, rid=0):
    return RequestRecord(
        request_id=rid, slice_type=slice_type, enter_time=0.0, lifetime=1.0,
        entry_queue_length=1, disposition=disposition, wait=0.0,
        end_profit=profit,
    )


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


def test_kld_identical_is_zero():
    p_hat = 0.4
    counts = [int(1e9 * (1 - p_hat) ** k * p_hat) for k in range(40)]
    pmf = EmpiricalPMF(counts=tuple(counts), n=sum(counts))
    assert kld_vs_geometric(pmf, p_hat) == pytest.approx(0.0, abs=1e-6)


def test_kld_point_mass():
    pmf = EmpiricalPMF.from_samples([0, 0, 0, 0])
    assert kld_vs_geometric(pmf, 0.5) == pytest.approx(math.log(2.0))


def test_kld_nonnegative_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        samples = rng.integers(0, 10, size=rng.integers(2, 80))
        pmf = EmpiricalPMF.from_samples(samples)
        p_hat = float(rng.uniform(0.05, 1.0))
        assert kld_vs_geometric(pmf, p_hat) >= -1e-12


def test_kld_invariant_to_trailing_zero_support():
    samples = [0, 1, 2, 1, 0, 3]
    fit = fit_geometric(samples)
    padded = EmpiricalPMF(counts=EmpiricalPMF.from_samples(samples).counts + (0, 0, 0),
                          n=len(samples))
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


def test_floor_binned():
    assert list(floor_binned([0.2, 1.7, 2.0, 5.9])) == [0, 1, 2, 5]
    with pytest.raises(InvalidInputError):
        floor_binned([-0.1])


def test_profit_summary_basic():
    records = [
        _record(1, "accepted", 10.0),
        _record(1, "reneged", -2.0),
        _record(1, "balked", None),
        _record(1, "cap_rejected", None),
        _record(2, "accepted", 5.0),
    ]
    table = profit_summary(records, 2)
    assert table[1]["total_profit"] == pytest.approx(8.0)
    assert table[1]["mean_profit"] == pytest.approx(4.0)
    assert table[1]["profiting_chance"] == pytest.approx(0.5)
    assert table[1]["n_issued"] == 2
    assert table[2]["profiting_chance"] == 1.0


def test_profit_summary_empty_flag():
    table = profit_summary([_record(2, "accepted", 5.0)], 2)
    assert table[1]["empty"]
    assert table[1]["total_profit"] == 0.0
    assert table[1]["n_issued"] == 0
    assert not table[2]["empty"]


def test_profit_summary_linearity():
    rng = np.random.default_rng(4)
    records = [_record(1, "accepted", float(rng.normal()), rid=i)
               for i in range(100)]
    whole = profit_summary(records, 1)[1]["total_profit"]
    split = (profit_summary(records[:37], 1)[1]["total_profit"]
             + profit_summary(records[37:], 1)[1]["total_profit"])
    assert whole == pytest.approx(split)


def test_profit_summary_excludes_waiting():
    records = [_record(1, "accepted", 3.0), _record(1, "waiting", None)]
    assert profit_summary(records, 1)[1]["n_issued"] == 1
