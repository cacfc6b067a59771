"""Simulator behavior: determinism, conservation, flow balance, regime hooks
and agreement between the isolated queue and its stationary law."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceq.core import (
    Scenario,
    SliceType,
    demo_scenario,
    enumerate_regions,
    naive_strategy,
    random_strategy,
    tiny_scenario,
)
from sliceq import engine
from sliceq.engine import (
    SimConfig,
    greedy_single_queue_baseline,
    isolated_queue_sim,
    run_monte_carlo,
    run_replication,
    substream,
    summarize_run,
)
from sliceq.errors import InvalidInputError
from sliceq.queueing import QueueParams, impatient_pmf
from sliceq.tenants import KnowledgeRegime, expected_wait

from helpers import tv_from_dict

DEMO = demo_scenario()
DEMO_REGION = enumerate_regions(DEMO)


def _single_type_scenario(lam=20.0, eta=1.0):
    return Scenario(
        resources=(1.0,),
        slice_types=(SliceType(cost=(1.0,), arrival_rate=lam, release_rate=eta,
                               waiting_cost_rate=1.0, profit_rate=5.0),),
    )


def test_no_arrivals_when_rate_tiny():
    sc = Scenario(
        resources=(1.0,),
        slice_types=(SliceType(cost=(0.5,), arrival_rate=1e-9, release_rate=1.0,
                               profit_rate=1.0),),
    )
    region = enumerate_regions(sc)
    cfg = SimConfig(horizon=10.0, master_seed=0, queue_cap=None)
    m = run_replication(sc, naive_strategy(region, [1, 0]), cfg, region=region)
    assert sum(m.arrivals) == 0
    assert m.conservation_ok()
    assert m.occupancy == {(0,): pytest.approx(10.0)}


def test_determinism_bitwise():
    strat = naive_strategy(DEMO_REGION, [2, 1, 0])
    cfg = SimConfig(horizon=60.0, master_seed=5, queue_cap=100,
                    knowledge=KnowledgeRegime("full"), initial_state="random_full")
    a = run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION)
    b = run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION)
    assert a.acceptance_times == b.acceptance_times
    assert [(r.request_id, r.disposition, r.wait, r.end_profit) for r in a.records] \
        == [(r.request_id, r.disposition, r.wait, r.end_profit) for r in b.records]
    assert a.occupancy == b.occupancy


def test_event_log_trace_schema_and_determinism():
    strat = naive_strategy(DEMO_REGION, [1, 2, 0])
    cfg = SimConfig(horizon=20.0, master_seed=3, queue_cap=5,
                    knowledge=KnowledgeRegime("blind", risk_factor=0.05))
    logs = []
    for _ in range(2):
        events = []
        run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION,
                        trace=events.append)
        logs.append(events)
    assert logs[0] == logs[1]
    kinds = {e["kind"] for e in logs[0]}
    assert kinds <= {"request", "accept", "release", "balk", "renege", "cap_reject"}
    assert {"request", "accept", "release"} <= kinds
    for e in logs[0][:50]:
        assert set(e) == {"time", "kind", "slice_type", "request_id",
                          "queue_lengths", "state"}


def test_conservation_across_regimes():
    strat = naive_strategy(DEMO_REGION, [2, 1, 0])
    for kind, kwargs in [("patient", {}), ("blind", {"risk_factor": 0.1}),
                         ("position", {}), ("avg_wait", {}),
                         ("serving_rate", {}), ("full", {})]:
        cfg = SimConfig(horizon=80.0, master_seed=2, queue_cap=50,
                        knowledge=KnowledgeRegime(kind, **kwargs),
                        initial_state="random_full")
        m = run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION)
        assert m.conservation_ok(), kind


def test_resource_safety():
    strat = naive_strategy(DEMO_REGION, [1, 2, 0])
    cfg = SimConfig(horizon=100.0, master_seed=7, queue_cap=100,
                    initial_state="random_full")
    m = run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION)
    for used, cap in zip(m.max_assigned, DEMO.resources):
        assert used <= cap + 1e-9


@pytest.mark.parametrize("kind", ["patient", "blind", "position", "avg_wait",
                                  "serving_rate", "full", "greedy_single"])
def test_max_assigned_is_the_largest_visited_load(kind):
    # with no warmup every state held for a positive time is an occupancy key
    strat = naive_strategy(DEMO_REGION, [2, 1, 0])
    regime = KnowledgeRegime("full" if kind == "greedy_single" else kind,
                             risk_factor=0.1)
    cfg = SimConfig(horizon=60.0, master_seed=11, warmup_fraction=0.0,
                    knowledge=regime, initial_state="random_feasible")
    if kind == "greedy_single":
        m = greedy_single_queue_baseline(DEMO, cfg, region=DEMO_REGION)
    else:
        m = run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION)
    costs = DEMO.cost_matrix()
    loads = np.array([costs @ np.asarray(s, dtype=float) for s in m.occupancy])
    assert len(loads) > 1
    np.testing.assert_allclose(m.max_assigned, loads.max(axis=0), rtol=0, atol=1e-12)


def test_bottleneck_flow_balance():
    # single slice filling the whole pool: acceptance rate approaches the
    # release rate when arrivals dominate
    sc = _single_type_scenario(lam=20.0, eta=1.0)
    region = enumerate_regions(sc)
    cfg = SimConfig(horizon=3000.0, master_seed=1, queue_cap=10)
    m = run_replication(sc, naive_strategy(region, [1, 0]), cfg, region=region)
    rate = m.measured_acceptance_rates()[0]
    assert rate == pytest.approx(1.0, rel=0.05)


def test_work_conservation_single_type():
    # a request waits exactly when its bundle does not fit on arrival
    sc = _single_type_scenario(lam=0.8, eta=1.0)
    region = enumerate_regions(sc)
    cfg = SimConfig(horizon=500.0, master_seed=4, queue_cap=None)
    events = []
    m = run_replication(sc, naive_strategy(region, [1, 0]), cfg, region=region,
                        trace=events.append)
    state_on_arrival = {e["request_id"]: tuple(e["state"]) for e in events
                        if e["kind"] == "request"}
    checked = 0
    for rec in m.records:
        if rec.disposition not in ("accepted", "waiting"):
            continue
        pool_free = state_on_arrival[rec.request_id] == (0,)
        assert pool_free == (rec.wait == 0.0), rec
        checked += 1
    assert checked > 100


def test_initial_state_random_full_is_boundary():
    # a horizon too short for any event leaves only the initial state
    cfg = SimConfig(horizon=1e-9, master_seed=9, initial_state="random_full")
    strat = naive_strategy(DEMO_REGION, [1, 2, 0])
    boundary = set(DEMO_REGION.feasible[DEMO_REGION.n_admissible:])
    seen = set()
    for rep in range(12):
        m = run_replication(DEMO, strat, cfg, rep, region=DEMO_REGION)
        (state,) = m.occupancy
        assert state in boundary
        seen.add(state)
    assert len(seen) > 1


def test_still_waiting_records():
    sc = _single_type_scenario(lam=5.0, eta=0.01)
    region = enumerate_regions(sc)
    cfg = SimConfig(horizon=10.0, master_seed=2, queue_cap=None)
    m = run_replication(sc, naive_strategy(region, [1, 0]), cfg, region=region)
    waiting = [r for r in m.records if r.disposition == "waiting"]
    assert len(waiting) == m.still_waiting[0]
    assert all(r.end_profit is None for r in waiting)
    assert m.conservation_ok()


def test_single_type_greedy_equals_multi_queue():
    sc = _single_type_scenario(lam=3.0, eta=0.5)
    region = enumerate_regions(sc)
    cfg = SimConfig(horizon=200.0, master_seed=11, queue_cap=50)
    multi = run_replication(sc, naive_strategy(region, [1, 0]), cfg, region=region)
    single = greedy_single_queue_baseline(sc, cfg, region=region)
    assert multi.acceptance_times == single.acceptance_times
    assert [(r.request_id, r.disposition) for r in multi.records] \
        == [(r.request_id, r.disposition) for r in single.records]


def test_greedy_single_queue_head_blocks():
    # big request at the head blocks small ones that would fit
    sc = tiny_scenario()
    region = enumerate_regions(sc)
    cfg = SimConfig(horizon=120.0, master_seed=13, queue_cap=100)
    multi = run_replication(sc, naive_strategy(region, [2, 1, 0]), cfg,
                            region=region)
    single = greedy_single_queue_baseline(sc, cfg, region=region)
    # the multi-queue controller never serves fewer small slices
    assert multi.acceptances[1] >= single.acceptances[1]
    assert single.conservation_ok()


def test_blind_zero_budget_reneges_unless_served_at_once():
    cfg = SimConfig(horizon=30.0, master_seed=17, queue_cap=100,
                    knowledge=KnowledgeRegime("blind", risk_factor=0.0),
                    initial_state="random_full")
    strat = naive_strategy(DEMO_REGION, [1, 2, 0])
    m = run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION)
    for rec in m.records:
        if rec.disposition == "reneged":
            assert rec.wait == pytest.approx(0.0, abs=1e-12)
        if rec.disposition == "accepted":
            assert rec.wait == pytest.approx(0.0, abs=1e-12)
    assert m.still_waiting == [0, 0]
    assert sum(m.reneges) > 0


def test_monte_carlo_shapes_and_aggregate():
    strat = naive_strategy(DEMO_REGION, [1, 2, 0])
    cfg = SimConfig(horizon=20.0, replications=25, master_seed=3, queue_cap=20)
    mc = run_monte_carlo(DEMO, strat, cfg, region=DEMO_REGION)
    assert mc.n == 25
    assert len(mc.rows) == 25
    mean, se = mc.aggregate["u_sigma"]
    assert se > 0
    vals = [row["u_sigma"] for row in mc.rows]
    assert mean == pytest.approx(np.mean(vals))


def test_monte_carlo_replications_differ_and_derive_from_master_seed():
    strat = naive_strategy(DEMO_REGION, [1, 2, 0])
    cfg = SimConfig(horizon=15.0, replications=3, master_seed=8, queue_cap=20)
    mc1 = run_monte_carlo(DEMO, strat, cfg, region=DEMO_REGION)
    mc2 = run_monte_carlo(DEMO, strat, cfg, region=DEMO_REGION)
    assert [r["u_sigma"] for r in mc1.rows] == [r["u_sigma"] for r in mc2.rows]
    assert len({r["u_sigma"] for r in mc1.rows}) == 3


def test_monte_carlo_worker_pool_matches_serial(monkeypatch):
    strat = naive_strategy(DEMO_REGION, [1, 2, 0])
    cfg = SimConfig(horizon=10.0, replications=2, master_seed=6, queue_cap=20)
    serial = run_monte_carlo(DEMO, strat, cfg, region=DEMO_REGION)
    assert run_monte_carlo(DEMO, strat, cfg, threads=2).rows == serial.rows

    # the workers must use the region they are given; forked workers inherit
    # this patch, so enumerating the region again fails the run
    def refuse(scenario):
        raise AssertionError("worker enumerated the region again")

    monkeypatch.setattr(engine, "enumerate_regions", refuse)
    pooled = run_monte_carlo(DEMO, strat, cfg, threads=2, region=DEMO_REGION)
    assert pooled.rows == serial.rows


def test_standard_error_scales_with_replications():
    strat = naive_strategy(DEMO_REGION, [1, 2, 0])
    base = dict(horizon=20.0, master_seed=5, queue_cap=20)
    se25 = run_monte_carlo(DEMO, strat, SimConfig(replications=25, **base),
                           region=DEMO_REGION).aggregate["total_profit"][1]
    se100 = run_monte_carlo(DEMO, strat, SimConfig(replications=100, **base),
                            region=DEMO_REGION).aggregate["total_profit"][1]
    ratio = se100 / se25
    assert 0.5 * 0.7 < ratio < 1.3 * 0.7


def test_summarize_run_keys():
    strat = naive_strategy(DEMO_REGION, [1, 2, 0])
    cfg = SimConfig(horizon=10.0, master_seed=1, queue_cap=20)
    m = run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION)
    row = summarize_run(m, DEMO)
    for key in ("u_sigma", "admission_rate", "mean_wait_joined",
                "total_profit_1", "mean_profit_2", "profiting_chance_1",
                "total_profit", "mean_profit"):
        assert key in row


def test_strategy_scenario_mismatch_rejected():
    strat = naive_strategy(enumerate_regions(tiny_scenario()), [1, 2, 0])
    cfg = SimConfig(horizon=5.0, master_seed=0)
    with pytest.raises(InvalidInputError):
        run_replication(DEMO, strat, cfg)


# -- isolated queue -----------------------------------------------------------

def test_isolated_patient_geometric_occupancy_and_little():
    params = QueueParams(1.0, 2.0)
    m = isolated_queue_sim(params, horizon=4e5, seed=3)
    geo = 0.5 * 0.5 ** np.arange(60)
    assert tv_from_dict(m.occupancy_pmf(), geo) <= 0.01
    mean_len = m.state_mean()[0]
    waits = [r.wait for r in m.records if r.disposition == "accepted"]
    lam_eff = m.joined[0] / m.horizon
    assert abs(mean_len - lam_eff * np.mean(waits)) / mean_len <= 0.05


def test_isolated_impatient_occupancy_matches_pmf():
    params = QueueParams(1.0, 1.0, 1.0, 0.5)
    m = isolated_queue_sim(params, horizon=3e5, seed=7, collect_records=False)
    assert tv_from_dict(m.occupancy_pmf(), impatient_pmf(params)) <= 0.02


def test_isolated_empty_prob_closed_form():
    params = QueueParams(1.0, 1.0, 1.0, 0.0)
    m = isolated_queue_sim(params, horizon=3e5, seed=11, collect_records=False)
    assert m.occupancy_pmf()[(0,)] == pytest.approx(1.0 / (math.e - 1.0), abs=0.01)


def test_isolated_extreme_balking():
    params = QueueParams(1.0, 1.0, 0.0, 1000.0)
    m = isolated_queue_sim(params, horizon=5e3, seed=1, collect_records=False)
    # every arrival balks (the joining factor underflows to zero even for
    # an empty queue, since the arrival counts itself)
    assert m.joined[0] == 0
    assert m.balks[0] == m.arrivals[0]


def test_isolated_conservation_and_determinism():
    params = QueueParams(1.0, 1.0, 0.7, 0.3)
    a = isolated_queue_sim(params, horizon=2e3, seed=5)
    b = isolated_queue_sim(params, horizon=2e3, seed=5)
    assert a.conservation_ok()
    assert a.occupancy == b.occupancy
    assert [(r.request_id, r.disposition) for r in a.records] \
        == [(r.request_id, r.disposition) for r in b.records]


def test_substreams_independent_of_extra_draws():
    # drawing from one purpose stream never shifts another
    a1 = substream(1, 0, 10).exponential(1.0, size=5)
    _ = substream(1, 0, 40).exponential(1.0, size=100)
    a2 = substream(1, 0, 10).exponential(1.0, size=5)
    assert np.array_equal(a1, a2)


def _stats_with(lengths, renege_positions):
    stats = engine._QueueStats()
    for dt, length in lengths:
        stats.elapse(dt, length)
    for pos in renege_positions:
        stats.note_renege(pos)
    return stats


@pytest.mark.parametrize("renege_range", [(0, engine.MIN_SERVICE_OBSERVATIONS - 1),
                                          (engine.MIN_SERVICE_OBSERVATIONS, 60)])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_expected_wait_vector_equals_loop_reference(renege_range, data):
    # below the gate the renege rates are published as zero; at or above it
    # they come from the counts, and the vector must still equal the loop
    lengths = data.draw(st.lists(
        st.tuples(st.floats(0.001, 50.0), st.integers(0, 40)), max_size=30))
    positions = data.draw(st.lists(st.integers(1, 45), min_size=renege_range[0],
                                   max_size=renege_range[1]))
    mu = data.draw(st.floats(0.01, 100.0))
    up_to = data.draw(st.integers(0, 50))
    stats = _stats_with(lengths, positions)
    omega = stats.renege_rates(up_to)
    assert (stats.renege_total >= engine.MIN_SERVICE_OBSERVATIONS) == (renege_range[0] > 0)
    ew = stats.expected_wait_vector(mu, up_to)
    assert len(ew) == up_to + 1
    for k in range(up_to + 1):
        assert ew[k] == expected_wait(k, mu, omega)


def test_renege_gate_open_run_is_pinned():
    # the only pinned full-knowledge run whose renege-rate gate opens: it
    # guards the omega != 0 path of the wait estimator
    rng = np.random.default_rng(5)
    strat = [random_strategy(DEMO_REGION, rng) for _ in range(3)][2]
    cfg = SimConfig(horizon=1000, master_seed=0, knowledge=KnowledgeRegime("full"),
                    initial_state="random_full")
    m = run_replication(DEMO, strat, cfg, 2, region=DEMO_REGION)
    assert m.reneges == [27, 0]
    assert len(m.records) == 15979
    h = hashlib.sha256()
    for r in m.records:
        h.update(repr((r.request_id, r.slice_type, r.enter_time, r.lifetime,
                       r.entry_queue_length, r.disposition, r.wait,
                       r.end_profit)).encode())
    assert h.hexdigest() == "cbb98ee938cb5b6bacfcb30e2c2b1f57f69a1701eea9aae440dbae25858b11b7"
