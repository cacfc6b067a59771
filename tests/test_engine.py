"""Simulator behavior: determinism, conservation, flow balance, regime hooks
and agreement between the isolated queue and its stationary law."""
import dataclasses
import gc
import hashlib
import heapq
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sliceq.controller import PendingRequest, serve_queues
from sliceq.core import (
    Scenario,
    SliceType,
    demo_scenario,
    enumerate_regions,
    naive_strategy,
    random_strategy,
    tiny_scenario,
)
from sliceq import engine, markov
from sliceq.engine import (
    TAG_ARRIVAL,
    TAG_BALK,
    TAG_LIFETIME,
    TAG_PATIENCE,
    TAG_SERVICE,
    SimConfig,
    isolated_queue_sim,
    run_replication,
    substream,
    summarize_run,
)
from sliceq.errors import InvalidInputError
from sliceq.presets import TABLE3_REGIMES
from sliceq.queueing import QueueParams, impatient_pmf
from sliceq.tenants import (
    REGIME_KINDS,
    KnowledgeRegime,
    critical_rate,
    renege_blind,
    renege_position,
    renege_serving_rate,
)

import helpers
from helpers import (
    expected_wait,
    issued_tallies,
    occupancy_pmf,
    reference_isolated_queue_sim,
    renege_full,
    state_mean,
    tv_from_dict,
)

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
        m = run_replication(DEMO, None, cfg, 0, region=DEMO_REGION, single_queue=True)
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
    single = run_replication(sc, None, cfg, 0, region=region, single_queue=True)
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
    single = run_replication(sc, None, cfg, 0, region=region, single_queue=True)
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


def test_avg_wait_joiners_are_worth_their_issue_cost():
    # the published average wait never makes joining pay a tenant whose slice
    # is worth less than the issue cost it pays for sure on joining
    sc = Scenario(resources=(1.0,), slice_types=(SliceType(
        cost=(0.25,), arrival_rate=3.0, release_rate=0.5, issue_cost=6.0,
        waiting_cost_rate=1.0, profit_rate=4.0),))
    region = enumerate_regions(sc)
    cfg = SimConfig(horizon=200.0, master_seed=4, queue_cap=50,
                    knowledge=KnowledgeRegime("avg_wait"))
    m = run_replication(sc, naive_strategy(region, [1, 0]), cfg, 0, region=region)
    joined = [r for r in m.records if r.disposition not in ("balked", "cap_rejected")]
    assert joined
    assert all(4.0 * r.lifetime >= 6.0 for r in joined)


@pytest.mark.parametrize("queue_cap", [100, None])
def test_blind_stale_pops_are_deadlines_of_served_requests(queue_cap):
    # a request that queued and was accepted later leaves its deadline in the
    # heap, and it is popped stale if it falls due by the horizon; one
    # accepted on arrival gets no deadline
    risk = 0.5
    cfg = SimConfig(horizon=300.0, master_seed=7, queue_cap=queue_cap,
                    knowledge=KnowledgeRegime("blind", risk_factor=risk),
                    initial_state="random_full")
    m = run_replication(DEMO, random_strategy(DEMO_REGION, substream(7, 0, 999)), cfg, 1,
                        region=DEMO_REGION)
    due = 0
    for r in m.records:
        if r.disposition != "accepted" or r.wait == 0.0:
            continue
        st = DEMO.slice_types[r.slice_type - 1]
        t_max = renege_blind(PendingRequest(r.request_id, r.slice_type, r.enter_time,
                                            r.lifetime, st.issue_cost, st.waiting_cost_rate,
                                            st.profit_rate), risk)
        due += math.isfinite(t_max) and r.enter_time + t_max <= cfg.horizon
    assert sum(m.reneges) > 0
    assert m.stale_pops == due > 0


@pytest.mark.parametrize("queue_cap", [100, None])
@pytest.mark.parametrize("kind", ["patient", "blind", "position", "avg_wait",
                                  "serving_rate", "full"])
def test_per_type_queues_are_quiescent_at_every_event(kind, queue_cap):
    # on_request skips serve_queues for an arrival into a non-empty per-type
    # queue; that is exact only while no event ever finds a request to serve
    strat = random_strategy(DEMO_REGION, substream(7, 0, 999))
    cfg = SimConfig(horizon=200.0, master_seed=3, queue_cap=queue_cap,
                    knowledge=KnowledgeRegime(kind, risk_factor=0.5),
                    initial_state="random_full")
    kinds = set()

    def check(event):
        kinds.add(event["kind"])
        assert serve_queues(sim.ctrl, strat) == [], event

    sim = engine._Simulation(DEMO, strat, cfg, 1, region=DEMO_REGION, trace=check)
    m = sim.run()
    assert {"request", "accept", "release"} <= kinds
    assert max(r.entry_queue_length for r in m.records) > 1
    assert (m.stale_pops > 0) == (kind == "blind")


def _summary_rows(strat, cfg, **kwargs):
    return [summarize_run(run_replication(DEMO, strat, cfg, rep, **kwargs), DEMO)
            for rep in range(cfg.replications)]


def test_monte_carlo_replications_differ_and_derive_from_master_seed():
    strat = naive_strategy(DEMO_REGION, [1, 2, 0])
    cfg = SimConfig(horizon=15.0, replications=3, master_seed=8, queue_cap=20)
    rows1 = _summary_rows(strat, cfg, region=DEMO_REGION)
    rows2 = _summary_rows(strat, cfg, region=DEMO_REGION)
    assert [r["replication"] for r in rows1] == [0, 1, 2]
    assert [r["u_sigma"] for r in rows1] == [r["u_sigma"] for r in rows2]
    assert len({r["u_sigma"] for r in rows1}) == 3


def test_summarize_run_keys():
    strat = naive_strategy(DEMO_REGION, [1, 2, 0])
    cfg = SimConfig(horizon=10.0, master_seed=1, queue_cap=20)
    m = run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION)
    row = summarize_run(m, DEMO)
    for key in ("u_sigma", "admission_rate", "mean_wait_joined",
                "total_profit_1", "mean_profit_2", "profiting_chance_1",
                "total_profit", "mean_profit"):
        assert key in row


def _records_on_and_off(scenario_name, kind):
    """One saturated run with records on and the same run with them off."""
    sc = {"demo": DEMO, "tiny": tiny_scenario()}[scenario_name]
    region = enumerate_regions(sc)
    single = kind == "greedy_single"
    strat = None if single else random_strategy(region, np.random.default_rng(3))
    cfg = SimConfig(horizon=100.0, master_seed=9, queue_cap=20, knowledge=KnowledgeRegime(
        "full" if single else kind, risk_factor=0.1), initial_state="random_full",
        warmup_fraction=0.1)
    on, off = (run_replication(sc, strat, dataclasses.replace(cfg, collect_records=collect), 1,
                               region=region, single_queue=single)
               for collect in (True, False))
    return sc, on, off


REGIMES_AND_GREEDY = ["patient", "blind", "position", "avg_wait", "serving_rate", "full",
                      "greedy_single"]


@pytest.mark.parametrize("kind", REGIMES_AND_GREEDY)
@pytest.mark.parametrize("scenario_name", ["demo", "tiny"])
def test_rows_are_the_same_with_records_off(scenario_name, kind):
    sc, on, off = _records_on_and_off(scenario_name, kind)
    row = summarize_run(on, sc)
    assert off.records == [] and row["total_profit"] != 0.0
    assert summarize_run(off, sc) == row


@pytest.mark.parametrize("kind", REGIMES_AND_GREEDY)
@pytest.mark.parametrize("scenario_name", ["demo", "tiny"])
def test_run_tallies_equal_records_scan(scenario_name, kind):
    sc, on, off = _records_on_and_off(scenario_name, kind)
    n_issued, profit, profiting, wait = issued_tallies(on.records, sc.n_types)
    assert (on.n_issued, on.profit, on.profiting, on.issued_wait) \
        == (n_issued, profit, profiting, wait)
    assert (off.n_issued, off.profit, off.profiting, off.issued_wait) \
        == (n_issued, profit, profiting, wait)


def test_isolated_issued_wait_equals_records_scan():
    # the isolated queue's requests carry no end profit
    m = isolated_queue_sim(QueueParams(1.0, 1.0, 0.5, 0.3), horizon=2e3, seed=3)
    issued = [r for r in m.records if r.disposition in ("accepted", "reneged")]
    assert m.n_issued == [len(issued)] and sum(m.reneges) > 0
    assert m.issued_wait == sum(r.wait for r in issued)


@pytest.mark.parametrize("cap", [0, -3])
def test_queue_cap_below_one_is_refused(cap):
    with pytest.raises(InvalidInputError):
        SimConfig(queue_cap=cap)


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
def test_horizon_not_finite_and_positive_is_refused(horizon):
    # a run to a non-finite horizon never ended
    with pytest.raises(InvalidInputError):
        SimConfig(horizon=horizon)
    with pytest.raises(InvalidInputError):
        isolated_queue_sim(QueueParams(1.0, 1.0, 0.5, 0.3), horizon=horizon, seed=0)


def test_strategy_scenario_mismatch_rejected():
    strat = naive_strategy(enumerate_regions(tiny_scenario()), [1, 2, 0])
    cfg = SimConfig(horizon=5.0, master_seed=0)
    with pytest.raises(InvalidInputError):
        run_replication(DEMO, strat, cfg)


TINY_REGION = enumerate_regions(tiny_scenario())


@pytest.mark.parametrize("mismatch, message", [
    ("region-single-queue", "region was"),
    ("region-multi-queue", "region was"),
    ("strategy-chain", "strategy was"),
])
def test_a_region_or_strategy_made_for_another_scenario_is_refused(mismatch, message):
    # each once ran on the other scenario's region, reporting a one-resource
    # peak load for the two-resource demo, or ended in a bare IndexError;
    # test_strategy_scenario_mismatch_rejected covers a run's strategy
    tiny_strat = naive_strategy(TINY_REGION, [1, 2, 0])
    cfg = SimConfig(horizon=50.0)
    with pytest.raises(InvalidInputError, match=message):
        if mismatch == "region-single-queue":
            run_replication(DEMO, None, cfg, 0, region=TINY_REGION, single_queue=True)
        elif mismatch == "region-multi-queue":
            run_replication(tiny_scenario(), tiny_strat, cfg, 0, region=DEMO_REGION)
        else:
            markov.build_transition_matrix(tiny_strat, DEMO_REGION, [0.5, 0.5])


def test_a_negative_seed_is_refused():
    # numpy refused it with its own ValueError, deep inside a run
    with pytest.raises(InvalidInputError, match="seed"):
        substream(-1, 0, TAG_ARRIVAL)
    with pytest.raises(InvalidInputError, match="seed"):
        run_replication(DEMO, None, SimConfig(horizon=5.0, master_seed=-1), 0,
                        region=DEMO_REGION, single_queue=True)
    with pytest.raises(InvalidInputError, match="seed"):
        isolated_queue_sim(QueueParams(1.0, 1.0, 0.5, 0.3), horizon=5.0, seed=-1)


def test_regime_names_agree():
    # a kind in one list only would fail at run time, with a KeyError
    assert set(engine._REGIME_RULES) == set(REGIME_KINDS)
    assert {regime.kind for _, regime in TABLE3_REGIMES} <= set(REGIME_KINDS)


def test_replications_hash_nothing(monkeypatch):
    # a scenario hashes itself once, when it is made; a replication checks its
    # strategy against that fingerprint
    strat = naive_strategy(DEMO_REGION, [2, 1, 0])
    cfg = SimConfig(horizon=20.0, master_seed=1, knowledge=KnowledgeRegime("full"),
                    initial_state="random_full")
    calls = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *args: calls.append(args) or sha256(*args))
    for rep in range(3):
        run_replication(DEMO, strat, cfg, rep, region=DEMO_REGION)
    assert calls == []
    Scenario.from_dict(DEMO.to_dict())
    assert len(calls) == 1


# -- isolated queue -----------------------------------------------------------

def test_isolated_patient_geometric_occupancy_and_little():
    params = QueueParams(1.0, 2.0)
    m = isolated_queue_sim(params, horizon=4e5, seed=3)
    geo = 0.5 * 0.5 ** np.arange(60)
    assert tv_from_dict(occupancy_pmf(m), geo) <= 0.01
    mean_len = state_mean(m)[0]
    waits = [r.wait for r in m.records if r.disposition == "accepted"]
    lam_eff = m.joined[0] / m.horizon
    assert abs(mean_len - lam_eff * np.mean(waits)) / mean_len <= 0.05


def test_isolated_impatient_occupancy_matches_pmf():
    params = QueueParams(1.0, 1.0, 1.0, 0.5)
    m = isolated_queue_sim(params, horizon=3e5, seed=7, collect_records=False)
    assert tv_from_dict(occupancy_pmf(m), impatient_pmf(params)) <= 0.02


def test_isolated_empty_prob_closed_form():
    params = QueueParams(1.0, 1.0, 1.0, 0.0)
    m = isolated_queue_sim(params, horizon=3e5, seed=11, collect_records=False)
    assert occupancy_pmf(m)[(0,)] == pytest.approx(1.0 / (math.e - 1.0), abs=0.01)


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


@pytest.mark.parametrize("params", [(1.0, 1.0, 0.5, 0.3), (2.0, 1.5, 0.0, 0.2)])
def test_isolated_heap_holds_only_deadlines(params, monkeypatch):
    # the one live service epoch stays out of the heap, so each joining
    # request pushes its deadline and nothing else is pushed; every deadline
    # popped within the horizon is a renege or a stale one, the deadline of a
    # request already served, and a stale deadline left uncounted fails here
    horizon = 2e3
    pushed, popped = [], []
    heappush, heappop = heapq.heappush, heapq.heappop

    def push(heap, item):
        pushed.append(item[0])
        heappush(heap, item)

    def pop(heap):
        item = heappop(heap)
        popped.append(item[0])
        return item

    monkeypatch.setattr(heapq, "heappush", push)
    monkeypatch.setattr(heapq, "heappop", pop)
    m = isolated_queue_sim(QueueParams(*params), horizon=horizon, seed=7, collect_records=False)
    monkeypatch.undo()
    if params[2] == 0:
        assert pushed == popped == [] and m.stale_pops == 0
    else:
        assert len(pushed) == sum(m.joined) and sum(m.reneges) > 0 and m.stale_pops > 0
        assert sum(t <= horizon for t in popped) == sum(m.reneges) + m.stale_pops


class _FixedDraws:
    """A stand-in generator that returns set draws, then draws far apart."""

    def __init__(self, draws):
        self.draws = list(draws)

    def exponential(self, scale, size):
        head, self.draws = self.draws[:size], self.draws[size:]
        return np.array(head + [1e9] * (size - len(head)))

    def random(self, size):
        return np.full(size, 0.5)


def test_isolated_ties_go_service_then_arrival_then_deadline(monkeypatch):
    # arrivals at 1, 2, 3; request 1's deadline falls on the second arrival
    # and the first service epoch on the third. Request 3 reneges at 3.25,
    # and request 2's deadline, at 3.5, finds it served. A length held for
    # no time (2 at t = 2, 0 at t = 3) is no visit
    draws = {TAG_ARRIVAL: [1.0, 1.0, 1.0], TAG_SERVICE: [2.0, 5.0],
             TAG_PATIENCE: [1.0, 1.5, 0.25], TAG_BALK: []}
    monkeypatch.setattr(engine, "substream", lambda seed, rep, tag: _FixedDraws(draws[tag]))
    m = isolated_queue_sim(QueueParams(1.0, 1.0, 1.0, 0.0), horizon=3.75, seed=0)
    assert [(r.request_id, r.enter_time, r.entry_queue_length, r.disposition, r.wait)
            for r in m.records] == [(1, 1.0, 1, "reneged", 1.0), (2, 2.0, 2, "accepted", 1.0),
                                    (3, 3.0, 1, "reneged", 0.25)]
    assert (m.arrivals, m.reneges, m.acceptances, m.still_waiting, m.stale_pops) \
        == ([3], [2], [1], [0], 1)
    assert m.acceptance_times == [[3.0]]
    assert list(m.occupancy.items()) == [((0,), 1.5), ((1,), 2.25)]
    assert m.busy_time == [2.25]


@pytest.mark.parametrize("params", [(1.0, 1.0, 0.5, 0.3), (3.0, 1.0, 0.05, 0.01)])
def test_isolated_stale_pops_are_deadlines_of_served_requests(params):
    # every joined request draws its patience in join order; a served one
    # whose deadline falls by the horizon is counted stale, whether or not it
    # ever reaches the top of the heap
    params, horizon, seed = QueueParams(*params), 2e3, 7
    m = isolated_queue_sim(params, horizon=horizon, seed=seed)
    by_id = {r.request_id: r for r in m.records}
    joined = [rid for rid in range(1, m.arrivals[0] + 1)
              if rid not in by_id or by_id[rid].disposition != "balked"]
    assert len(joined) == m.joined[0]
    patience = substream(seed, 0, TAG_PATIENCE).exponential(
        1.0 / params.reneging_rate, len(joined)).tolist()
    due = 0
    for rid, p in zip(joined, patience):
        r = by_id.get(rid)  # None while still waiting
        if r is not None and r.disposition == "reneged":  # the draws line up
            assert r.wait == r.enter_time + p - r.enter_time
        elif r is not None and r.disposition == "accepted":
            due += r.enter_time + p <= horizon
    assert sum(m.reneges) > 0
    assert m.stale_pops == due > 0


def _fixed_isolated_runs(draws, monkeypatch, params, horizon):
    """An isolated run and its reference on set draws."""
    def fixed(seed, rep, tag):
        return _FixedDraws(draws[tag])

    monkeypatch.setattr(engine, "substream", fixed)
    monkeypatch.setattr(helpers, "substream", fixed)
    return (isolated_queue_sim(QueueParams(*params), horizon=horizon, seed=0),
            reference_isolated_queue_sim(QueueParams(*params), horizon=horizon, seed=0))


def test_isolated_deadline_ties_go_to_the_lower_id(monkeypatch):
    # request 2 joins at 2 with patience 1.5, request 1 at 1 with patience 2.5:
    # both fall due at 3.5, and the lower id reneges first
    draws = {TAG_ARRIVAL: [1.0, 1.0], TAG_SERVICE: [], TAG_PATIENCE: [2.5, 1.5], TAG_BALK: []}
    m, ref = _fixed_isolated_runs(draws, monkeypatch, (1.0, 1.0, 1.0, 0.0), 4.0)
    assert [(r.request_id, r.disposition, r.wait) for r in m.records] \
        == [(1, "reneged", 2.5), (2, "reneged", 1.5)]
    assert m.records == ref.records and m.stale_pops == ref.stale_pops == 0


@pytest.mark.parametrize("after", [False, True])
def test_isolated_served_deadline_at_the_horizon_is_stale(after, monkeypatch):
    # requests 1 and 2 join at 1 and 2 and are served at 1.5 and 3; request 1
    # falls due at the horizon, 4, and counts stale; request 2 falls due just
    # after it and does not, unless the horizon is that later time
    late = math.nextafter(4.0, math.inf)
    draws = {TAG_ARRIVAL: [1.0, 1.0], TAG_SERVICE: [0.5, 1.0],
             TAG_PATIENCE: [3.0, late - 2.0], TAG_BALK: []}
    m, ref = _fixed_isolated_runs(draws, monkeypatch, (1.0, 1.0, 1.0, 0.0),
                                  late if after else 4.0)
    assert m.acceptance_times == [[1.5, 3.0]] and m.reneges == [0]
    assert m.stale_pops == ref.stale_pops == 1 + after


def _isolated_result(m):
    return (m.records, m.acceptance_times, list(m.occupancy.items()), m.busy_time,
            m.arrivals, m.balks, m.reneges, m.acceptances, m.still_waiting,
            m.issued_wait, m.stale_pops)


@settings(max_examples=150, deadline=None)
@given(lam=st.floats(0.3, 5.0), mu=st.floats(0.3, 5.0),
       alpha=st.one_of(st.just(0.0), st.floats(0.01, 2.0)), beta=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16), horizon=st.floats(1.0, 500.0),
       collect_records=st.booleans())
def test_isolated_run_equals_the_reference_loop(lam, mu, alpha, beta, seed, horizon,
                                                collect_records):
    # the reference pops each served request's deadline as an event, and takes
    # its arrivals from arrival_windows
    params = QueueParams(lam, mu, alpha, beta)
    assert _isolated_result(isolated_queue_sim(params, horizon, seed, collect_records)) \
        == _isolated_result(reference_isolated_queue_sim(params, horizon, seed, collect_records))


def test_isolated_long_queue_equals_the_reference_loop():
    params = QueueParams(10.0, 1.0, 0.05, 0.0)
    m = isolated_queue_sim(params, horizon=300.0, seed=3)
    assert max(m.occupancy)[0] > 100 and m.stale_pops > 0
    assert _isolated_result(m) == _isolated_result(
        reference_isolated_queue_sim(params, horizon=300.0, seed=3))


def _queue_path_from_records(m, params, seed):
    """The occupancy (keys in first-visit order) and busy time of the
    queue-length path an isolated run's records trace: a joined request holds
    a place from its entry until its wait ends, or until the horizon if it is
    still waiting. A request's id counts the arrivals, so the arrival epochs
    give each still-waiting request, which leaves no record, its entry."""
    epochs = itertools.chain.from_iterable(engine.arrival_windows(
        [substream(seed, 0, TAG_ARRIVAL)], [1.0 / params.arrival_rate]))
    by_id = {r.request_id: r for r in m.records}
    changes, waiting = [], 0
    for rid in range(1, m.arrivals[0] + 1):
        t = next(epochs)[0]
        r = by_id.get(rid)
        if r is None:
            waiting += 1
            changes.append((t, 1))
        else:
            assert r.enter_time == t
            if r.disposition != "balked":
                changes += [(t, 1), (t + r.wait, -1)]
    assert waiting == m.still_waiting[0]
    occupancy, busy, n, last = {}, 0.0, 0, 0.0
    for t, step in sorted(changes) + [(m.horizon, 0)]:
        if t > last:
            occupancy[(n,)] = occupancy.get((n,), 0.0) + (t - last)
            busy += (t - last) if n else 0.0
        n, last = n + step, t
    return occupancy, busy


@pytest.mark.parametrize("params", [
    (1.0, 1.0, 0.5, 0.3),
    (2.0, 1.5, 0.0, 0.2),  # alpha = 0: nobody reneges
    (0.7, 3.0, 1.0, 0.0),  # beta = 0: every arrival joins
    (3.0, 1.0, 0.05, 0.01),  # heavy load: the queue reaches 55, as in the pins
])
def test_isolated_occupancy_equals_the_records_path(params):
    # the loop adds time once per sojourn at a length; the records give each
    # request's stay, and so the whole path of the queue length
    params = QueueParams(*params)
    m = isolated_queue_sim(params, horizon=2e4, seed=7)
    occupancy, busy = _queue_path_from_records(m, params, 7)
    assert list(m.occupancy) == list(occupancy)
    for key, dt in occupancy.items():
        assert m.occupancy[key] == pytest.approx(dt, rel=1e-9)
    assert m.busy_time[0] == pytest.approx(busy, rel=1e-9)
    if params.arrival_rate == 3.0:
        assert max(m.occupancy)[0] >= 50


def test_substreams_independent_of_extra_draws():
    # drawing from one purpose stream never shifts another
    a1 = substream(1, 0, 10).exponential(1.0, size=5)
    _ = substream(1, 0, 40).exponential(1.0, size=100)
    a2 = substream(1, 0, 10).exponential(1.0, size=5)
    assert np.array_equal(a1, a2)


def _elapse(stats, dt, length):
    """Time ``dt`` at queue length ``length``, as the event loop adds it."""
    if length > 0:
        stats.busy_time += dt
    stats.time_at_length += [0.0] * (length + 1 - len(stats.time_at_length))
    stats.time_at_length[length] += dt


def _stats_with(lengths, renege_positions):
    stats = engine._QueueStats()
    for dt, length in lengths:
        _elapse(stats, dt, length)
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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_omega_bound_covers_every_later_prefix_sum(data):
    # the full entrance screen balks on u*L/(mu + omega): omega must stay at
    # least every prefix sum of the published renege rates while time passes,
    # and be found again when a renege changes the counts
    draw_lengths = st.lists(st.tuples(st.floats(0.001, 50.0), st.integers(0, 40)),
                            max_size=30)
    lengths = data.draw(draw_lengths)
    # mostly occupied positions: one never occupied makes omega infinite
    top = max((length for _, length in lengths), default=0) + data.draw(st.integers(0, 1))
    positions = data.draw(st.lists(st.integers(1, max(top, 1)), max_size=60))
    stats = _stats_with(lengths, positions)
    gated = stats.renege_total < engine.MIN_SERVICE_OBSERVATIONS
    assert (stats.omega_bound() == 0.0) if gated else stats.omega_bound() >= 0.0
    for change in ("none", "renege"):
        if change == "renege":
            for pos in data.draw(st.lists(st.integers(1, max(top, 1)), min_size=1, max_size=5)):
                stats.note_renege(pos)
        omega = stats.omega_bound()
        for dt, length in data.draw(draw_lengths):
            _elapse(stats, dt, length)
        up_to = data.draw(st.integers(0, 50))
        assert np.add.accumulate(stats.renege_rates(up_to)).max() <= omega


def _records_sha256(m) -> str:
    h = hashlib.sha256()
    for r in m.records:
        h.update(repr((r.request_id, r.slice_type, r.enter_time, r.lifetime,
                       r.entry_queue_length, r.disposition, r.wait,
                       r.end_profit)).encode())
    return h.hexdigest()


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
    assert _records_sha256(m) == \
        "cbb98ee938cb5b6bacfcb30e2c2b1f57f69a1701eea9aae440dbae25858b11b7"


@pytest.mark.parametrize("kind, queue_cap, reneges, digest", [
    ("position", 100, [720, 1695],
     "b699d3508c9e29d473689e6673afa81d093a98fa4b2b82906a2e76a0623e6108"),
    ("full", None, [0, 0],
     "9d5fe2824369a65d18b39238e9404693509f6ce396b811257aab33f6a0dcbb4e"),
])
def test_greedy_single_queue_run_is_pinned(kind, queue_cap, reneges, digest):
    # no benchmark digest covers the single mixed queue: these pin it, one
    # run with reneging cascades and one with an uncapped queue
    cfg = SimConfig(horizon=1000, master_seed=3, queue_cap=queue_cap,
                    knowledge=KnowledgeRegime(kind), initial_state="random_full")
    m = run_replication(DEMO, None, cfg, 1, region=DEMO_REGION, single_queue=True)
    assert m.reneges == reneges
    assert len(m.records) == 16014
    assert _records_sha256(m) == digest


def test_serving_rate_renege_run_is_pinned():
    # the benchmark's serving_rate runs never renege, so no digest guards
    # the exact path that the critical-rate filter falls back to; this run
    # takes it and reneges
    strat = random_strategy(DEMO_REGION, substream(1, 0, 999))
    cfg = SimConfig(horizon=1000, master_seed=1, queue_cap=100,
                    knowledge=KnowledgeRegime("serving_rate"), initial_state="random_full")
    m = run_replication(DEMO, strat, cfg, 1, region=DEMO_REGION)
    assert m.reneges == [4, 0]
    assert len(m.records) == 16177
    assert _records_sha256(m) == \
        "515a9459238963f3ed7006072c72134db0fcdeddc44729ba4527067b439ae34a"


def _run_sha256(m) -> str:
    """Every ``RunMetrics`` field beyond the records, occupancy in insertion
    order, and the summary row."""
    h = hashlib.sha256()
    h.update(repr((list(m.occupancy.items()), m.busy_time, m.queued_accepts,
                   [float(x) for x in m.max_assigned], m.acceptance_times, m.arrivals,
                   m.joined, m.balks, m.cap_rejections, m.reneges, m.acceptances,
                   m.still_waiting, m.profit, m.profiting, m.issued_wait,
                   summarize_run(m, DEMO))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("kind, queue_cap, digest", [
    ("patient", 100,
     "dd1c77b41417a0ef4b1c85b027a9bc3bb6da52bf94990f07634b6293a4c1c08d"),
    ("patient", None,
     "9261fce10ed6484705ebf143d233df13d8611850c44abb9f5f4bf9769eb8992a"),
    ("blind", 100,
     "caa8d16470e1c95b7694ec741887b72743f5380ea45c8e78be8e39e3f170c153"),
    ("blind", None,
     "9a0b17d99b079ef1d9500d06c3189008388806316b8ead975fd1c403cdfa4a72"),
    ("position", 100,
     "378ba349ecd7edce3237d829548e86abdf1eab31f7fd90643cc001727bc33196"),
    ("position", None,
     "f7b434ba5c6b01b291dc972034cd6b4b824660501b4199f6b78065fa3719af37"),
    ("avg_wait", 100,
     "a1da7c5c14cbfc56bb310b824b45628ba3d63db2940d4579091644a7acd4e0dc"),
    ("avg_wait", None,
     "465274ed5ecddc284c01232bbd59db148f2657910a8df25e29c0196c7031c2a3"),
    ("serving_rate", 100,
     "3df84f49ee0c5223aa62c4f1916d9cc7e43954cb54df0719b4641cd57bb34803"),
    ("serving_rate", None,
     "50a18a39ef45dc38c8c789ffb87dd49a718fc203a19c0a5e8512079710fe157a"),
    ("full", 100,
     "3df84f49ee0c5223aa62c4f1916d9cc7e43954cb54df0719b4641cd57bb34803"),
    ("full", None,
     "50a18a39ef45dc38c8c789ffb87dd49a718fc203a19c0a5e8512079710fe157a"),
    ("greedy_single", 100,
     "116535cdb5057589974eac91802946cf6508570b5b1272f705a5ae475474a18a"),
    ("greedy_single", None,
     "fbdfe8e6e025640f700a27dc883a7290c6e3f420454a5ad9f90c90712b04c267"),
])
def test_whole_run_is_pinned(kind, queue_cap, digest):
    # the record digests leave out what a run sums on the side: the
    # occupancy (its order too), busy time, peak load, acceptance times and
    # tallies; a reordered float sum in any of them changes this digest
    single = kind == "greedy_single"
    cfg = SimConfig(horizon=300.0, master_seed=7, queue_cap=queue_cap, warmup_fraction=0.1,
                    knowledge=KnowledgeRegime("full" if single else kind, risk_factor=0.5),
                    initial_state="random_full")
    if single:
        m = run_replication(DEMO, None, cfg, 1, region=DEMO_REGION, single_queue=True)
    else:
        strat = random_strategy(DEMO_REGION, substream(7, 0, 999))
        m = run_replication(DEMO, strat, cfg, 1, region=DEMO_REGION)
    assert _run_sha256(m) == digest


@pytest.mark.parametrize("params, collect_records, digest", [
    ((1.0, 1.0, 0.5, 0.3), True,
     "2a9e54876aee6d37efba349a39699b87d008562d9064ea1f724ec449158920b5"),
    ((1.0, 1.0, 0.5, 0.3), False,
     "9731a93c6730517aa1ec91d730b00dfe9016634a5a56920a2ce218fc943ef97c"),
    # alpha = 0: no patience stream is drawn
    ((2.0, 1.5, 0.0, 0.2), True,
     "158d379ddc1ad6db930cff6e7524a4313e704e738b9fd7f2f95fd0678613036f"),
    ((2.0, 1.5, 0.0, 0.2), False,
     "a7cb07b72e761c780322e9ed6b90fd1eb42311038c891a4ec5ba07f448aef3d7"),
    # beta = 0: every arrival joins
    ((0.7, 3.0, 1.0, 0.0), True,
     "bfdd5c111045d145a77967ce35ffb3b67ae5f47dc49fbcbd6c7c9ffed5db4e22"),
    ((0.7, 3.0, 1.0, 0.0), False,
     "dae34a5e0c1f1632ff6c9d74d4e0c7420963d42e8adcdaef7a5de1df0e6d4e8f"),
    # heavy load: queues reach 55, so the join-chance table grows far
    ((3.0, 1.0, 0.05, 0.01), True,
     "182c632c31c92e1b2f18ad0963a3b124f8710f4d1b04aa704380496466307ffe"),
])
def test_isolated_run_is_pinned(params, collect_records, digest):
    # the bench digest covers one parameter set and its records only; these
    # also pin the occupancy (its order too), busy time, acceptance times,
    # tallies and issued wait
    m = isolated_queue_sim(QueueParams(*params), horizon=2e4, seed=7,
                           collect_records=collect_records)
    h = hashlib.sha256()
    h.update(repr((m.records, list(m.occupancy.items()), m.busy_time, m.acceptance_times,
                   m.arrivals, m.joined, m.balks, m.cap_rejections, m.reneges, m.acceptances,
                   m.still_waiting, m.queued_accepts, m.profit, m.profiting,
                   m.issued_wait)).encode())
    assert h.hexdigest() == digest


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_position_stay_rule_equals_renege_position(data):
    # the engine tests the probation band before it calls the rule; its
    # predicate must still be the rule's, at the band's edge included
    delta_k = data.draw(st.integers(1, 5))
    advanced = data.draw(st.one_of(st.just(delta_k), st.just(delta_k + 1),
                                   st.integers(0, 3 * delta_k + 3)))
    length = advanced + data.draw(st.integers(1, 40))
    pos = length - advanced
    u = data.draw(st.one_of(st.just(0.0), st.floats(0.01, 10.0)))
    req = PendingRequest(request_id=1, slice_type=1, enter_time=0.0,
                         lifetime=data.draw(st.floats(0.01, 60.0)), issue_cost=0.0,
                         waiting_cost_rate=u, profit_rate=data.draw(st.floats(0.1, 10.0)),
                         entry_queue_length=length)
    published = dict(lengths=[], renege_positions=[], queued_accepts=0, busy_time=0.0)
    sim, i, _ = _queue_simulation("position", False, 1, published, [],
                                  now=data.draw(st.floats(0.0, 1e4)), delta_k=delta_k)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "renege_position", lambda *a: calls.append(a) or renege_position(*a))
        got = engine._stays_on_progress(sim, i, None)(req, pos)
    assert got == renege_position(req, pos, length, sim.now, delta_k)
    assert bool(calls) == (advanced <= delta_k)


@pytest.mark.parametrize("kind", ["serving_rate", "full"])
def test_free_waiting_runs_without_reneges(kind):
    # a zero waiting cost rate once divided by zero in the serving-rate rule
    # as soon as mu was published
    free = Scenario(resources=DEMO.resources, slice_types=tuple(
        dataclasses.replace(t, waiting_cost_rate=0.0) for t in DEMO.slice_types))
    region = enumerate_regions(free)
    cfg = SimConfig(horizon=60.0, master_seed=2, queue_cap=50,
                    knowledge=KnowledgeRegime(kind), initial_state="random_full")
    m = run_replication(free, naive_strategy(region, [2, 1, 0]), cfg, 0, region=region)
    assert min(m.queued_accepts) >= engine.MIN_SERVICE_OBSERVATIONS
    assert m.reneges == [0, 0]
    assert m.balks == [0, 0]
    assert sum(m.still_waiting) > 0
    assert m.conservation_ok()


@pytest.mark.parametrize("tag, scale", [
    (TAG_ARRIVAL + 1, 1.0 / DEMO.slice_types[1].arrival_rate),
    (TAG_LIFETIME, DEMO.slice_types[0].mean_lifetime),
    (TAG_SERVICE, 1.0 / 1.5),
    (TAG_PATIENCE, 1.0 / 0.5),
    (TAG_BALK, None),  # the isolated queue's uniform balk coin
])
def test_block_draws_equal_scalar_draws(tag, scale):
    # the simulators draw each stream a block at a time; numpy must give the
    # same doubles as one scalar draw after another
    n = 2 * engine.DRAW_BLOCK + 7
    args = () if scale is None else (scale,)
    sampler = "random" if scale is None else "exponential"
    draws = engine.block_draws(getattr(substream(3, 1, tag), sampler), *args)
    blocked = [next(draws) for _ in range(n)]
    rng = substream(3, 1, tag)
    assert blocked == [getattr(rng, sampler)(*args) for _ in range(n)]


def test_arrival_windows_equal_a_heap_merge_of_scalar_sums():
    # arrivals are merged a window at a time, outside the event heap; they
    # must be the epochs a heap of each type's next ``now + gap`` yields, bit
    # for bit, across windows that cut blocks of rates 100 times apart
    rates = (6.0, 10.0, 0.06)
    scales = [1.0 / rate for rate in rates]
    windows = engine.arrival_windows(
        [substream(5, 2, TAG_ARRIVAL + t) for t in range(3)], scales)
    got, sizes = [], []
    while len(sizes) < 6:
        window = next(windows)
        got += window
        sizes.append(len(window))
    assert max(sizes) <= 3 * engine.DRAW_BLOCK
    assert {t for *_, t in got} == {0, 1, 2}
    gaps = [engine.block_draws(substream(5, 2, TAG_ARRIVAL + t).exponential, scale)
            for t, scale in enumerate(scales)]
    heap = [(next(g), t) for t, g in enumerate(gaps)]
    heapq.heapify(heap)
    want = []
    while len(want) < len(got):
        now, t = heapq.heappop(heap)
        want.append((now, engine.PRIO_ARRIVAL, t))
        heapq.heappush(heap, (now + next(gaps[t]), t))
    assert got == want


@pytest.mark.parametrize("kind", ["patient", "blind", "position", "avg_wait",
                                  "serving_rate", "full"])
def test_heap_pushes_are_slices_acceptances_and_deadlines(kind, monkeypatch):
    # arrivals never enter the heap: it holds the initial slices' releases,
    # every acceptance's release and, for blind tenants, the deadline of
    # each request that joined and was not served at once
    cfg = SimConfig(horizon=150.0, master_seed=3, queue_cap=30,
                    knowledge=KnowledgeRegime(kind, risk_factor=0.5),
                    initial_state="random_full")
    strat = naive_strategy(DEMO_REGION, [2, 1, 0])
    initial = sum(DEMO_REGION.feasible[
        engine._Simulation(DEMO, strat, cfg, 0, region=DEMO_REGION)._draw_initial_state()])
    pushes = []
    heappush = heapq.heappush
    monkeypatch.setattr(heapq, "heappush", lambda heap, item: pushes.append(item[1])
                        or heappush(heap, item))
    m = run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION)
    monkeypatch.undo()
    deadlines = sum(r.disposition in ("reneged", "waiting")
                    or (r.disposition == "accepted" and r.wait > 0)
                    for r in m.records) if kind == "blind" else 0
    assert initial > 0 and (deadlines > 0) == (kind == "blind")
    assert pushes.count(engine.PRIO_RELEASE) == initial + sum(m.acceptances)
    assert len(pushes) == initial + sum(m.acceptances) + deadlines


def _rescan_from_head(sim, i):
    """Reference cascade over queue ``i``: after every renege, re-decide
    from the head."""
    kind, delta_k = sim.config.knowledge.kind, sim.config.knowledge.delta_k
    queue = sim.ctrl.queues[i]
    stats = sim.stats[i]
    while queue:
        if kind == "position":
            pos = next((pos for pos, req in enumerate(queue, start=1)
                        if not renege_position(req, pos, req.entry_queue_length,
                                               sim.now - req.enter_time, delta_k)), 0)
        elif (mu := stats.service_rate()) is None:
            return
        elif kind == "serving_rate":
            pos = next((pos for pos, req in enumerate(queue, start=1)
                        if not renege_serving_rate(req, pos, mu)), 0)
        else:
            omega = stats.renege_rates(len(queue))
            pos = next((pos for pos, req in enumerate(queue, start=1)
                        if not renege_full(req, pos, mu, omega)), 0)
        if pos == 0:
            return
        sim._renege(i, queue[pos - 1], pos)


def _assert_columns_in_step(sim):
    # the per-queue critical-rate bound is the one column kept in step with
    # the queues, and only the serving_rate and full re-decisions read it
    assert (sim.bounds is None) == (sim.config.knowledge.kind not in ("serving_rate", "full"))
    if sim.bounds is None:
        return
    assert len(sim.bounds) == len(sim.ctrl.queues)
    for queue, bound in zip(sim.ctrl.queues, sim.bounds):
        assert bound >= max((critical_rate(k, r.waiting_cost_rate, r.profit_rate * r.lifetime)
                             for k, r in enumerate(queue, start=1)), default=0.0)


@pytest.mark.parametrize("kind, gate_open", [("position", False), ("serving_rate", False),
                                             ("full", False), ("full", True)])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_resumed_cascade_equals_rescan_from_head(kind, gate_open, data):
    single = data.draw(st.booleans())
    slice_type = 1 if single else data.draw(st.integers(1, 2))
    now = data.draw(st.floats(0.0, 100.0))
    n = data.draw(st.integers(1, 40))
    delta_k = data.draw(st.integers(1, 3))
    reqs = [dict(lifetime=data.draw(st.floats(0.01, 60.0)),
                 profit_rate=data.draw(st.floats(0.1, 10.0)),
                 waiting_cost_rate=data.draw(st.floats(0.1, 10.0)),
                 enter_time=data.draw(st.floats(0.0, now)),
                 entry_queue_length=k + data.draw(st.integers(0, 4)))
            for k in range(1, n + 1)]
    published = _draw_published_stats(data, gate_open, engine.MIN_SERVICE_OBSERVATIONS - 2)

    sim, i, got = _queue_simulation(kind, single, slice_type, published, reqs, now, delta_k)
    ref, _, want = _queue_simulation(kind, single, slice_type, published, reqs, now, delta_k)
    stats = sim.stats[i]
    assert (stats.renege_total >= engine.MIN_SERVICE_OBSERVATIONS) == gate_open
    sim._reevaluate_queue(i)
    _rescan_from_head(ref, i)
    assert got == want
    assert [r.request_id for r in sim.ctrl.queues[i]] == \
        [r.request_id for r in ref.ctrl.queues[i]]
    _assert_columns_in_step(sim)


@pytest.mark.parametrize("queue_cap", [100, None])
@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("delta_k", [1, 2, 4])
def test_position_runs_equal_rescans_of_every_request(delta_k, single, queue_cap):
    # a position pass visits only the tail of the queue that joined after its
    # last delta_k + 1 acceptances; whole runs must decide as the reference
    # cascade, which re-decides every waiting request from the head
    strat = None if single else random_strategy(DEMO_REGION, substream(5, 0, 999))
    skipped = []
    may_renege = engine._Simulation._may_renege

    def counted(sim, i):
        tail = may_renege(sim, i)
        skipped.append(len(sim.ctrl.queues[i]) - len(tail))
        return tail

    for seed in range(2):
        cfg = SimConfig(horizon=150.0, master_seed=seed, queue_cap=queue_cap,
                        knowledge=KnowledgeRegime("position", delta_k=delta_k),
                        initial_state="random_full")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine._Simulation, "_may_renege", counted)
            got = run_replication(DEMO, strat, cfg, 1, region=DEMO_REGION, single_queue=single)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine._Simulation, "_reevaluate_queue", _rescan_from_head)
            want = run_replication(DEMO, strat, cfg, 1, region=DEMO_REGION, single_queue=single)
        assert sum(got.reneges) > 0
        assert got.records == want.records
        assert list(got.occupancy.items()) == list(want.occupancy.items())
    assert max(skipped) > 0


def _draw_published_stats(data, gate_open, min_accepts=engine.MIN_SERVICE_OBSERVATIONS):
    """Operator statistics for one queue; below ``MIN_SERVICE_OBSERVATIONS``
    queued acceptances mu is unpublished."""
    return dict(
        lengths=data.draw(st.lists(st.tuples(st.floats(0.01, 20.0), st.integers(0, 45)),
                                   max_size=20)),
        renege_positions=data.draw(st.lists(
            st.integers(1, 45), min_size=engine.MIN_SERVICE_OBSERVATIONS if gate_open else 0,
            max_size=30 if gate_open else engine.MIN_SERVICE_OBSERVATIONS - 1)),
        queued_accepts=data.draw(st.integers(min_accepts, 40)),
        busy_time=data.draw(st.floats(0.1, 100.0)),
    )


def _join(sim, i, req):
    """Append ``req`` to queue ``i`` and raise the queue's critical-rate bound
    for it, as the event loop does for a request that joins and waits."""
    queue = sim.ctrl.queues[i]
    queue.append(req)
    if sim.bounds is not None:
        sim.bounds[i] = max(sim.bounds[i], critical_rate(
            len(queue), req.waiting_cost_rate, req.profit_rate * req.lifetime))


def _queue_simulation(kind, single, slice_type, published, requests, now=0.0, delta_k=2):
    """A fresh simulation whose queue for ``slice_type`` publishes the drawn
    statistics and holds ``requests`` (``PendingRequest`` fields), entered
    through ``_join``. Returns it, that queue's index and the list its
    reneges are recorded in."""
    cfg = SimConfig(horizon=1000.0, queue_cap=None,
                    knowledge=KnowledgeRegime(kind, delta_k=delta_k))
    sim = engine._Simulation(DEMO, None if single else naive_strategy(DEMO_REGION, [1, 2, 0]),
                             cfg, 0, region=DEMO_REGION, single_queue=single)
    sim.now = now
    i = sim.ctrl.queue_index[slice_type - 1]
    stats = sim.stats[i]
    for dt, length in published["lengths"]:
        _elapse(stats, dt, length)
    for pos in published["renege_positions"]:
        stats.note_renege(pos)
    stats.queued_accepts, stats.busy_time = published["queued_accepts"], published["busy_time"]
    for k, fields in enumerate(requests, start=1):
        req = PendingRequest(request_id=k, slice_type=slice_type, issue_cost=0.0, **fields)
        _join(sim, i, req)
    reneged = []
    renege = sim._renege
    sim._renege = lambda i, req, pos: (reneged.append((req.request_id, pos)),
                                       renege(i, req, pos))
    return sim, i, reneged


@pytest.mark.parametrize("queue_cap", [100, None])
@pytest.mark.parametrize("kind", ["patient", "blind", "position", "avg_wait",
                                  "serving_rate", "full", "greedy_single"])
def test_value_columns_stay_in_step(kind, queue_cap):
    single = kind == "greedy_single"
    regime = KnowledgeRegime("full" if single else kind, risk_factor=0.1)
    cfg = SimConfig(horizon=150.0, master_seed=4, queue_cap=queue_cap, knowledge=regime,
                    initial_state="random_full")
    sim = engine._Simulation(DEMO, None if single else naive_strategy(DEMO_REGION, [2, 1, 0]),
                             cfg, 0, region=DEMO_REGION, single_queue=single)
    m = sim.run()
    assert sum(m.still_waiting) > 0
    _assert_columns_in_step(sim)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["serving_rate", "full"]), single=st.booleans(),
       queue_cap=st.sampled_from([100, None]), seed=st.integers(0, 2**16))
def test_bounds_shrunk_by_acceptances_cover_every_waiting_request(kind, single, queue_cap,
                                                                  seed):
    # an event that serves a requests from a queue's head and leaves n
    # shrinks its critical-rate bound by n/(n + a) before the re-decision
    # pass, which the shrunk bound may then skip: it must still cover every
    # request left, at its new position
    passes = []
    reevaluate = engine._Simulation._reevaluate_queue

    def checked(sim, i):
        passes.append(len(sim.ctrl.queues[i]))
        _assert_columns_in_step(sim)
        reevaluate(sim, i)

    cfg = SimConfig(horizon=60.0, master_seed=seed, queue_cap=queue_cap,
                    knowledge=KnowledgeRegime(kind), initial_state="random_full")
    strat = None if single else random_strategy(DEMO_REGION, substream(seed, 0, 999))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Simulation, "_reevaluate_queue", checked)
        run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION, single_queue=single)
    assert max(passes) > 0


@pytest.mark.parametrize("kind", ["patient", "blind", "position", "avg_wait",
                                  "serving_rate", "full", "greedy_single"])
def test_finished_simulation_is_freed_without_the_cycle_collector(kind):
    # a run that held its rules as bound methods of itself would be a
    # reference cycle, kept alive until the cycle collector ran
    single = kind == "greedy_single"
    cfg = SimConfig(horizon=60.0, master_seed=4, knowledge=KnowledgeRegime(
        "full" if single else kind, risk_factor=0.1), initial_state="random_full")
    gc.disable()
    try:
        sim = engine._Simulation(DEMO, None if single else naive_strategy(DEMO_REGION, [2, 1, 0]),
                                 cfg, 0, region=DEMO_REGION, single_queue=single)
        sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


REGIMES = ["patient", "blind", "position", "avg_wait", "serving_rate", "full"]
# one resource that holds one slice and not two
_ONE_FITS = Scenario(resources=(1.0,), slice_types=(SliceType(
    cost=(0.6,), arrival_rate=2.0, release_rate=1.0, issue_cost=1.0),))


def _regime_simulation(kind, single, trace=None):
    """A capped demo run under ``kind`` whose queues fill: arrivals join,
    balk (in the regimes with an entrance rule) and meet the cap."""
    cfg = SimConfig(horizon=60.0, master_seed=4, queue_cap=10, initial_state="random_full",
                    knowledge=KnowledgeRegime(kind, risk_factor=0.5))
    return engine._Simulation(DEMO, None if single else naive_strategy(DEMO_REGION, [2, 1, 0]),
                              cfg, 0, region=DEMO_REGION, single_queue=single, trace=trace)


@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("kind", REGIMES)
def test_only_tenants_that_join_become_requests(kind, single, monkeypatch):
    made = []

    class CountedRequest(PendingRequest):
        __slots__ = ()

        def __post_init__(self):
            made.append(self.request_id)
            PendingRequest.__post_init__(self)

    monkeypatch.setattr(engine, "PendingRequest", CountedRequest)
    m = _regime_simulation(kind, single).run()
    assert sum(m.cap_rejections) > 0
    assert len(made) == sum(m.joined) < sum(m.arrivals)


@pytest.mark.parametrize("kind, queue_cap, disposition", [
    ("patient", 1, "cap_rejected"), ("avg_wait", None, "balked"), ("patient", None, "accepted")])
def test_every_arrival_checks_its_lifetime(kind, queue_cap, disposition):
    # a refused arrival builds no request, yet its lifetime is refused as a
    # request's is; a tiny positive lifetime shows where each arrival goes
    scenario, region = _ONE_FITS, enumerate_regions(_ONE_FITS)

    def run(lifetime):
        cfg = SimConfig(horizon=5.0, queue_cap=queue_cap, knowledge=KnowledgeRegime(kind))
        sim = engine._Simulation(scenario, naive_strategy(region, [1, 0]), cfg, 0,
                                 region=region)
        sim.lifetimes = [itertools.repeat(lifetime)]
        if queue_cap is not None:  # a request waits; nothing serves it before a join
            sim.ctrl.queues[0].append(PendingRequest(0, 1, 0.0, 1.0, 0.0, 1.0, 1.0))
        return sim.run()

    assert next(r for r in run(1e-9).records if r.request_id == 1).disposition == disposition
    with pytest.raises(InvalidInputError, match="lifetime"):
        run(0.0)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("kind", REGIMES)
def test_a_run_leaves_no_cyclic_garbage(kind, single, traced):
    # the collector is paused for a run, so anything the run left in a
    # reference cycle would only be found by the next collection
    events = []
    gc.collect()
    _regime_simulation(kind, single, trace=events.append if traced else None).run()
    assert gc.collect() == 0
    assert bool(events) == traced


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_a_run_leaves_the_collector_as_it_found_it(enabled, raises):
    paused = []

    def check(event):
        paused.append(not gc.isenabled())
        if raises:
            raise RuntimeError("trace failed")

    sim = _regime_simulation("full", False, trace=check)
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(RuntimeError, match="trace failed"):
                sim.run()
        else:
            sim.run()
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert paused and all(paused)


@pytest.mark.parametrize("collect_records", [False, True])
@pytest.mark.parametrize("params", [(1.0, 1.0, 0.5, 0.3), (2.0, 1.5, 0.0, 0.2)])
def test_an_isolated_run_leaves_no_cyclic_garbage(params, collect_records):
    gc.collect()
    m = isolated_queue_sim(QueueParams(*params), horizon=2e3, seed=3,
                           collect_records=collect_records)
    assert gc.collect() == 0
    assert bool(m.records) == collect_records


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_an_isolated_run_leaves_the_collector_as_it_found_it(enabled, raises, monkeypatch):
    # every joining request pushes its deadline, from inside the loop
    paused = []
    heappush = heapq.heappush

    def push(heap, item):
        paused.append(not gc.isenabled())
        if raises:
            raise RuntimeError("push failed")
        heappush(heap, item)

    monkeypatch.setattr(heapq, "heappush", push)
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(RuntimeError, match="push failed"):
                isolated_queue_sim(QueueParams(1.0, 1.0, 0.5, 0.3), horizon=50.0, seed=0)
        else:
            isolated_queue_sim(QueueParams(1.0, 1.0, 0.5, 0.3), horizon=50.0, seed=0)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert paused and all(paused)


def test_an_arrival_served_past_keeps_its_bound():
    # the mixed queue holds a head that fits and, behind it, a request that
    # does not once the head is in: the first arrival joins third and moves
    # to second as the head is served. Its critical rate must be in the
    # bound before that shrink, at the position it joined at
    events = []

    def check(event):
        events.append((event["kind"], event["request_id"]))
        for pos, req in enumerate(queue, start=1):
            assert sim.bounds[0] >= critical_rate(pos, req.waiting_cost_rate,
                                                  req.profit_rate * req.lifetime), event

    cfg = SimConfig(horizon=20.0, queue_cap=None, knowledge=KnowledgeRegime("serving_rate"))
    sim = engine._Simulation(_ONE_FITS, None, cfg, 0, single_queue=True, trace=check)
    queue = sim.ctrl.queues[0]
    for k in (-1, 0):  # worth so much that an arrival's rate dominates the bound
        queue.append(PendingRequest(k, 1, 0.0, 1e3, 0.0, 1.0, 8.0, entry_queue_length=k + 2))
    sim.bounds[0] = max(critical_rate(pos, req.waiting_cost_rate, req.profit_rate * req.lifetime)
                        for pos, req in enumerate(queue, start=1))
    sim.run()
    assert events[:2] == [("request", 1), ("accept", -1)] and events[2][0] != "accept"


def _nudge(x: float, ulps: int) -> float:
    """``x`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
    return x


def _draw_queue_length(data):
    """A short queue, or a long uncapped one; long queues run under the
    filter's real length guard or under one they exceed."""
    if data.draw(st.booleans()):
        return data.draw(st.integers(0, 40)), engine.MAX_FILTER_LENGTH
    return data.draw(st.integers(60, 150)), data.draw(
        st.sampled_from([engine.MAX_FILTER_LENGTH, 50]))


@pytest.mark.parametrize("kind, gate_open", [("serving_rate", False), ("serving_rate", True),
                                             ("full", False), ("full", True)])
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_filtered_reevaluation_equals_rescan_near_ties(kind, gate_open, data):
    # up to three critical rates k*u/value placed within a few ulps of mu,
    # of the filter's cut mu / FILTER_SLACK or, for full tenants, of the
    # exact wait's threshold, behind requests that surely stay; every
    # decision must be the unfiltered rule's
    single = data.draw(st.booleans())
    slice_type = 1 if single else data.draw(st.integers(1, 2))
    published = _draw_published_stats(data, gate_open)
    n, guard = _draw_queue_length(data)
    n = max(n, 1)
    accepted = data.draw(st.integers(0, min(3, n - 1)))
    near = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    probe, i, _ = _queue_simulation(kind, single, slice_type, published, [])
    mu = probe.stats[i].service_rate()
    ew = probe.stats[i].expected_wait_vector(mu, n)
    reqs = []
    for idx in range(n):
        k = max(idx + 1 - accepted, 1)  # the position at the re-decision
        profit_rate = data.draw(st.floats(0.1, 10.0))
        u = data.draw(st.one_of(st.just(0.0), st.floats(0.1, 10.0)))
        if u == 0.0:
            lifetime = data.draw(st.floats(0.01, 60.0))
        elif idx in near:
            targets = [k * u / mu, k * u * engine.FILTER_SLACK / mu]
            if kind == "full":
                targets.append(u * ew[k])
            value = data.draw(st.sampled_from(targets))
            lifetime = _nudge(value / profit_rate, data.draw(st.integers(-4, 4)))
        else:
            lifetime = k * u / (mu * data.draw(st.floats(0.05, 0.95))) / profit_rate
        reqs.append(dict(lifetime=lifetime, profit_rate=profit_rate, waiting_cost_rate=u,
                         enter_time=0.0, entry_queue_length=idx + 1))

    sim, i, got = _queue_simulation(kind, single, slice_type, published, reqs)
    ref, _, want = _queue_simulation(kind, single, slice_type, published, reqs)
    for x in (sim, ref):  # acceptances leave the bound as it was
        for _ in range(accepted):
            x.ctrl.queues[i].popleft()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "MAX_FILTER_LENGTH", guard)
        sim._reevaluate_queue(i)
    _rescan_from_head(ref, i)
    assert got == want
    assert [r.request_id for r in sim.ctrl.queues[i]] == \
        [r.request_id for r in ref.ctrl.queues[i]]
    _assert_columns_in_step(sim)


@pytest.mark.parametrize("kind, gate_open", [("serving_rate", False), ("full", False),
                                             ("full", True)])
def test_filter_agrees_with_the_rules_a_few_ulps_from_mu(kind, gate_open):
    # one deciding request per trial, behind free-waiting ones, with its
    # critical rate a few ulps either side of mu: rounding flips the rules'
    # outcome there about once in four hundred filter-passing trials
    rng = np.random.default_rng(12)
    published = dict(lengths=[(5.0, 30)], queued_accepts=engine.MIN_SERVICE_OBSERVATIONS,
                     renege_positions=list(range(1, 11)) if gate_open else [], busy_time=1.0)
    sim, i, _ = _queue_simulation(kind, False, 1, published, [])
    stats, queue = sim.stats[i], sim.ctrl.queues[i]
    counts = list(stats.renege_counts)
    free = [PendingRequest(request_id=0, slice_type=1, enter_time=0.0, lifetime=1.0,
                           issue_cost=0.0, waiting_cost_rate=0.0, profit_rate=1.0)] * 30
    for _ in range(20_000):
        stats.busy_time = rng.uniform(0.1, 100.0)
        mu = stats.service_rate()
        k = int(rng.integers(1, 31))
        u, profit_rate = rng.uniform(0.1, 10.0, size=2)
        lifetime = _nudge(k * u / mu / profit_rate, int(rng.integers(-4, 5)))
        req = PendingRequest(request_id=1, slice_type=1, enter_time=0.0, lifetime=lifetime,
                             issue_cost=0.0, waiting_cost_rate=u, profit_rate=profit_rate)
        if kind == "serving_rate":
            want = renege_serving_rate(req, k, mu)
        else:
            want = renege_full(req, k, mu, stats.renege_rates(k))
        for r in free[:k - 1] + [req]:
            _join(sim, i, r)
        sim._reevaluate_queue(i)
        assert req.done != want
        queue.clear()
        sim.bounds[i] = 0.0
        stats.renege_counts, stats.renege_total = list(counts), sum(counts)


@pytest.mark.parametrize("gate_open", [False, True])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_filtered_full_entrance_equals_expected_wait_formula(gate_open, data):
    # value - issue_cost placed within a few ulps of u*L/mu, of the filter's
    # cuts on either side of it, of u*ew[L] and of the balk screen's
    # u*L/(mu + omega) and its cut
    single = data.draw(st.booleans())
    slice_type = 1 if single else data.draw(st.integers(1, 2))
    published = _draw_published_stats(data, gate_open)
    n, guard = _draw_queue_length(data)
    length = n + 1
    sim, i, _ = _queue_simulation("full", single, slice_type, published, [])
    stats = sim.stats[i]
    mu = stats.service_rate()
    ew = stats.expected_wait_vector(mu, length)
    profit_rate = data.draw(st.floats(0.1, 10.0))
    issue_cost = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    u = data.draw(st.one_of(st.just(0.0), st.floats(0.1, 10.0)))
    wait_cost = u * length / mu
    least_cost = u * length / (mu + stats.omega_bound())
    surplus = data.draw(st.sampled_from([wait_cost, wait_cost * engine.FILTER_SLACK,
                                         wait_cost / engine.FILTER_SLACK, u * ew[length],
                                         least_cost, least_cost / engine.FILTER_SLACK]))
    lifetime = _nudge((surplus + issue_cost) / profit_rate, data.draw(st.integers(-4, 4)))
    assume(lifetime > 0)
    req = PendingRequest(request_id=1, slice_type=slice_type, enter_time=0.0,
                         lifetime=lifetime, issue_cost=issue_cost, waiting_cost_rate=u,
                         profit_rate=profit_rate)
    want = profit_rate * lifetime - issue_cost - u * ew[length] >= 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "MAX_FILTER_LENGTH", guard)
        assert sim.entrance_rule(req, stats, length) == want
