"""Admission controller mechanics: event handlers, the serving loop, the
loop's join and cap checks ahead of the controller, and a brute-force
equivalence check against a literal interpreter of the rules."""
from collections import deque

import numpy as np
import pytest

from sliceq import controller, engine
from sliceq.controller import (
    ControllerState,
    PendingRequest,
    on_release,
    on_request,
    serve_mixed_queue,
    serve_queues,
)
from sliceq.core import (
    Scenario,
    SliceType,
    Strategy,
    enumerate_regions,
    naive_strategy,
    tiny_scenario,
)
from sliceq.engine import SimConfig
from sliceq.errors import InvalidInputError, ProtocolViolationError

from helpers import reference_serve

TINY = tiny_scenario()
TINY_REGION = enumerate_regions(TINY)


def _req(slice_type, rid=0):
    return PendingRequest(
        request_id=rid, slice_type=slice_type, enter_time=0.0, lifetime=1.0,
        issue_cost=0.0, waiting_cost_rate=1.0, profit_rate=1.0,
    )


def _ctrl(state=(0, 0)):
    return ControllerState(
        region=TINY_REGION,
        state_index=TINY_REGION.feasible_index(state),
    )


def test_release_with_empty_queues():
    ctrl = _ctrl((1, 0))
    accepted = on_release(ctrl, naive_strategy(TINY_REGION, [1, 2, 0]), 1)
    assert accepted == []
    assert ctrl.state == (0, 0)


def test_release_protocol_violation():
    ctrl = _ctrl((0, 1))
    with pytest.raises(ProtocolViolationError):
        on_release(ctrl, naive_strategy(TINY_REGION, [1, 2, 0]), 1)


def test_release_triggers_acceptance_from_other_queue():
    # saturated at (1, 2); a queued type-2 request fits once type 1 leaves
    ctrl = _ctrl((1, 2))
    req = _req(2)
    ctrl.queues[1].append(req)
    strat = naive_strategy(TINY_REGION, [2, 1, 0])
    accepted = on_release(ctrl, strat, 1)
    assert accepted == [req]
    assert ctrl.state == (0, 3)


def test_serve_skips_infeasible_type_and_continues():
    # at (1, 0) one more type-1 slice does not fit but type 2 does
    ctrl = _ctrl((1, 0))
    ctrl.queues[0].append(_req(1, rid=1))
    ctrl.queues[1].append(_req(2, rid=2))
    strat = naive_strategy(TINY_REGION, [1, 2, 0])
    accepted = serve_queues(ctrl, strat)
    assert [r.request_id for r in accepted] == [2]
    assert ctrl.state == (1, 1)
    assert len(ctrl.queues[0]) == 1


def test_case_study_greedy_fills_resources():
    # two big and two small requests behind a half-full pool: the small
    # ones are admitted past the blocked big ones
    ctrl = _ctrl((1, 0))
    ctrl.queues[0].extend([_req(1, 1), _req(1, 2)])
    ctrl.queues[1].extend([_req(2, 3), _req(2, 4)])
    strat = naive_strategy(TINY_REGION, [1, 2, 0])
    accepted = serve_queues(ctrl, strat)
    assert [r.request_id for r in accepted] == [3, 4]
    assert ctrl.state == (1, 2)
    assert len(ctrl.queues[0]) == 2


def test_reserve_first_column_accepts_nothing():
    ctrl = _ctrl((0, 0))
    ctrl.queues[0].append(_req(1))
    ctrl.queues[1].append(_req(2))
    strat = naive_strategy(TINY_REGION, [0, 1, 2])
    assert serve_queues(ctrl, strat) == []
    assert ctrl.state == (0, 0)


def test_serve_empty_queues_noop():
    ctrl = _ctrl((0, 0))
    assert serve_queues(ctrl, naive_strategy(TINY_REGION, [1, 2, 0])) == []


def test_request_accepted_immediately_when_idle():
    ctrl = _ctrl((0, 0))
    strat = naive_strategy(TINY_REGION, [1, 2, 0])
    req = _req(1)
    assert on_request(ctrl, strat, req) == [req]
    assert req.done
    assert ctrl.state == (1, 0)


def test_request_queued_when_saturated():
    ctrl = _ctrl((1, 2))
    strat = naive_strategy(TINY_REGION, [1, 2, 0])
    req = _req(1)
    assert on_request(ctrl, strat, req) == []
    assert not req.done
    assert list(ctrl.queues[0]) == [req]


def test_mixed_queue_head_blocks_every_type():
    ctrl = ControllerState(region=TINY_REGION, queues=[deque()],
                           state_index=TINY_REGION.feasible_index((1, 2)))
    assert ctrl.queue_index == [0, 0]
    for rid, t in ((1, 1), (2, 2)):
        req = _req(t, rid)
        assert on_request(ctrl, None, req) == []
        assert not req.done
    # a small slice fits at (1, 1), but the large head does not
    assert on_release(ctrl, None, 2) == []
    accepted = on_release(ctrl, None, 1)
    assert [r.request_id for r in accepted] == [1, 2]
    assert ctrl.state == (1, 2)


def test_mixed_queue_needs_a_single_queue():
    with pytest.raises(InvalidInputError):
        serve_mixed_queue(_ctrl())


def test_arrival_behind_a_waiting_request_is_not_served(monkeypatch):
    # the queues are quiescent between events, so a queue that holds a
    # request has a head that cannot be served, and one more request behind
    # it calls no serve at all
    ctrl = _ctrl((1, 2))
    strat = naive_strategy(TINY_REGION, [1, 2, 0])
    assert on_request(ctrl, strat, _req(1, 1)) == []
    calls = []
    monkeypatch.setattr(controller, "serve_queues",
                        lambda *args: calls.append(args) or serve_queues(*args))
    second, third = _req(1, 2), _req(2, 3)
    assert on_request(ctrl, strat, second) == []
    assert not second.done
    assert calls == []
    assert [r.request_id for r in ctrl.queues[0]] == [1, 2]
    # an arrival into an empty queue is still served
    assert on_request(ctrl, strat, third) == []
    assert not third.done
    assert len(calls) == 1


def test_mixed_queue_is_served_on_every_arrival():
    # a renege at the head of the mixed queue can leave a head that fits
    # unserved, so the mixed queue is not quiescent between events and an
    # arrival behind its head is still served
    ctrl = ControllerState(region=TINY_REGION, queues=[deque()])
    ctrl.queues[0].append(_req(2, 1))
    req = _req(1, 2)
    accepted = on_request(ctrl, None, req)
    assert req.done
    assert [r.request_id for r in accepted] == [1, 2]
    assert ctrl.state == (1, 1)


def _reserving_run(cap, entrance_rule=None):
    """A tiny-scenario run whose strategy reserves in every state, so that no
    request is ever accepted and each queue fills up to the cap."""
    cfg = SimConfig(horizon=30.0, master_seed=2, queue_cap=cap)
    sim = engine._Simulation(TINY, naive_strategy(TINY_REGION, [0, 1, 2]), cfg, 0,
                             region=TINY_REGION)
    if entrance_rule is not None:
        sim.entrance_rule = entrance_rule
    return sim, sim.run()


def test_request_cap_rejection():
    # the loop refuses an arrival that finds its queue at the cap; the
    # controller never sees it
    sim, m = _reserving_run(cap=2)
    assert all(a > 2 for a in m.arrivals)
    assert m.joined == m.still_waiting == [2, 2]
    assert m.cap_rejections == [a - 2 for a in m.arrivals]
    assert m.balks == [0, 0]
    assert [len(q) for q in sim.ctrl.queues] == [2, 2]
    refused = [r for r in m.records if r.disposition == "cap_rejected"]
    assert len(refused) == sum(m.cap_rejections)
    assert {r.entry_queue_length for r in refused} == {0}


def test_request_balk_consulted_before_cap():
    # a tenant that finds its queue at the cap and whose entrance rule
    # refuses it counts as a balk, not a cap rejection
    seen = []

    def join_first_only(req, stats, length):
        seen.append((req.slice_type, stats, length))
        return length == 1

    sim, m = _reserving_run(cap=1, entrance_rule=join_first_only)
    assert m.joined == [1, 1]
    assert m.balks == [a - 1 for a in m.arrivals]
    assert m.cap_rejections == [0, 0]
    # the rule sees the arrival's own queue statistics and its length with
    # the arrival itself included
    for slice_type, stats, length in seen:
        assert stats is sim.stats[slice_type - 1]
    assert sorted({length for *_, length in seen}) == [1, 2]
    # with a rule that always joins, the same arrivals are cap rejections
    _, always = _reserving_run(cap=1, entrance_rule=lambda req, stats, length: True)
    assert always.cap_rejections == m.balks
    assert always.balks == [0, 0]


def test_entry_queue_length_includes_self():
    ctrl = _ctrl((1, 2))
    strat = naive_strategy(TINY_REGION, [1, 2, 0])
    first = _req(1, 1)
    second = _req(1, 2)
    on_request(ctrl, strat, first)
    on_request(ctrl, strat, second)
    assert first.entry_queue_length == 1
    assert second.entry_queue_length == 2


def test_fifo_order_per_queue():
    ctrl = _ctrl((1, 2))
    strat = naive_strategy(TINY_REGION, [2, 1, 0])
    reqs = [_req(2, rid) for rid in range(1, 6)]
    for r in reqs:
        on_request(ctrl, strat, r)
    accepted = on_release(ctrl, strat, 1)  # frees 0.6: three small slots
    assert [r.request_id for r in accepted] == [1, 2, 3]


def test_pass_uses_column_from_pass_start():
    # column chosen at (0, 4) prefers type 2; after its acceptance the state
    # is (0, 5) and a type-1 slice no longer fits, so within the same pass
    # the walk simply finds type 1 infeasible
    region = TINY_REGION
    columns = []
    for state in region.feasible[:region.n_admissible]:
        columns.append((2, 1, 0) if state == (0, 4) else (1, 2, 0))
    strat = Strategy(columns=tuple(columns),
                     scenario_fingerprint=region.scenario_fingerprint)
    ctrl = _ctrl((0, 4))
    ctrl.queues[0].append(_req(1, 1))
    ctrl.queues[1].append(_req(2, 2))
    accepted = serve_queues(ctrl, strat)
    assert [r.request_id for r in accepted] == [2]
    assert ctrl.state == (0, 5)


def test_quiescence_no_acceptable_head_remains():
    rng = np.random.default_rng(4)
    strat = naive_strategy(TINY_REGION, [1, 2, 0])
    for _ in range(100):
        state = TINY_REGION.feasible[rng.integers(0, TINY_REGION.n_feasible)]
        ctrl = _ctrl(state)
        for t in (0, 1):
            for rid in range(rng.integers(0, 4)):
                ctrl.queues[t].append(_req(t + 1, rid))
        serve_queues(ctrl, strat)
        idx = ctrl.state_index
        if not idx < TINY_REGION.n_admissible:
            continue
        column = strat.columns[idx]
        for pref in column:
            if pref == 0:
                break
            if ctrl.queues[pref - 1] and TINY_REGION.next_feasible[idx][pref - 1] >= 0:
                raise AssertionError(f"acceptable head left at state {ctrl.state}")


def _random_small_scenario(rng):
    m = int(rng.integers(1, 3))
    n = int(rng.integers(1, 4))
    while True:
        resources = tuple(float(rng.uniform(0.5, 1.5)) for _ in range(m))
        costs = []
        for _ in range(n):
            costs.append(tuple(float(rng.uniform(0.15, 0.9)) for _ in range(m)))
        sc = Scenario(
            resources=resources,
            slice_types=tuple(
                SliceType(cost=c, arrival_rate=1.0, release_rate=1.0,
                          profit_rate=1.0)
                for c in costs
            ),
        )
        region = enumerate_regions(sc)
        if region.n_feasible <= 50 and region.n_admissible >= 1:
            return sc, region


def test_serve_matches_reference_interpreter():
    """Randomized equivalence against the pass-by-pass interpreter."""
    rng = np.random.default_rng(12)
    for trial in range(400):
        sc, region = _random_small_scenario(rng)
        n = sc.n_types
        columns = {}
        cols = []
        for state in region.feasible[:region.n_admissible]:
            perm = tuple(int(x) for x in rng.permutation(n + 1))
            columns[state] = perm
            cols.append(perm)
        strat = Strategy(columns=tuple(cols),
                         scenario_fingerprint=region.scenario_fingerprint)

        start = region.feasible[int(rng.integers(0, region.n_feasible))]
        ctrl = ControllerState(region=region,
                               state_index=region.feasible_index(start))
        queues = {}
        rid = 0
        for t in range(n):
            depth = int(rng.integers(0, 5))
            queues[t + 1] = list(range(rid, rid + depth))
            for label in queues[t + 1]:
                ctrl.queues[t].append(_req(t + 1, label))
            rid += depth

        admissible = set(region.feasible[:region.n_admissible])
        feasible = set(region.feasible)
        expected_state, expected_accepts = reference_serve(
            start, queues, columns, admissible,
            feasible_next=lambda s: s in feasible,
        )
        accepted = serve_queues(ctrl, strat)
        assert ctrl.state == expected_state, f"trial {trial}"
        assert [r.request_id for r in accepted] == expected_accepts, f"trial {trial}"


def test_atomicity_state_steps_by_one_increment():
    # each acceptance moves the state by exactly one unit of one type
    rng = np.random.default_rng(8)
    sc, region = _random_small_scenario(rng)
    strat = naive_strategy(region, list(range(1, sc.n_types + 1)) + [0])
    ctrl = ControllerState(region=region, state_index=0)

    for t in range(sc.n_types):
        for rid in range(3):
            ctrl.queues[t].append(_req(t + 1, rid))
    before = ctrl.state
    accepted = serve_queues(ctrl, strat)
    total = np.array(ctrl.state) - np.array(before)
    assert total.sum() == len(accepted)
    assert (total >= 0).all()
