"""Transition matrix construction, absorption laws and strategy search."""
import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from sliceq import markov
from sliceq.core import (
    Scenario,
    SliceType,
    demo_scenario,
    enumerate_regions,
    naive_strategy,
    random_strategy,
    tiny_scenario,
)
from sliceq.engine import SimConfig, run_replication, summarize_run
from sliceq.errors import InvalidInputError
from sliceq.markov import (
    analytic_evaluation,
    build_transition_matrix,
    empty_probs_from_analytics,
    estimate_acceptance_rates,
    long_run_distribution,
    strategy_search,
    utility_metrics,
)
from sliceq.queueing import QueueParams, impatient_pmf
from sliceq.tenants import KnowledgeRegime

from helpers import state_mean


def _open_scenario():
    # roomy single-resource pool so states like (2, 3) are interior
    return Scenario(
        resources=(1.0,),
        slice_types=(
            SliceType(cost=(0.1,), arrival_rate=1.0, release_rate=0.2,
                      waiting_cost_rate=1.0, profit_rate=4.0),
            SliceType(cost=(0.1,), arrival_rate=1.0, release_rate=1 / 3,
                      waiting_cost_rate=1.5, profit_rate=4.0),
        ),
    )


def test_transition_row_example():
    sc = _open_scenario()
    region = enumerate_regions(sc)
    strat = naive_strategy(region, [1, 2, 0])
    psi = build_transition_matrix(strat, region, [0.3, 0.5])
    i = region.feasible_index((0, 0))
    up1 = region.feasible_index((1, 0))
    up2 = region.feasible_index((0, 1))
    assert psi[i, up1] == pytest.approx(0.7)
    assert psi[i, up2] == pytest.approx(0.3 * 0.5)
    assert psi[i, i] == pytest.approx(0.15)


def test_transition_skips_type_that_does_not_fit():
    # (19, 4) is admissible; a type-1 slice no longer fits there, a type-2
    # one does, so the controller serves queue 2 whenever it is non-empty
    region = enumerate_regions(demo_scenario())
    i = region.feasible_index((19, 4))
    assert i < region.n_admissible
    assert region.next_feasible[i][0] < 0
    up2 = region.next_feasible[i][1]
    assert region.feasible[up2] == (19, 5)
    strat = naive_strategy(region, [1, 2, 0])
    row = build_transition_matrix(strat, region, [0.3, 0.5])[[i]].toarray().ravel()
    assert row[up2] == pytest.approx(0.5)
    assert row[i] == pytest.approx(0.5)
    assert row.sum() == pytest.approx(1.0)


def test_transition_rows_stochastic():
    region = enumerate_regions(demo_scenario())
    strat = naive_strategy(region, [2, 1, 0])
    psi = build_transition_matrix(strat, region, [0.25, 0.4]).toarray()
    assert np.allclose(psi.sum(axis=1), 1.0, atol=1e-12)
    assert (psi >= 0).all()


def test_transition_boundary_rows_self_loop():
    region = enumerate_regions(demo_scenario())
    strat = naive_strategy(region, [1, 2, 0])
    psi = build_transition_matrix(strat, region, [0.3, 0.3])
    for j in range(region.n_admissible, region.n_feasible):
        assert psi[j, j] == pytest.approx(1.0)


def test_transition_identity_when_queues_always_empty():
    region = enumerate_regions(demo_scenario())
    strat = naive_strategy(region, [1, 2, 0])
    psi = build_transition_matrix(strat, region, [1.0, 1.0])
    assert np.allclose(psi.toarray(), np.eye(region.n_feasible))


def test_transition_rejects_bad_probabilities():
    region = enumerate_regions(demo_scenario())
    strat = naive_strategy(region, [1, 2, 0])
    with pytest.raises(InvalidInputError):
        build_transition_matrix(strat, region, [1.2, 0.5])


def fundamental_matrix_law(psi, p_init):
    """Absorption law from the dense fundamental matrix N = (I - Q)^-1,
    with absorbing states those whose self-loop is exactly one."""
    psi = np.asarray(psi, dtype=float)
    p = np.asarray(p_init, dtype=float)
    absorbing = np.diag(psi) == 1.0
    t, a = np.flatnonzero(~absorbing), np.flatnonzero(absorbing)
    q, r = psi[np.ix_(t, t)], psi[np.ix_(t, a)]
    visits = np.linalg.solve((np.eye(len(t)) - q).T, p[t])
    law = np.where(absorbing, p, 0.0)
    law[a] += visits @ r
    return law


def test_long_run_identity_returns_initial():
    res = long_run_distribution(np.eye(3), np.array([0.2, 0.3, 0.5]))
    assert np.array_equal(res.distribution, [0.2, 0.3, 0.5])
    assert res.converged is True
    assert res.iterations == 1


def test_long_run_absorbing_chain():
    psi = np.array([[1.0, 0.0], [0.5, 0.5]])
    res = long_run_distribution(psi, np.array([0.0, 1.0]))
    assert np.allclose(res.distribution, [1.0, 0.0], atol=1e-15)
    assert res.converged


def test_long_run_absorbing_start_comes_back_unchanged():
    psi = np.array([[0.2, 0.5, 0.3, 0.0],
                    [0.0, 1.0, 0.0, 0.0],
                    [0.1, 0.0, 0.4, 0.5],
                    [0.0, 0.0, 0.0, 1.0]])
    for start in (1, 3):
        p0 = np.eye(4)[start]
        res = long_run_distribution(psi, p0)
        assert np.array_equal(res.distribution, p0)
        assert np.array_equal(res.distribution, fundamental_matrix_law(psi, p0))
        assert res.converged and res.residual == 0.0


@st.composite
def absorbing_chains(draw):
    """A random chain (CSR) with at least one absorbing state that every
    transient state can reach, and a random initial law."""
    n = draw(st.integers(2, 12))
    n_absorbing = draw(st.integers(1, n - 1))
    weights = draw(hnp.arrays(float, (n, n), elements=st.one_of(
        st.just(0.0), st.floats(0.01, 1.0))))
    absorbing = draw(st.permutations(range(n)))[:n_absorbing]
    weights[absorbing] = 0.0
    weights[absorbing, absorbing] = 1.0
    off = weights - np.diag(np.diag(weights))
    reach = np.zeros(n, dtype=bool)
    reach[absorbing] = True
    for _ in range(n):
        reach |= (off[:, reach] > 0).any(axis=1)
    assume(reach.all())
    psi = weights / weights.sum(axis=1, keepdims=True)
    p_init = draw(hnp.arrays(float, n, elements=st.floats(0.0, 1.0)))
    assume(p_init.sum() > 0.01)
    return psi, p_init / p_init.sum()


@settings(max_examples=200, deadline=None)
@given(absorbing_chains())
def test_long_run_matches_fundamental_matrix(chain):
    psi, p_init = chain
    res = long_run_distribution(sparse.csr_matrix(psi), p_init)
    assert isinstance(res.distribution, np.ndarray)
    assert np.abs(res.distribution - fundamental_matrix_law(psi, p_init)).max() < 1e-12
    assert res.converged is True
    assert 0.0 <= res.residual <= 1e-9


def test_long_run_refuses_chains_without_absorption():
    periodic = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidInputError):
        long_run_distribution(periodic, np.array([1.0, 0.0]))
    # states 0 and 1 are transient but cycle between each other forever,
    # although the chain has an absorbing state
    closed_cycle = np.array([[0.5, 0.5, 0.0],
                             [0.3, 0.7, 0.0],
                             [0.2, 0.0, 0.8]])
    with pytest.raises(InvalidInputError):
        long_run_distribution(closed_cycle, np.array([0.0, 0.0, 1.0]))


def test_long_run_validates_inputs():
    with pytest.raises(InvalidInputError):
        long_run_distribution(np.eye(2), np.array([0.5, 0.6]))
    with pytest.raises(InvalidInputError):
        long_run_distribution(np.array([[0.5, 0.4], [0.5, 0.5]]),
                              np.array([0.5, 0.5]))


def test_acceptance_rates_point_mass():
    sc = _open_scenario()
    region = enumerate_regions(sc)
    long_run = np.zeros(region.n_feasible)
    long_run[region.feasible_index((2, 3))] = 1.0
    mu = estimate_acceptance_rates(long_run, region, [0.2, 1 / 3])
    assert mu == pytest.approx([0.4, 1.0])
    zero = np.zeros(region.n_feasible)
    zero[region.feasible_index((0, 0))] = 1.0
    assert estimate_acceptance_rates(zero, region, [0.2, 1 / 3]) == pytest.approx([0, 0])


def test_acceptance_rates_match_simulation_occupancy():
    sc = demo_scenario()
    region = enumerate_regions(sc)
    strat = naive_strategy(region, [2, 1, 0])
    cfg = SimConfig(horizon=2000.0, master_seed=3, queue_cap=100)
    m = run_replication(sc, strat, cfg, region=region)
    eta = np.array([st.release_rate for st in sc.slice_types])
    predicted = state_mean(m) * eta
    measured = m.measured_acceptance_rates()
    assert np.all(np.abs(predicted - measured) / measured < 0.05)


def test_utility_metrics_values():
    assert utility_metrics([1.0, 1.0], [0.2, 1 / 3], [1.0, 1.5]) == pytest.approx(9.5)
    assert utility_metrics([0.4], [0.2], [2.0]) == pytest.approx(4.0)
    with pytest.raises(InvalidInputError):
        utility_metrics([-0.4], [0.2], [2.0])


def test_empty_probs_from_analytics():
    sc = demo_scenario()
    p0 = empty_probs_from_analytics(sc, [3.0, 5.0])
    assert len(p0) == 2
    assert all(0 <= p <= 1 for p in p0)
    # each type balks and reneges at eta * u / zeta: tiny's (0.5, 1, 4), (1, 1, 2)
    tiny, mus = tiny_scenario(), [0.8, 3.0]
    want = [impatient_pmf(QueueParams(t.arrival_rate, mu, rate, rate))[0]
            for t, mu, rate in zip(tiny.slice_types, mus, [0.5 * 1.0 / 4.0, 1.0 * 1.0 / 2.0])]
    assert list(empty_probs_from_analytics(tiny, mus)) == want
    # with no waiting cost a tenant is patient: a queue at or above saturation
    # has no empty mass, one below it is empty with probability 1 - rho
    patient = Scenario(resources=(1.0,),
                       slice_types=(SliceType(cost=(0.5,), arrival_rate=2.0, release_rate=1.0,
                                              waiting_cost_rate=0.0, profit_rate=1.0),))
    assert list(empty_probs_from_analytics(patient, [1.0])) == [0.0]
    assert list(empty_probs_from_analytics(patient, [2.0])) == [0.0]
    assert empty_probs_from_analytics(patient, [8.0])[0] == pytest.approx(1 - 2.0 / 8.0)


def test_empty_probs_from_analytics_leaves_an_unserved_queue_never_empty():
    # a type measured at rate 0 is never served, so its queue is never empty;
    # the other types' probabilities do not depend on it
    tiny = tiny_scenario()
    got = empty_probs_from_analytics(tiny, [0.0, 3.0])
    assert got[0] == 0.0
    assert got[1] == empty_probs_from_analytics(tiny, [0.8, 3.0])[1]


def test_analytic_evaluation_runs_and_is_labelled():
    sc = demo_scenario()
    region = enumerate_regions(sc)
    strat = naive_strategy(region, [2, 1, 0])
    res = analytic_evaluation(sc, strat, region, seed=1)
    assert res["label"] == "embedded-chain approximation"
    assert res["u_sigma"] >= 0.0
    assert len(res["long_run"]) == region.n_feasible
    res_fp = analytic_evaluation(sc, strat, region, seed=1, fixed_point_rounds=3)
    assert res_fp["u_sigma"] >= 0.0


def _result_digest(res: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(res):
        value = res[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(str(value.dtype).encode() + np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


# pinned demo evaluations: the bootstrap path with and without fixed-point
# rounds, and given queue-empty probabilities, which take one undamped round
@pytest.mark.parametrize("rounds,empty_probs,digest", [
    (0, None, "5d91b34ad58a8154ca87e9139fe72c2b6f934f4e89f001805dd2c8492d4eb4fe"),
    (3, None, "5d9d6b666872ed5047397f60c82fe6457a8027070ad71c0e2631f719a237d7dc"),
    (0, (0.3, 0.6), "c3d1823f31cf453d057960460ae524a58d9061eef422e88838c92460bf121bae"),
    (3, (0.3, 0.6), "c3d1823f31cf453d057960460ae524a58d9061eef422e88838c92460bf121bae"),
])
def test_analytic_evaluation_pinned_results(monkeypatch, rounds, empty_probs, digest):
    sc = demo_scenario()
    region = enumerate_regions(sc)
    strat = naive_strategy(region, [2, 1, 0])
    if empty_probs is not None:
        # given queue-empty probabilities: one round, no bootstrap run
        def no_bootstrap(*args, **kwargs):
            raise AssertionError("bootstrap run with empty_probs given")
        monkeypatch.setattr(markov, "bootstrap_service_rates", no_bootstrap)
        empty_probs = list(empty_probs)
    res = analytic_evaluation(sc, strat, region, seed=1, fixed_point_rounds=rounds,
                              empty_probs=empty_probs)
    assert _result_digest(res) == digest


@pytest.mark.parametrize("rounds, converged", [(20, False), (30, True)])
def test_fixed_point_ends_once_the_rates_settle(monkeypatch, rounds, converged):
    # on the demo under [2, 1, 0] each solve gives type 1 a rate near 0, but
    # damping only halves the bootstrap's rate: the rates a solve returns are
    # within 1e-6 of those it was fed first at the 24th solve, which ends the
    # rounds; 20 rounds stop short of it
    sc = demo_scenario()
    region = enumerate_regions(sc)
    strat = naive_strategy(region, [2, 1, 0])
    solves = []
    solve = markov.long_run_distribution
    monkeypatch.setattr(markov, "long_run_distribution",
                        lambda *args: solves.append(args) or solve(*args))
    res = analytic_evaluation(sc, strat, region, seed=1, fixed_point_rounds=rounds)
    assert len(solves) == min(rounds, 24)
    assert res["converged"] is converged
    assert res["residual"] <= markov.CONVERGED_RESIDUAL
    assert res["acceptance_rates"].tolist() == [0.0, pytest.approx(20 / 3, rel=1e-12)]


def test_analytic_evaluation_stays_sparse_on_large_region():
    # 7,293 states: a dense transition matrix would take about 425 MB
    sc = Scenario(
        resources=(1.0,),
        slice_types=tuple(
            SliceType(cost=(c,), arrival_rate=2.0, release_rate=0.5,
                      waiting_cost_rate=1.0, profit_rate=4.0)
            for c in (0.035, 0.03, 0.025)
        ),
    )
    region = enumerate_regions(sc)
    assert region.n_feasible >= 6000
    strat = random_strategy(region, np.random.default_rng(1))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        psi = build_transition_matrix(strat, region, [0.3, 0.4, 0.5])
        res = analytic_evaluation(sc, strat, region, empty_probs=[0.3, 0.4, 0.5])
        elapsed = time.perf_counter() - t0
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert psi.format == "csr"
    assert res["converged"] is True
    assert res["long_run"].sum() == pytest.approx(1.0, abs=1e-12)
    assert elapsed < 10.0
    assert peak_mb < 64.0


def test_strategy_search_composition_and_determinism():
    sc = demo_scenario()
    region = enumerate_regions(sc)
    cfg = SimConfig(horizon=10.0, replications=1, master_seed=4, queue_cap=20,
                    knowledge=KnowledgeRegime("full"),
                    initial_state="random_full")
    rows = strategy_search(sc, region, 1, cfg)
    kinds = [r.kind for r in rows]
    assert kinds.count("random") == 1
    for bench in ("prefer1", "prefer2", "greedy_single"):
        assert kinds.count(bench) == 1
    rows2 = strategy_search(sc, region, 1, cfg)
    assert [(r.strategy_id, r.objective) for r in rows] \
        == [(r.strategy_id, r.objective) for r in rows2]
    # sorted best-first on the objective
    objectives = [r.objective for r in rows]
    assert objectives == sorted(objectives, reverse=True)


def test_strategy_search_exhaustive_guard():
    sc = demo_scenario()
    region = enumerate_regions(sc)
    cfg = SimConfig(horizon=5.0, replications=1, master_seed=0)
    with pytest.raises(InvalidInputError):
        strategy_search(sc, region, 1, cfg, exhaustive=True)


def test_strategy_search_exhaustive_small_region():
    sc = Scenario(
        resources=(1.0,),
        slice_types=(
            SliceType(cost=(0.4,), arrival_rate=1.0, release_rate=1.0,
                      profit_rate=2.0),
            SliceType(cost=(0.45,), arrival_rate=1.0, release_rate=1.0,
                      profit_rate=2.0),
        ),
    )
    region = enumerate_regions(sc)
    assert region.n_admissible <= 12
    cfg = SimConfig(horizon=5.0, replications=1, master_seed=0, queue_cap=10)
    rows = strategy_search(sc, region, 0, cfg, exhaustive=True,
                           include_benchmarks=False)
    assert len(rows) == 2 ** region.n_admissible
    assert {r.kind for r in rows} == {"exhaustive"}


@pytest.mark.parametrize("objective", ["wait", "admission"])
def test_analytic_search_refuses_objectives_the_chain_does_not_give(objective):
    # the chain gives no wait or admission rate, so every chain candidate
    # would score NaN and the ranking would be meaningless
    sc = tiny_scenario()
    region = enumerate_regions(sc)
    cfg = SimConfig(horizon=5.0, replications=1, master_seed=0, queue_cap=10)
    with pytest.raises(InvalidInputError):
        strategy_search(sc, region, 3, cfg, objective=objective, evaluator="analytic")
    rows = strategy_search(sc, region, 3, cfg, evaluator="analytic")
    assert not any(np.isnan(r.objective) for r in rows)


def test_search_rows_are_the_mean_of_the_replication_summaries():
    sc = demo_scenario()
    region = enumerate_regions(sc)
    cfg = SimConfig(horizon=20.0, replications=4, master_seed=3, queue_cap=20,
                    collect_records=False)
    rows = {r.strategy_id: r for r in strategy_search(sc, region, 1, cfg)}
    for sid, strat in (("prefer1", naive_strategy(region, [1, 2, 0])), ("greedy_single", None)):
        summaries = [summarize_run(run_replication(sc, strat, cfg, rep, region=region,
                                                   single_queue=strat is None), sc)
                     for rep in range(cfg.replications)]
        row = rows[sid]
        assert (row.u_sigma, row.mean_wait, row.admission_rate) == tuple(
            float(np.mean([s[k] for s in summaries]))
            for k in ("u_sigma", "mean_wait_joined", "admission_rate"))
