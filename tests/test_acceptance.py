"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavier campaigns
take a few minutes each; every test pins the seeds it uses, so reruns are
bit-identical.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sliceq.core import (
    demo_scenario,
    enumerate_regions,
    naive_strategy,
    random_strategy,
)
from sliceq.engine import (
    SimConfig,
    isolated_queue_sim,
    run_replication,
    substream,
)
from sliceq.fitting import fit_exponential, fit_geometric
from sliceq.markov import strategy_search
from sliceq.presets import OutputDir, run_fig4_iat
from sliceq.queueing import QueueParams, impatient_pmf
from sliceq.tenants import KnowledgeRegime

from helpers import (
    balance_equation_pmf,
    occupancy_pmf,
    rational_regions,
    reference_serve,
    state_mean,
    tv_distance,
    tv_from_dict,
)

DEMO = demo_scenario()
DEMO_REGION = enumerate_regions(DEMO)


@contextmanager
def criterion(name):
    start = time.time()
    status = {"detail": ""}
    try:
        yield status
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({status['detail']}) "
              f"[{time.time() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {name}: PASS ({status['detail']}) "
          f"[{time.time() - start:.1f}s]")


# Demo region by hand. With costs in hundredths of a unit the region is
#   s1 + 5*s2 <= 100  and  5*s1 + s2 <= 100.
# Counting s1 = 0..min((100 - s2) // 5, 100 - 5*s2) row by row: s2 = 0 gives
# 21 states, s2 = 1..5 give 20 each, 6..10 give 19, 11..15 give 18, 16 gives
# 17, and s2 = 17, 18, 19, 20 give 16, 11, 6, 1. So |S| = 357.
# A state is admissible when one more slice of at least one type still fits.
# Exactly nine states have no feasible successor, so |A| = 357 - 9 = 348.
DEMO_BOUNDARY = [(0, 20), (5, 19), (10, 18), (15, 17), (16, 16),
                 (17, 15), (18, 10), (19, 5), (20, 0)]


def test_ac1_region_count():
    with criterion("AC1 region count") as st:
        start = time.time()
        region = enumerate_regions(DEMO)
        elapsed = time.time() - start
        st["detail"] = (f"|S|={region.n_feasible} |A|={region.n_admissible} "
                        f"in {elapsed:.3f}s")
        assert elapsed < 1.0
        assert region.n_feasible == 357
        assert region.n_admissible == 348
        assert region.feasible[region.n_admissible:] == DEMO_BOUNDARY


def test_ac2_pmf_matches_balance_equations():
    with criterion("AC2 stationary-law oracle grid") as st:
        start = time.time()
        worst = 0.0
        points = 0
        for lam in (0.5, 1.0, 2.0):
            for mu in (0.5, 1.0, 2.0):
                for alpha in (0.1, 1.0):
                    for beta in (0.0, 0.5, 2.0):
                        probs = impatient_pmf(QueueParams(lam, mu, alpha, beta))
                        oracle = balance_equation_pmf(lam, mu, alpha, beta)
                        worst = max(worst, tv_distance(probs, oracle))
                        points += 1
        elapsed = time.time() - start
        st["detail"] = f"{points} grid points, worst TV {worst:.2e}"
        assert worst <= 1e-8
        assert elapsed < 10.0


def test_ac3_simulation_matches_analytics():
    with criterion("AC3 isolated queue vs stationary law") as st:
        start = time.time()
        params = QueueParams(1.0, 1.0, 1.0, 0.5)
        m = isolated_queue_sim(params, horizon=7e5, seed=31,
                               collect_records=False)
        events = sum(m.arrivals) + sum(m.acceptances) + sum(m.reneges)
        tv = tv_from_dict(occupancy_pmf(m), impatient_pmf(params))

        params0 = QueueParams(1.0, 1.0, 1.0, 0.0)
        m0 = isolated_queue_sim(params0, horizon=7e5, seed=32,
                                collect_records=False)
        p0_emp = occupancy_pmf(m0)[(0,)]
        p0_err = abs(p0_emp - 1.0 / (math.e - 1.0))
        elapsed = time.time() - start
        st["detail"] = (f"{events} events, TV {tv:.4f}, "
                        f"p0 error {p0_err:.4f}")
        assert events >= 1e6
        assert tv <= 0.02
        assert p0_err <= 0.01
        assert elapsed < 120.0


def test_ac4_patient_queue_sanity():
    with criterion("AC4 patient queue sanity") as st:
        params = QueueParams(1.0, 2.0)
        m = isolated_queue_sim(params, horizon=6e5, seed=33)
        events = sum(m.arrivals) + sum(m.acceptances)
        geo = 0.5 * 0.5 ** np.arange(80)
        tv = tv_from_dict(occupancy_pmf(m), geo)
        mean_len = state_mean(m)[0]
        waits = [r.wait for r in m.records if r.disposition == "accepted"]
        little_err = abs(mean_len - (m.joined[0] / m.horizon) * np.mean(waits)) / mean_len
        st["detail"] = (f"{events} events, TV {tv:.4f}, "
                        f"Little error {little_err:.4f}")
        assert events >= 1e6
        assert tv <= 0.01
        assert little_err <= 0.05


@pytest.mark.slow
def test_ac5_geometric_iat_contrast(tmp_path):
    with criterion("AC5 geometric IAT contrast") as st:
        start = time.time()
        out = OutputDir.create(tmp_path / "fig4", force=False)
        summary = run_fig4_iat(DEMO, out, scale=0.1, seed=101)
        out.finalize()
        patient = summary["patient_success_rate"]
        impatient = summary["impatient_success_rate"]
        elapsed = time.time() - start
        st["detail"] = (f"patient {patient:.4f}, impatient {impatient:.4f}, "
                        f"gap {patient - impatient:+.4f}")
        assert elapsed < 600.0
        assert patient >= 0.95
        assert patient - impatient >= 0.25


def _regime_campaign(seeds):
    regimes = {
        "patient": KnowledgeRegime("patient"),
        "blind": KnowledgeRegime("blind", risk_factor=0.01),
        "position": KnowledgeRegime("position", delta_k=2),
        "avg_wait": KnowledgeRegime("avg_wait"),
        "serving_rate": KnowledgeRegime("serving_rate"),
        "full": KnowledgeRegime("full"),
    }
    mean_profit = {k: [] for k in regimes}
    total_profit = {k: [] for k in regimes}
    for seed in seeds:
        rng = substream(seed, 0, 998)
        strat = random_strategy(DEMO_REGION, rng)
        for name, regime in regimes.items():
            cfg = SimConfig(horizon=1000.0, master_seed=seed, queue_cap=100,
                            knowledge=regime)
            m = run_replication(DEMO, strat, cfg, replication=0,
                                region=DEMO_REGION)
            profits = [r.end_profit for r in m.records if r.end_profit is not None]
            mean_profit[name].append(float(np.mean(profits)))
            total_profit[name].append(float(np.sum(profits)))
    return ({k: np.array(v) for k, v in mean_profit.items()},
            {k: np.array(v) for k, v in total_profit.items()})


@pytest.mark.slow
def test_ac6_knowledge_regime_ordering():
    with criterion("AC6 knowledge-regime ordering") as st:
        start = time.time()
        seeds = list(range(10))
        mp, tp = _regime_campaign(seeds)
        n = len(seeds)
        full_ge = int((mp["full"] >= mp["serving_rate"]).sum())
        srv_gt = int((mp["serving_rate"] > mp["avg_wait"]).sum())
        avg_gt = int((mp["avg_wait"] > mp["position"]).sum())
        blind_gt = int((tp["blind"] > tp["patient"]).sum())
        pat, pos = mp["patient"].mean(), mp["position"].mean()
        pos_gap = abs(pos - pat) / abs(pat)
        elapsed = time.time() - start
        st["detail"] = (f"full>=srv {full_ge}/{n}, srv>avg {srv_gt}/{n}, "
                        f"avg>pos {avg_gt}/{n}, blind>patient {blind_gt}/{n}, "
                        f"position gap {pos_gap:.3f}")
        assert elapsed < 900.0
        assert full_ge >= 8
        assert srv_gt >= 8
        assert avg_gt >= 8
        assert pos_gap <= 0.15
        assert blind_gt >= 8


@pytest.mark.slow
def test_ac7_search_beats_greedy_single_queue():
    with criterion("AC7 multi-queue search vs greedy single queue") as st:
        start = time.time()
        wins = 0
        n_seeds = 10
        details = []
        for seed in range(n_seeds):
            cfg = SimConfig(horizon=40.0, replications=2, master_seed=seed,
                            queue_cap=100, knowledge=KnowledgeRegime("full"),
                            initial_state="random_full")
            rows = strategy_search(DEMO, DEMO_REGION, 200, cfg,
                                   objective="utility")
            best = max(r.u_sigma for r in rows if r.kind == "random")
            greedy = next(r.u_sigma for r in rows if r.kind == "greedy_single")
            wins += best > greedy
            details.append(best - greedy)
        elapsed = time.time() - start
        st["detail"] = (f"wins {wins}/{n_seeds}, "
                        f"median margin {np.median(details):+.2f}")
        assert elapsed < 900.0
        assert wins >= 9


def _pooled_reneging_waits(strategies, seed, rounds=25):
    pools = [[] for _ in range(DEMO.n_types)]
    cfg = SimConfig(horizon=40.0, master_seed=seed, queue_cap=100,
                    knowledge=KnowledgeRegime("full"),
                    initial_state="random_full")
    for i, strat in enumerate(strategies):
        for r in range(rounds):
            m = run_replication(DEMO, strat, cfg, replication=i * rounds + r,
                                region=DEMO_REGION)
            for rec in m.records:
                if rec.disposition == "reneged" and rec.wait > 0:
                    pools[rec.slice_type - 1].append(rec.wait)
    return pools


@pytest.mark.slow
def test_ac8_reneging_time_shape():
    with criterion("AC8 reneging-time shape") as st:
        rng = substream(77, 0, 998)
        random_strategies = [random_strategy(DEMO_REGION, rng)
                             for _ in range(12)]
        random_pools = _pooled_reneging_waits(random_strategies, seed=77)
        prefer2 = [naive_strategy(DEMO_REGION, [2, 1, 0])] * 12
        fixed_pools = _pooled_reneging_waits(prefer2, seed=78)

        diags_random = [fit_exponential(p).tail_diagnostic
                        for p in random_pools if len(p) >= 30]
        fixed_fit = [fit_exponential(p).tail_diagnostic if len(p) >= 30 else None
                     for p in fixed_pools]
        st["detail"] = (f"random diags {[f'{d:.2f}' for d in diags_random]}, "
                        f"prefer2 diags {[f'{d:.2f}' if d else 'n/a' for d in fixed_fit]}")
        assert diags_random, "no reneging mass under random strategies"
        assert all(d < 1.5 for d in diags_random)
        # under the fixed strategy the starved queue shows the fatter tail
        assert fixed_fit[0] is not None and fixed_fit[1] is not None
        assert fixed_fit[0] > fixed_fit[1]


def test_ac9_property_suite():
    with criterion("AC9 property suite") as st:
        checks = []

        # normalization of the stationary law
        for params in (QueueParams(1, 1, 1, 0.5), QueueParams(2, 0.5, 0.1, 2.0)):
            assert impatient_pmf(params).sum() == pytest.approx(1.0, abs=1e-12)
        checks.append("normalization")

        # exact-arithmetic region oracle
        feas, adm = rational_regions(DEMO.resources,
                                     [s.cost for s in DEMO.slice_types])
        assert set(DEMO_REGION.feasible) == feas
        assert set(DEMO_REGION.feasible[:DEMO_REGION.n_admissible]) == adm
        checks.append("region-oracle")

        # index round trip
        for i, state in enumerate(DEMO_REGION.feasible):
            assert DEMO_REGION.feasible_index(state) == i
        checks.append("index-round-trip")

        # conservation + determinism + FIFO on a live run
        strat = naive_strategy(DEMO_REGION, [2, 1, 0])
        cfg = SimConfig(horizon=120.0, master_seed=13, queue_cap=50,
                        knowledge=KnowledgeRegime("blind", risk_factor=0.2),
                        initial_state="random_full")
        a = run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION)
        b = run_replication(DEMO, strat, cfg, 0, region=DEMO_REGION)
        assert a.conservation_ok()
        assert a.acceptance_times == b.acceptance_times
        for t in range(DEMO.n_types):
            accepted = [r.request_id for r in a.records
                        if r.slice_type == t + 1 and r.disposition == "accepted"
                        and r.wait > 0]
            assert accepted == sorted(accepted)
        checks.append("conservation/determinism/FIFO")

        # KLD non-negativity
        rng = np.random.default_rng(3)
        for _ in range(100):
            samples = rng.integers(0, 8, size=40)
            fit = fit_geometric(samples)
            assert fit.kld >= -1e-12
        checks.append("kld>=0")

        # regime dominance
        from helpers import renege_full
        from sliceq.tenants import renege_serving_rate
        from sliceq.controller import PendingRequest
        for _ in range(200):
            req = PendingRequest(
                request_id=0, slice_type=1, enter_time=0.0,
                lifetime=float(rng.exponential(5.0)) + 1e-9,
                issue_cost=0.0, waiting_cost_rate=float(rng.uniform(0.2, 2.0)),
                profit_rate=float(rng.uniform(1.0, 10.0)))
            k = int(rng.integers(1, 25))
            mu = float(rng.uniform(0.3, 3.0))
            omega = [0.0] + list(rng.uniform(0, 1.5, size=k - 1))
            if renege_serving_rate(req, k, mu):
                assert renege_full(req, k, mu, omega)
        checks.append("dominance")

        # brute-force serve equivalence on small scenarios
        from sliceq.controller import ControllerState, serve_queues
        from sliceq.core import Scenario, SliceType, Strategy
        trials = 0
        rng = np.random.default_rng(99)
        while trials < 200:
            m = int(rng.integers(1, 3))
            n = int(rng.integers(1, 4))
            sc = Scenario(
                resources=tuple(float(rng.uniform(0.5, 1.5)) for _ in range(m)),
                slice_types=tuple(
                    SliceType(cost=tuple(float(rng.uniform(0.15, 0.9))
                                         for _ in range(m)),
                              arrival_rate=1.0, release_rate=1.0,
                              profit_rate=1.0)
                    for _ in range(n)),
            )
            region = enumerate_regions(sc)
            if region.n_feasible > 50 or region.n_admissible < 1:
                continue
            trials += 1
            columns = {}
            cols = []
            for state in region.feasible[:region.n_admissible]:
                perm = tuple(int(x) for x in rng.permutation(n + 1))
                columns[state] = perm
                cols.append(perm)
            strat2 = Strategy(columns=tuple(cols),
                              scenario_fingerprint=region.scenario_fingerprint)
            start_state = region.feasible[int(rng.integers(0, region.n_feasible))]
            ctrl = ControllerState(region=region,
                                   state_index=region.feasible_index(start_state))
            queues = {}
            rid = 0
            for t in range(n):
                depth = int(rng.integers(0, 5))
                labels = list(range(rid, rid + depth))
                rid += depth
                queues[t + 1] = labels
                for label in labels:
                    ctrl.queues[t].append(PendingRequest(
                        request_id=label, slice_type=t + 1, enter_time=0.0,
                        lifetime=1.0, issue_cost=0.0, waiting_cost_rate=1.0,
                        profit_rate=1.0))
            feasible = set(region.feasible)
            expected_state, expected = reference_serve(
                start_state, queues, columns, set(region.feasible[:region.n_admissible]),
                lambda s: s in feasible)
            accepted = serve_queues(ctrl, strat2)
            assert ctrl.state == expected_state
            assert [r.request_id for r in accepted] == expected
        checks.append("serve-equivalence(200 scenarios)")

        st["detail"] = ", ".join(checks)
