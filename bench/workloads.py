"""The benchmark's workloads: their inputs, their operations and the checks
of what each operation returns.

A round is a fixed list of operations, run one after another (a closed loop
with one client). Every round of a run repeats the same inputs, which the
seed chooses, so each round attempts the same operations. sliceq functions
are looked up on their modules at call time, so the tracer's wrappers see
the calls.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from sliceq import core, engine, fitting, markov, queueing, tenants

import oracles

HERE = Path(__file__).resolve().parent
REGIMES = ("patient", "blind", "position", "avg_wait", "serving_rate", "full")
TOL = 1e-9


@dataclass
class Tally:
    """What one operation added to its round."""

    attempted: int = 1
    failed: int = 0
    events: int = 0        # arrivals + acceptances + reneges simulated
    evaluations: int = 0   # candidates, replications or chain evaluations
    strategies: int = 0    # distinct strategies handled


@dataclass
class Op:
    """One call into sliceq and the check of its result."""

    run: Callable[[], object]
    check: Callable[[object], Tally]
    attempted: int = 1  # operations the call stands for, counted failed if it raises
    kernel: str = "python"  # calibration kernel: the kind of work that dominates


class Checks:
    """Collects the output checks that did not hold."""

    KEEP = 100  # messages kept; ``failures`` counts them all

    def __init__(self):
        self.errors: list[str] = []
        self.failures = 0

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures += 1
            if len(self.errors) < self.KEEP:
                self.errors.append(message)


def events(metrics) -> int:
    return sum(metrics.arrivals) + sum(metrics.acceptances) + sum(metrics.reneges)


def check_run(checks: Checks, metrics, scenario, label: str) -> None:
    """Properties every multi-queue replication must have."""
    checks.require(metrics.conservation_ok(), f"{label}: request counts do not balance")
    checks.require(
        all(a <= r + TOL for a, r in zip(metrics.max_assigned, scenario.resources)),
        f"{label}: assigned resources exceed the pool")
    checks.require(oracles.fifo_by_type(metrics.records),
                   f"{label}: queued requests accepted out of arrival order")


def hash_records(h, records) -> None:
    for r in records:
        h.update(repr((r.request_id, r.slice_type, r.enter_time, r.lifetime,
                       r.entry_queue_length, r.disposition, r.wait,
                       r.end_profit)).encode())


class Workload:
    name = ""

    def __init__(self, seed: int, checks: Checks):
        self.seed = seed
        self.checks = checks

    def setup(self) -> None:
        """Build the inputs: scenario, region and strategies."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        """The operations of one round."""
        raise NotImplementedError

    def digest(self) -> str:
        """SHA-256 of the request records of this workload's pinned runs,
        which do not depend on the seed."""
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Per-layer figures the checks measured rather than the tracer."""
        return {}


class Search(Workload):
    """strategy_search on the demo scenario, full-knowledge tenants.

    A round is 3 searches of 8 random candidates each, with master seeds
    3*seed, 3*seed + 1 and 3*seed + 2; the last one adds prefer1, prefer2
    and greedy_single. Three shorter calls instead of one let the
    calibration bracket every half second of work.
    """

    name = "search"
    N_CALLS = 3
    N_RANDOM = 8  # per call

    @staticmethod
    def config(seed: int):
        return engine.SimConfig(horizon=40.0, replications=2, master_seed=seed,
                                knowledge=tenants.KnowledgeRegime("full"),
                                initial_state="random_full")

    def setup(self):
        self.scenario = core.demo_scenario()
        self.region = core.enumerate_regions(self.scenario)
        self.cfgs = [self.config(self.N_CALLS * self.seed + k) for k in range(self.N_CALLS)]
        self.expected = {}  # call -> strategy id -> (u_sigma, events) from re-runs

    def ops(self):
        last = self.N_CALLS - 1
        return [Op(partial(self.search, k), partial(self.check, k),
                   attempted=self.N_RANDOM + 3 * (k == last))
                for k in range(self.N_CALLS)]

    def search(self, k):
        return markov.strategy_search(self.scenario, self.region, self.N_RANDOM, self.cfgs[k],
                                      include_benchmarks=k == self.N_CALLS - 1)

    def rerun(self, rows, cfg) -> dict:
        """Re-run every candidate's replications and recompute u_sigma."""
        u_rates = [st.effective_utility_rate for st in self.scenario.slice_types]
        out = {}
        for row in rows:
            total_u, n_events = 0.0, 0
            for rep in range(cfg.replications):
                m = engine.run_replication(
                    self.scenario, row.strategy, cfg, rep, region=self.region,
                    single_queue=row.kind == "greedy_single")
                check_run(self.checks, m, self.scenario,
                          f"search/{cfg.master_seed}/{row.strategy_id}/{rep}")
                total_u += oracles.utility_time_average(m.occupancy, u_rates)
                n_events += events(m)
            out[row.strategy_id] = (total_u / cfg.replications, n_events)
        return out

    def check(self, k, rows) -> Tally:
        if k not in self.expected:
            self.expected[k] = self.rerun(rows, self.cfgs[k])
        expected = self.expected[k]
        self.checks.require({r.strategy_id for r in rows} == set(expected),
                            "search: the candidate set changed between rounds")
        for row in rows:
            want = expected.get(row.strategy_id)
            if want is not None:
                self.checks.require(abs(row.u_sigma - want[0]) <= TOL,
                                    f"search/{row.strategy_id}: u_sigma {row.u_sigma} "
                                    f"!= occupancy average {want[0]}")
            self.checks.require(0.0 <= row.admission_rate <= 1.0,
                                f"search/{row.strategy_id}: admission_rate outside [0, 1]")
        n = len(rows)
        return Tally(attempted=n, events=sum(e for _, e in expected.values()),
                     evaluations=n, strategies=n)

    def digest(self):
        # the first random candidate strategy_search draws at master seed 0
        strat = core.random_strategy(self.region, engine.substream(0, 0, 999))
        cfg = self.config(0)
        h = hashlib.sha256()
        for rep in range(cfg.replications):
            hash_records(h, engine.run_replication(self.scenario, strat, cfg, rep,
                                                   region=self.region).records)
        return h.hexdigest()


class Regimes(Workload):
    """One long replication per (random strategy, knowledge regime), each
    followed by geometric fits of its inter-acceptance gaps."""

    name = "regimes"
    # The strategies are the same on every seed, which drives only the
    # simulation: a replication's cost depends strongly on its strategy, and
    # with one seed-drawn strategy a run's wall time moved 25% between seeds.
    STRATEGY_SEED = 0
    N_STRATEGIES = 2
    HORIZON = 1000.0
    PINNED_HORIZON = 200.0

    def setup(self):
        self.scenario = core.demo_scenario()
        self.region = core.enumerate_regions(self.scenario)
        rng = np.random.default_rng(self.STRATEGY_SEED)
        self.strategies = [core.random_strategy(self.region, rng)
                           for _ in range(self.N_STRATEGIES)]
        self.configs = {kind: self.config(kind, self.seed, self.HORIZON) for kind in REGIMES}

    @staticmethod
    def config(kind: str, seed: int, horizon: float):
        return engine.SimConfig(horizon=horizon, master_seed=seed, queue_cap=100,
                                knowledge=tenants.KnowledgeRegime(kind),
                                initial_state="empty")

    def ops(self):
        return [Op(partial(self.replicate, strat, kind, rep),
                   partial(self.check, kind, kind == REGIMES[0]))
                for rep, strat in enumerate(self.strategies) for kind in REGIMES]

    def replicate(self, strat, kind, rep):
        m = engine.run_replication(self.scenario, strat, self.configs[kind], rep,
                                   region=self.region)
        gaps = [np.floor(m.inter_acceptance_times(t + 1)).astype(int)
                for t in range(self.scenario.n_types)]
        return m, gaps, [fitting.fit_geometric(g) for g in gaps]

    def check(self, kind, first_of_strategy, result) -> Tally:
        m, gaps, fits = result
        label = f"regimes/{kind}"
        req = self.checks.require
        check_run(self.checks, m, self.scenario, label)
        risk = self.configs[kind].knowledge.risk_factor
        for r in m.records:
            if r.disposition not in ("accepted", "reneged"):
                continue
            st = self.scenario.slice_types[r.slice_type - 1]
            want = oracles.end_profit(st.profit_rate, r.lifetime, st.issue_cost,
                                      st.waiting_cost_rate, r.wait,
                                      r.disposition == "accepted")
            req(abs(r.end_profit - want) <= TOL,
                f"{label}: request {r.request_id} end_profit {r.end_profit} != {want}")
            if kind == "blind" and r.disposition == "reneged":
                budget = oracles.blind_patience(st.profit_rate, r.lifetime, st.issue_cost,
                                                st.waiting_cost_rate, risk)
                req(abs(r.wait - budget) <= TOL,
                    f"{label}: request {r.request_id} reneged after {r.wait}, budget {budget}")
        if kind == "patient":
            req(sum(m.balks) == 0 and sum(m.reneges) == 0, f"{label}: patient tenants left")
        for t, (g, fit) in enumerate(zip(gaps, fits), start=1):
            want = 1.0 / (1.0 + float(np.mean(g)))
            req(abs(fit.parameter - want) <= 1e-12,
                f"{label}: type {t} geometric p {fit.parameter} != 1/(1+mean) {want}")
            # KL of the MLE fit is non-negative up to rounding
            req(fit.kld is not None and fit.kld >= -1e-12, f"{label}: type {t} KL < 0")
        return Tally(events=events(m), evaluations=1, strategies=int(first_of_strategy))

    def digest(self):
        strat = self.strategies[0]
        h = hashlib.sha256()
        for kind in REGIMES:
            h.update(kind.encode())
            cfg = self.config(kind, 0, self.PINNED_HORIZON)
            hash_records(h, engine.run_replication(self.scenario, strat, cfg, 0,
                                                   region=self.region).records)
        return h.hexdigest()


class Analytic(Workload):
    """Embedded-chain evaluations, single-queue analytics and one long run of
    the isolated single-queue simulator."""

    name = "analytic"
    # chain inputs do not depend on the seed: every chain evaluation fails
    # today (long_run_distribution stops unconverged), on every seed
    CHAIN_SEED = 0
    GRID_POINTS = 24
    ISOLATED = (1.0, 1.0, 0.5, 0.3)  # lambda, mu, alpha, beta
    ISOLATED_HORIZON = 6.2e5         # about 1.02e6 events
    PINNED_HORIZON = 2e4
    MAX_L1 = 1e-6
    MAX_GRID_TV = 1e-8
    MAX_ISOLATED_TV = 0.02

    def setup(self):
        demo = core.demo_scenario()
        demo_region = core.enumerate_regions(demo)
        three = core.Scenario.load(HERE / "three_type.json")
        three_region = core.enumerate_regions(three)
        rng = np.random.default_rng(self.CHAIN_SEED)
        self.chains = [(demo, demo_region, core.random_strategy(demo_region, rng))
                       for _ in range(2)]
        self.chains.append((three, three_region, core.random_strategy(three_region, rng)))
        grid_rng = np.random.default_rng([self.seed, 3])
        self.grid = [queueing.QueueParams(grid_rng.uniform(0.5, 4.0), grid_rng.uniform(0.5, 4.0),
                                          grid_rng.uniform(0.05, 1.0), grid_rng.uniform(0.0, 1.0))
                     for _ in range(self.GRID_POINTS)]
        self.isolated = queueing.QueueParams(*self.ISOLATED)
        self.laws: dict[int, np.ndarray] = {}
        self.grid_laws: list[np.ndarray] = []
        self.l1: dict[int, float] = {}

    def ops(self):
        # dense matrix-vector products dominate a chain evaluation
        ops = [Op(partial(self.evaluate, i), partial(self.check_chain, i), kernel="blas")
               for i in range(len(self.chains))]
        # the grid points take milliseconds each, so one call times them all
        ops.append(Op(self.sweep_grid, self.check_grid, attempted=len(self.grid)))
        ops.append(Op(self.simulate_isolated, self.check_isolated))
        return ops

    def evaluate(self, i):
        scenario, region, strategy = self.chains[i]
        return markov.analytic_evaluation(scenario, strategy, region)

    @staticmethod
    def grid_point(params):
        return queueing.impatient_pmf(params), queueing.wait_densities(params)

    def sweep_grid(self):
        return [self.grid_point(p) for p in self.grid]

    def simulate_isolated(self):
        return engine.isolated_queue_sim(self.isolated, self.ISOLATED_HORIZON, self.seed,
                                         collect_records=False)

    def check_chain(self, i, result) -> Tally:
        dist = np.asarray(result["long_run"])
        self.checks.require(abs(dist.sum() - 1.0) <= TOL and dist.min() >= -TOL,
                            f"analytic/chain{i}: long_run is not a probability vector")
        if i not in self.laws:
            self.laws[i] = exact_long_run(*self.chains[i])
        self.l1[i] = float(np.abs(dist - self.laws[i]).sum())
        ok = bool(result["converged"]) and self.l1[i] <= self.MAX_L1
        return Tally(failed=int(not ok), evaluations=1, strategies=1)

    def check_grid(self, results) -> Tally:
        if not self.grid_laws:
            self.grid_laws = [oracles.birth_death_pmf(p.arrival_rate, p.service_rate,
                                                      p.reneging_rate, p.balking_exponent)
                              for p in self.grid]
        for j, ((pmf, wd), law) in enumerate(zip(results, self.grid_laws)):
            tv = oracles.total_variation(pmf, law)
            self.checks.require(tv <= self.MAX_GRID_TV,
                                f"analytic/grid{j}: impatient_pmf is {tv:.3g} TV "
                                f"from the balance solve")
            figures = (wd.mean_accepted, wd.mean_joined, wd.raw_norm)
            self.checks.require(all(math.isfinite(x) and x > 0 for x in figures),
                                f"analytic/grid{j}: a wait-density mean or norm is not positive")
        return Tally(attempted=len(results))

    def check_isolated(self, m) -> Tally:
        p = self.isolated
        law = oracles.birth_death_pmf(p.arrival_rate, p.service_rate,
                                      p.reneging_rate, p.balking_exponent)
        total = math.fsum(m.occupancy.values())
        occ = np.zeros(max(k for (k,) in m.occupancy) + 1)
        for (k,), dt in m.occupancy.items():
            occ[k] = dt / total
        tv = oracles.total_variation(occ, law)
        self.checks.require(m.conservation_ok(), "analytic/isolated: request counts do not balance")
        self.checks.require(tv <= self.MAX_ISOLATED_TV,
                            f"analytic/isolated: occupancy is {tv:.3g} TV from the queue law")
        return Tally(events=events(m))

    def digest(self):
        h = hashlib.sha256()
        hash_records(h, engine.isolated_queue_sim(self.isolated, self.PINNED_HORIZON, 0).records)
        return h.hexdigest()

    def layer_extras(self):
        return {"markov.l1_to_exact": max(self.l1.values())} if self.l1 else {}


WORKLOADS = {w.name: w for w in (Search, Regimes, Analytic)}


def exact_long_run(scenario, region, strategy) -> np.ndarray:
    """Absorption law of the chain analytic_evaluation builds with its
    default settings (seed 0), from the empty state."""
    rates = markov.bootstrap_service_rates(scenario, strategy, region, 0)
    psi = markov.build_transition_matrix(
        strategy, region, markov.empty_probs_from_analytics(scenario, rates))
    return oracles.absorption_law(psi, region.feasible_index((0,) * scenario.n_types))


def probe(tracer, slowdown) -> dict[str, float]:
    """A small fixed pass through every layer, traced.

    The traced run reports a per-layer figure from the probe only where its
    workload never calls that layer; returns the probe's per-layer figures.
    ``slowdown()`` measures how much slower than its reference the machine
    runs Python now.
    """
    demo = core.demo_scenario()
    grid_point = queueing.QueueParams(1.0, 1.2, 0.5, 0.3)
    before = slowdown()
    with tracer.installed():
        region = core.enumerate_regions(demo)
        strat = core.random_strategy(region, np.random.default_rng(0))
        for kind in REGIMES:
            m = engine.run_replication(demo, strat, Regimes.config(kind, 0, 100.0), 0,
                                       region=region)
            engine.summarize_run(m, demo)
            fitting.fit_geometric(np.floor(m.inter_acceptance_times(1)).astype(int))
        result = markov.analytic_evaluation(demo, strat, region)
        Analytic.grid_point(grid_point)
        engine.isolated_queue_sim(grid_point, 2e4, 0, collect_records=False)
    figures = tracer.layer_metrics(rounds=1, slowdown=(before + slowdown()) / 2)
    law = exact_long_run(demo, region, strat)
    figures["markov.l1_to_exact"] = float(np.abs(result["long_run"] - law).sum())
    return figures
