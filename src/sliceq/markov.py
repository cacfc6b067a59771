"""Embedded-chain evaluation of admission strategies and strategy search.

A chain step is one acceptance, the one ``build_transition_matrix`` finds
by walking a preference column; the next step reads the new state's column.
The controller instead finishes its pass down the old column, so the chain
can part from the system: on the demo (seed 1) it sends naive [1, 2, 0] to
(20, 0) with u_sigma 20.0, where patient simulation (horizon 1000, warm-up
0.1, seed 7, 4 replications) holds (17, 15) at 39.5, and gives [2, 1, 0]
30.0 against 37.0. Every move adds a slice, and states outside the
admissibility region hold a pure self-loop, so the chain is absorbing: its
long-run law is the absorption law, solved exactly with the fundamental
matrix. Results are labelled an embedded-chain approximation, with the
simulator as ground truth.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as sparse_linalg

from . import engine
from .core import RegionIndex, Scenario, Strategy, naive_strategy, random_strategy
from .engine import SimConfig, substream
from .errors import InvalidInputError
from .queueing import QueueParams, impatient_pmf

EXHAUSTIVE_COLUMN_LIMIT = 4096
CONVERGED_RESIDUAL = 1e-9


def build_transition_matrix(strategy: Strategy, region: RegionIndex,
                            empty_probs) -> sparse.csr_matrix:
    """Per-epoch state transition probabilities under a strategy, as CSR.

    ``empty_probs[t]`` is the chance that queue t+1 is empty at a decision
    epoch. Walking a preference column, a type whose slice does not fit is
    skipped, as the controller does; the mass that reaches a fitting type and
    finds its queue non-empty moves along its slice increment, so a move's
    chance is a product of queue-empty probabilities. Mass left at the
    reserve element or at the end of the column stays put.
    """
    strategy.check_fingerprint(region.scenario_fingerprint)
    p0 = np.asarray(empty_probs, dtype=float)
    if ((p0 < 0) | (p0 > 1)).any():
        raise InvalidInputError("queue-empty probabilities must lie in [0, 1]")
    n_states = region.n_feasible
    n_types = len(region.feasible[0])
    if len(p0) != n_types:
        raise InvalidInputError("need one empty probability per slice type")

    rows, cols, vals = [], [], []
    for j in range(n_states):
        self_mass = 1.0
        if j < region.n_admissible:
            for pref in strategy.columns[j]:
                if pref == 0:
                    break
                target = region.next_feasible[j][pref - 1]
                if target < 0:
                    continue
                move = self_mass * (1.0 - p0[pref - 1])
                if move > 0.0:
                    rows.append(j)
                    cols.append(target)
                    vals.append(move)
                self_mass *= p0[pref - 1]
        if self_mass > 0.0:
            rows.append(j)
            cols.append(j)
            vals.append(self_mass)

    return sparse.csr_matrix((vals, (rows, cols)), shape=(n_states, n_states))


@dataclass
class LongRunResult:
    distribution: np.ndarray
    converged: bool
    residual: float
    iterations: int = 1  # one direct solve


def long_run_distribution(psi, p_init) -> LongRunResult:
    """Long-run law of an absorbing chain, by one sparse direct solve.

    A state is absorbing when its row has no off-diagonal mass. Dividing each
    transient row's off-diagonal entries by their sum gives the jump chain
    J, so no diagonal is formed as ``1 - (1 - eps)``. The expected visits m
    to the transient states T solve m (I - J_TT) = p_init[T], and the law is
    p_init on the absorbing states A plus m J_TA (Kemeny & Snell, Finite
    Markov Chains). A chain with a transient state that cannot reach an
    absorbing state has no such law and is refused.

    ``residual`` is |sum(law) - 1| plus the largest absolute residual of the
    solve; ``converged`` is ``residual <= 1e-9``.
    """
    p = np.asarray(p_init, dtype=float)
    if p.ndim != 1 or abs(p.sum() - 1.0) > 1e-9 or (p < 0).any():
        raise InvalidInputError("initial distribution must be a probability vector")
    n = p.shape[0]
    psi = sparse.csr_matrix(psi, dtype=float)
    if psi.shape != (n, n):
        raise InvalidInputError("matrix/vector size mismatch")
    if (psi.data < 0).any():
        raise InvalidInputError("transition probabilities must be non-negative")
    if np.abs(np.asarray(psi.sum(axis=1)).ravel() - 1.0).max(initial=0.0) > 1e-9:
        raise InvalidInputError("transition matrix rows must sum to one")

    off = (psi - sparse.diags(psi.diagonal())).tocsr()
    off.eliminate_zeros()
    absorbing = np.diff(off.indptr) == 0
    trans = np.flatnonzero(~absorbing)
    absb = np.flatnonzero(absorbing)

    # reversed edges plus a sink (node n) with an edge to every absorbing
    # state: a search from the sink finds the states that can reach absorption
    edges = off.tocoo()
    graph = sparse.csr_matrix(
        (np.ones(edges.nnz + len(absb)),
         (np.concatenate([edges.col, np.full(len(absb), n)]),
          np.concatenate([edges.row, absb]))),
        shape=(n + 1, n + 1))
    reached = csgraph.breadth_first_order(graph, n, directed=True,
                                          return_predecessors=False)
    if len(reached) < n + 1:
        raise InvalidInputError(
            f"{n + 1 - len(reached)} transient states cannot reach an absorbing "
            "state; the chain has no absorption law"
        )

    law = np.where(absorbing, p, 0.0)
    residual = 0.0
    if len(trans):
        rows = off[trans]
        exit_mass = np.asarray(rows.sum(axis=1)).ravel()
        jump = sparse.csr_matrix(
            (rows.data / np.repeat(exit_mass, np.diff(rows.indptr)),
             rows.indices, rows.indptr), shape=rows.shape)
        lhs = (sparse.identity(len(trans), format="csr") - jump[:, trans]).T.tocsc()
        rhs = p[trans]
        visits = sparse_linalg.spsolve(lhs, rhs)
        residual = float(np.abs(lhs @ visits - rhs).max())
        law[absb] += jump[:, absb].T @ visits
    residual = float(residual + abs(law.sum() - 1.0))
    return LongRunResult(law, bool(residual <= CONVERGED_RESIDUAL), residual)


def estimate_acceptance_rates(long_run: np.ndarray, region: RegionIndex,
                              release_rates) -> np.ndarray:
    """Per-type acceptance rates from the long-run occupancy.

    In steady operation acceptances balance releases, so the acceptance rate
    of type n equals its mean active count times its release rate.
    """
    eta = np.asarray(release_rates, dtype=float)
    states = np.asarray(region.feasible, dtype=float)
    mean_counts = long_run @ states
    return mean_counts * eta


def utility_metrics(acceptance_rates, release_rates, utility_rates) -> float:
    """Long-run utility rate: each type's mean active count mu/eta times its
    utility rate, summed."""
    mu = np.asarray(acceptance_rates, dtype=float)
    eta = np.asarray(release_rates, dtype=float)
    u = np.asarray(utility_rates, dtype=float)
    if (mu < 0).any() or (eta <= 0).any():
        raise InvalidInputError("rates must be non-negative (releases positive)")
    return float((mu * u / eta).sum())


def empty_probs_from_analytics(scenario: Scenario, service_rates) -> np.ndarray:
    """Queue-empty probabilities from the single-queue stationary model.

    Each type takes beta = eta * u / zeta, so that exp(-beta * l / mu) is the
    chance that an exponential lifetime's value zeta * L covers the waiting
    cost u * l / mu; alpha takes the same value.
    """
    out = []
    for st, mu in zip(scenario.slice_types, service_rates):
        if mu <= 0:
            out.append(0.0)
            continue
        rate = st.release_rate * st.waiting_cost_rate / st.profit_rate
        params = QueueParams(st.arrival_rate, mu, rate, rate)
        if rate == 0 and params.workload >= 1:
            out.append(0.0)
            continue
        out.append(float(impatient_pmf(params)[0]))
    return np.asarray(out)


def bootstrap_service_rates(scenario: Scenario, strategy: Strategy,
                            region: RegionIndex, seed: int) -> np.ndarray:
    """Measure per-queue acceptance rates with a short patient-tenant run."""
    cfg = SimConfig(horizon=200.0, master_seed=seed, queue_cap=100,
                    initial_state="random_full", collect_records=False)
    metrics = engine.run_replication(scenario, strategy, cfg, 0, region=region)
    return metrics.measured_acceptance_rates()


def analytic_evaluation(scenario: Scenario, strategy: Strategy,
                        region: RegionIndex, seed: int = 0,
                        fixed_point_rounds: int = 0,
                        empty_probs=None) -> dict:
    """Embedded-chain estimate of the strategy's long-run metrics.

    Queue-empty probabilities come from the stationary queue model fed with
    service rates measured in a short bootstrap run, unless given explicitly
    via ``empty_probs``. With ``fixed_point_rounds`` > 0 the service-rate
    guesses are refined by alternating the chain solve with the queue model
    under damping 0.5, until the rates a solve returns are within 1e-6 of
    the rates it was fed. The result is the last solve's: its law, its
    acceptance rates and its ``residual``; with rounds, ``converged`` also
    requires that the rates settled.
    """
    if fixed_point_rounds < 0:
        raise InvalidInputError("fixed_point_rounds must be non-negative")
    eta = np.array([st.release_rate for st in scenario.slice_types])
    u = np.array([st.effective_utility_rate for st in scenario.slice_types])
    p_init = np.zeros(region.n_feasible)
    p_init[region.feasible_index((0,) * scenario.n_types)] = 1.0

    # a given empty_probs is one undamped round with p0 fixed
    mu_hat = (None if empty_probs is not None
              else bootstrap_service_rates(scenario, strategy, region, seed))
    rounds = 0 if mu_hat is None else fixed_point_rounds
    for _ in range(max(1, rounds)):
        p0 = empty_probs if mu_hat is None else empty_probs_from_analytics(scenario, mu_hat)
        psi = build_transition_matrix(strategy, region, p0)
        result = long_run_distribution(psi, p_init)
        mu_next = estimate_acceptance_rates(result.distribution, region, eta)
        settled = rounds == 0 or bool(np.abs(mu_next - mu_hat).max() < 1e-6)
        if settled:
            break
        mu_hat = 0.5 * mu_hat + 0.5 * mu_next

    return {
        "long_run": result.distribution,
        "converged": result.converged and settled,
        "residual": result.residual,
        "acceptance_rates": mu_next,
        "u_sigma": utility_metrics(mu_next, eta, u),
        "label": "embedded-chain approximation",
    }


OBJECTIVES = {
    "utility": ("u_sigma", True),
    "wait": ("mean_wait_joined", False),
    "admission": ("admission_rate", True),
}


@dataclass
class SearchRow:
    strategy_id: str
    kind: str  # random | exhaustive | prefer1 | prefer2 | greedy_single
    u_sigma: float
    mean_wait: float
    admission_rate: float
    objective: float
    strategy: Strategy | None = None

    def csv_row(self) -> list:
        return [self.strategy_id, self.kind, f"{self.u_sigma:.6g}", f"{self.mean_wait:.6g}",
                f"{self.admission_rate:.6g}", f"{self.objective:.6g}"]


SEARCH_CSV_HEADER = ["strategy_id", "kind", "u_sigma", "mean_wait", "admission_rate", "objective"]


def _simulate_strategy(scenario, strategy, region, config) -> tuple[float, ...]:
    """Mean u_sigma, wait and admission rate over the replications. The
    engine functions are looked up on the module at each call, so wrappers
    installed on it (the benchmark's tracer) see them."""
    config = replace(config, collect_records=False)
    runs = (engine.run_replication(scenario, strategy, config, rep, region=region,
                                   single_queue=strategy is None)
            for rep in range(config.replications))
    rows = [engine.summarize_run(m, scenario) for m in runs]
    return tuple(float(np.mean([row[k] for row in rows]))
                 for k in ("u_sigma", "mean_wait_joined", "admission_rate"))


def prefer2_order(n_types: int) -> list[int]:
    """Type 2 first, then the other types in order, then the reserve."""
    return ([2, 1] if n_types >= 2 else [1]) + list(range(3, n_types + 1)) + [0]


def strategy_search(scenario: Scenario, region: RegionIndex,
                    n_strategies: int, config: SimConfig,
                    objective: str = "utility",
                    evaluator: str = "simulation",
                    exhaustive: bool = False,
                    include_benchmarks: bool = True) -> list[SearchRow]:
    """Evaluate random strategies plus the fixed benchmarks, best first.

    The deterministic master seed drives strategy generation and every
    Monte-Carlo evaluation.
    """
    if n_strategies < 1 and not exhaustive:
        raise InvalidInputError("need at least one strategy")
    if objective not in OBJECTIVES:
        raise InvalidInputError(f"unknown objective {objective!r}")
    if evaluator not in ("simulation", "analytic"):
        raise InvalidInputError(f"unknown evaluator {evaluator!r}")
    key, maximize = OBJECTIVES[objective]
    if evaluator == "analytic" and key != "u_sigma":
        # the chain gives no wait or admission rate: every row would rank NaN
        raise InvalidInputError(f"the analytic evaluator ranks only by utility, not {objective!r}")

    n_types = scenario.n_types
    rng = substream(config.master_seed, 0, 999)
    candidates: list[tuple[str, str, Strategy | None]] = []
    if exhaustive:
        options = [tuple(p) + (0,) for p in itertools.permutations(range(1, n_types + 1))]
        total = len(options) ** region.n_admissible
        if total > EXHAUSTIVE_COLUMN_LIMIT:
            raise InvalidInputError(
                f"exhaustive search over {total} strategies refused "
                f"(limit {EXHAUSTIVE_COLUMN_LIMIT})"
            )
        for i, combo in enumerate(itertools.product(options, repeat=region.n_admissible)):
            strat = Strategy(columns=tuple(combo),
                             scenario_fingerprint=region.scenario_fingerprint)
            candidates.append((f"exhaustive_{i}", "exhaustive", strat))
    else:
        candidates.extend((f"random_{i}", "random", random_strategy(region, rng))
                          for i in range(n_strategies))

    if include_benchmarks:
        order1 = list(range(1, n_types + 1)) + [0]
        candidates.append(("prefer1", "prefer1", naive_strategy(region, order1)))
        if n_types >= 2:  # on one type it is prefer1
            candidates.append(("prefer2", "prefer2", naive_strategy(region, prefer2_order(n_types))))
        # the greedy baseline has no strategy and is always simulated
        candidates.append(("greedy_single", "greedy_single", None))

    rows: list[SearchRow] = []
    for sid, kind, strat in candidates:
        if evaluator == "simulation" or strat is None:
            u_sigma, wait, adm = _simulate_strategy(scenario, strat, region, config)
        else:
            res = analytic_evaluation(scenario, strat, region, seed=config.master_seed)
            u_sigma, wait, adm = res["u_sigma"], math.nan, math.nan
        value = {"u_sigma": u_sigma, "mean_wait_joined": wait,
                 "admission_rate": adm}[key]
        rows.append(SearchRow(sid, kind, u_sigma, wait, adm, value, strat))

    rows.sort(key=lambda r: (-r.objective if maximize else r.objective))
    return rows
