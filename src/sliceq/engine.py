"""Event-driven simulator for the multi-queue admission controller.

Per-type Poisson request arrivals, exponential slice lifetimes, the
preference-driven controller, tenant impatience hooks for every knowledge
regime, and metric collection over Monte-Carlo replications. Each
replication owns counter-based RNG sub-streams per purpose (arrivals,
lifetimes, initial state) so that adding draws for one concern never
perturbs the others.

One event loop runs both admission disciplines: the preference-ordered
multi-queue controller and the greedy single mixed queue it is judged
against. Which queue a request waits in and how the queues are served is
decided in ``controller``; the loop only sees queue indices.
``isolated_queue_sim`` stays a loop of its own: its service epochs are
exogenous, and its Bernoulli balk coin and Exp(alpha) patience have no
counterpart in the admission loop.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .controller import (
    ControllerState,
    Disposition,
    PendingRequest,
    on_release,
    on_request,
)
from .core import RegionIndex, Scenario, Strategy, enumerate_regions
from .errors import InvalidInputError
from .fitting import profit_summary
from .queueing import QueueParams
from .tenants import (
    KnowledgeRegime,
    balk_decision,
    critical_rate,
    end_profit,
    renege_avg_wait,
    renege_blind,
    renege_position,
    renege_serving_rate,
)

PRIO_RELEASE, PRIO_ARRIVAL, PRIO_DEADLINE = 0, 1, 2

# rng sub-stream tags
TAG_INIT = 0
TAG_ARRIVAL = 10      # + 0-based type
TAG_LIFETIME = 40     # + 0-based type
TAG_SERVICE = 70
TAG_BALK = 71
TAG_PATIENCE = 72

# tenants treat the published service rate as unknown until this many
# queued acceptances have been observed, and the published renege rates
# stay zero until this many reneges have been observed
MIN_SERVICE_OBSERVATIONS = 10

DRAW_BLOCK = 512  # exponentials drawn per refill of a single-scale stream

# The critical-rate filter skips an exact decision when mu clears a bound by
# FILTER_SLACK. A decision's sides are products, quotients and, at position
# n, a left-to-right sum of n terms each at most fl(1/mu) (rounding is
# monotone): they err within (n + 4)·2^-52 <= 1e-9 up to MAX_FILTER_LENGTH.
FILTER_SLACK = 1.0 + 1e-9
MAX_FILTER_LENGTH = int(1e-9 * 2**52) - 4


def substream(master_seed: int, replication: int, tag: int) -> np.random.Generator:
    """Counter-based generator for one (replication, purpose) pair."""
    seq = np.random.SeedSequence((int(master_seed), int(replication), int(tag)))
    return np.random.Generator(np.random.Philox(seq))


def exponential_draws(rng: np.random.Generator, scale: float):
    """Successive Exp(scale) draws of ``rng``, drawn a block at a time; a
    block holds the same doubles as that many scalar draws."""
    while True:
        yield from rng.exponential(scale, DRAW_BLOCK).tolist()


@dataclass(frozen=True)
class SimConfig:
    horizon: float = 1000.0
    replications: int = 1
    master_seed: int = 0
    queue_cap: int | None = 100
    knowledge: KnowledgeRegime = KnowledgeRegime("patient")
    initial_state: str = "empty"  # empty | random_feasible | random_full
    warmup_fraction: float = 0.0
    collect_records: bool = True

    def __post_init__(self):
        if self.horizon <= 0:
            raise InvalidInputError("horizon must be positive")
        if self.replications < 1:
            raise InvalidInputError("need at least one replication")
        if self.initial_state not in ("empty", "random_feasible", "random_full"):
            raise InvalidInputError(f"unknown initial state {self.initial_state!r}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise InvalidInputError("warmup_fraction must lie in [0, 1)")


@dataclass(slots=True)
class RequestRecord:
    request_id: int
    slice_type: int
    enter_time: float
    lifetime: float
    entry_queue_length: int
    disposition: str
    wait: float
    end_profit: float | None


@dataclass
class RunMetrics:
    """Everything measured in one replication.

    ``occupancy`` maps active-slice vectors to total time spent there (queue
    lengths for the isolated single-queue simulator). Steady-state style
    accumulators (occupancy, busy time, acceptance timestamps) start after
    the warmup boundary. A request issued (accepted or reneged) adds its end
    profit to ``profit``, counts in ``profiting`` when that is positive and
    adds its wait to ``issued_wait``; ``records`` is an output only.
    """

    n_types: int
    horizon: float
    warmup_time: float
    master_seed: int
    replication: int
    arrivals: list[int]
    joined: list[int]
    balks: list[int]
    cap_rejections: list[int]
    reneges: list[int]
    acceptances: list[int]
    still_waiting: list[int]
    acceptance_times: list[list[float]]
    records: list[RequestRecord]
    occupancy: dict
    busy_time: list[float]
    queued_accepts: list[int]
    max_assigned: list[float]
    profit: list[float]
    profiting: list[int]
    issued_wait: float

    @property
    def n_issued(self) -> list[int]:
        return [a + r for a, r in zip(self.acceptances, self.reneges)]

    @property
    def measured_span(self) -> float:
        return self.horizon - self.warmup_time

    def conservation_ok(self) -> bool:
        return all(
            self.arrivals[t]
            == self.balks[t] + self.cap_rejections[t] + self.reneges[t]
            + self.acceptances[t] + self.still_waiting[t]
            for t in range(self.n_types)
        )

    def state_mean(self) -> np.ndarray:
        """Time-averaged active-slice vector."""
        total = sum(self.occupancy.values())
        mean = np.zeros(self.n_types)
        if total <= 0:
            return mean
        for state, dt in self.occupancy.items():
            mean += dt * np.asarray(state, dtype=float)
        return mean / total

    def occupancy_pmf(self) -> dict:
        total = sum(self.occupancy.values())
        if total <= 0:
            return {}
        return {s: dt / total for s, dt in self.occupancy.items()}

    def utility_time_average(self, utility_rates) -> float:
        u = np.asarray(utility_rates, dtype=float)
        total = sum(self.occupancy.values())
        if total <= 0:
            return 0.0
        acc = 0.0
        for state, dt in self.occupancy.items():
            acc += dt * float(np.dot(u, state))
        return acc / total

    def measured_acceptance_rates(self) -> np.ndarray:
        span = self.measured_span
        if span <= 0:
            return np.zeros(self.n_types)
        return np.array([len(ts) / span for ts in self.acceptance_times])

    def inter_acceptance_times(self, slice_type: int) -> np.ndarray:
        ts = np.asarray(self.acceptance_times[slice_type - 1])
        if len(ts) < 2:
            return np.array([])
        return np.diff(ts)


class _QueueStats:
    """Operator-side per-queue estimators published to tenants."""

    def __init__(self):
        self.busy_time = 0.0
        self.queued_accepts = 0
        self.accept_count = 0
        self.accept_wait_sum = 0.0
        self.time_at_length: list[float] = [0.0]
        self.renege_counts: list[int] = [0]
        self.renege_total = 0

    def note_accept(self, wait: float) -> None:
        self.accept_count += 1
        self.accept_wait_sum += wait
        if wait > 0:
            self.queued_accepts += 1

    def note_renege(self, position: int) -> None:
        while len(self.renege_counts) <= position:
            self.renege_counts.append(0)
        self.renege_counts[position] += 1
        self.renege_total += 1

    def service_rate(self) -> float | None:
        if self.queued_accepts < MIN_SERVICE_OBSERVATIONS or self.busy_time <= 0:
            return None
        return self.queued_accepts / self.busy_time

    def mean_accepted_wait(self) -> float:
        if self.accept_count == 0:
            return 0.0
        return self.accept_wait_sum / self.accept_count

    def renege_rates(self, up_to: int) -> np.ndarray:
        """Per-position renege-rate estimates.

        Published as zero until the queue has accumulated enough renege
        observations; sparse early counts over short occupancies would
        otherwise dominate the expected-wait estimates.
        """
        rates = np.zeros(up_to + 1)
        if self.renege_total < MIN_SERVICE_OBSERVATIONS:
            return rates
        # occ[j]: total time queue position j (1-based) was occupied
        occ = np.cumsum(np.asarray(self.time_at_length)[::-1])[::-1]
        n = min(up_to + 1, len(self.renege_counts), len(occ))
        np.divide(self.renege_counts[1:n], occ[1:n], out=rates[1:n], where=occ[1:n] > 0)
        return rates

    def expected_wait_vector(self, mu: float, up_to: int) -> np.ndarray:
        """ew[k] = expected wait at position k under current estimates.

        Both sums accumulate left to right, as the plain-loop oracle in the
        tests does, so ew[k] equals it to the last bit; omega[0] is zero,
        the service slot never reneges.
        """
        omega = self.renege_rates(up_to)
        ew = np.zeros(up_to + 1)
        np.add.accumulate(1.0 / (mu + np.add.accumulate(omega[:up_to])), out=ew[1:])
        return ew


# -- knowledge regimes --------------------------------------------------------
# A run reads its regime once into two rules, plain functions so that a run is
# no reference cycle. The entrance rule (req, stats, length) says whether an
# arriving tenant joins at ``length``, itself included; the stay rule
# (sim, i, mu) gives the predicate (req, position) -> stays for one
# re-decision of queue ``i``. ``None`` means always join, or never re-decide.
# The rules call the ``tenants`` function whose arguments are what the
# regime's tenant may see; full knowledge weighs the expected wait in place.


def _joins_on_mean_wait(req, stats: _QueueStats, length: int) -> bool:
    return renege_avg_wait(req, stats.mean_accepted_wait())


def _joins_on_serving_rate(req, stats: _QueueStats, length: int) -> bool:
    mu = stats.service_rate()
    return mu is None or balk_decision(req, length, mu)


def _joins_on_expected_wait(req, stats: _QueueStats, length: int) -> bool:
    mu = stats.service_rate()
    if mu is None:
        return True
    surplus = req.profit_rate * req.lifetime - req.issue_cost
    if length <= MAX_FILTER_LENGTH:
        # ew[length] <= length/mu, equal up to rounding while renege rates are gated
        cost = req.waiting_cost_rate * length / mu
        if surplus >= cost * FILTER_SLACK:
            return True
        if surplus * FILTER_SLACK < cost and stats.renege_total < MIN_SERVICE_OBSERVATIONS:
            return False
    ew = stats.expected_wait_vector(mu, length)
    return surplus - req.waiting_cost_rate * ew[length] >= 0.0


def _stays_on_progress(sim, i: int, mu):
    # re-decided at position changes only: between departures the sunk time
    # keeps growing but the tenant acts on the progress it has actually seen.
    # Past the probation band the rule always waits, and positions only fall:
    # the band is tested here, and the rule is called inside it alone.
    now, delta_k = sim.now, sim.config.knowledge.delta_k
    return lambda req, pos: (req.entry_queue_length - pos > delta_k
                             or renege_position(req, pos, req.entry_queue_length,
                                                now - req.enter_time, delta_k)[0])


def _stays_on_serving_rate(sim, i: int, mu):
    return lambda req, pos: renege_serving_rate(req, pos, mu)


def _stays_on_expected_wait(sim, i: int, mu):
    ew = sim.stats[i].expected_wait_vector(mu, len(sim.ctrl.queues[i]))
    return lambda req, pos: req.profit_rate * req.lifetime - req.waiting_cost_rate * ew[pos] >= 0.0


# knowledge regime -> (entrance rule, stay rule)
_REGIME_RULES = {
    "patient": (None, None),
    "blind": (None, None),
    "position": (None, _stays_on_progress),
    "avg_wait": (_joins_on_mean_wait, None),
    "serving_rate": (_joins_on_serving_rate, _stays_on_serving_rate),
    "full": (_joins_on_expected_wait, _stays_on_expected_wait),
}


class _Simulation:
    """One replication: the multi-queue controller or, with ``single_queue``,
    the greedy single mixed queue, which ignores ``strategy``."""

    def __init__(self, scenario: Scenario, strategy: Strategy | None,
                 config: SimConfig, replication: int,
                 region: RegionIndex | None = None,
                 single_queue: bool = False, trace=None):
        self.scenario = scenario
        self.config = config
        self.trace = trace
        self.region = region if region is not None else enumerate_regions(scenario)
        if not single_queue:
            if strategy is None:
                raise InvalidInputError("multi-queue simulation needs a strategy")
            strategy.check_scenario(scenario)
        self.strategy = None if single_queue else strategy

        n = scenario.n_types
        seed = config.master_seed
        self.rng_init = substream(seed, replication, TAG_INIT)
        types = scenario.slice_types
        self.interarrivals = [exponential_draws(substream(seed, replication, TAG_ARRIVAL + t),
                                                1.0 / types[t].arrival_rate) for t in range(n)]
        self.lifetimes = [exponential_draws(substream(seed, replication, TAG_LIFETIME + t),
                                            types[t].mean_lifetime) for t in range(n)]

        self.ctrl = ControllerState(region=self.region,
                                    queues=[deque()] if single_queue else [],
                                    queue_cap=config.queue_cap)
        self.queue_index = self.ctrl.queue_index
        n_queues = len(self.ctrl.queues)
        self.stats = [_QueueStats() for _ in range(n_queues)]
        self._queue_stats = list(zip(self.ctrl.queues, self.stats))
        kind = config.knowledge.kind
        self.entrance_rule, self.stay_rule = _REGIME_RULES[kind]
        # the time at each queue length feeds the published renege rates alone
        self.lengths_timed = kind == "full"
        # blind tenants renege at a waiting budget fixed when they join
        self.risk_factor = config.knowledge.risk_factor if kind == "blind" else None
        # per queue, for the two stay rules it screens: a bound above each
        # waiting request's critical rate
        self.bounds = [0.0] * n_queues if kind in ("serving_rate", "full") else None

        self.assigned_by_index = (
            np.asarray(self.region.feasible, dtype=float) @ scenario.cost_matrix().T
        )
        self.now = 0.0
        self._last_t = 0.0
        self.horizon = config.horizon
        self.warmup_time = config.warmup_fraction * config.horizon
        # state indices held for a positive time, and the measured time per
        # state index; both are read once the run ends
        self._visited: set[int] = set()
        self._occupancy: dict[int, float] = {}
        self.heap: list = []
        self._seq = 0
        self._next_id = 1

        self.metrics = RunMetrics(
            n_types=n, horizon=config.horizon, warmup_time=self.warmup_time,
            master_seed=seed, replication=replication,
            arrivals=[0] * n, joined=[0] * n, balks=[0] * n,
            cap_rejections=[0] * n, reneges=[0] * n, acceptances=[0] * n,
            still_waiting=[0] * n,
            acceptance_times=[[] for _ in range(n)],
            records=[], profit=[0.0] * n, profiting=[0] * n, issued_wait=0.0,
            # read off the run's own accumulators once it ends
            occupancy={}, busy_time=[], queued_accepts=[], max_assigned=[],
        )

    # -- plumbing ---------------------------------------------------------

    def _push(self, time: float, prio: int, kind: str, payload) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (time, prio, self._seq, kind, payload))

    def _emit(self, kind: str, slice_type: int, request_id) -> None:
        self.trace({
            "time": self.now,
            "kind": kind,
            "slice_type": slice_type,
            "request_id": request_id,
            "queue_lengths": [len(q) for q in self.ctrl.queues],
            "state": list(self.ctrl.state),
        })

    def _integrate_to(self, time: float) -> None:
        """Accumulate time-weighted quantities up to ``time``.

        The published estimators run over the whole horizon; the
        steady-state accumulators (occupancy) skip the warmup window.
        """
        lo = self._last_t
        hi = min(time, self.horizon)
        self._last_t = time
        dt_full = hi - lo
        if dt_full <= 0:
            return
        for q, stats in self._queue_stats:
            if q:
                stats.busy_time += dt_full
        if self.lengths_timed:
            for q, stats in self._queue_stats:
                n, at_length = len(q), stats.time_at_length
                while len(at_length) <= n:
                    at_length.append(0.0)
                at_length[n] += dt_full
        index = self.ctrl.state_index
        self._visited.add(index)
        dt = hi - max(lo, self.warmup_time)
        if dt <= 0:
            return
        occ = self._occupancy
        occ[index] = occ.get(index, 0.0) + dt

    def _record(self, req: PendingRequest, disposition: str, wait: float,
                profit: float | None) -> None:
        if profit is not None:
            t = req.slice_type - 1
            self.metrics.profit[t] += profit
            self.metrics.profiting[t] += profit > 0
            self.metrics.issued_wait += wait
        if self.config.collect_records:
            self.metrics.records.append(RequestRecord(
                req.request_id, req.slice_type, req.enter_time, req.lifetime,
                req.entry_queue_length, disposition, wait, profit))

    # -- tenant decisions --------------------------------------------------

    def _entrance_joins(self, req: PendingRequest, queue) -> bool:
        return self.entrance_rule(req, self.stats[self.queue_index[req.slice_type - 1]],
                                  len(queue) + 1)

    def _reevaluate_queue(self, i: int) -> None:
        """Let every tenant waiting in queue ``i`` re-decide; cascades until no
        one reneges."""
        if self.stay_rule is None:
            return
        queue = self.ctrl.queues[i]
        mu = self.stats[i].service_rate()
        if self.bounds is not None and (mu is None or (mu > self.bounds[i] * FILTER_SLACK
                                                       and len(queue) <= MAX_FILTER_LENGTH)):
            return
        # A renege at p leaves the requests ahead of p, now and mu as they
        # were; it raises the published renege rate at p alone, or opens their
        # gate, so ew[1..p] can only fall (rounding is monotone). So a pass that
        # goes on behind each renege, with the stay rule built again, decides
        # as a rescan from the head would.
        stays = self.stay_rule(self, i, mu)
        pos = 1
        for req in list(queue):
            if stays(req, pos):
                pos += 1
            else:
                self._renege(i, req, pos)
                stays = self.stay_rule(self, i, mu)
        if self.bounds is not None:
            self.bounds[i] = max((critical_rate(k, r.waiting_cost_rate, r.profit_rate * r.lifetime)
                                  for k, r in enumerate(queue, start=1)), default=0.0)

    def _join(self, i: int, req: PendingRequest) -> None:
        """Raise queue ``i``'s critical-rate bound for a request that joined it."""
        if self.bounds is not None and not req.done:
            self.bounds[i] = max(self.bounds[i], critical_rate(
                len(self.ctrl.queues[i]), req.waiting_cost_rate, req.profit_rate * req.lifetime))

    def _renege(self, i: int, req: PendingRequest, position: int) -> None:
        del self.ctrl.queues[i][position - 1]
        req.done = True
        self.stats[i].note_renege(position)
        t = req.slice_type - 1
        wait = self.now - req.enter_time
        self.metrics.reneges[t] += 1
        self._record(req, "reneged", wait, end_profit(req, False, wait))
        if self.trace is not None:
            self._emit("renege", req.slice_type, req.request_id)

    # -- event handlers ----------------------------------------------------

    def _accept(self, req: PendingRequest) -> None:
        t = req.slice_type - 1
        wait = self.now - req.enter_time
        self.metrics.acceptances[t] += 1
        self._push(self.now + req.lifetime, PRIO_RELEASE, "release", req.slice_type)
        self.stats[self.queue_index[t]].note_accept(wait)
        if self.now >= self.warmup_time:
            self.metrics.acceptance_times[t].append(self.now)
        self._record(req, "accepted", wait, end_profit(req, True, wait))
        if self.trace is not None:
            self._emit("accept", req.slice_type, req.request_id)

    def _handle_arrival(self, t: int) -> None:
        self._push(self.now + next(self.interarrivals[t]), PRIO_ARRIVAL, "arrival", t)
        st = self.scenario.slice_types[t]
        req = PendingRequest(self._next_id, t + 1, self.now, next(self.lifetimes[t]),
                             st.issue_cost, st.waiting_cost_rate, st.profit_rate)
        self._next_id += 1
        self.metrics.arrivals[t] += 1
        if self.trace is not None:
            self._emit("request", req.slice_type, req.request_id)

        joins = None if self.entrance_rule is None else self._entrance_joins
        disposition, accepted = on_request(self.ctrl, self.strategy, req, joins)

        if disposition is Disposition.BALKED:
            self.metrics.balks[t] += 1
            self._record(req, "balked", 0.0, None)
            if self.trace is not None:
                self._emit("balk", req.slice_type, req.request_id)
            return
        if disposition is Disposition.CAP_REJECTED:
            self.metrics.cap_rejections[t] += 1
            self._record(req, "cap_rejected", 0.0, None)
            if self.trace is not None:
                self._emit("cap_reject", req.slice_type, req.request_id)
            return

        self.metrics.joined[t] += 1
        self._join(self.queue_index[t], req)
        if self.risk_factor is not None and not req.done:
            t_max = renege_blind(req, self.risk_factor)
            if math.isfinite(t_max):
                self._push(self.now + t_max, PRIO_DEADLINE, "deadline", req)
        self._after_acceptances(accepted)

    def _after_acceptances(self, accepted: list[PendingRequest]) -> None:
        if not accepted:
            return
        for a in accepted:
            self._accept(a)
        for i in {self.queue_index[a.slice_type - 1] for a in accepted}:
            self._reevaluate_queue(i)

    def _handle_release(self, slice_type: int) -> None:
        if self.trace is not None:
            self._emit("release", slice_type, None)
        self._after_acceptances(on_release(self.ctrl, self.strategy, slice_type))

    def _handle_deadline(self, req: PendingRequest) -> None:
        # a request has at most one deadline, and one that is not done still
        # waits in its queue
        if req.done:
            return
        i = self.queue_index[req.slice_type - 1]
        position = next(p for p, r in enumerate(self.ctrl.queues[i], start=1) if r is req)
        self._renege(i, req, position)
        self._reevaluate_queue(i)

    # -- main loop ----------------------------------------------------------

    def _draw_initial_state(self) -> int:
        mode = self.config.initial_state
        if mode == "empty":
            return self.region.feasible_index((0,) * self.scenario.n_types)
        if mode == "random_feasible":
            return int(self.rng_init.integers(0, self.region.n_feasible))
        # random but fully utilized: a boundary state, never missing, since a
        # feasible state of the largest total count has no feasible increment
        return int(self.rng_init.integers(self.region.n_admissible, self.region.n_feasible))

    def run(self) -> RunMetrics:
        self.ctrl.state_index = self._draw_initial_state()
        for t, count in enumerate(self.ctrl.state):
            for _ in range(count):
                self._push(next(self.lifetimes[t]), PRIO_RELEASE, "release", t + 1)
        for t in range(self.scenario.n_types):
            self._push(next(self.interarrivals[t]), PRIO_ARRIVAL, "arrival", t)

        horizon = self.horizon
        while self.heap:
            time, prio, _seq, kind, payload = heapq.heappop(self.heap)
            if time > horizon:
                break
            self._integrate_to(time)
            self.now = time
            if kind == "arrival":
                self._handle_arrival(payload)
            elif kind == "release":
                self._handle_release(payload)
            else:
                self._handle_deadline(payload)
        self._integrate_to(horizon)
        self.now = horizon

        for q in self.ctrl.queues:
            for req in q:
                t = req.slice_type - 1
                self.metrics.still_waiting[t] += 1
                self._record(req, "waiting", horizon - req.enter_time, None)
        self.metrics.busy_time = [stats.busy_time for stats in self.stats]
        self.metrics.queued_accepts = [stats.queued_accepts for stats in self.stats]
        feasible = self.region.feasible
        self.metrics.occupancy = {feasible[i]: dt for i, dt in self._occupancy.items()}
        self.metrics.max_assigned = self.assigned_by_index[list(self._visited)].max(
            axis=0, initial=0.0).tolist()
        return self.metrics


def run_replication(scenario: Scenario, strategy: Strategy | None,
                    config: SimConfig, replication: int = 0,
                    region: RegionIndex | None = None,
                    single_queue: bool = False, trace=None) -> RunMetrics:
    """Simulate one replication and return its metrics."""
    sim = _Simulation(scenario, strategy, config, replication,
                      region=region, single_queue=single_queue, trace=trace)
    return sim.run()


def greedy_single_queue_baseline(scenario: Scenario, config: SimConfig,
                                 replication: int = 0,
                                 region: RegionIndex | None = None) -> RunMetrics:
    """Single mixed FCFS queue: the head is accepted whenever it fits and
    blocks everything behind it when it does not."""
    return run_replication(scenario, None, config, replication,
                           region=region, single_queue=True)


def isolated_queue_sim(params: QueueParams, horizon: float, seed: int,
                       collect_records: bool = True) -> RunMetrics:
    """Single queue with exogenous Poisson acceptance epochs.

    Arrivals join with probability exp(-beta * (l+1) / mu) where l is the
    length found (the joining request counts itself); every waiting request,
    head included, abandons after an individual Exp(alpha) patience. The
    occupancy dict is keyed by queue length. It is a loop of its own rather
    than a discipline of ``_Simulation``, which has none of these three
    mechanisms and would have to branch on which caller it serves.
    """
    lam, mu = params.arrival_rate, params.service_rate
    alpha, beta = params.reneging_rate, params.balking_exponent
    rng_arr = substream(seed, 0, TAG_ARRIVAL)
    rng_srv = substream(seed, 0, TAG_SERVICE)
    rng_balk = substream(seed, 0, TAG_BALK)
    rng_pat = substream(seed, 0, TAG_PATIENCE)

    metrics = RunMetrics(
        n_types=1, horizon=horizon, warmup_time=0.0, master_seed=seed,
        replication=0, arrivals=[0], joined=[0], balks=[0],
        cap_rejections=[0], reneges=[0], acceptances=[0], still_waiting=[0],
        acceptance_times=[[]], records=[], occupancy={}, busy_time=[0.0],
        queued_accepts=[0], max_assigned=[0.0], profit=[0.0], profiting=[0],
        issued_wait=0.0,
    )

    heap: list = []
    seq = 0
    service_token = 0
    queue: deque = deque()
    now = 0.0
    last_t = 0.0
    next_id = 1

    def push(time, prio, kind, payload):
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (time, prio, seq, kind, payload))

    def integrate(time):
        nonlocal last_t
        dt = min(time, horizon) - last_t
        last_t = time
        if dt <= 0:
            return
        key = (len(queue),)
        metrics.occupancy[key] = metrics.occupancy.get(key, 0.0) + dt
        if queue:
            metrics.busy_time[0] += dt

    def schedule_service():
        nonlocal service_token
        service_token += 1
        push(now + rng_srv.exponential(1.0 / mu), PRIO_RELEASE, "service", service_token)

    push(rng_arr.exponential(1.0 / lam), PRIO_ARRIVAL, "arrival", None)

    while heap:
        time, _prio, _seq, kind, payload = heapq.heappop(heap)
        if time > horizon:
            break
        integrate(time)
        now = time
        if kind == "arrival":
            push(now + rng_arr.exponential(1.0 / lam), PRIO_ARRIVAL, "arrival", None)
            metrics.arrivals[0] += 1
            rid = next_id
            next_id += 1
            coin = rng_balk.random()
            entry_len = len(queue) + 1
            join_prob = math.exp(-beta * entry_len / mu)
            if coin > join_prob:
                metrics.balks[0] += 1
                if collect_records:
                    metrics.records.append(RequestRecord(
                        rid, 1, now, 1.0, entry_len, "balked", 0.0, None))
                continue
            was_empty = not queue
            entry = [rid, now, False, entry_len]  # id, enter time, done
            queue.append(entry)
            metrics.joined[0] += 1
            if alpha > 0:
                push(now + rng_pat.exponential(1.0 / alpha), PRIO_DEADLINE,
                     "deadline", entry)
            if was_empty:
                schedule_service()
        elif kind == "service":
            if payload != service_token:
                continue
            if not queue:
                continue
            entry = queue.popleft()
            rid, enter = entry[0], entry[1]
            entry[2] = True
            metrics.acceptances[0] += 1
            metrics.acceptance_times[0].append(now)
            metrics.issued_wait += now - enter
            if collect_records:
                metrics.records.append(RequestRecord(
                    rid, 1, enter, 1.0, entry[3], "accepted", now - enter, None))
            if queue:
                schedule_service()
            else:
                service_token += 1  # cancel any pending epoch
        else:  # deadline: an entry has at most one, so one not done still waits
            entry = payload
            if entry[2]:
                continue
            queue.remove(entry)
            metrics.reneges[0] += 1
            metrics.issued_wait += now - entry[1]
            if collect_records:
                metrics.records.append(RequestRecord(
                    entry[0], 1, entry[1], 1.0, entry[3], "reneged",
                    now - entry[1], None))

    integrate(horizon)
    metrics.still_waiting[0] = len(queue)
    return metrics


# -- Monte-Carlo driver ------------------------------------------------------


def summarize_run(metrics: RunMetrics, scenario: Scenario) -> dict:
    """Flatten one replication into the scalar metrics the campaigns track."""
    utility_rates = [st.effective_utility_rate for st in scenario.slice_types]
    row: dict = {
        "replication": metrics.replication,
        "u_sigma": metrics.utility_time_average(utility_rates),
        "admission_rate": (
            sum(metrics.acceptances) / sum(metrics.arrivals)
            if sum(metrics.arrivals) else 0.0
        ),
    }
    n_issued = metrics.n_issued
    row["mean_wait_joined"] = metrics.issued_wait / sum(n_issued) if sum(n_issued) else 0.0

    summaries = list(profit_summary(n_issued, metrics.profit, metrics.profiting).values())
    for t, s in enumerate(summaries):
        row[f"total_profit_{t + 1}"] = s["total_profit"]
        row[f"mean_profit_{t + 1}"] = s["mean_profit"]
        row[f"profiting_chance_{t + 1}"] = s["profiting_chance"]
        row[f"acceptances_{t + 1}"] = metrics.acceptances[t]
        row[f"arrivals_{t + 1}"] = metrics.arrivals[t]
    n_all = sum(s["n_issued"] for s in summaries)
    total_all = sum(s["total_profit"] for s in summaries)
    row["total_profit"] = total_all
    row["mean_profit"] = total_all / n_all if n_all else 0.0
    return row


@dataclass
class MonteCarloResult:
    runs: list[RunMetrics]
    rows: list[dict]
    aggregate: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.runs)


def _aggregate(rows: list[dict]) -> dict:
    agg = {}
    if not rows:
        return agg
    keys = [k for k in rows[0] if k != "replication"]
    for k in keys:
        vals = np.array([row[k] for row in rows], dtype=float)
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        agg[k] = (mean, se)
    return agg


def _worker(args):
    scenario, strategy, config, rep, single_queue, region = args
    return run_replication(scenario, strategy, config, rep,
                           region=region, single_queue=single_queue)


def iter_replications(scenario: Scenario, strategy: Strategy | None,
                      config: SimConfig, threads: int = 1,
                      single_queue: bool = False,
                      region: RegionIndex | None = None):
    """Independent replications with per-replication derived seeds, yielded
    in replication order; a consumer that drops each one holds one at a time."""
    reps = range(config.replications)
    if threads > 1:
        jobs = [(scenario, strategy, config, r, single_queue, region) for r in reps]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(_worker, jobs)
    else:
        for r in reps:
            yield run_replication(scenario, strategy, config, r,
                                  region=region, single_queue=single_queue)


def run_monte_carlo(scenario: Scenario, strategy: Strategy | None,
                    config: SimConfig, threads: int = 1,
                    single_queue: bool = False,
                    region: RegionIndex | None = None) -> MonteCarloResult:
    """Every replication of ``iter_replications``, kept, with its summary row."""
    runs = list(iter_replications(scenario, strategy, config, threads, single_queue, region))
    rows = [summarize_run(m, scenario) for m in runs]
    return MonteCarloResult(runs=runs, rows=rows, aggregate=_aggregate(rows))
