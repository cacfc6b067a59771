"""Event-driven simulator for the multi-queue admission controller.

Per-type Poisson request arrivals, exponential slice lifetimes, the
preference-driven controller, tenant impatience hooks for every knowledge
regime, and metric collection over Monte-Carlo replications. Each
replication owns counter-based RNG sub-streams per purpose (arrivals,
lifetimes, initial state) so that adding draws for one concern never
perturbs the others.
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
from .queueing import QueueParams
from .tenants import (
    KnowledgeRegime,
    balk_decision,
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

PATIENT = KnowledgeRegime("patient")


def substream(master_seed: int, replication: int, tag: int) -> np.random.Generator:
    """Counter-based generator for one (replication, purpose) pair."""
    seq = np.random.SeedSequence((int(master_seed), int(replication), int(tag)))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class SimConfig:
    horizon: float = 1000.0
    replications: int = 1
    master_seed: int = 0
    queue_cap: int | None = 100
    knowledge: KnowledgeRegime = PATIENT
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


@dataclass
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
    the warmup boundary.
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

    def elapse(self, dt: float, length: int) -> None:
        if dt <= 0:
            return
        if length > 0:
            self.busy_time += dt
        while len(self.time_at_length) <= length:
            self.time_at_length.append(0.0)
        self.time_at_length[length] += dt

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

    def position_occupancy(self) -> np.ndarray:
        """occ[j] = total time queue position j (1-based) was occupied."""
        t = np.asarray(self.time_at_length)
        return np.cumsum(t[::-1])[::-1]

    def renege_rates(self, up_to: int) -> np.ndarray:
        """Per-position renege-rate estimates.

        Published as zero until the queue has accumulated enough renege
        observations; sparse early counts over short occupancies would
        otherwise dominate the expected-wait estimates.
        """
        rates = np.zeros(up_to + 1)
        if self.renege_total < MIN_SERVICE_OBSERVATIONS:
            return rates
        occ = self.position_occupancy()
        n = min(up_to + 1, len(self.renege_counts), len(occ))
        np.divide(self.renege_counts[1:n], occ[1:n], out=rates[1:n], where=occ[1:n] > 0)
        return rates

    def expected_wait_vector(self, mu: float, up_to: int) -> np.ndarray:
        """ew[k] = expected wait at position k under current estimates.

        Both sums accumulate left to right, as ``tenants.expected_wait``
        does, so ew[k] equals it to the last bit; omega[0] is zero, the
        service slot never reneges.
        """
        omega = self.renege_rates(up_to)
        ew = np.zeros(up_to + 1)
        np.add.accumulate(1.0 / (mu + np.add.accumulate(omega[:up_to])), out=ew[1:])
        return ew


class _Simulation:
    """One replication: either the multi-queue controller or the greedy
    single mixed queue."""

    def __init__(self, scenario: Scenario, strategy: Strategy | None,
                 config: SimConfig, replication: int,
                 region: RegionIndex | None = None,
                 single_queue: bool = False, trace=None):
        self.scenario = scenario
        self.config = config
        self.replication = replication
        self.single_queue = single_queue
        self.trace = trace
        self.region = region if region is not None else enumerate_regions(scenario)
        if not single_queue:
            if strategy is None:
                raise InvalidInputError("multi-queue simulation needs a strategy")
            strategy.check_scenario(scenario)
        self.strategy = strategy

        n = scenario.n_types
        seed = config.master_seed
        self.rng_init = substream(seed, replication, TAG_INIT)
        self.rng_arrival = [substream(seed, replication, TAG_ARRIVAL + t) for t in range(n)]
        self.rng_lifetime = [substream(seed, replication, TAG_LIFETIME + t) for t in range(n)]

        self.ctrl = ControllerState(region=self.region, queue_cap=config.queue_cap)
        self.mixed_queue: deque = deque()
        self.n_stats = 1 if single_queue else n
        self.stats = [_QueueStats() for _ in range(self.n_stats)]

        self.assigned_by_index = (
            np.asarray(self.region.feasible, dtype=float) @ scenario.cost_matrix().T
        )
        self._max_index = -1  # state index last folded into max_assigned

        self.now = 0.0
        self._last_t = 0.0
        self.warmup_time = config.warmup_fraction * config.horizon
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
            records=[], occupancy={}, busy_time=[0.0] * self.n_stats,
            queued_accepts=[0] * self.n_stats,
            max_assigned=[0.0] * scenario.n_resources,
        )

    # -- plumbing ---------------------------------------------------------

    def _push(self, time: float, prio: int, kind: str, payload) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (time, prio, self._seq, kind, payload))

    def _queue_of(self, slice_type: int) -> deque:
        return self.mixed_queue if self.single_queue else self.ctrl.queues[slice_type - 1]

    def _stats_of(self, slice_type: int) -> _QueueStats:
        return self.stats[0] if self.single_queue else self.stats[slice_type - 1]

    def _emit(self, kind: str, slice_type: int, request_id) -> None:
        if self.trace is None:
            return
        if self.single_queue:
            qlens = [len(self.mixed_queue)]
        else:
            qlens = self.ctrl.queue_lengths()
        self.trace({
            "time": self.now,
            "kind": kind,
            "slice_type": slice_type,
            "request_id": request_id,
            "queue_lengths": qlens,
            "state": list(self.ctrl.state),
        })

    def _integrate_to(self, time: float) -> None:
        """Accumulate time-weighted quantities up to ``time``.

        The published estimators run over the whole horizon; the
        steady-state accumulators (occupancy) skip the warmup window.
        """
        lo = self._last_t
        hi = min(time, self.config.horizon)
        self._last_t = time
        dt_full = hi - lo
        if dt_full <= 0:
            return
        if self.single_queue:
            self.stats[0].elapse(dt_full, len(self.mixed_queue))
        else:
            for t, q in enumerate(self.ctrl.queues):
                self.stats[t].elapse(dt_full, len(q))
        index = self.ctrl.state_index
        if index != self._max_index:
            self._max_index = index
            assigned = self.assigned_by_index[index]
            for m in range(len(assigned)):
                if assigned[m] > self.metrics.max_assigned[m]:
                    self.metrics.max_assigned[m] = assigned[m]
        dt = hi - max(lo, self.warmup_time)
        if dt <= 0:
            return
        state = self.ctrl.state
        occ = self.metrics.occupancy
        occ[state] = occ.get(state, 0.0) + dt

    def _record(self, req: PendingRequest, disposition: str, wait: float,
                profit: float | None) -> None:
        if not self.config.collect_records:
            return
        self.metrics.records.append(RequestRecord(
            request_id=req.request_id, slice_type=req.slice_type,
            enter_time=req.enter_time, lifetime=req.lifetime,
            entry_queue_length=req.entry_queue_length,
            disposition=disposition, wait=wait, end_profit=profit,
        ))

    # -- tenant decisions --------------------------------------------------

    def _entrance_joins(self, req: PendingRequest, queue) -> bool:
        kind = req.regime.kind
        if kind in ("patient", "blind", "position"):
            return True
        stats = self._stats_of(req.slice_type)
        if kind == "avg_wait":
            return renege_avg_wait(req, stats.mean_accepted_wait())
        mu = stats.service_rate()
        if mu is None:
            return True
        length = len(queue) + 1
        if kind == "serving_rate":
            return balk_decision(req, length, mu)
        ew = stats.expected_wait_vector(mu, length)
        value = req.profit_rate * req.lifetime
        return value - req.issue_cost - req.waiting_cost_rate * ew[length] >= 0.0

    def _reevaluate_queue(self, slice_type: int) -> None:
        """Let every waiting position-aware tenant re-decide; cascades until
        no one reneges."""
        kind = self.config.knowledge.kind
        if kind in ("patient", "avg_wait", "blind"):
            return
        queue = self._queue_of(slice_type)
        stats = self._stats_of(slice_type)
        while queue:
            if kind == "position":
                # re-decided at position changes only: between departures
                # the sunk time keeps growing but the tenant acts on the
                # progress it has actually observed
                pos = next((
                    pos for pos, req in enumerate(queue, start=1)
                    if not renege_position(req, pos, req.entry_queue_length,
                                           self.now - req.enter_time,
                                           req.regime.delta_k)[0]
                ), 0)
            elif (mu := stats.service_rate()) is None:
                return
            elif kind == "serving_rate":
                pos = next((pos for pos, req in enumerate(queue, start=1)
                            if not renege_serving_rate(req, pos, mu)), 0)
            else:  # full: one comparison over the whole queue
                n = len(queue)
                ew = stats.expected_wait_vector(mu, n)
                value = np.fromiter((r.profit_rate * r.lifetime for r in queue), float, n)
                cost_rate = np.fromiter((r.waiting_cost_rate for r in queue), float, n)
                leaves = value - cost_rate * ew[1:] < 0.0
                pos = int(leaves.argmax()) + 1 if leaves.any() else 0
            if pos == 0:
                return
            self._renege(queue[pos - 1], pos)

    def _renege(self, req: PendingRequest, position: int) -> None:
        queue = self._queue_of(req.slice_type)
        queue.remove(req)
        req.done = True
        req.deadline_token += 1
        stats = self._stats_of(req.slice_type)
        stats.note_renege(position)
        t = req.slice_type - 1
        wait = self.now - req.enter_time
        self.metrics.reneges[t] += 1
        self._record(req, "reneged", wait, end_profit(req, False, wait))
        self._emit("renege", req.slice_type, req.request_id)

    # -- event handlers ----------------------------------------------------

    def _schedule_arrival(self, t: int) -> None:
        lam = self.scenario.slice_types[t].arrival_rate
        self._push(self.now + self.rng_arrival[t].exponential(1.0 / lam),
                   PRIO_ARRIVAL, "arrival", t)

    def _schedule_release(self, slice_type: int, lifetime: float) -> None:
        self._push(self.now + lifetime, PRIO_RELEASE, "release", slice_type)

    def _accept(self, req: PendingRequest) -> None:
        t = req.slice_type - 1
        wait = self.now - req.enter_time
        req.deadline_token += 1
        self.metrics.acceptances[t] += 1
        self._schedule_release(req.slice_type, req.lifetime)
        stats = self._stats_of(req.slice_type)
        stats.note_accept(wait)
        if self.now >= self.warmup_time:
            self.metrics.acceptance_times[t].append(self.now)
        self._record(req, "accepted", wait, end_profit(req, True, wait))
        self._emit("accept", req.slice_type, req.request_id)

    def _serve_single(self) -> list[PendingRequest]:
        accepted = []
        region = self.region
        while self.mixed_queue:
            head = self.mixed_queue[0]
            target = region.next_feasible[self.ctrl.state_index][head.slice_type - 1]
            if target < 0:
                break
            self.mixed_queue.popleft()
            head.done = True
            self.ctrl.state_index = target
            accepted.append(head)
        return accepted

    def _handle_arrival(self, t: int) -> None:
        self._schedule_arrival(t)
        st = self.scenario.slice_types[t]
        req = PendingRequest(
            request_id=self._next_id, slice_type=t + 1, enter_time=self.now,
            lifetime=self.rng_lifetime[t].exponential(st.mean_lifetime),
            issue_cost=st.issue_cost, waiting_cost_rate=st.waiting_cost_rate,
            profit_rate=st.profit_rate, regime=self.config.knowledge,
        )
        self._next_id += 1
        self.metrics.arrivals[t] += 1
        self._emit("request", req.slice_type, req.request_id)

        if self.single_queue:
            disposition, accepted = self._single_on_request(req)
        else:
            disposition, accepted = on_request(
                self.ctrl, self.strategy, req, self._entrance_joins
            )

        if disposition is Disposition.BALKED:
            self.metrics.balks[t] += 1
            self._record(req, "balked", 0.0, None)
            self._emit("balk", req.slice_type, req.request_id)
            return
        if disposition is Disposition.CAP_REJECTED:
            self.metrics.cap_rejections[t] += 1
            self._record(req, "cap_rejected", 0.0, None)
            self._emit("cap_reject", req.slice_type, req.request_id)
            return

        self.metrics.joined[t] += 1
        if req.regime.kind == "blind" and not req.done:
            t_max = renege_blind(req, req.regime.risk_factor)
            if math.isfinite(t_max):
                req.deadline_token += 1
                self._push(self.now + t_max, PRIO_DEADLINE, "deadline",
                           (req, req.deadline_token))
        self._after_acceptances(accepted)

    def _single_on_request(self, req: PendingRequest):
        queue = self.mixed_queue
        if not self._entrance_joins(req, queue):
            return Disposition.BALKED, []
        cap = self.config.queue_cap
        if cap is not None and len(queue) >= cap:
            return Disposition.CAP_REJECTED, []
        req.entry_queue_length = len(queue) + 1
        queue.append(req)
        accepted = self._serve_single()
        if any(a is req for a in accepted):
            return Disposition.ACCEPTED_IMMEDIATELY, accepted
        return Disposition.QUEUED, accepted

    def _after_acceptances(self, accepted: list[PendingRequest]) -> None:
        for a in accepted:
            self._accept(a)
        if self.single_queue:
            if accepted:
                self._reevaluate_queue(1)
        else:
            for qt in {a.slice_type for a in accepted}:
                self._reevaluate_queue(qt)

    def _handle_release(self, slice_type: int) -> None:
        self._emit("release", slice_type, None)
        if self.single_queue:
            prev = self.region.prev_feasible[self.ctrl.state_index][slice_type - 1]
            self.ctrl.state_index = prev
            accepted = self._serve_single()
        else:
            accepted = on_release(self.ctrl, self.strategy, slice_type)
        self._after_acceptances(accepted)

    def _handle_deadline(self, payload) -> None:
        req, token = payload
        if req.done or token != req.deadline_token:
            return
        queue = self._queue_of(req.slice_type)
        try:
            position = next(i for i, r in enumerate(queue, start=1) if r is req)
        except StopIteration:
            return
        self._renege(req, position)
        self._reevaluate_queue(req.slice_type)

    # -- main loop ----------------------------------------------------------

    def _draw_initial_state(self) -> int:
        mode = self.config.initial_state
        if mode == "empty":
            return self.region.feasible_index((0,) * self.scenario.n_types)
        if mode == "random_feasible":
            return int(self.rng_init.integers(0, self.region.n_feasible))
        # random but fully utilized: boundary states, falling back to the
        # component-wise maximal feasible states when the boundary is empty
        n_adm, n_all = self.region.n_admissible, self.region.n_feasible
        if n_all > n_adm:
            return int(self.rng_init.integers(n_adm, n_all))
        states = self.region.feasible
        maximal = [
            i for i, s in enumerate(states)
            if not any(
                other != s and all(o >= x for o, x in zip(other, s))
                for other in states
            )
        ]
        return maximal[int(self.rng_init.integers(0, len(maximal)))]

    def run(self) -> RunMetrics:
        self.ctrl.state_index = self._draw_initial_state()
        for t, count in enumerate(self.ctrl.state):
            st = self.scenario.slice_types[t]
            for _ in range(count):
                self._schedule_release(t + 1, self.rng_lifetime[t].exponential(st.mean_lifetime))
        for t in range(self.scenario.n_types):
            self._schedule_arrival(t)

        horizon = self.config.horizon
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

        queues = [self.mixed_queue] if self.single_queue else self.ctrl.queues
        for q in queues:
            for req in q:
                t = req.slice_type - 1
                self.metrics.still_waiting[t] += 1
                self._record(req, "waiting", horizon - req.enter_time, None)
        for i, stats in enumerate(self.stats):
            self.metrics.busy_time[i] = stats.busy_time
            self.metrics.queued_accepts[i] = stats.queued_accepts
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
                                 region: RegionIndex | None = None,
                                 trace=None) -> RunMetrics:
    """Single mixed FCFS queue: the head is accepted whenever it fits and
    blocks everything behind it when it does not."""
    return run_replication(scenario, None, config, replication,
                           region=region, single_queue=True, trace=trace)


def isolated_queue_sim(params: QueueParams, horizon: float, seed: int,
                       collect_records: bool = True) -> RunMetrics:
    """Single queue with exogenous Poisson acceptance epochs.

    Arrivals join with probability exp(-beta * (l+1) / mu) where l is the
    length found (the joining request counts itself); every waiting request,
    head included, abandons after an individual Exp(alpha) patience. The
    occupancy dict is keyed by queue length.
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
        queued_accepts=[0], max_assigned=[0.0],
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
            entry = [rid, now, 0, entry_len]  # id, enter time, deadline token
            queue.append(entry)
            metrics.joined[0] += 1
            if alpha > 0:
                entry[2] += 1
                push(now + rng_pat.exponential(1.0 / alpha), PRIO_DEADLINE,
                     "deadline", (entry, entry[2]))
            if was_empty:
                schedule_service()
        elif kind == "service":
            if payload != service_token:
                continue
            if not queue:
                continue
            entry = queue.popleft()
            rid, enter = entry[0], entry[1]
            entry[2] += 1  # invalidate any pending patience deadline
            metrics.acceptances[0] += 1
            metrics.acceptance_times[0].append(now)
            if collect_records:
                metrics.records.append(RequestRecord(
                    rid, 1, enter, 1.0, entry[3], "accepted", now - enter, None))
            if queue:
                schedule_service()
            else:
                service_token += 1  # cancel any pending epoch
        else:  # deadline
            entry, token = payload
            if token != entry[2]:
                continue
            try:
                queue.remove(entry)
            except ValueError:
                continue
            entry[2] += 1
            metrics.reneges[0] += 1
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
    waits = [r.wait for r in metrics.records if r.disposition in ("accepted", "reneged")]
    row["mean_wait_joined"] = float(np.mean(waits)) if waits else 0.0

    per_type_profit = {}
    for t in range(metrics.n_types):
        profits = [
            r.end_profit for r in metrics.records
            if r.slice_type == t + 1 and r.end_profit is not None
        ]
        n = len(profits)
        total = float(np.sum(profits)) if n else 0.0
        per_type_profit[t] = (n, total)
        row[f"total_profit_{t + 1}"] = total
        row[f"mean_profit_{t + 1}"] = total / n if n else 0.0
        row[f"profiting_chance_{t + 1}"] = (
            sum(1 for p in profits if p > 0) / n if n else 0.0
        )
        row[f"acceptances_{t + 1}"] = metrics.acceptances[t]
        row[f"arrivals_{t + 1}"] = metrics.arrivals[t]
    n_all = sum(n for n, _ in per_type_profit.values())
    total_all = sum(tp for _, tp in per_type_profit.values())
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


def run_monte_carlo(scenario: Scenario, strategy: Strategy | None,
                    config: SimConfig, threads: int = 1,
                    single_queue: bool = False,
                    region: RegionIndex | None = None) -> MonteCarloResult:
    """Independent replications with per-replication derived seeds."""
    reps = range(config.replications)
    if threads > 1:
        jobs = [(scenario, strategy, config, r, single_queue, region) for r in reps]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(_worker, jobs))
    else:
        runs = [
            run_replication(scenario, strategy, config, r,
                            region=region, single_queue=single_queue)
            for r in reps
        ]
    rows = [summarize_run(m, scenario) for m in runs]
    return MonteCarloResult(runs=runs, rows=rows, aggregate=_aggregate(rows))
