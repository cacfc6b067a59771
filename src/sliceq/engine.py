"""Event-driven simulator for the multi-queue admission controller.

Per-type Poisson request arrivals, exponential slice lifetimes, the
preference-driven controller, tenant impatience hooks for every knowledge
regime, and metric collection over Monte-Carlo replications. Each
replication owns counter-based RNG sub-streams per purpose (arrivals,
lifetimes, initial state) so that adding draws for one concern never
perturbs the others.

One event loop runs both admission disciplines: the preference-ordered
multi-queue controller and the greedy single mixed queue it is judged
against. The loop decides who joins: an arriving tenant's entrance rule,
then the queue cap, so a tenant that would balk at a full queue is a balk;
a refused arrival is recorded with entry length 0 and is never a request.
Which queue a request waits in and how the queues are served is decided in
``controller``, entered only through ``on_request`` and ``on_release``; the
loop knows the queues by index. Arrivals are Poisson epochs that no decision
moves, so this loop takes them from ``arrival_windows`` (which feeds it
only; ``isolated_queue_sim`` sums one type's gaps) and its heap holds none.
"""
from __future__ import annotations

import gc
import heapq
import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import accumulate, chain, repeat, takewhile

import numpy as np

from .controller import ControllerState, PendingRequest, on_release, on_request
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

DRAW_BLOCK = 512  # draws per refill of a block-drawn stream

# The critical-rate filter skips an exact decision when mu clears a bound by
# FILTER_SLACK. A decision's sides are products, quotients and, at position
# n, a left-to-right sum of n terms each at most fl(1/mu) (rounding is
# monotone): they err within (n + 4)·2^-52 <= 1e-9 up to MAX_FILTER_LENGTH.
# The full entrance screen balks when the surplus falls short of
# u·n/(mu + omega) by FILTER_SLACK, omega at least every computed prefix sum
# of the published renege rates: each term of the wait is then at least
# fl(1/fl(mu + omega)), and the same count holds.
FILTER_SLACK = 1.0 + 1e-9
MAX_FILTER_LENGTH = int(1e-9 * 2**52) - 4
# Acceptances serve a requests from a queue's head and leave n: a request at
# k <= n + a moves to k - a, and k·u/value scales with k, by
# (k - a)/k <= n/(n + a). So bound·n/(n + a) still bounds the critical rates
# in exact arithmetic. In floats a critical rate is two roundings from its
# exact value, at the old position and the new, and bound·n/(n + a) two
# more; each errs by a factor within 1 ± 2^-53 away from underflow. These
# six and the product by SHIFT_SLACK itself need a factor just over
# 1 + 7·2^-53, and SHIFT_SLACK = 1 + 16·2^-53 gives it.
SHIFT_SLACK = 1.0 + 2.0**-49


def substream(master_seed: int, replication: int, tag: int) -> np.random.Generator:
    """Counter-based generator for one (replication, purpose) pair."""
    if master_seed < 0:
        raise InvalidInputError(f"seed must be non-negative, not {master_seed}")
    seq = np.random.SeedSequence((int(master_seed), int(replication), int(tag)))
    return np.random.Generator(np.random.Philox(seq))


def block_draws(sample, *args):
    """Successive draws of the sampler ``sample(*args)``, say
    ``rng.exponential`` with its scale or ``rng.random``, drawn a block at a
    time and chained in C, so a draw runs no Python code; a block holds the
    same doubles as that many scalar draws."""
    return chain.from_iterable(iter(lambda: sample(*args, DRAW_BLOCK).tolist(), None))


def arrival_windows(streams, scales):
    """Every type's Poisson arrival epochs in time order, a window at a time.

    Type t's epochs sum gaps drawn a block at a time from ``streams[t]``, in
    the order ``now + gap`` adds them. A window lists (epoch, PRIO_ARRIVAL,
    type index) entries, as the event heap orders its own, up to the earliest
    of the types' last drawn epochs, so at most a block per type is held. Two
    types share an epoch with probability zero; then the lower index is first.
    """
    n = len(streams)
    pending, last = [np.empty(0)] * n, [0.0] * n
    while True:
        for t in range(n):
            if not len(pending[t]):
                gaps = streams[t].exponential(scales[t], DRAW_BLOCK)
                gaps[0] += last[t]
                pending[t] = np.cumsum(gaps)
                last[t] = pending[t][-1]
        end = min(last)
        cuts = [int(np.searchsorted(p, end, side="right")) for p in pending]
        epochs = np.concatenate([p[:c] for p, c in zip(pending, cuts)])
        order = np.argsort(epochs, kind="stable")
        yield list(zip(epochs[order].tolist(), repeat(PRIO_ARRIVAL),
                       np.repeat(np.arange(n), cuts)[order].tolist()))
        pending = [p[c:] for p, c in zip(pending, cuts)]


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
        if not 0 < self.horizon < math.inf:
            raise InvalidInputError("horizon must be positive and finite")
        if self.replications < 1:
            raise InvalidInputError("need at least one replication")
        if self.initial_state not in ("empty", "random_feasible", "random_full"):
            raise InvalidInputError(f"unknown initial state {self.initial_state!r}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise InvalidInputError("warmup_fraction must lie in [0, 1)")
        if self.queue_cap is not None and self.queue_cap < 1:
            raise InvalidInputError("queue cap must be positive when set")


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
    lengths for the isolated simulator). It and the acceptance timestamps start
    at the warmup boundary, so the occupancy covers horizon - warmup_time,
    which ``SimConfig`` keeps positive. A request issued (accepted or reneged)
    adds its end profit to ``profit``, counts in ``profiting`` when that is
    positive and adds its wait to ``issued_wait``; ``records`` is an output
    only, on which no other field depends. ``joined`` is derived: every arrival
    balks, is cap-rejected or joins. ``stale_pops`` counts the deadlines due
    by the horizon of requests already served: the admission loop pops each
    blind one as an event, the isolated loop counts a patience one at service.
    """

    n_types: int
    horizon: float
    warmup_time: float
    master_seed: int
    replication: int
    arrivals: list[int]
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
    stale_pops: int

    @property
    def joined(self) -> list[int]:
        return [a - b - c for a, b, c in zip(self.arrivals, self.balks, self.cap_rejections)]

    @property
    def n_issued(self) -> list[int]:
        return [a + r for a, r in zip(self.acceptances, self.reneges)]

    def conservation_ok(self) -> bool:
        # every request that joined was issued or still waits
        return self.joined == [i + w for i, w in zip(self.n_issued, self.still_waiting)]

    def utility_time_average(self, utility_rates) -> float:
        u = np.asarray(utility_rates, dtype=float)
        total = sum(self.occupancy.values())
        acc = 0.0
        for state, dt in self.occupancy.items():
            acc += dt * float(np.dot(u, state))
        return acc / total

    def measured_acceptance_rates(self) -> np.ndarray:
        span = self.horizon - self.warmup_time
        return np.array([len(ts) / span for ts in self.acceptance_times])

    def inter_acceptance_times(self, slice_type: int) -> np.ndarray:
        return np.diff(np.asarray(self.acceptance_times[slice_type - 1]))


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
        self._omega_bound = None  # found again after each renege

    def note_renege(self, position: int) -> None:
        while len(self.renege_counts) <= position:
            self.renege_counts.append(0)
        self.renege_counts[position] += 1
        self.renege_total += 1
        self._omega_bound = None

    def service_rate(self) -> float | None:
        if self.queued_accepts < MIN_SERVICE_OBSERVATIONS or self.busy_time <= 0:
            return None
        return self.queued_accepts / self.busy_time

    def mean_accepted_wait(self) -> float:
        if self.accept_count == 0:
            return 0.0
        return self.accept_wait_sum / self.accept_count

    def omega_bound(self) -> float:
        """At least every left-to-right prefix sum of the published renege
        rates, until the counts next change; zero while the rates are gated.

        Between changes of the counts the occupied times only grow, so every
        published rate can only fall. A counted position that publishes zero
        (never occupied) may publish any rate later: the bound is infinite
        then, and is looked for again at the next call.
        """
        if self.renege_total < MIN_SERVICE_OBSERVATIONS:
            return 0.0
        if self._omega_bound is None:
            counts = self.renege_counts
            rates = self.renege_rates(len(counts) - 1)
            if np.any((np.asarray(counts) > 0) & (rates == 0)):
                return math.inf
            self._omega_bound = float(np.add.accumulate(rates)[-1])
        return self._omega_bound

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


@dataclass(slots=True)
class _Tenant:
    """An arriving tenant as its entrance rule sees it; a run keeps one per type."""

    slice_type: int
    issue_cost: float
    waiting_cost_rate: float
    profit_rate: float
    lifetime: float = 0.0


# -- knowledge regimes --------------------------------------------------------
# A run reads its regime once into two rules, plain functions so that a run is
# no reference cycle. The entrance rule (tenant, stats, length) says whether an
# arriving ``_Tenant``, not yet a request, joins at ``length``, itself
# included; the stay rule (sim, i, mu) gives the predicate (req, position) ->
# stays for one re-decision of queue ``i``. ``None`` means always join, or
# never re-decide.
# The rules call the ``tenants`` function whose arguments are what the
# regime's tenant may see; full knowledge weighs the expected wait in place.


def _joins_on_mean_wait(tenant, stats: _QueueStats, length: int) -> bool:
    return renege_avg_wait(tenant, stats.mean_accepted_wait())


def _joins_on_serving_rate(tenant, stats: _QueueStats, length: int) -> bool:
    mu = stats.service_rate()
    return mu is None or balk_decision(tenant, length, mu)


def _joins_on_expected_wait(tenant, stats: _QueueStats, length: int) -> bool:
    mu = stats.service_rate()
    if mu is None:
        return True
    surplus = tenant.profit_rate * tenant.lifetime - tenant.issue_cost
    if length <= MAX_FILTER_LENGTH:
        # length/(mu + omega) <= ew[length] <= length/mu up to rounding, and
        # omega is zero while the renege rates are gated
        u = tenant.waiting_cost_rate
        if surplus >= u * length / mu * FILTER_SLACK:
            return True
        if surplus * FILTER_SLACK < u * length / (mu + stats.omega_bound()):
            return False
    ew = stats.expected_wait_vector(mu, length)
    return surplus - tenant.waiting_cost_rate * ew[length] >= 0.0


def _stays_on_progress(sim, i: int, mu):
    # re-decided at position changes only: between departures the sunk time
    # keeps growing but the tenant acts on the progress it has actually seen.
    # Past the probation band the rule always waits, and positions only fall:
    # the band is tested here, and the rule is called inside it alone.
    now, delta_k = sim.now, sim.config.knowledge.delta_k
    return lambda req, pos: (req.entry_queue_length - pos > delta_k
                             or renege_position(req, pos, req.entry_queue_length,
                                                now - req.enter_time, delta_k))


def _stays_on_serving_rate(sim, i: int, mu):
    return lambda req, pos: renege_serving_rate(req, pos, mu)


def _stays_on_expected_wait(sim, i: int, mu):
    ew = sim.stats[i].expected_wait_vector(mu, len(sim.ctrl.queues[i])).tolist()
    return lambda req, pos: req.profit_rate * req.lifetime - req.waiting_cost_rate * ew[pos] >= 0.0


# knowledge regime -> (entrance rule, stay rule). Until a queue has seen
# MIN_SERVICE_OBSERVATIONS reneges, the renege rates that only full tenants read
# are published as zero, so ew[l] = l/mu and the full rules are the serving-rate
# rules up to rounding. On the demo that gate seldom opens: at horizon 1000 (seeds
# 0-5, two random strategies, empty and random_full starts) 23 of 24 run pairs of
# the two regimes gave identical records; the other one reneged 14 times (full)
# against 13, and the pinned gate-open run reneges 27 times (full) against 28.
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
        if self.region.scenario_fingerprint != scenario.fingerprint():
            raise InvalidInputError("region was enumerated for a different scenario")
        if not single_queue:
            if strategy is None:
                raise InvalidInputError("multi-queue simulation needs a strategy")
            strategy.check_fingerprint(scenario.fingerprint())
        self.strategy = None if single_queue else strategy

        n = scenario.n_types
        seed = config.master_seed
        self.rng_init = substream(seed, replication, TAG_INIT)
        types = scenario.slice_types
        self.arrival_stream = chain.from_iterable(arrival_windows(
            [substream(seed, replication, TAG_ARRIVAL + t) for t in range(n)],
            [1.0 / st.arrival_rate for st in types]))
        self.lifetimes = [
            block_draws(substream(seed, replication, TAG_LIFETIME + t).exponential,
                        types[t].mean_lifetime) for t in range(n)]

        self.ctrl = ControllerState(region=self.region,
                                    queues=[deque()] if single_queue else [])
        n_queues = len(self.ctrl.queues)
        self.stats = [_QueueStats() for _ in range(n_queues)]
        kind = config.knowledge.kind
        self.entrance_rule, self.stay_rule = _REGIME_RULES[kind]
        # only full tenants read the published renege rates, so only their
        # runs time each queue length and count reneges by position
        self.reneges_published = kind == "full"
        # blind tenants renege at a waiting budget fixed when they join
        self.risk_factor = config.knowledge.risk_factor if kind == "blind" else None
        # per queue, for the two stay rules it screens: a bound above each
        # waiting request's critical rate
        self.bounds = [0.0] * n_queues if kind in ("serving_rate", "full") else None
        # per queue, for the position stay rule: the next request id at each of
        # the queue's last delta_k + 1 acceptances
        self.stamps = ([deque(maxlen=config.knowledge.delta_k + 1) for _ in range(n_queues)]
                       if kind == "position" else None)

        self.now = 0.0
        self.warmup_time = config.warmup_fraction * config.horizon

        self.metrics = RunMetrics(
            n_types=n, horizon=config.horizon, warmup_time=self.warmup_time,
            master_seed=seed, replication=replication,
            arrivals=[0] * n, balks=[0] * n,
            cap_rejections=[0] * n, reneges=[0] * n, acceptances=[0] * n,
            still_waiting=[0] * n,
            acceptance_times=[[] for _ in range(n)],
            records=[], profit=[0.0] * n, profiting=[0] * n, issued_wait=0.0,
            # read off the run's own accumulators once it ends
            occupancy={}, busy_time=[], queued_accepts=[], max_assigned=[], stale_pops=0,
        )

    # -- plumbing ---------------------------------------------------------

    def _emit(self, kind: str, slice_type: int, request_id) -> None:
        self.trace({
            "time": self.now,
            "kind": kind,
            "slice_type": slice_type,
            "request_id": request_id,
            "queue_lengths": [len(q) for q in self.ctrl.queues],
            "state": list(self.ctrl.state),
        })

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

    def _reevaluate_queue(self, i: int) -> None:
        """Let every tenant waiting in queue ``i`` that can still renege
        re-decide; cascades until no one reneges."""
        queue = self.ctrl.queues[i]
        mu = self.stats[i].service_rate()
        if self.bounds is not None and (mu is None or (mu > self.bounds[i] * FILTER_SLACK
                                                       and len(queue) <= MAX_FILTER_LENGTH)):
            return
        # A renege at p leaves the requests ahead of p, now and mu as they
        # were; it raises the published renege rate at p alone, or opens their
        # gate, so ew[1..p] can only fall (rounding is monotone). So a pass that
        # goes on behind each renege, with the stay rule built again, decides
        # as a rescan from the head would; those that stay rebuild the bound.
        stays = self.stay_rule(self, i, mu)
        waiting = list(queue) if self.stamps is None else self._may_renege(i)
        pos = len(queue) - len(waiting) + 1
        bounds, bound = self.bounds, 0.0
        for req in waiting:
            if stays(req, pos):
                if bounds is not None:
                    bound = max(bound, critical_rate(pos, req.waiting_cost_rate,
                                                     req.profit_rate * req.lifetime))
                pos += 1
            else:
                self._renege(i, req, pos)
                stays = self.stay_rule(self, i, mu)
        if bounds is not None:
            bounds[i] = bound

    def _may_renege(self, i: int) -> list[PendingRequest]:
        """The requests of queue ``i`` that a position pass must visit.

        Acceptances leave from the head, so a request that joined before the
        queue's last delta_k + 1 of them has advanced past its probation band
        and stays for good; the rest have the larger ids, a tail of the queue.
        """
        stamps = self.stamps[i]
        oldest = stamps[0] if len(stamps) == stamps.maxlen else 0
        tail = list(takewhile(lambda req: req.request_id >= oldest,
                              reversed(self.ctrl.queues[i])))
        tail.reverse()
        return tail

    def _renege(self, i: int, req: PendingRequest, position: int) -> None:
        del self.ctrl.queues[i][position - 1]
        req.done = True
        if self.reneges_published:
            self.stats[i].note_renege(position)
        t = req.slice_type - 1
        wait = self.now - req.enter_time
        self.metrics.reneges[t] += 1
        self._record(req, "reneged", wait, end_profit(req, False, wait))
        if self.trace is not None:
            self._emit("renege", req.slice_type, req.request_id)

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
        """Run to the horizon in one flat loop. A run makes no reference cycle,
        so the cyclic collector is paused for it and then restored as found.

        Every name the loop calls is bound once here, so wrappers installed
        before the run (the benchmark's tracer) see the calls. Arrivals come
        from ``arrival_windows``; the heap holds releases and blind deadlines
        as (time, priority, sequence number, payload). The earlier of the two
        heads is dispatched on its priority, which orders ties; its payload is
        a type index (arrival), a slice type (release) or a request (deadline).
        """
        ctrl, strategy, metrics, trace = self.ctrl, self.strategy, self.metrics, self.trace
        queues, queue_index, stats = ctrl.queues, ctrl.queue_index, self.stats
        queue_stats = list(zip(queues, stats))
        arrival_stream, lifetimes = self.arrival_stream, self.lifetimes
        tenants = [_Tenant(t + 1, st.issue_cost, st.waiting_cost_rate, st.profit_rate)
                   for t, st in enumerate(self.scenario.slice_types)]
        push, pop = heapq.heappush, heapq.heappop
        request, release, profit_of, blind_budget = on_request, on_release, end_profit, renege_blind
        joins, cap = self.entrance_rule, self.config.queue_cap
        reevaluate = None if self.stay_rule is None else self._reevaluate_queue
        bounds, bound_of = self.bounds, critical_rate
        renege, record, emit = self._renege, self._record, self._emit
        lengths_timed, risk_factor, stamps = self.reneges_published, self.risk_factor, self.stamps
        collect, records = self.config.collect_records, metrics.records
        arrivals, balks, cap_rejections, acceptances = (
            metrics.arrivals, metrics.balks, metrics.cap_rejections, metrics.acceptances)
        acceptance_times, profit_by_type, profiting = (
            metrics.acceptance_times, metrics.profit, metrics.profiting)
        horizon, warmup = self.config.horizon, self.warmup_time
        # the measured time per state index, and the state indices held for a
        # positive time from inside the warmup; the occupancy keys are the rest
        occupancy: dict[int, float] = defaultdict(float)
        visited: set[int] = set()

        collecting = gc.isenabled()
        gc.disable()
        try:
            ctrl.state_index = self._draw_initial_state()
            heap: list = []
            seq = 0
            for t, count in enumerate(ctrl.state):
                for _ in range(count):
                    seq += 1
                    push(heap, (next(lifetimes[t]), PRIO_RELEASE, seq, t + 1))

            last_t = 0.0
            next_id = 1
            stale = 0
            # arrivals never run out; the heap holds none, so no entry equals one
            arrival = next(arrival_stream)
            while True:
                if not heap or heap[0] > arrival:
                    now, prio, payload = arrival
                    arrival = next(arrival_stream)
                else:
                    now, prio, _seq, payload = pop(heap)
                if now > horizon:  # the last span runs to the horizon
                    now, prio = horizon, None
                # every event adds its span, a stale one too: the busy time, for
                # full tenants the time at each queue length (both feed the
                # published estimators and span the whole horizon; a join gives
                # a new length its slot), and the occupancy after the warmup
                dt = now - last_t
                if dt > 0:
                    for q, s in queue_stats:
                        if q:
                            s.busy_time += dt
                        if lengths_timed:
                            s.time_at_length[len(q)] += dt
                    index = ctrl.state_index
                    if last_t < warmup:
                        visited.add(index)
                        dt = now - warmup
                    if dt > 0:
                        occupancy[index] += dt
                last_t = self.now = now

                if prio == PRIO_ARRIVAL:
                    t = payload
                    tenant = tenants[t]
                    tenant.lifetime = lifetime = next(lifetimes[t])
                    if lifetime <= 0:
                        raise InvalidInputError("lifetime must be positive")
                    request_id = next_id
                    next_id += 1
                    arrivals[t] += 1
                    if trace is not None:
                        emit("request", t + 1, request_id)
                    # the tenant's balking rule, then the cap, decide who joins;
                    # only a tenant that joins becomes a request
                    i = queue_index[t]
                    length = len(queues[i])
                    if joins is not None and not joins(tenant, stats[i], length + 1):
                        balks[t] += 1
                        if collect:
                            records.append(RequestRecord(request_id, t + 1, now, lifetime, 0,
                                                         "balked", 0.0, None))
                        if trace is not None:
                            emit("balk", t + 1, request_id)
                        continue
                    if cap is not None and length >= cap:
                        cap_rejections[t] += 1
                        if collect:
                            records.append(RequestRecord(request_id, t + 1, now, lifetime, 0,
                                                         "cap_rejected", 0.0, None))
                        if trace is not None:
                            emit("cap_reject", t + 1, request_id)
                        continue
                    if bounds is not None:  # it joins at the tail; acceptances move it up
                        bounds[i] = max(bounds[i], bound_of(length + 1, tenant.waiting_cost_rate,
                                                            tenant.profit_rate * lifetime))
                    req = PendingRequest(request_id, t + 1, now, lifetime, tenant.issue_cost,
                                         tenant.waiting_cost_rate, tenant.profit_rate)
                    accepted = request(ctrl, strategy, req)
                    # a new length (one at most) gets a slot
                    if lengths_timed and len(stats[i].time_at_length) == len(queues[i]):
                        stats[i].time_at_length.append(0.0)
                    if risk_factor is not None and not req.done:
                        t_max = blind_budget(req, risk_factor)
                        if math.isfinite(t_max):
                            seq += 1
                            push(heap, (now + t_max, PRIO_DEADLINE, seq, req))
                elif prio == PRIO_RELEASE:
                    if trace is not None:
                        emit("release", payload, None)
                    accepted = release(ctrl, strategy, payload)
                elif prio == PRIO_DEADLINE:
                    # a request has at most one deadline, and one that is not done
                    # still waits in its queue; blind tenants never re-decide
                    if payload.done:
                        stale += 1
                        continue
                    i = queue_index[payload.slice_type - 1]
                    renege(i, payload, queues[i].index(payload) + 1)
                    continue
                else:
                    break

                if not accepted:
                    continue
                for req in accepted:
                    t = req.slice_type - 1
                    wait = now - req.enter_time
                    acceptances[t] += 1
                    seq += 1
                    push(heap, (now + req.lifetime, PRIO_RELEASE, seq, req.slice_type))
                    i = queue_index[t]
                    s = stats[i]
                    s.accept_count += 1
                    s.accept_wait_sum += wait
                    if wait > 0:
                        s.queued_accepts += 1
                    if stamps is not None:
                        stamps[i].append(next_id)
                    if now >= warmup:
                        acceptance_times[t].append(now)
                    profit = profit_of(req, True, wait)
                    profit_by_type[t] += profit
                    profiting[t] += profit > 0
                    metrics.issued_wait += wait
                    if collect:
                        records.append(RequestRecord(
                            req.request_id, req.slice_type, req.enter_time, req.lifetime,
                            req.entry_queue_length, "accepted", wait, profit))
                    if trace is not None:
                        emit("accept", req.slice_type, req.request_id)
                if reevaluate is not None:
                    # acceptances per queue, in queue order; a lone acceptance's
                    # queue is the last i set
                    served = ({i: 1} if len(accepted) == 1 else
                              Counter(sorted(queue_index[req.slice_type - 1] for req in accepted)))
                    for i, a in served.items():
                        if bounds is not None:  # everyone left moves up a places
                            n = len(queues[i])
                            bounds[i] = bounds[i] * n / (n + a) * SHIFT_SLACK if n else 0.0
                        reevaluate(i)

            for q in queues:
                for req in q:
                    metrics.still_waiting[req.slice_type - 1] += 1
                    record(req, "waiting", horizon - req.enter_time, None)
            metrics.stale_pops = stale
            metrics.busy_time = [s.busy_time for s in stats]
            metrics.queued_accepts = [s.queued_accepts for s in stats]
            feasible = self.region.feasible
            metrics.occupancy = {feasible[i]: dt for i, dt in occupancy.items()}
            metrics.max_assigned = self.region.loads[list(visited | occupancy.keys())].max(
                axis=0, initial=0.0).tolist()
            return metrics
        finally:
            if collecting:
                gc.enable()


def run_replication(scenario: Scenario, strategy: Strategy | None,
                    config: SimConfig, replication: int = 0,
                    region: RegionIndex | None = None,
                    single_queue: bool = False, trace=None) -> RunMetrics:
    """Simulate one replication and return its metrics."""
    sim = _Simulation(scenario, strategy, config, replication,
                      region=region, single_queue=single_queue, trace=trace)
    return sim.run()


def isolated_queue_sim(params: QueueParams, horizon: float, seed: int,
                       collect_records: bool = True) -> RunMetrics:
    """Single queue with exogenous Poisson acceptance epochs.

    Arrivals join with probability exp(-beta * (l+1) / mu) where l is the
    length found (the joining request counts itself); every waiting request,
    head included, abandons after an individual Exp(alpha) patience. The
    occupancy dict is keyed by queue length. It is a loop of its own rather
    than a discipline of ``_Simulation``, which has none of these three
    mechanisms and would have to branch on which caller it serves. Arrivals
    are a running sum of block-drawn gaps, the doubles ``arrival_windows``
    gives one type, and no served request's deadline is ever an event.
    """
    if not 0 < horizon < math.inf:
        raise InvalidInputError("horizon must be positive and finite")
    lam, mu = params.arrival_rate, params.service_rate
    alpha, beta = params.reneging_rate, params.balking_exponent
    arrival_stream = accumulate(block_draws(substream(seed, 0, TAG_ARRIVAL).exponential, 1.0 / lam))
    epochs = block_draws(substream(seed, 0, TAG_SERVICE).exponential, 1.0 / mu)
    coins = block_draws(substream(seed, 0, TAG_BALK).random)
    patience = (block_draws(substream(seed, 0, TAG_PATIENCE).exponential, 1.0 / alpha)
                if alpha > 0 else repeat(math.inf))

    # one flat loop: the counters stay local until the run ends
    records, acceptance_times = [], []
    # the join chance at each entry length and the time at each queue length,
    # both grown as arrivals first meet a length, and the lengths in the order
    # their first sojourn of positive time ends
    join_chance, occupancy, visits = [1.0], [0.0], []
    arrivals = balks = reneges = stale = size = 0
    busy = issued_wait = start = 0.0  # ``size`` requests wait, since ``start``
    # joined [due, id, enter, entry length, gone] entries in join order, a
    # reneged one kept, marked gone, until it reaches the head; the heap holds
    # them by due time, then id (push order), and drops a served one once it is
    # first, so its first, due at ``deadline``, waits or falls past the horizon
    queue, heap = deque(), []
    service = deadline = math.inf  # ``service`` is the one live service epoch, if any
    push, pop = heapq.heappush, heapq.heappop

    collecting = gc.isenabled()
    gc.disable()
    try:
        # the earliest event comes first; at one time a service epoch, then an
        # arrival, then the deadlines in push order
        arrival = next(arrival_stream)
        while True:
            if service <= arrival and service <= deadline:
                now = service
                if now > horizon:
                    break
                n, size = size, size - 1
                entry = queue.popleft()
                while entry[4]:
                    entry = queue.popleft()
                due, rid, enter, entry_len, _ = entry
                entry[4] = True
                # a served deadline due by the horizon is stale: it is dropped
                # now if first, else once it surfaces. One due later is no event
                if due <= horizon:
                    stale += 1
                    if heap[0] is entry:
                        while heap and heap[0][4]:
                            pop(heap)
                        deadline = heap[0][0] if heap else math.inf
                acceptance_times.append(now)
                issued_wait += now - enter
                if collect_records:
                    records.append(RequestRecord(
                        rid, 1, enter, 1.0, entry_len, "accepted", now - enter, None))
                service = now + next(epochs) if size else math.inf
            elif arrival <= deadline:
                now = arrival
                if now > horizon:
                    break
                arrival = next(arrival_stream)
                arrivals += 1  # the arrival count is the request's id
                n = size
                entry_len = n + 1
                if entry_len == len(join_chance):
                    join_chance.append(math.exp(-beta * entry_len / mu))
                    occupancy.append(0.0)
                if next(coins) > join_chance[entry_len]:
                    balks += 1
                    if collect_records:
                        records.append(RequestRecord(
                            arrivals, 1, now, 1.0, entry_len, "balked", 0.0, None))
                    continue
                entry = [now + next(patience), arrivals, now, entry_len, False]
                queue.append(entry)
                size += 1
                if alpha:
                    push(heap, entry)
                    deadline = heap[0][0]
                if not n:
                    service = now + next(epochs)
            else:  # the first entry of the heap still waits: it reneges
                now = deadline
                if now > horizon:
                    break
                entry = heap[0]
                entry[4] = True
                while heap and heap[0][4]:
                    pop(heap)
                deadline = heap[0][0] if heap else math.inf
                n, size = size, size - 1
                if not size:  # no epoch serves the emptied queue: the next join draws one
                    service = math.inf
                reneges += 1
                issued_wait += now - entry[2]
                if collect_records:
                    records.append(RequestRecord(
                        entry[1], 1, entry[2], 1.0, entry[3], "reneged", now - entry[2], None))
            # the queue leaves length n: its sojourn there adds its time, and visits n if positive
            dt = now - start
            if not occupancy[n] and dt:
                visits.append(n)
            occupancy[n] += dt
            if n:
                busy += dt
            start = now
    finally:
        if collecting:
            gc.enable()

    # the last sojourn runs to the horizon
    if not occupancy[size] and horizon > start:
        visits.append(size)
    occupancy[size] += horizon - start
    if size:
        busy += horizon - start
    return RunMetrics(
        n_types=1, horizon=horizon, warmup_time=0.0, master_seed=seed,
        replication=0, arrivals=[arrivals], balks=[balks],
        cap_rejections=[0], reneges=[reneges], acceptances=[len(acceptance_times)],
        still_waiting=[size], acceptance_times=[acceptance_times], records=records,
        occupancy={(n,): occupancy[n] for n in visits}, busy_time=[busy],
        queued_accepts=[0], max_assigned=[0.0], profit=[0.0], profiting=[0],
        issued_wait=issued_wait, stale_pops=stale,
    )


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

