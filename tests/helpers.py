"""Shared test oracles, kept independent of the implementation paths they
check: exact-rational region enumeration, a truncated balance-equation
linear solve, a literal pass-by-pass interpreter of the queue-serving
algorithm, the full-knowledge tenant's expected wait and stay/renege rule
written as plain loops, a run's issued-request tallies by a scan of its
records, its occupancy law and time-averaged state, inverse-CDF lifetime
draws, random preference columns drawn one permutation at a time and the
isolated queue loop with served requests' deadlines popped as events."""
from __future__ import annotations

import heapq
import math
from collections import deque
from fractions import Fraction
from itertools import chain

import numpy as np

from sliceq.engine import (
    TAG_ARRIVAL,
    TAG_BALK,
    TAG_PATIENCE,
    TAG_SERVICE,
    RequestRecord,
    RunMetrics,
    arrival_windows,
    block_draws,
    substream,
)
from sliceq.errors import InvalidInputError


def rational_regions(resources, costs):
    """Enumerate feasible/admissible states in exact rational arithmetic.

    ``costs`` is a list of per-type cost tuples. Returns (feasible set,
    admissible set).
    """
    res = [Fraction(str(r)) for r in resources]
    cost = [[Fraction(str(c)) for c in row] for row in costs]
    n = len(cost)
    m = len(res)

    def ok(state):
        return all(
            sum(cost[t][i] * state[t] for t in range(n)) <= res[i]
            for i in range(m)
        )

    feasible = set()
    stack = [(0,) * n]
    feasible.add((0,) * n)
    while stack:
        s = stack.pop()
        for t in range(n):
            child = s[:t] + (s[t] + 1,) + s[t + 1:]
            if child not in feasible and ok(child):
                feasible.add(child)
                stack.append(child)
    admissible = {
        s for s in feasible
        if any(s[:t] + (s[t] + 1,) + s[t + 1:] in feasible for t in range(n))
    }
    return feasible, admissible


def balance_equation_pmf(lam, mu, alpha, beta, tail=1e-12, max_states=4000):
    """Stationary law of the impatient queue from its generator, solved as a
    linear system on a truncated state space.

    Birth from length l runs at lam * delta^(l+1) (the arrival counts itself
    when balking); death from length l runs at mu + l*alpha (every waiting
    request, head included, may abandon).
    """
    delta = math.exp(-beta / mu)

    # find a truncation level with negligible tail via the product form
    probs = [1.0]
    term = 1.0
    for l in range(1, max_states):
        term *= lam * delta**l / (mu + l * alpha)
        probs.append(term)
        if term < tail * sum(probs):
            break
    n = len(probs) + 5

    gen = np.zeros((n, n))
    for l in range(n):
        if l + 1 < n:
            birth = lam * delta ** (l + 1)
            gen[l, l + 1] = birth
            gen[l, l] -= birth
        if l > 0:
            death = mu + l * alpha
            gen[l, l - 1] = death
            gen[l, l] -= death
    # stationary distribution: pi @ gen = 0, sum(pi) = 1
    a = np.vstack([gen.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return np.clip(pi, 0.0, None) / pi.sum()


def tv_distance(p, q):
    """Total-variation distance between two PMFs over aligned indexes."""
    n = max(len(p), len(q))
    pa = np.zeros(n)
    qa = np.zeros(n)
    pa[: len(p)] = p
    qa[: len(q)] = q
    return 0.5 * float(np.abs(pa - qa).sum())


def tv_from_dict(emp: dict, model: np.ndarray) -> float:
    """TV distance between a {length: prob} dict and a dense PMF."""
    top = max(
        max((k[0] if isinstance(k, tuple) else k) for k in emp) + 1 if emp else 1,
        len(model),
    )
    pa = np.zeros(top)
    for k, v in emp.items():
        idx = k[0] if isinstance(k, tuple) else k
        pa[idx] = v
    qa = np.zeros(top)
    qa[: len(model)] = model
    return 0.5 * float(np.abs(pa - qa).sum())


def reference_serve(state, queues, columns, admissible, feasible_next):
    """Literal pass-by-pass interpreter of the queue-serving rules.

    ``queues`` maps type (1-based) to a list of request labels; ``columns``
    maps each admissible state to its preference vector; ``feasible_next``
    tells whether adding one slice of a type keeps the state feasible.
    Returns (final state, accepted labels in order).
    """
    state = tuple(state)
    queues = {t: list(q) for t, q in queues.items()}
    accepted = []
    while state in admissible:
        column = columns[state]
        before = state
        for pref in column:
            if pref == 0:
                break
            if not queues.get(pref):
                continue
            candidate = state[: pref - 1] + (state[pref - 1] + 1,) + state[pref:]
            if not feasible_next(candidate):
                continue
            accepted.append(queues[pref].pop(0))
            state = candidate
        if state == before:
            break
    return state, accepted


def expected_wait(k: int, mu: float, omega) -> float:
    """Expected wait at queue position k given per-position renege rates.

    omega[i] is the renege rate at position i; position 0 (the service slot)
    contributes rate zero regardless. Needs omega defined for positions < k.
    """
    if k < 0:
        raise InvalidInputError("position must be non-negative")
    if mu <= 0:
        raise InvalidInputError("service rate must be positive")
    total = 0.0
    cum = 0.0
    for i in range(k):
        cum += omega[i] if i > 0 and i < len(omega) else 0.0
        total += 1.0 / (mu + cum)
    return total


def renege_full(req, k: int, mu: float, omega) -> bool:
    """Stay/renege decision with position, service rate and renege rates."""
    remaining_cost = req.waiting_cost_rate * expected_wait(k, mu, omega)
    return req.profit_rate * req.lifetime - remaining_cost >= 0.0


def issued_tallies(records, n_types: int):
    """Tallies of a run's issued (accepted or reneged) requests from its
    records: per type the count, the summed end profit and the count with a
    positive end profit, and the summed wait over all types. Balked,
    capacity-rejected and still-waiting requests never issued. Sums run in
    record order, the order in which the run settled the requests."""
    n_issued, profit, profiting, wait = [0] * n_types, [0.0] * n_types, [0] * n_types, 0.0
    for r in records:
        if r.disposition in ("accepted", "reneged"):
            t = r.slice_type - 1
            n_issued[t] += 1
            profit[t] += r.end_profit
            profiting[t] += r.end_profit > 0
            wait += r.wait
    return n_issued, profit, profiting, wait


def occupancy_pmf(metrics) -> dict:
    """A run's occupancy as a law: time share per state (or queue length)."""
    total = sum(metrics.occupancy.values())
    if total <= 0:
        return {}
    return {s: dt / total for s, dt in metrics.occupancy.items()}


def state_mean(metrics) -> np.ndarray:
    """A run's time-averaged active-slice vector (queue length for the
    isolated queue)."""
    total = sum(metrics.occupancy.values())
    mean = np.zeros(metrics.n_types)
    if total <= 0:
        return mean
    for state, dt in metrics.occupancy.items():
        mean += dt * np.asarray(state, dtype=float)
    return mean / total


def permutation_columns(n_types: int, n_admissible: int, rng):
    """Random preference columns drawn with one ``rng.permutation`` per
    admissible state, the reserve element 0 pinned last."""
    cols = []
    for _ in range(n_admissible):
        body = rng.permutation(np.arange(1, n_types + 1))
        cols.append(tuple(int(x) for x in body) + (0,))
    return tuple(cols)


def reference_isolated_queue_sim(params, horizon: float, seed: int,
                                 collect_records: bool = True):
    """An oracle for ``engine.isolated_queue_sim``, which must agree with it
    in every draw and result field: arrivals come from ``arrival_windows``,
    the heap holds (due, seq, entry) deadline tuples, and a served request's
    deadline is popped as an event of its own and counted stale then."""
    if not 0 < horizon < math.inf:
        raise InvalidInputError("horizon must be positive and finite")
    lam, mu = params.arrival_rate, params.service_rate
    alpha, beta = params.reneging_rate, params.balking_exponent
    arrival_stream = chain.from_iterable(
        arrival_windows([substream(seed, 0, TAG_ARRIVAL)], [1.0 / lam]))
    epochs = block_draws(substream(seed, 0, TAG_SERVICE).exponential, 1.0 / mu)
    coins = block_draws(substream(seed, 0, TAG_BALK).random)
    patience = (block_draws(substream(seed, 0, TAG_PATIENCE).exponential, 1.0 / alpha)
                if alpha > 0 else None)

    # one flat loop: the counters stay local until the run ends
    records: list = []
    acceptance_times: list[float] = []
    # the join chance at each entry length and the time at each queue length,
    # both grown as arrivals first meet a length, and the lengths in
    # first-visit order: a length is first visited when its first sojourn of
    # positive time ends
    join_chance = [1.0]
    occupancy = [0.0]
    visits: list[int] = []
    arrivals = balks = reneges = stale = 0
    busy = issued_wait = 0.0
    queue: deque = deque()
    start = 0.0  # when the queue took its present length
    # the one live service epoch (inf while none is), and the heap of
    # (time, seq, entry) deadlines, the first due at ``deadline``
    service = deadline = math.inf
    seq = 0
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop

    # the earliest event comes first; at one time a service epoch, then an
    # arrival, then the deadlines in push order
    arrival = next(arrival_stream)[0]
    while True:
        if service <= arrival and service <= deadline:
            now = service
            if now > horizon:
                break
            n = len(queue)
            entry = queue.popleft()
            rid, enter = entry[0], entry[1]
            entry[2] = True
            acceptance_times.append(now)
            issued_wait += now - enter
            if collect_records:
                records.append(RequestRecord(
                    rid, 1, enter, 1.0, entry[3], "accepted", now - enter, None))
            service = now + next(epochs) if queue else math.inf
        elif arrival <= deadline:
            now = arrival
            if now > horizon:
                break
            arrival = next(arrival_stream)[0]
            arrivals += 1  # the arrival count is the request's id
            n = len(queue)
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
            entry = [arrivals, now, False, entry_len]  # id, enter time, done
            queue.append(entry)
            if patience is not None:
                seq += 1
                due = now + next(patience)
                push(heap, (due, seq, entry))
                if due < deadline:
                    deadline = due
            if not n:
                service = now + next(epochs)
        else:  # an entry has one deadline, so one not done still waits
            now = deadline
            if now > horizon:
                break
            entry = pop(heap)[2]
            deadline = heap[0][0] if heap else math.inf
            if entry[2]:
                stale += 1
                continue
            n = len(queue)
            queue.remove(entry)
            if n == 1:  # no epoch serves the emptied queue: the next join draws one
                service = math.inf
            reneges += 1
            issued_wait += now - entry[1]
            if collect_records:
                records.append(RequestRecord(
                    entry[0], 1, entry[1], 1.0, entry[3], "reneged", now - entry[1], None))
        # the queue leaves length n: its sojourn there adds its time, and visits n if positive
        if not occupancy[n] and now > start:
            visits.append(n)
        occupancy[n] += now - start
        if n:
            busy += now - start
        start = now

    # the last sojourn runs to the horizon
    n = len(queue)
    if not occupancy[n] and horizon > start:
        visits.append(n)
    occupancy[n] += horizon - start
    if n:
        busy += horizon - start
    return RunMetrics(
        n_types=1, horizon=horizon, warmup_time=0.0, master_seed=seed,
        replication=0, arrivals=[arrivals], balks=[balks],
        cap_rejections=[0], reneges=[reneges], acceptances=[len(acceptance_times)],
        still_waiting=[len(queue)], acceptance_times=[acceptance_times], records=records,
        occupancy={(n,): occupancy[n] for n in visits}, busy_time=[busy],
        queued_accepts=[0], max_assigned=[0.0], profit=[0.0], profiting=[0],
        issued_wait=issued_wait, stale_pops=stale,
    )
