"""Shared test oracles, kept independent of the implementation paths they
check: exact-rational region enumeration, a truncated balance-equation
linear solve, a literal pass-by-pass interpreter of the queue-serving
algorithm, the full-knowledge tenant's expected wait and stay/renege rule
written as plain loops, a run's issued-request tallies by a scan of its
records, its occupancy law and time-averaged state, inverse-CDF lifetime
draws and random preference columns drawn one permutation at a time."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

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
