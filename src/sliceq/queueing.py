"""Closed-form results for a single request queue.

The model: Poisson arrivals at rate lambda, exogenous Poisson acceptance
epochs at rate mu while the queue is non-empty, exponential balking (an
arrival joins with probability exp(-beta * l / mu), where l counts the queue
including the arrival itself) and exponential reneging (every waiting
request, head included, abandons after an individual Exp(alpha) patience).
This is the M/M/1 queue with balking and reneging (Ancker & Gafarian, 1963),
and the queue ``engine.isolated_queue_sim`` simulates.

Without impatience the queue is the classic geometric-occupancy birth-death
system; with impatience the stationary distribution is a product over
per-level birth/death ratios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentQueueError, InvalidInputError, SeriesTruncationError


@dataclass(frozen=True)
class QueueParams:
    arrival_rate: float
    service_rate: float
    reneging_rate: float = 0.0
    balking_exponent: float = 0.0

    def __post_init__(self):
        # each range is written so that NaN fails it too
        if not (0 < self.arrival_rate < math.inf and 0 < self.service_rate < math.inf):
            raise InvalidInputError("arrival and service rates must be positive and finite")
        if not (0 <= self.reneging_rate < math.inf and 0 <= self.balking_exponent < math.inf):
            raise InvalidInputError("impatience parameters must be finite and non-negative")

    @property
    def workload(self) -> float:
        return self.arrival_rate / self.service_rate

    @property
    def join_decay(self) -> float:
        """Per-queue-position joining factor delta = exp(-beta/mu)."""
        return math.exp(-self.balking_exponent / self.service_rate)


# truncation of the stationary series; it raises when it does not settle
# within MAX_TERMS terms
SERIES_TAIL_TOL = 1e-14
MAX_TERMS = 10_000


def impatient_pmf(params: QueueParams) -> np.ndarray:
    """Stationary queue-length PMF under exponential balking and reneging.

    p(l) = p(0) * prod_{i=1..l} lambda*delta^i / (mu + i*alpha), normalized
    over the truncated support. Falls back to the geometric law when both
    impatience parameters are zero.
    """
    lam, mu = params.arrival_rate, params.service_rate
    alpha, delta = params.reneging_rate, params.join_decay
    if alpha == 0 and params.balking_exponent == 0:
        rho = params.workload
        if rho >= 1:
            raise DivergentQueueError("workload >= 1 and no impatience")
        # geometric, truncated where the tail drops below the tolerance (a
        # workload that underflows to 0 has no tail)
        n = max(2, int(math.log(SERIES_TAIL_TOL) / math.log(max(rho, SERIES_TAIL_TOL))) + 2)
        probs = (1 - rho) * rho ** np.arange(n)
        return probs / probs.sum()

    terms = [1.0]
    term = 1.0
    small_streak = 0
    total = 1.0
    for i in range(1, MAX_TERMS + 1):
        term *= lam * delta**i / (mu + i * alpha)
        terms.append(term)
        total += term
        if term < SERIES_TAIL_TOL * total:
            small_streak += 1
            if small_streak >= 10:
                break
        else:
            small_streak = 0
    else:
        raise SeriesTruncationError(
            f"stationary series did not settle within {MAX_TERMS} terms"
        )
    probs = np.array(terms) / total
    return probs


@dataclass(frozen=True)
class ArrivalOutcomes:
    """What becomes of an arriving request in the stationary queue.

    ``p_join`` and ``p_accept`` are shares of all arrivals; the other figures
    are conditional, and None where their condition has no mass: every one
    when no arrival joins, ``mean_accepted`` when none is accepted and
    ``mean_reneged`` without reneging.
    """

    p_join: float
    p_accept: float
    p_accept_given_join: float | None
    mean_accepted: float | None
    mean_joined: float | None
    mean_reneged: float | None
    # the mass of the accepted-wait law, which is exact and so always 1; the
    # benchmark's analytic workload (bench/workloads.py) still reads it
    raw_norm: float = 1.0


def wait_densities(params: QueueParams) -> ArrivalOutcomes:
    """Join, acceptance and wait figures of one tagged arriving request.

    An arrival that finds j waiting takes position n = j + 1 and joins with
    probability delta^n. With k requests ahead it moves up at rate
    mu + k*alpha and reneges at rate alpha. So with r_n = mu + n*alpha, from
    position n it is accepted with probability mu/r_n (the product of the
    move-up chances telescopes), waits n/r_n on average, and
    sum_{i<=n} 1/r_i on average if accepted. It reneges at rate alpha while
    it waits, so P(renege) = alpha*E[W] and E[W; renege] = alpha*E[W^2]/2,
    where the stage recursion r_n E[W_n^2] = 2n/r_n + r_{n-1} E[W_{n-1}^2]
    gives E[W_n^2] = (2/r_n) sum_{i<=n} i/r_i. The mean reneged wait is then
    the ratio sum joins*E[W^2] / (2 sum joins*E[W]), which has no
    cancellation as alpha goes to 0.
    """
    probs = impatient_pmf(params)
    mu, alpha, delta = params.service_rate, params.reneging_rate, params.join_decay
    n = np.arange(1, len(probs) + 1)
    rates = mu + alpha * n
    # the joins up to their common factor delta, which the conditional
    # figures cancel and which may be subnormal
    joins = probs * delta ** (n - 1.0)
    accepts = joins * (mu / rates)
    join_mass, accept_mass = float(joins.sum()), float(accepts.sum())
    p_join, p_accept = delta * join_mass, delta * accept_mass
    joined = p_join > 0
    joined_wait = float(joins @ (n / rates))
    return ArrivalOutcomes(
        p_join=p_join,
        p_accept=p_accept,
        p_accept_given_join=accept_mass / join_mass if joined else None,
        mean_accepted=(float(accepts @ np.cumsum(1.0 / rates)) / accept_mass
                       if p_accept > 0 else None),
        mean_joined=joined_wait / join_mass if joined else None,
        mean_reneged=(float(joins @ (np.cumsum(n / rates) / rates)) / joined_wait
                      if joined and alpha > 0 else None),
    )
