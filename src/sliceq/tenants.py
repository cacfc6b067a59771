"""Rational tenant impatience: balking and reneging rules under the
different levels of queue information the operator may publish, and
per-request profit accounting.

A request is worth profit_rate * lifetime when served; issuing costs
issue_cost once and waiting costs waiting_cost_rate per period. Every rule
below compares the remaining expected value against the expected cost of
continuing to wait; ties favour waiting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError

REGIME_KINDS = ("patient", "blind", "position", "avg_wait", "serving_rate", "full")


@dataclass(frozen=True)
class KnowledgeRegime:
    """What a waiting tenant knows about its queue.

    ``risk_factor`` bounds the blind tenant's waiting budget as a fraction of
    the expected slice value; ``delta_k`` is the minimum observed progress
    before the position-only tenant trusts its serving-rate estimate.
    """

    kind: str
    risk_factor: float = 1.0
    delta_k: int = 2

    def __post_init__(self):
        if self.kind not in REGIME_KINDS:
            raise InvalidInputError(f"unknown knowledge regime {self.kind!r}")
        if not self.risk_factor >= 0:
            raise InvalidInputError("risk_factor must be non-negative")
        if self.delta_k < 1:
            raise InvalidInputError("delta_k must be at least 1")


def balk_decision(req, length: int, mu: float) -> bool:
    """Issue/balk decision from the expected wait length/mu.

    ``length`` counts the queue including the deciding request itself.
    Returns True to issue (join), False to balk.
    """
    if mu <= 0:
        raise InvalidInputError("service rate must be positive")
    value = req.profit_rate * req.lifetime
    cost = req.issue_cost + req.waiting_cost_rate * length / mu
    return value - cost >= 0.0


def renege_serving_rate(req, k: int, mu: float) -> bool:
    """Stay/renege decision with only the position and service rate known."""
    if mu <= 0:
        raise InvalidInputError("service rate must be positive")
    u = req.waiting_cost_rate
    return u <= 0 or k <= mu * req.profit_rate * req.lifetime / u


def critical_rate(k: int, u: float, value: float) -> float:
    """k·u/value: above this service rate a tenant at position k stays, under
    the serving-rate rule and (renege rates only shorten k/mu) the full one."""
    if u <= 0:
        return 0.0
    return k * u / value if value > 0 else math.inf


def renege_position(req, k: int, length: int, elapsed: float,
                    delta_k: int) -> bool:
    """Stay/renege decision from observed queue progress alone.

    ``length`` is the queue length at entrance (including the request),
    ``k`` the current position, ``elapsed`` the waiting time so far. The
    progress-based serving-rate estimate is only trusted for the first
    delta_k observed departures; once the request has advanced past that
    probation band it waits unconditionally. Returns True to wait.
    """
    if k > length:
        raise InvalidInputError("position cannot exceed the entrance length")
    if k < 1:
        raise InvalidInputError("position must be at least 1 while queued")
    if length - k > delta_k:
        return True
    value = req.profit_rate * req.lifetime
    u = req.waiting_cost_rate
    if u <= 0:
        return True
    return k * (u * elapsed + value) <= length * value


def renege_avg_wait(req, mean_wait: float) -> bool:
    """Entrance-time decision from the published average accepted wait."""
    if mean_wait < 0:
        raise InvalidInputError("mean wait must be non-negative")
    value = req.profit_rate * req.lifetime
    cost = req.issue_cost + req.waiting_cost_rate * mean_wait
    return value - cost >= 0.0


def renege_blind(req, risk_factor: float) -> float:
    """Maximum waiting time a tenant with no queue knowledge will accept;
    ``KnowledgeRegime`` keeps ``risk_factor`` non-negative."""
    if req.waiting_cost_rate <= 0:
        return math.inf
    budget = risk_factor * req.profit_rate * req.lifetime - req.issue_cost
    return max(0.0, budget / req.waiting_cost_rate)


def end_profit(req, accepted: bool, wait: float) -> float:
    """Realized profit of one issued request."""
    if wait < 0:
        raise InvalidInputError("wait must be non-negative")
    cost = req.issue_cost + req.waiting_cost_rate * wait
    if accepted:
        return req.profit_rate * req.lifetime - cost
    return -cost
