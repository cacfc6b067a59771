"""Closed-form results and truncated series for a single request queue.

The model: Poisson arrivals at rate lambda, exogenous Poisson acceptance
epochs at rate mu while the queue is non-empty, exponential balking (an
arrival joins with probability exp(-beta * l / mu), where l counts the queue
including the arrival itself) and exponential reneging (every waiting
request abandons after an individual Exp(alpha) patience).

Without impatience the queue is the classic geometric-occupancy birth-death
system; with impatience the stationary distribution is a product over
per-level birth/death ratios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import DivergentQueueError, InvalidInputError, SeriesTruncationError


@dataclass(frozen=True)
class QueueParams:
    arrival_rate: float
    service_rate: float
    reneging_rate: float = 0.0
    balking_exponent: float = 0.0

    def __post_init__(self):
        if self.arrival_rate <= 0 or self.service_rate <= 0:
            raise InvalidInputError("arrival and service rates must be positive")
        if self.reneging_rate < 0 or self.balking_exponent < 0:
            raise InvalidInputError("impatience parameters must be non-negative")

    @property
    def workload(self) -> float:
        return self.arrival_rate / self.service_rate

    @property
    def join_decay(self) -> float:
        """Per-queue-position joining factor delta = exp(-beta/mu)."""
        return math.exp(-self.balking_exponent / self.service_rate)

    @property
    def patience_ratio(self) -> float | None:
        """gamma = mu/alpha, undefined without reneging."""
        if self.reneging_rate == 0:
            return None
        return self.service_rate / self.reneging_rate


# truncation of the stationary and wait-density series; the stationary series
# raises when it does not settle within them
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
        # geometric, truncated where the tail drops below the tolerance
        n = max(2, int(math.log(SERIES_TAIL_TOL) / math.log(rho)) + 2)
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
class JoinAcceptProbs:
    p_join: float
    p_accept: float
    p_accept_and_join: float
    p_accept_given_join: float
    degenerate: bool


def join_accept_probs(params: QueueParams) -> JoinAcceptProbs:
    """Joining and acceptance probabilities of an arriving request.

    Joining means entering a non-empty queue; an arrival that finds the queue
    empty counts toward acceptance only. The per-length acceptance factor is
    gamma / (gamma + j), taken as 1 when there is no reneging.
    """
    probs = impatient_pmf(params)
    delta = params.join_decay
    gamma = params.patience_ratio
    j = np.arange(len(probs))
    join_terms = probs * delta**j
    join_terms[0] = 0.0
    p_join = float(join_terms.sum())
    if gamma is None:
        accept_factor = np.ones_like(probs)
    else:
        accept_factor = gamma / (gamma + j)
    p_accept_and_join = float((join_terms * accept_factor).sum())
    p_accept = float(probs[0]) + p_accept_and_join
    if p_join <= 0.0:
        return JoinAcceptProbs(0.0, p_accept, 0.0, 1.0, degenerate=True)
    return JoinAcceptProbs(
        p_join=p_join,
        p_accept=p_accept,
        p_accept_and_join=p_accept_and_join,
        p_accept_given_join=p_accept_and_join / p_join,
        degenerate=False,
    )


def _beta_terms(a: float, n: int) -> np.ndarray:
    """B(a, l+1) = l! / prod_{i=0..l}(a+i) for l = 1..n, as a running product
    (exact to rounding, where a log-gamma difference loses digits at large a)."""
    order = np.arange(1, n + 1)
    return np.cumprod(order / (a + order)) / a


@dataclass(frozen=True)
class WaitDensities:
    """Waiting-time densities for accepted, reneged and all joined requests.

    ``raw_norm`` is the integral of the accepted-wait series before
    normalization; the closed-form series is not itself a proper density, so
    the accepted density is scaled to integrate to one and the deficit is
    surfaced here.
    """

    params: QueueParams
    probs: JoinAcceptProbs
    mean_accepted: float
    mean_reneged: float
    mean_joined: float
    raw_norm: float
    _series_coeffs: np.ndarray
    _prefactor: float

    def _shape(self, w):
        w = np.asarray(w, dtype=float)
        mu, alpha = self.params.service_rate, self.params.reneging_rate
        x = -np.expm1(-alpha * w)
        series = np.zeros_like(x)
        xp = np.ones_like(x)
        for c in self._series_coeffs:
            xp = xp * x
            series += c * xp
        return np.exp(-(mu + alpha) * w) * series

    def f_accepted(self, w):
        """Density of the waiting time of requests accepted from the queue."""
        w = np.asarray(w, dtype=float)
        out = np.where(w < 0, 0.0, self._prefactor * self._shape(np.maximum(w, 0.0)))
        return out if out.ndim else float(out)

    def cumulative_weighted(self, w: float) -> float:
        """g(w) = integral_0^w exp(alpha*x) f_accepted(x) dx.

        With s = 1 - exp(-alpha*x) the l-th series term integrates to the
        incomplete Beta function B(mu/alpha, l+1) I_s(l+1, mu/alpha) / alpha
        (DLMF 8.17.1).
        """
        if w <= 0:
            return 0.0
        mu, alpha = self.params.service_rate, self.params.reneging_rate
        coeffs = self._series_coeffs
        gamma = mu / alpha
        order = np.arange(2, len(coeffs) + 2)
        terms = (coeffs * _beta_terms(gamma, len(coeffs))
                 * betainc(order, gamma, -math.expm1(-alpha * w)))
        return float(self._prefactor * terms.sum() / alpha)

    def f_reneged(self, w):
        """Density of the waiting time of requests that renege."""
        alpha = self.params.reneging_rate
        p = self.probs.p_accept_given_join
        wf = float(w)
        if wf < 0:
            return 0.0
        g = self.cumulative_weighted(wf)
        return alpha * math.exp(-alpha * wf) * (1.0 - p * g) / (1.0 - p)

    def f_joined(self, w):
        """Density of the waiting time of every request that joins the queue."""
        alpha = self.params.reneging_rate
        p = self.probs.p_accept_given_join
        wf = float(w)
        if wf < 0:
            return 0.0
        g = self.cumulative_weighted(wf)
        return p * (float(self.f_accepted(wf)) - alpha * math.exp(-alpha * wf) * g) \
            + alpha * math.exp(-alpha * wf)


def wait_densities(params: QueueParams) -> WaitDensities:
    """Build the waiting-time densities and their means.

    Requires reneging (alpha > 0). Raises when no request is ever accepted
    out of a non-empty queue, since the accepted-wait density is then
    undefined.
    """
    if params.reneging_rate <= 0:
        raise InvalidInputError("wait densities require a positive reneging rate")
    probs_pmf = impatient_pmf(params)
    jp = join_accept_probs(params)
    if jp.degenerate or jp.p_accept_and_join <= 0:
        raise InvalidInputError(
            "no acceptance-from-queue mass: accepted-wait density undefined"
        )
    if 1.0 - jp.p_accept_given_join < 1e-12:
        raise InvalidInputError(
            "no reneging mass: reneged-wait density undefined"
        )

    mu, alpha = params.service_rate, params.reneging_rate
    delta = params.join_decay

    # series coefficients delta^(l(l+1)/2) / (l! (l-1)!)
    coeffs = []
    for l in range(1, MAX_TERMS + 1):
        c = delta ** (l * (l + 1) // 2) / (
            math.factorial(l) * math.factorial(l - 1)
        )
        if l > 1 and c < SERIES_TAIL_TOL * coeffs[0]:
            break
        coeffs.append(c)
    coeffs = np.array(coeffs)

    # the l-th series term integrates to B(mu/alpha + 1, l+1)/alpha
    # (DLMF 5.12.1), and its mean wait is sum_{i=0..l} 1/(mu + (i+1)*alpha)
    weights = coeffs * _beta_terms(mu / alpha + 1.0, len(coeffs))
    term_means = np.cumsum(1.0 / (mu + alpha * np.arange(1, len(coeffs) + 2)))[1:]

    prefactor = float(probs_pmf[0]) * alpha / jp.p_accept_and_join
    raw_norm = float(prefactor * weights.sum() / alpha)
    if raw_norm <= 0:
        raise SeriesTruncationError("accepted-wait series sums to zero")
    mean_accepted = float((weights * term_means).sum() / weights.sum())
    p = jp.p_accept_given_join
    mean_joined = (1.0 - p) / alpha
    mean_reneged = 1.0 / alpha - p * mean_accepted / (1.0 - p)

    return WaitDensities(
        params=params, probs=jp,
        mean_accepted=mean_accepted,
        mean_reneged=mean_reneged,
        mean_joined=mean_joined,
        raw_norm=raw_norm,
        _series_coeffs=coeffs,
        _prefactor=prefactor / raw_norm,
    )
