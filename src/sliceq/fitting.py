"""Geometric/exponential maximum-likelihood fits, KL divergence of empirical
counts and per-request profit summaries."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# a fit counts as successful when it converged, explains the data within this
# KL budget, and had enough samples to mean anything
KLD_SUCCESS_THRESHOLD = 0.25
MIN_SUCCESS_SAMPLES = 30
MIN_FIT_SAMPLES = 10


@dataclass(frozen=True)
class FitResult:
    parameter: float
    converged: bool
    log_likelihood: float
    kld: float | None = None
    tail_diagnostic: float | None = None
    n: int = 0
    degenerate: bool = False


def fit_geometric(samples) -> FitResult:
    """MLE of a geometric law on {0, 1, 2, ...} from a sequence or array: p = 1/(1 + mean)."""
    xs = np.asarray(samples, dtype=float)
    if xs.size < 2:
        raise InvalidInputError(f"need at least two samples, not {xs.size}")
    if (xs < 0).any() or not np.isfinite(xs).all():
        raise InvalidInputError("geometric samples must be finite and non-negative")
    mean = float(xs.mean())
    p_hat = 1.0 / (1.0 + mean)
    degenerate = mean == 0.0
    converged = not degenerate and xs.size >= MIN_FIT_SAMPLES
    if degenerate:
        loglik = 0.0  # all mass at zero: p=1 fits exactly
    else:
        loglik = float(xs.size * math.log(p_hat) + xs.sum() * math.log(1.0 - p_hat))
    kld = kld_vs_geometric(np.bincount(xs.astype(int)).tolist(), p_hat)
    return FitResult(parameter=p_hat, converged=converged, log_likelihood=loglik,
                     kld=kld, n=int(xs.size), degenerate=degenerate)


def kld_vs_geometric(counts, p_hat: float) -> float:
    """KL divergence from geometric(p_hat) of the empirical law whose
    ``counts[k]`` samples equal k, natural log."""
    if not 0.0 < p_hat <= 1.0:
        raise InvalidInputError("p_hat must lie in (0, 1]")
    n = sum(counts)
    total = 0.0
    for k, count in enumerate(counts):
        if count == 0:
            continue
        p_emp = count / n
        if p_hat == 1.0:
            if k > 0:
                return math.inf
            model = 1.0
        else:
            model = (1.0 - p_hat) ** k * p_hat
        total += p_emp * math.log(p_emp / model)
    return total


def fit_exponential(samples) -> FitResult:
    """MLE of an exponential rate from a sequence or array, with a fat-tail diagnostic.

    The diagnostic is the ratio of the empirical 99th percentile to the
    fitted one; values well above 1 flag a heavier-than-exponential tail.
    """
    xs = np.asarray(samples, dtype=float)
    if xs.size < 2:
        raise InvalidInputError(f"need at least two samples, not {xs.size}")
    if (xs <= 0).any() or not np.isfinite(xs).all():
        raise InvalidInputError("exponential samples must be positive and finite")
    mean = float(xs.mean())
    rate = 1.0 / mean
    fitted_q99 = math.log(100.0) / rate
    empirical_q99 = float(np.quantile(xs, 0.99))
    loglik = float(xs.size * math.log(rate) - rate * xs.sum())
    return FitResult(
        parameter=rate,
        converged=xs.size >= MIN_FIT_SAMPLES,
        log_likelihood=loglik,
        tail_diagnostic=empirical_q99 / fitted_q99,
        n=int(xs.size),
    )


def fit_success(fit: FitResult) -> bool:
    """Gate used by the campaign summaries to call a fit successful."""
    return (
        fit.converged
        and fit.kld is not None
        and fit.kld <= KLD_SUCCESS_THRESHOLD
        and fit.n >= MIN_SUCCESS_SAMPLES
    )


def profit_summary(n_issued, profit, profiting) -> dict[int, dict]:
    """End-profit summary for each slice type 1..n from per-type tallies.

    ``n_issued[t]`` counts the type's issued (accepted or reneged) requests,
    ``profit[t]`` sums their end profits, reneged losses included, and
    ``profiting[t]`` counts those with a positive one. Balked, capacity-rejected
    and still-waiting requests never issued and are in no tally. A type that
    issued nothing gets zeros.
    """
    out = {}
    for t, (n, total, wins) in enumerate(zip(n_issued, profit, profiting), start=1):
        out[t] = {
            "n_issued": n,
            "total_profit": float(total),
            "mean_profit": total / n if n else 0.0,
            "profiting_chance": wins / n if n else 0.0,
        }
    return out


def floor_binned(values) -> np.ndarray:
    """Bin continuous gaps into whole operation periods (floor)."""
    arr = np.asarray(values, dtype=float)
    if (arr < 0).any():
        raise InvalidInputError("gaps must be non-negative")
    return np.floor(arr).astype(int)
