"""Reference computations the benchmark checks sliceq's outputs against.

Nothing here imports sliceq: each function recomputes a quantity from its
definition with a different method than the program uses, so that a fault in
the program cannot also hide in its check.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

# a state whose self-loop carries at least this mass is treated as absorbing
ABSORBING_SELF_LOOP = 1.0 - 1e-12


def absorption_law(psi, start: int) -> np.ndarray:
    """Long-run law of an absorbing chain started in state ``start``.

    States with self-loop mass 1 are absorbing; the rest are transient. With
    Q the transient block and R the transient-to-absorbing block, the
    expected visit counts n solve n (I - Q) = e_start, and the mass absorbed
    in each absorbing state is n R (Kemeny & Snell, Finite Markov Chains).
    """
    p = sparse.csr_matrix(psi)
    n = p.shape[0]
    absorbing = p.diagonal() >= ABSORBING_SELF_LOOP
    law = np.zeros(n)
    if absorbing[start]:
        law[start] = 1.0
        return law
    trans = np.flatnonzero(~absorbing)
    absb = np.flatnonzero(absorbing)
    rows = p[trans]
    q = rows[:, trans]
    r = rows[:, absb]
    e = np.zeros(len(trans))
    e[np.searchsorted(trans, start)] = 1.0
    a = (sparse.identity(len(trans), format="csc") - q.tocsc()).T.tocsc()
    visits = sparse_linalg.spsolve(a, e)
    law[absb] = r.T @ visits
    return law


def birth_death_pmf(lam: float, mu: float, alpha: float, beta: float) -> np.ndarray:
    """Stationary law of the single impatient queue from its global balance.

    Level l has birth rate lam * exp(-beta * (l + 1) / mu) (the joining
    request counts itself) and death rate mu + l * alpha for l >= 1. The
    truncated generator's balance equations pi G = 0, with one equation
    replaced by sum(pi) = 1, are solved as a sparse linear system. The
    truncation doubles until the top level is past the mode and 1e-16 below
    it, going by the product of birth/death ratios.
    """
    n = 64
    while True:
        levels = np.arange(n)
        birth = lam * np.exp(-beta * (levels[:-1] + 1) / mu)
        death = mu + levels[1:] * alpha
        log_rel = np.cumsum(np.log(birth / death))  # log p(l) - log p(0), l >= 1
        if (birth[-1] < death[-1] and log_rel[-1] - max(0.0, log_rel.max()) < -37.0) \
                or n >= 1 << 16:
            break
        n *= 2
    out_rate = np.zeros(n)
    out_rate[:-1] += birth
    out_rate[1:] += death
    # generator transposed: column i holds the rates out of level i
    gt = sparse.diags([birth, -out_rate, death], [-1, 0, 1], format="lil")
    gt[n - 1, :] = np.ones(n)
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.clip(sparse_linalg.spsolve(gt.tocsc(), rhs), 0.0, None)
    return pi / pi.sum()


def geometric_pmf(rho: float, n: int) -> np.ndarray:
    """First n terms of the geometric law (1 - rho) rho^l."""
    return (1.0 - rho) * rho ** np.arange(n)


def total_variation(p, q) -> float:
    """Total-variation distance between two PMFs on 0, 1, 2, ..."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = max(len(p), len(q))
    return 0.5 * float(np.abs(np.pad(p, (0, n - len(p))) - np.pad(q, (0, n - len(q)))).sum())


def end_profit(zeta: float, lifetime: float, c0: float, u: float, wait: float,
               accepted: bool) -> float:
    """Realized profit: zeta*L - c0 - u*w when accepted, -c0 - u*w when not."""
    cost = c0 + u * wait
    return zeta * lifetime - cost if accepted else -cost


def blind_patience(zeta: float, lifetime: float, c0: float, u: float,
                   risk_factor: float) -> float:
    """Waiting budget of a tenant that knows nothing of its queue."""
    return max(0.0, (risk_factor * zeta * lifetime - c0) / u)


def utility_time_average(occupancy: dict, utility_rates) -> float:
    """Sum of dt * (u . s) over the occupancy, divided by the total time."""
    total = math.fsum(occupancy.values())
    if total <= 0:
        return 0.0
    acc = math.fsum(dt * math.fsum(u * s for u, s in zip(utility_rates, state))
                    for state, dt in occupancy.items())
    return acc / total


def fifo_by_type(records) -> bool:
    """Accepted requests of each type leave their queue in arrival order.

    Records of acceptances are appended as they happen, and request ids grow
    with arrival time, so within one type the ids must increase.
    """
    last: dict[int, int] = {}
    for r in records:
        if r.disposition != "accepted":
            continue
        if r.request_id <= last.get(r.slice_type, 0):
            return False
        last[r.slice_type] = r.request_id
    return True
