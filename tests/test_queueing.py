"""Single-queue stationary analytics against independent oracles."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from sliceq.engine import isolated_queue_sim
from sliceq.errors import InvalidInputError
from sliceq.queueing import (
    QueueParams,
    impatient_pmf,
    join_accept_probs,
    wait_densities,
)

from helpers import balance_equation_pmf, series_mean_oracle, series_norm_oracle, tv_distance

REF = QueueParams(1.0, 1.0, 1.0, 0.5)


def test_impatient_pmf_closed_form_point():
    # lam = mu = alpha = 1, beta = 0: p(0) = 1/(e-1)
    probs = impatient_pmf(QueueParams(1.0, 1.0, 1.0, 0.0))
    assert probs[0] == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_impatient_pmf_normalization():
    for params in (REF, QueueParams(2.0, 0.5, 0.1, 2.0), QueueParams(0.5, 2.0, 1.0, 0.0)):
        probs = impatient_pmf(params)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs >= 0).all()


def test_impatient_pmf_limit_recovers_geometric():
    probs = impatient_pmf(QueueParams(1.0, 2.0, 1e-9, 1e-9))
    geo = 0.5 * 0.5 ** np.arange(len(probs))
    assert tv_distance(probs, geo) < 1e-6


def test_impatient_pmf_monotone_in_impatience():
    base = impatient_pmf(QueueParams(1.0, 1.0, 0.5, 0.5))[0]
    more_reneging = impatient_pmf(QueueParams(1.0, 1.0, 1.0, 0.5))[0]
    more_balking = impatient_pmf(QueueParams(1.0, 1.0, 0.5, 1.5))[0]
    assert more_reneging >= base
    assert more_balking >= base


def test_impatient_pmf_matches_balance_equations_grid():
    for lam in (0.5, 1.0, 2.0):
        for mu in (0.5, 1.0, 2.0):
            for alpha in (0.1, 1.0):
                for beta in (0.0, 0.5, 2.0):
                    probs = impatient_pmf(QueueParams(lam, mu, alpha, beta))
                    oracle = balance_equation_pmf(lam, mu, alpha, beta)
                    assert tv_distance(probs, oracle) <= 1e-8, (lam, mu, alpha, beta)


def test_join_accept_series_values():
    jp = join_accept_probs(REF)
    # frozen series values, cross-checked by direct high-precision summation
    probs = impatient_pmf(REF)
    delta = REF.join_decay
    p_join = sum(probs[j] * delta**j for j in range(1, len(probs)))
    p_aj = sum(probs[j] * delta**j / (1 + j) for j in range(1, len(probs)))
    assert jp.p_join == pytest.approx(p_join, rel=1e-12)
    assert jp.p_accept_and_join == pytest.approx(p_aj, rel=1e-12)
    assert jp.p_accept == pytest.approx(probs[0] + p_aj, rel=1e-12)
    assert jp.p_join == pytest.approx(0.14754453530359382)
    assert jp.p_accept == pytest.approx(0.8168178002790883)
    assert jp.p_accept_given_join == pytest.approx(0.4878936585456108)


def test_join_accept_degenerate_when_everyone_balks():
    # beta/mu beyond the exp underflow point: delta is exactly zero
    params = QueueParams(1.0, 1.0, 1.0, 1000.0)
    jp = join_accept_probs(params)
    assert jp.degenerate
    assert jp.p_join == 0.0
    assert jp.p_accept_given_join == 1.0
    assert jp.p_accept == pytest.approx(impatient_pmf(params)[0])
    assert impatient_pmf(params)[0] == pytest.approx(1.0)


def test_join_accept_no_reneging_limit():
    jp = join_accept_probs(QueueParams(1.0, 2.0, 0.0, 0.5))
    assert jp.p_accept_given_join == pytest.approx(1.0)


def test_wait_density_normalization():
    dens = wait_densities(REF)
    total, _ = quad(lambda w: float(dens.f_accepted(w)), 0.0, np.inf,
                    limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_wait_density_raw_norm_matches_beta_oracle():
    dens = wait_densities(REF)
    probs = impatient_pmf(REF)
    oracle = series_norm_oracle(1.0, 1.0, 1.0, 0.5, probs[0],
                                dens.probs.p_accept_and_join)
    assert dens.raw_norm == pytest.approx(oracle, rel=1e-12)
    # the raw series is not normalized; the deficit is material
    assert dens.raw_norm == pytest.approx(1.1443097, rel=1e-6)


def test_wait_density_mean_matches_expansion_oracle():
    dens = wait_densities(REF)
    assert dens.mean_accepted == pytest.approx(
        series_mean_oracle(1.0, 1.0, 1.0, 0.5), rel=1e-12
    )
    for value in (dens.mean_accepted, dens.mean_reneged, dens.mean_joined,
                  dens.raw_norm, dens.cumulative_weighted(1.0)):
        assert type(value) is float


def _accepted_shape(mu, alpha, beta, terms=40):
    """The accepted-wait series e^{-(mu+alpha)w} sum_l c_l (1-e^{-alpha w})^l,
    summed term by term for quadrature."""
    delta = math.exp(-beta / mu)
    coeffs = [delta ** (l * (l + 1) // 2) / (math.factorial(l) * math.factorial(l - 1))
              for l in range(1, terms)]

    def shape(w):
        x = -math.expm1(-alpha * w)
        return math.exp(-(mu + alpha) * w) * sum(c * x ** l for l, c in enumerate(coeffs, 1))
    return shape


def _quad(f, hi):
    return quad(f, 0.0, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]


_GRID_RNG = np.random.default_rng(2024)
CLOSED_FORM_POINTS = [
    tuple(float(v) for v in (_GRID_RNG.uniform(0.5, 4.0), _GRID_RNG.uniform(0.5, 4.0),
                             _GRID_RNG.uniform(0.05, 1.0), _GRID_RNG.uniform(0.0, 1.0)))
    for _ in range(10)
] + [(1.0, 1.0, 1.0, 0.5), (1.0, 1.0, 1e-6, 0.5), (50.0, 1.0, 0.01, 0.01),
     (0.5, 4.0, 1.0, 0.0), (4.0, 0.5, 0.05, 1.0)]


@pytest.mark.parametrize("point", CLOSED_FORM_POINTS, ids=lambda p: "-".join(f"{v:.3g}" for v in p))
def test_wait_density_closed_forms_match_quadrature(point):
    # quadrature of the series is the independent reference for the Beta sums
    params = QueueParams(*point)
    _, mu, alpha, beta = point
    dens = wait_densities(params)
    shape = _accepted_shape(mu, alpha, beta)
    prefactor = (impatient_pmf(params)[0] * alpha
                 / join_accept_probs(params).p_accept_and_join)
    norm = _quad(shape, np.inf)
    assert dens.raw_norm == pytest.approx(prefactor * norm, rel=1e-8)
    assert dens.mean_accepted == pytest.approx(
        _quad(lambda w: w * shape(w), np.inf) / norm, rel=1e-8)
    for w in (0.05, 0.5, 2.0, 10.0, 40.0):
        reference = _quad(lambda x: math.exp(alpha * x) * shape(x), w) / norm
        assert dens.cumulative_weighted(w) == pytest.approx(reference, rel=1e-8), w
    assert dens.cumulative_weighted(0.0) == 0.0


def test_package_imports_no_quadrature_or_optimizer():
    # the analytics are closed forms; scipy.integrate and scipy.optimize would
    # only add import time and memory to every run
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    code = (
        "import importlib, pkgutil, sys, sliceq\n"
        "for m in pkgutil.iter_modules(sliceq.__path__):\n"
        "    importlib.import_module('sliceq.' + m.name)\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_wait_density_identities():
    dens = wait_densities(REF)
    p = dens.probs.p_accept_given_join
    # algebraic identity of the returned values
    assert dens.mean_joined * REF.reneging_rate + p == pytest.approx(1.0, abs=1e-14)
    # reneged and joined densities normalize
    int_r, _ = quad(dens.f_reneged, 0.0, np.inf, limit=200)
    int_q, _ = quad(dens.f_joined, 0.0, np.inf, limit=200)
    assert int_r == pytest.approx(1.0, abs=2e-5)
    assert int_q == pytest.approx(1.0, abs=2e-5)
    # mean of the joined density agrees with its closed form
    mean_q, _ = quad(lambda w: w * dens.f_joined(w), 0.0, np.inf,
                     limit=200)
    assert mean_q == pytest.approx(dens.mean_joined, rel=1e-4)
    mean_r, _ = quad(lambda w: w * dens.f_reneged(w), 0.0, np.inf,
                     limit=200)
    assert mean_r == pytest.approx(dens.mean_reneged, rel=2e-3)


def test_wait_densities_require_reneging():
    with pytest.raises(InvalidInputError):
        wait_densities(QueueParams(1.0, 2.0, 0.0, 0.5))


def _chain_oracle(params, top=80):
    """Exact join/accept/wait statistics of the simulated queue.

    An arrival seeing j waiting joins with probability delta^(j+1); with all
    waiting requests abandoning at rate alpha, the acceptance chance from j
    ahead is mu/(mu + (j+1) alpha) and the accepted wait is hypoexponential
    with rates mu + i*alpha, i = 1..j+1.
    """
    lam, mu = params.arrival_rate, params.service_rate
    alpha, delta = params.reneging_rate, params.join_decay
    probs = impatient_pmf(params)
    probs = np.append(probs, np.zeros(max(0, top - len(probs))))
    p_join_nonempty = sum(probs[j] * delta ** (j + 1) for j in range(1, top))
    p_accept_and_join = sum(
        probs[j] * delta ** (j + 1) * mu / (mu + (j + 1) * alpha)
        for j in range(1, top)
    )
    mean_terms = 0.0
    for j in range(1, top):
        w = probs[j] * delta ** (j + 1) * mu / (mu + (j + 1) * alpha)
        mean = sum(1.0 / (mu + i * alpha) for i in range(1, j + 2))
        mean_terms += w * mean
    return {
        "p_join": p_join_nonempty,
        "p_accept_given_join": p_accept_and_join / p_join_nonempty,
        "mean_accepted_wait": mean_terms / p_accept_and_join,
    }


def test_join_accept_against_simulation_oracle():
    """Compare the series formulas with a brute-force run of the queue.

    The simulation matches the exact chain statistics; the series formulas
    differ from them by a sizeable margin (their per-length acceptance factor
    and join weights correspond to a model where the queue head never
    reneges and arrivals ignore themselves when balking); both sides are
    pinned so any drift in either is caught.
    """
    oracle = _chain_oracle(REF)
    m = isolated_queue_sim(REF, horizon=2e5, seed=42, collect_records=True)
    arrivals = m.arrivals[0]

    # all-arrivals join fraction against the chain
    p_join_all = m.joined[0] / arrivals
    delta = REF.join_decay
    probs = impatient_pmf(REF)
    exact_p_join_all = sum(probs[j] * delta ** (j + 1) for j in range(len(probs)))
    se = math.sqrt(exact_p_join_all * (1 - exact_p_join_all) / arrivals)
    assert abs(p_join_all - exact_p_join_all) < 4 * se

    # acceptance fraction among requests that joined behind someone
    joined_behind = [r for r in m.records
                     if r.disposition in ("accepted", "reneged")
                     and r.entry_queue_length >= 2]
    accepted_behind = [r for r in joined_behind if r.disposition == "accepted"]
    p_aj_mc = len(accepted_behind) / len(joined_behind)
    exact = oracle["p_accept_given_join"]
    se = math.sqrt(exact * (1 - exact) / len(joined_behind))
    assert abs(p_aj_mc - exact) < 4 * se

    waits = np.array([r.wait for r in accepted_behind])
    se_w = waits.std(ddof=1) / math.sqrt(len(waits))
    assert abs(waits.mean() - oracle["mean_accepted_wait"]) < 4 * se_w

    # series formulas vs measured chain: the documented gaps
    series = join_accept_probs(REF)
    accepted_all = sum(1 for r in m.records if r.disposition == "accepted")
    print(f"\nseries P(A|J) {series.p_accept_given_join:.4f} "
          f"vs simulated {p_aj_mc:.4f}")
    print(f"series P(A) {series.p_accept:.4f} "
          f"vs simulated all-arrivals {accepted_all / arrivals:.4f}")
    assert series.p_accept_given_join - p_aj_mc > 0.10
    assert series.p_accept - accepted_all / arrivals > 0.5

    # the normalized accepted-wait density lands close to, but measurably off,
    # the exact conditional mean (frozen gap, about one percent here)
    dens = wait_densities(REF)
    gap = dens.mean_accepted - oracle["mean_accepted_wait"]
    assert 0.0 < gap < 0.02
