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
from sliceq.queueing import QueueParams, impatient_pmf, wait_densities

from helpers import balance_equation_pmf, tv_distance

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


FIGURES = ("p_join", "p_accept", "p_accept_given_join", "mean_accepted", "mean_joined",
           "mean_reneged")


def _chain_oracle(params):
    """The six figures of a tagged arrival, by walking the stages of its wait.

    An arrival that finds j waiting joins at position n = j + 1 with
    probability delta^n. At position k it leaves the position at rate
    mu + k*alpha: it moves up (or, at the head, is accepted) at rate
    mu + (k-1)*alpha and reneges at rate alpha. Each leaving is summed at
    the stage where it happens, with the mean time spent up to then.
    """
    mu, alpha, delta = params.service_rate, params.reneging_rate, params.join_decay
    joined = accepted = reneged = wait_joined = wait_accepted = wait_reneged = 0.0
    for j, p in enumerate(impatient_pmf(params)):
        join = p * delta ** (j + 1)
        reach, elapsed = 1.0, 0.0  # chance of reaching this stage, mean time to leave it
        for k in range(j + 1, 0, -1):
            rate = mu + k * alpha
            elapsed += 1.0 / rate
            wait_joined += join * reach / rate
            reneged += join * reach * alpha / rate
            wait_reneged += join * reach * alpha / rate * elapsed
            reach *= (mu + (k - 1) * alpha) / rate
        joined += join
        accepted += join * reach
        wait_accepted += join * reach * elapsed
    return {
        "p_join": joined,
        "p_accept": accepted,
        "p_accept_given_join": accepted / joined,
        "mean_accepted": wait_accepted / accepted,
        "mean_joined": wait_joined / joined,
        "mean_reneged": wait_reneged / reneged if alpha > 0 else None,
    }


_GRID_RNG = np.random.default_rng(2024)
CLOSED_FORM_POINTS = [
    tuple(float(v) for v in (_GRID_RNG.uniform(0.5, 4.0), _GRID_RNG.uniform(0.5, 4.0),
                             _GRID_RNG.uniform(0.05, 1.0), _GRID_RNG.uniform(0.0, 1.0)))
    for _ in range(10)
] + [(1.0, 1.0, 1.0, 0.5), (1.0, 1.0, 1e-6, 0.5), (50.0, 1.0, 0.01, 0.01),
     (0.5, 4.0, 1.0, 0.0), (4.0, 0.5, 0.05, 1.0)]
POINT_IDS = ["-".join(f"{v:.3g}" for v in p) for p in CLOSED_FORM_POINTS]


@pytest.mark.parametrize("point", CLOSED_FORM_POINTS, ids=POINT_IDS)
def test_wait_densities_match_chain_oracle(point):
    out = wait_densities(QueueParams(*point))
    oracle = _chain_oracle(QueueParams(*point))
    for name in FIGURES:
        assert getattr(out, name) == pytest.approx(oracle[name], rel=1e-12), name
        assert type(getattr(out, name)) is float
    assert out.raw_norm == 1.0


def _quad(f):
    return quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)[0]


@pytest.mark.parametrize("point", CLOSED_FORM_POINTS, ids=POINT_IDS)
def test_wait_density_closed_forms_match_quadrature(point):
    # A second route to the conditional figures: from position n the tagged
    # request is accepted at A_n, the time the requests ahead take to leave
    # plus the head's service, unless its own Exp(alpha) patience R runs out
    # first. A_n sums Exp(mu + k*alpha), k < n, with density
    # c_n e^(-mu w) (1 - e^(-alpha w))^(n-1), c_n = mu prod_{k<n} (mu + k alpha)/(k alpha).
    # The wait is min(A_n, R), so each figure integrates a function of A_n
    # against the join-weighted mixture of these densities.
    params = QueueParams(*point)
    _, mu, alpha, _ = point
    probs = impatient_pmf(params)
    n = np.arange(1, len(probs) + 1)
    joins = probs * params.join_decay ** n
    k = np.arange(1, len(probs))
    log_c = math.log(mu) + np.concatenate(
        [[0.0], np.cumsum(np.log((mu + k * alpha) / (k * alpha)))])
    with np.errstate(divide="ignore"):
        log_weight = np.log(joins / joins.sum()) + log_c

    def mixture(w):
        return math.exp(-mu * w) * float(
            (np.exp(log_weight) * (-math.expm1(-alpha * w)) ** (n - 1)).sum())

    # given A = w: the chances that R outlasts it or runs out first, the
    # mean of min(A, R), and the mean of R where R runs out first
    def accepted(w):
        return math.exp(-alpha * w)

    def reneged(w):
        return -math.expm1(-alpha * w)

    def wait(w):
        return reneged(w) / alpha

    def reneged_time(w):
        x = alpha * w
        return (-math.expm1(-x) - x * math.exp(-x)) / alpha

    out = wait_densities(params)
    mass = _quad(lambda w: accepted(w) * mixture(w))
    assert out.p_accept_given_join == pytest.approx(mass, rel=1e-8)
    assert out.mean_accepted == pytest.approx(
        _quad(lambda w: w * accepted(w) * mixture(w)) / mass, rel=1e-8)
    assert out.mean_joined == pytest.approx(_quad(lambda w: wait(w) * mixture(w)), rel=1e-8)
    assert out.mean_reneged == pytest.approx(
        _quad(lambda w: reneged_time(w) * mixture(w))
        / _quad(lambda w: reneged(w) * mixture(w)), rel=1e-8)


def test_wait_density_identities():
    for point in CLOSED_FORM_POINTS:
        params = QueueParams(*point)
        lam, mu, alpha, _ = point
        out = wait_densities(params)
        probs = impatient_pmf(params)
        mean_length = float(np.arange(len(probs)) @ probs)
        # every joined request is accepted or reneges at rate alpha while it waits
        assert alpha * out.mean_joined + out.p_accept_given_join == pytest.approx(1.0, abs=1e-14)
        # rate balance: acceptances against busy time, reneges against the
        # queue length, and Little's law for the joined requests
        assert lam * out.p_accept == pytest.approx(mu * (1.0 - probs[0]), rel=1e-12), point
        assert lam * (out.p_join - out.p_accept) == pytest.approx(
            alpha * mean_length, rel=1e-12), point
        assert lam * out.p_join * out.mean_joined == pytest.approx(mean_length, rel=1e-12), point


def test_join_accept_series_values():
    # the join and acceptance sums over the queue length found, summed
    # directly and frozen at the reference point
    out = wait_densities(REF)
    probs = impatient_pmf(REF)
    delta = REF.join_decay
    joins = [probs[j] * delta ** (j + 1) for j in range(len(probs))]
    assert out.p_join == pytest.approx(math.fsum(joins), rel=1e-12)
    assert out.p_accept == pytest.approx(
        math.fsum(p / (j + 2) for j, p in enumerate(joins)), rel=1e-12)
    assert out.p_join == pytest.approx(0.5412535813746449, rel=1e-12)
    assert out.p_accept == pytest.approx(0.2551682428485942, rel=1e-12)
    assert out.p_accept_given_join == pytest.approx(0.471439361566038, rel=1e-12)


def test_join_accept_degenerate_when_everyone_balks():
    # beta/mu beyond the exp underflow point: delta is exactly zero, so no
    # arrival joins and no conditional figure is defined
    params = QueueParams(1.0, 1.0, 1.0, 1000.0)
    out = wait_densities(params)
    assert impatient_pmf(params)[0] == 1.0
    assert (out.p_join, out.p_accept) == (0.0, 0.0)
    for name in FIGURES[2:]:
        assert getattr(out, name) is None, name


def test_join_accept_no_reneging_limit():
    # without reneging every joined request is accepted, at the patient
    # queue's wait, and no reneged wait is defined
    params = QueueParams(1.0, 2.0, 0.0, 0.5)
    out = wait_densities(params)
    oracle = _chain_oracle(params)
    assert out.p_accept_given_join == 1.0
    assert out.p_accept == out.p_join == pytest.approx(oracle["p_join"], rel=1e-12)
    assert out.mean_accepted == pytest.approx(out.mean_joined, rel=1e-14)
    assert out.mean_joined == pytest.approx(oracle["mean_joined"], rel=1e-12)
    assert out.mean_reneged is None


def test_mean_reneged_is_stable_as_reneging_vanishes():
    # the reneged wait tends to the second-moment ratio of the patient queue
    # as alpha goes to 0; the figure must not lose its digits on the way
    patient = QueueParams(1.0, 1.0, 0.0, 0.5)
    probs = impatient_pmf(patient)
    n = np.arange(1, len(probs) + 1)
    joins = probs * patient.join_decay ** n
    limit = float(joins @ (n * (n + 1))) / (2 * float(joins @ n))
    for alpha in (1e-6, 1e-9, 1e-13):
        out = wait_densities(QueueParams(1.0, 1.0, alpha, 0.5))
        assert out.mean_reneged == pytest.approx(limit, rel=10 * alpha), alpha


def test_package_imports_no_quadrature_or_optimizer():
    # the analytics are closed forms; scipy.integrate, scipy.optimize and
    # scipy.special would only add import time and memory to every run
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    code = (
        "import importlib, pkgutil, sys, sliceq\n"
        "for m in pkgutil.iter_modules(sliceq.__path__):\n"
        "    importlib.import_module('sliceq.' + m.name)\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special')\n"
        "             if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def _measured_figures(records, horizon, batches):
    """The six figures measured on a run's request records, over the whole
    run and over each of ``batches`` equal spans of arrival time."""
    disposition = np.array([r.disposition for r in records])
    wait = np.array([r.wait for r in records])
    batch = (np.array([r.enter_time for r in records]) * batches / horizon).astype(int)

    def figures(rows):
        accepted = rows & (disposition == "accepted")
        reneged = rows & (disposition == "reneged")
        joined = accepted | reneged
        return {
            "p_join": joined.sum() / rows.sum(),
            "p_accept": accepted.sum() / rows.sum(),
            "p_accept_given_join": accepted.sum() / joined.sum(),
            "mean_accepted": wait[accepted].mean(),
            "mean_joined": wait[joined].mean(),
            "mean_reneged": wait[reneged].mean(),
        }

    return figures(batch >= 0), [figures(batch == b) for b in range(batches)]


def test_join_accept_against_simulation_oracle():
    """The figures agree with a brute-force run of the queue they model.

    The standard errors come from 20 batch means over arrival time, since
    waits of neighbouring requests are correlated and an i.i.d. standard
    error would understate them.
    """
    horizon, batches = 2e5, 20
    for point in ((1.0, 1.0, 1.0, 0.5), (1.0, 1.0, 0.5, 0.3), (2.0, 1.0, 0.2, 0.1),
                  (3.0, 2.0, 0.05, 0.5)):
        params = QueueParams(*point)
        m = isolated_queue_sim(params, horizon=horizon, seed=42, collect_records=True)
        out = wait_densities(params)
        measured, per_batch = _measured_figures(m.records, horizon, batches)
        for name in FIGURES:
            se = np.std([f[name] for f in per_batch], ddof=1) / math.sqrt(batches)
            gap = (measured[name] - getattr(out, name)) / se
            print(f"\n{point} {name}: exact {getattr(out, name):.5f}, "
                  f"simulated {measured[name]:.5f}, {gap:+.2f} SE")
            assert abs(gap) < 4, (point, name)
