"""Balking, the reneging knowledge regimes and end profits."""
import math

import numpy as np
import pytest

from sliceq.controller import PendingRequest
from sliceq.errors import InvalidInputError
from sliceq.fitting import fit_exponential
from sliceq.tenants import (
    KnowledgeRegime,
    balk_decision,
    critical_rate,
    end_profit,
    renege_avg_wait,
    renege_blind,
    renege_position,
    renege_serving_rate,
)

from helpers import expected_wait, renege_full


def _req(lifetime=5.0, issue_cost=0.0, u=1.0, zeta=8.0):
    return PendingRequest(
        request_id=1, slice_type=1, enter_time=0.0, lifetime=lifetime,
        issue_cost=issue_cost, waiting_cost_rate=u, profit_rate=zeta,
    )


# -- balking ------------------------------------------------------------------

def test_balk_decision_examples():
    assert balk_decision(_req(lifetime=5, zeta=8, u=1), length=10, mu=1.0)
    assert balk_decision(_req(), length=0, mu=1.0)
    # exact tie goes to issuing
    req = _req(lifetime=5, zeta=8, u=1)  # value 40
    assert balk_decision(req, length=40, mu=1.0)
    assert not balk_decision(req, length=41, mu=1.0)


def test_balk_decision_with_issue_cost():
    req = _req(lifetime=1.0, zeta=2.0, u=1.0, issue_cost=3.0)
    # value 2 < issue cost 3: balk even with an empty queue
    assert not balk_decision(req, length=0, mu=1.0)


def test_empirical_balk_rate_matches_balking_chance():
    # tenants with Exp(eta) lifetimes join at length l with chance
    # P(zeta*L >= u*l/mu) = exp(-eta*u*l/(zeta*mu)): the demo's balking
    # exponent beta = eta*u/zeta is this rule's
    rng = np.random.default_rng(5)
    eta, mu, u, zeta = 0.2, 1.0, 1.0, 8.0
    for l in (0, 5, 20, 60):
        draws = 20_000
        joins = 0
        for _ in range(draws):
            req = _req(lifetime=float(rng.exponential(1.0 / eta)), zeta=zeta, u=u)
            joins += balk_decision(req, l, mu)
        expected = math.exp(-eta * u * l / (zeta * mu))
        se = math.sqrt(max(expected * (1 - expected), 1e-9) / draws)
        assert abs(joins / draws - expected) < 4 * se + 1e-12


# -- reneging -----------------------------------------------------------------

def test_expected_wait_examples():
    assert expected_wait(3, 1.0, [0.0, 1.0, 1.0]) == pytest.approx(1.0 + 0.5 + 1 / 3)
    assert expected_wait(4, 2.0, [0.0]) == pytest.approx(4 / 2.0)
    assert expected_wait(0, 1.0, []) == 0.0


def test_renege_full_examples():
    req = _req(lifetime=5, zeta=8, u=1)  # value 40
    assert renege_full(req, k=3, mu=1.0, omega=[0.0, 1.0, 1.0])
    # enormous lifetime: always wait
    assert renege_full(_req(lifetime=1e9), k=100, mu=0.01, omega=[0.0])
    # zero renege rates reduce to the serving-rate rule
    for k in (1, 10, 40, 41):
        assert renege_full(req, k, 1.0, [0.0] * k) == renege_serving_rate(req, k, 1.0)


def test_renege_serving_rate_examples():
    req = _req(lifetime=5, zeta=8, u=1)
    assert renege_serving_rate(req, 40, 1.0)
    assert not renege_serving_rate(req, 41, 1.0)
    assert renege_serving_rate(req, 0, 1.0)
    # enormous waiting cost: renege at any queued position
    assert not renege_serving_rate(_req(u=1e9), 1, 1.0)


def test_free_waiting_always_stays():
    # a zero waiting cost rate once divided by zero in the serving-rate rule
    req = _req(u=0.0)
    assert renege_serving_rate(req, 10**6, 1e-9)
    assert renege_position(req, 1, 1, 1e9, 1)
    assert math.isinf(renege_blind(req, 1.0))
    assert critical_rate(10**6, 0.0, 40.0) == 0.0


def test_critical_rate_is_the_stay_threshold():
    req = _req(lifetime=5, zeta=8, u=1.5)  # value 40
    for k in (1, 20, 26, 27, 80):
        mu = critical_rate(k, 1.5, 40.0)
        assert mu == pytest.approx(k * 1.5 / 40.0)
        assert renege_serving_rate(req, k, mu * 1.001)
        assert not renege_serving_rate(req, k, mu * 0.999)
        assert renege_full(req, k, mu * 1.001, [0.0] + [0.5] * k)
    assert critical_rate(3, 1.0, 0.0) == math.inf


def test_regime_dominance():
    # whenever the serving-rate rule waits, the full rule waits too
    rng = np.random.default_rng(3)
    for _ in range(300):
        req = _req(lifetime=float(rng.exponential(5.0)) + 1e-9,
                   zeta=float(rng.uniform(1, 10)),
                   u=float(rng.uniform(0.1, 3)))
        k = int(rng.integers(1, 30))
        mu = float(rng.uniform(0.2, 4))
        omega = [0.0] + list(rng.uniform(0, 2, size=k - 1))
        assert expected_wait(k, mu, omega) <= k / mu + 1e-12
        if renege_serving_rate(req, k, mu):
            assert renege_full(req, k, mu, omega)


def test_renege_position_in_band_bound():
    req = _req(lifetime=5, zeta=8, u=1)  # value 40
    # within the probation band the progress estimate drives the decision
    assert renege_position(req, k=9, length=10, elapsed=1.0, delta_k=2)
    # the bound decays with elapsed time: it crosses k = 9 at T = 40/9
    assert renege_position(req, k=9, length=10, elapsed=40.0 / 9 - 1e-9, delta_k=2)
    assert not renege_position(req, k=9, length=10, elapsed=40.0 / 9 + 1e-9, delta_k=2)
    assert not renege_position(req, k=9, length=10, elapsed=10.0, delta_k=2)


def test_renege_position_band_edge_deadline():
    # at the edge of a wide band the crossing time solves k = l*v/(u*T + v):
    # T = 40, where the tie still waits
    req = _req(lifetime=5, zeta=8, u=1)
    assert renege_position(req, k=5, length=10, elapsed=1.0, delta_k=5)
    assert renege_position(req, k=5, length=10, elapsed=40.0, delta_k=5)
    assert not renege_position(req, k=5, length=10, elapsed=40.0 + 1e-9, delta_k=5)


def test_renege_position_deep_progress_waits():
    req = _req(lifetime=0.1, zeta=8, u=1)
    # past the probation band the tenant no longer reneges at all
    assert renege_position(req, k=3, length=10, elapsed=1e9, delta_k=2)
    # at the band's edge: one position past it waits, on it the stall still
    # counts; the engine tests the band before it calls, other callers do not
    for delta_k in (1, 2, 5):
        assert renege_position(req, 2, delta_k + 3, 1e9, delta_k) is True
        assert renege_position(req, 3, delta_k + 3, 1e9, delta_k) is False


def test_renege_position_long_stall_reneges():
    req = _req(lifetime=5, zeta=8, u=1)
    assert not renege_position(req, k=10, length=11, elapsed=1e9, delta_k=2)


def test_renege_position_validation():
    req = _req()
    with pytest.raises(InvalidInputError):
        renege_position(req, k=11, length=10, elapsed=1.0, delta_k=2)
    with pytest.raises(InvalidInputError):
        renege_position(req, k=0, length=10, elapsed=1.0, delta_k=2)


def test_renege_avg_wait_examples():
    req = _req(lifetime=5, zeta=8, u=1)
    assert renege_avg_wait(req, 0.0)
    assert renege_avg_wait(req, 40.0)   # boundary: tie favours waiting
    assert not renege_avg_wait(req, 41.0)


def test_renege_blind_examples():
    req = _req(lifetime=5, zeta=8, u=1)
    assert renege_blind(req, 0.1) == pytest.approx(4.0)
    assert renege_blind(req, 0.0) == 0.0
    assert renege_blind(req, math.inf) == math.inf


def test_renege_blind_deadline_is_exponential():
    # with exponential lifetimes the blind deadline is itself exponential
    rng = np.random.default_rng(9)
    eta, zeta, u, risk = 0.2, 8.0, 1.0, 0.5
    deadlines = []
    for _ in range(50_000):
        req = _req(lifetime=float(rng.exponential(1.0 / eta)), zeta=zeta, u=u)
        deadlines.append(renege_blind(req, risk))
    fit = fit_exponential(deadlines)
    expected_rate = eta * u / (risk * zeta)
    assert fit.parameter == pytest.approx(expected_rate, rel=0.02)
    assert fit.tail_diagnostic == pytest.approx(1.0, abs=0.15)


def test_rational_joiner_never_regrets_static_estimates():
    # with frozen mu and omega, expected waits shrink as the queue advances,
    # so a request that joined rationally keeps waiting
    rng = np.random.default_rng(14)
    for _ in range(200):
        req = _req(lifetime=float(rng.exponential(4.0)) + 1e-9,
                   zeta=float(rng.uniform(1, 12)),
                   u=float(rng.uniform(0.2, 2.5)))
        l = int(rng.integers(1, 40))
        mu = float(rng.uniform(0.3, 4.0))
        omega = [0.0] + list(rng.uniform(0, 1.5, size=l - 1))
        waits = [expected_wait(k, mu, omega) for k in range(l + 1)]
        assert all(a <= b for a, b in zip(waits, waits[1:]))
        if renege_full(req, l, mu, omega):
            for k in range(1, l + 1):
                assert renege_full(req, k, mu, omega)


def test_entrance_decision_equals_reneging_rule_at_entry():
    # with no issue cost, balking is the entrance case of reneging; the
    # average-wait entrance rule is balking with the published mean wait in
    # place of l/mu, and it pays the issue cost as balking does
    rng = np.random.default_rng(21)
    for _ in range(200):
        req = _req(lifetime=float(rng.exponential(4.0)) + 1e-9,
                   zeta=float(rng.uniform(1, 12)),
                   u=float(rng.uniform(0.2, 2.5)))
        l = int(rng.integers(1, 50))
        mu = float(rng.uniform(0.3, 4.0))
        assert balk_decision(req, l, mu) == renege_serving_rate(req, l, mu)
        assert balk_decision(req, l, mu) == renege_full(req, l, mu, [0.0] * l)
        w_bar = l / mu
        assert renege_avg_wait(req, w_bar) == balk_decision(req, l, mu)
        req.issue_cost = float(rng.uniform(0.0, 20.0))
        assert renege_avg_wait(req, w_bar) == balk_decision(req, l, mu)


def test_end_profit():
    req = _req(lifetime=5, zeta=8, u=1)
    assert end_profit(req, accepted=True, wait=2.0) == pytest.approx(38.0)
    assert end_profit(req, accepted=True, wait=0.0) == pytest.approx(40.0)
    req2 = _req(lifetime=5, zeta=8, u=1.5)
    assert end_profit(req2, accepted=False, wait=4.0) == pytest.approx(-6.0)
    with pytest.raises(InvalidInputError):
        end_profit(req, True, -1.0)


def test_knowledge_regime_validation():
    KnowledgeRegime("full")
    KnowledgeRegime("blind", risk_factor=0.0)
    with pytest.raises(InvalidInputError):
        KnowledgeRegime("telepathic")
    with pytest.raises(InvalidInputError):
        KnowledgeRegime("position", delta_k=0)
    with pytest.raises(InvalidInputError):
        KnowledgeRegime("blind", risk_factor=-1.0)
    # a NaN budget set no deadline, so its blind tenants never reneged
    with pytest.raises(InvalidInputError):
        KnowledgeRegime("blind", risk_factor=math.nan)
