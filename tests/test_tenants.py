"""Lifetime models, balking chances and the reneging knowledge regimes."""
import math

import numpy as np
import pytest

from sliceq.controller import PendingRequest
from sliceq.errors import InvalidInputError
from sliceq.fitting import fit_exponential
from sliceq.tenants import (
    KnowledgeRegime,
    LifetimeDistribution,
    balk_decision,
    balking_chance,
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


def test_balking_chance_closed_forms():
    mu, u, zeta = 1.0, 1.0, 8.0
    uni = LifetimeDistribution("uniform", 10.0)
    rat = LifetimeDistribution("rational")
    par = LifetimeDistribution("pareto")
    expo = LifetimeDistribution("exponential", 0.2)

    for l in range(0, 30):
        assert balking_chance(uni, l, mu, u, zeta) == pytest.approx(
            max(0.0, 1.0 - u * l / (mu * zeta * 10.0))
        )
        assert balking_chance(rat, l, mu, u, zeta) == pytest.approx(
            mu * zeta / (u * l + mu * zeta)
        )
        expected_par = 1.0 if l == 0 else min(1.0, mu * zeta / (u * l))
        assert balking_chance(par, l, mu, u, zeta) == pytest.approx(expected_par)
        assert balking_chance(expo, l, mu, u, zeta) == pytest.approx(
            math.exp(-0.2 * u * l / (zeta * mu))
        )


def test_balking_chance_rational_midpoint():
    # mu*zeta/u = 8, so the joining chance at l = 8 is one half
    rat = LifetimeDistribution("rational")
    assert balking_chance(rat, 8, 1.0, 1.0, 8.0) == pytest.approx(0.5)


def test_balking_chance_uniform_implicit_limit():
    uni = LifetimeDistribution("uniform", 10.0)
    l_max = int(1.0 * 8.0 * 10.0 / 1.0)
    assert balking_chance(uni, l_max, 1.0, 1.0, 8.0) == 0.0


def test_balking_chance_monotone_and_one_at_zero():
    mu, u, zeta = 1.3, 0.7, 5.0
    for dist in (LifetimeDistribution("uniform", 4.0),
                 LifetimeDistribution("rational"),
                 LifetimeDistribution("pareto"),
                 LifetimeDistribution("exponential", 0.5)):
        values = [balking_chance(dist, l, mu, u, zeta) for l in range(40)]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_empirical_balk_rate_matches_balking_chance():
    # tenants drawing exponential lifetimes balk at exactly the derived rate
    rng = np.random.default_rng(5)
    eta, mu, u, zeta = 0.2, 1.0, 1.0, 8.0
    dist = LifetimeDistribution("exponential", eta)
    for l in (0, 5, 20, 60):
        draws = 20_000
        joins = 0
        for _ in range(draws):
            req = _req(lifetime=dist.sample(rng), zeta=zeta, u=u)
            joins += balk_decision(req, l, mu)
        expected = balking_chance(dist, l, mu, u, zeta)
        se = math.sqrt(max(expected * (1 - expected), 1e-9) / draws)
        assert abs(joins / draws - expected) < 4 * se + 1e-12


def test_lifetime_samples_positive_and_match_cdf():
    rng = np.random.default_rng(11)
    for dist in (LifetimeDistribution("uniform", 3.0),
                 LifetimeDistribution("rational"),
                 LifetimeDistribution("pareto"),
                 LifetimeDistribution("exponential", 2.0)):
        xs = np.array([dist.sample(rng) for _ in range(20_000)])
        assert (xs > 0).all()
        for q in (0.25, 0.5, 0.75):
            x = float(np.quantile(xs, q))
            assert dist.cdf(x) == pytest.approx(q, abs=0.02)


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
    assert renege_position(req, 1, 1, 1e9, 1)[0]
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
    wait, deadline = renege_position(req, k=9, length=10, elapsed=1.0, delta_k=2)
    assert wait
    assert deadline == pytest.approx(40.0 * 1 / 9)
    # the bound decays with elapsed time
    wait, deadline = renege_position(req, k=9, length=10, elapsed=10.0, delta_k=2)
    assert not wait and deadline is None


def test_renege_position_band_edge_deadline():
    # at the edge of a wide band the crossing time solves k = l*v/(u*T + v)
    req = _req(lifetime=5, zeta=8, u=1)
    wait, deadline = renege_position(req, k=5, length=10, elapsed=1.0, delta_k=5)
    assert wait
    assert deadline == pytest.approx(40.0)


def test_renege_position_deep_progress_waits():
    req = _req(lifetime=0.1, zeta=8, u=1)
    # past the probation band the tenant no longer reneges at all
    wait, deadline = renege_position(req, k=3, length=10, elapsed=1e9, delta_k=2)
    assert wait and deadline is None
    # at the band's edge: one position past it waits, on it the stall still
    # counts; the engine tests the band before it calls, other callers do not
    for delta_k in (1, 2, 5):
        assert renege_position(req, 2, delta_k + 3, 1e9, delta_k) == (True, None)
        assert renege_position(req, 3, delta_k + 3, 1e9, delta_k) == (False, None)


def test_renege_position_long_stall_reneges():
    req = _req(lifetime=5, zeta=8, u=1)
    wait, _ = renege_position(req, k=10, length=11, elapsed=1e9, delta_k=2)
    assert not wait


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
    dist = LifetimeDistribution("exponential", eta)
    deadlines = []
    for _ in range(50_000):
        req = _req(lifetime=dist.sample(rng), zeta=zeta, u=u)
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
    # with no issue cost, balking is the entrance case of reneging
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
