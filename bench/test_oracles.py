"""Hand-solvable cases for the benchmark's reference computations."""
import numpy as np
import pytest

import oracles


def test_absorption_law_of_three_state_chain():
    # from state 0: stay 0.5, absorb in 1 with 0.3, in 2 with 0.2, so the
    # absorbed mass splits 0.3 : 0.2 = 0.6 : 0.4
    psi = np.array([[0.5, 0.3, 0.2],
                    [0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0]])
    assert np.allclose(oracles.absorption_law(psi, 0), [0.0, 0.6, 0.4], atol=1e-15)
    assert np.array_equal(oracles.absorption_law(psi, 2), [0.0, 0.0, 1.0])


def test_absorption_law_through_a_second_transient_state():
    # 0 -> 1 with 0.5 (else absorbed in 2); 1 is absorbed in 2 for sure
    psi = np.array([[0.25, 0.5, 0.25],
                    [0.0, 0.5, 0.5],
                    [0.0, 0.0, 1.0]])
    assert np.allclose(oracles.absorption_law(psi, 0), [0.0, 0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("lam, mu", [(1.0, 2.0), (0.9, 1.0), (3.0, 4.0)])
def test_patient_balance_solve_is_geometric(lam, mu):
    pi = oracles.birth_death_pmf(lam, mu, 0.0, 0.0)
    rho = lam / mu
    assert oracles.total_variation(pi, oracles.geometric_pmf(rho, len(pi))) < 1e-10


def test_balance_solve_matches_hand_product_with_reneging():
    # lam=1, mu=1, alpha=1, beta=0: level l steps down at rate 1 + l, so
    # p(l) = p0 / (l + 1)! and p0 = 1 / (e - 1)
    pi = oracles.birth_death_pmf(1.0, 1.0, 1.0, 0.0)
    p0 = 1.0 / (np.e - 1.0)
    assert abs(pi[0] - p0) < 1e-12
    assert abs(pi[3] - p0 / 24.0) < 1e-12


def test_end_profit_formula():
    # zeta=8, L=2.5, c0=1, u=1.5, w=2: value 20, cost 1 + 3
    assert oracles.end_profit(8.0, 2.5, 1.0, 1.5, 2.0, accepted=True) == 16.0
    assert oracles.end_profit(8.0, 2.5, 1.0, 1.5, 2.0, accepted=False) == -4.0


def test_blind_patience_floors_at_zero():
    assert oracles.blind_patience(8.0, 2.5, 1.0, 2.0, 1.0) == 9.5
    assert oracles.blind_patience(8.0, 0.1, 1.0, 2.0, 1.0) == 0.0
