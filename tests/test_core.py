"""Regions, strategies and scenario serialization."""
import dataclasses
import json
import math

import numpy as np
import pytest

from sliceq.core import (
    Scenario,
    SliceType,
    Strategy,
    demo_scenario,
    enumerate_regions,
    naive_strategy,
    random_strategy,
    tiny_scenario,
    validate_preference,
)
from sliceq.errors import (
    InvalidInputError,
    StrategyMismatchError,
    UnboundedRegionError,
)

from helpers import permutation_columns, rational_regions


def test_feasibility_single_resource():
    feasible = set(enumerate_regions(tiny_scenario()).feasible)
    assert (1, 2) in feasible               # 0.6 + 0.4 = 1.0
    assert (2, 0) not in feasible           # 1.2 > 1
    assert (0, 0) in feasible


def test_tiny_region_counts():
    reg = enumerate_regions(tiny_scenario())
    assert reg.n_feasible == 9
    assert reg.n_admissible == 7


def test_demo_region_matches_exact_arithmetic():
    sc = demo_scenario()
    reg = enumerate_regions(sc)
    feas, adm = rational_regions(sc.resources, [st.cost for st in sc.slice_types])
    assert reg.n_feasible == len(feas)
    assert reg.n_admissible == len(adm)
    assert set(reg.feasible) == feas
    assert set(reg.admissible) == adm


def _zero_capacity_scenario():
    return Scenario(
        resources=(0.0,),
        slice_types=(SliceType(cost=(0.5,), arrival_rate=1, release_rate=1,
                               profit_rate=1),),
    )


def test_zero_capacity_region():
    reg = enumerate_regions(_zero_capacity_scenario())
    assert reg.feasible == [(0,)]
    assert reg.n_admissible == 0


def test_zero_cost_type_rejected():
    sc = Scenario(
        resources=(1.0,),
        slice_types=(SliceType(cost=(0.0,), arrival_rate=1, release_rate=1,
                               profit_rate=1),),
    )
    with pytest.raises(UnboundedRegionError):
        enumerate_regions(sc)


def test_admissible_states_are_indexed_first():
    reg = enumerate_regions(demo_scenario())
    for i, state in enumerate(reg.admissible):
        assert reg.feasible[i] == state
        assert reg.feasible_index(state) == i
    # every admissible state has some feasible increment, boundary states none
    for i in range(reg.n_feasible):
        has_up = any(t >= 0 for t in reg.next_feasible[i])
        assert has_up == (i < reg.n_admissible)


def test_region_transitions_reverify_feasible():
    sc = demo_scenario()
    reg = enumerate_regions(sc)
    for i, state in enumerate(reg.admissible):
        for t, target in enumerate(reg.next_feasible[i]):
            if target >= 0:
                up = state[:t] + (state[t] + 1,) + state[t + 1:]
                assert (sc.cost_matrix() @ up <= np.asarray(sc.resources) + 1e-9).all()
                assert reg.state(target) == up


def test_index_round_trip():
    reg = enumerate_regions(demo_scenario())
    for i, state in enumerate(reg.feasible):
        assert reg.feasible_index(state) == i
        assert reg.state(i) == state


def test_region_counts_invariant_under_type_permutation():
    sc = demo_scenario()
    swapped = Scenario(resources=sc.resources,
                       slice_types=(sc.slice_types[1], sc.slice_types[0]))
    a, b = enumerate_regions(sc), enumerate_regions(swapped)
    assert a.n_feasible == b.n_feasible
    assert a.n_admissible == b.n_admissible


def test_boundary_states_not_admissible():
    reg = enumerate_regions(tiny_scenario())
    assert reg.n_admissible < reg.n_feasible
    boundary = set(reg.feasible) - set(reg.admissible)
    assert boundary == {(0, 5), (1, 2)}
    # the boundary is never empty, since a feasible state of the largest
    # total count has no feasible increment: random_full starts rely on it
    for sc in (demo_scenario(), _zero_capacity_scenario()):
        reg = enumerate_regions(sc)
        assert reg.n_admissible < reg.n_feasible


def test_preference_validation():
    assert validate_preference([1, 2, 0], 2) == (1, 2, 0)
    with pytest.raises(InvalidInputError):
        validate_preference([1, 1, 0], 2)
    with pytest.raises(InvalidInputError):
        validate_preference([1, 2], 2)


def test_naive_strategy_constant_columns():
    reg = enumerate_regions(tiny_scenario())
    strat = naive_strategy(reg, [2, 1, 0])
    assert len(strat.columns) == reg.n_admissible
    assert all(col == (2, 1, 0) for col in strat.columns)


def test_random_strategy_reserve_last():
    reg = enumerate_regions(tiny_scenario())
    rng = np.random.default_rng(0)
    strat = random_strategy(reg, rng, reserve_last=True)
    assert all(col[-1] == 0 for col in strat.columns)
    assert all(sorted(col) == [0, 1, 2] for col in strat.columns)


def test_random_strategy_two_columns_balanced():
    # with two types and reserve last there are only two possible columns
    reg = enumerate_regions(tiny_scenario())
    rng = np.random.default_rng(1)
    seen = {(1, 2, 0): 0, (2, 1, 0): 0}
    draws = 400
    for _ in range(draws):
        strat = random_strategy(reg, rng, reserve_last=True)
        for col in strat.columns:
            seen[col] += 1
    total = draws * reg.n_admissible
    for count in seen.values():
        assert abs(count - total / 2) < 3 * np.sqrt(total * 0.25)


def test_random_strategy_uniform_without_reserve_last():
    reg = enumerate_regions(tiny_scenario())
    rng = np.random.default_rng(2)
    counts = {}
    draws = 10_000
    for _ in range(draws):
        strat = random_strategy(reg, rng, reserve_last=False)
        counts[strat.columns[0]] = counts.get(strat.columns[0], 0) + 1
    assert len(counts) == 6
    expected = draws / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 5 degrees of freedom; 3-sigma style bound
    assert chi2 < 20.5


def test_random_strategy_seed_determinism():
    reg = enumerate_regions(demo_scenario())
    a = random_strategy(reg, np.random.default_rng(7), True)
    b = random_strategy(reg, np.random.default_rng(7), True)
    assert a.columns == b.columns


def _three_type_scenario():
    return Scenario(resources=(1.0, 1.0), slice_types=tuple(
        SliceType(cost=c, arrival_rate=1, release_rate=1, profit_rate=1)
        for c in ((0.06, 0.02), (0.02, 0.06), (0.04, 0.05))))


@pytest.mark.parametrize("reserve_last", [True, False])
@pytest.mark.parametrize("make_scenario", [demo_scenario, tiny_scenario, _three_type_scenario])
def test_random_strategy_equals_one_permutation_per_state(make_scenario, reserve_last):
    # the columns come from one row-wise shuffle; they must be the draws of
    # one rng.permutation per admissible state, draw after draw of one stream
    reg = enumerate_regions(make_scenario())
    n_types = len(reg.feasible[0])
    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert random_strategy(reg, rng, reserve_last).columns == \
                permutation_columns(n_types, reg.n_admissible, ref, reserve_last)


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def test_strategy_serialization_round_trip(tmp_path):
    sc = tiny_scenario()
    reg = enumerate_regions(sc)
    strat = random_strategy(reg, np.random.default_rng(3), True)
    path = tmp_path / "strategy.json"
    _write_json(path, dataclasses.asdict(strat))
    loaded = Strategy.load(path, sc)
    assert loaded == strat


def test_strategy_fingerprint_mismatch(tmp_path):
    reg = enumerate_regions(tiny_scenario())
    strat = naive_strategy(reg, [1, 2, 0])
    path = tmp_path / "strategy.json"
    _write_json(path, dataclasses.asdict(strat))
    with pytest.raises(StrategyMismatchError):
        Strategy.load(path, demo_scenario())


def test_scenario_serialization_round_trip(tmp_path):
    sc = demo_scenario()
    path = tmp_path / "scenario.json"
    _write_json(path, sc.to_dict())
    loaded = Scenario.load(path)
    assert loaded.fingerprint() == sc.fingerprint()
    assert loaded.to_dict() == sc.to_dict()


def test_scenario_schema_keys(tmp_path):
    sc = tiny_scenario()
    path = tmp_path / "scenario.json"
    _write_json(path, sc.to_dict())
    data = json.loads(path.read_text())
    assert set(data) == {"resources", "slice_types"}
    assert set(data["slice_types"][0]) == {
        "cost", "arrival_rate", "mean_lifetime", "issue_cost",
        "waiting_cost_rate", "profit_rate", "utility_rate",
        "balking_exponent", "reneging_rate",
    }


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        SliceType(cost=(0.5,), arrival_rate=0.0, release_rate=1, profit_rate=1)
    with pytest.raises(InvalidInputError):
        SliceType(cost=(0.5,), arrival_rate=1, release_rate=1, profit_rate=0.0)
    with pytest.raises(InvalidInputError):
        Scenario(resources=(1.0, 1.0),
                 slice_types=(SliceType(cost=(0.5,), arrival_rate=1,
                                        release_rate=1, profit_rate=1),))
    # non-finite numbers pass a plain sign check; an infinite capacity would
    # make the region infinite
    ok = dict(cost=(0.5,), arrival_rate=1.0, release_rate=1.0, profit_rate=1.0)
    for bad in (math.nan, math.inf):
        for key in ("arrival_rate", "release_rate", "profit_rate", "issue_cost",
                    "waiting_cost_rate", "utility_rate", "balking_exponent", "reneging_rate"):
            with pytest.raises(InvalidInputError):
                SliceType(**{**ok, key: bad})
        with pytest.raises(InvalidInputError):
            SliceType(**{**ok, "cost": (bad,)})
        with pytest.raises(InvalidInputError):
            Scenario(resources=(bad,), slice_types=(SliceType(**ok),))


def test_utility_rate_defaults_to_waiting_cost():
    st = SliceType(cost=(0.1,), arrival_rate=1, release_rate=1,
                   waiting_cost_rate=1.5, profit_rate=2)
    assert st.effective_utility_rate == 1.5
    st2 = SliceType(cost=(0.1,), arrival_rate=1, release_rate=1,
                    waiting_cost_rate=1.5, profit_rate=2, utility_rate=3.0)
    assert st2.effective_utility_rate == 3.0
