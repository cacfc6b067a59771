"""Regions, strategies and scenario serialization."""
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceq import core
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
    assert set(reg.feasible[:reg.n_admissible]) == adm


@st.composite
def decimal_cost_scenarios(draw):
    """1-3 types on 1-2 unit resources with costs k/den. Each type takes at
    least a sixth of some resource, so a region has at most 7^3 states."""
    m = draw(st.integers(1, 2))
    types = []
    for _ in range(draw(st.integers(1, 3))):
        dens = [draw(st.sampled_from([3, 7, 10, 20, 50, 60, 100])) for _ in range(m)]
        cost = [draw(st.integers(0, den)) / den for den in dens]
        heavy = draw(st.integers(0, m - 1))
        cost[heavy] = draw(st.integers(-(-dens[heavy] // 6), dens[heavy])) / dens[heavy]
        types.append(SliceType(cost=tuple(cost), arrival_rate=1, release_rate=1,
                               profit_rate=1))
    return Scenario(resources=(1.0,) * m, slice_types=tuple(types))


@settings(max_examples=200, deadline=None)
@given(decimal_cost_scenarios())
def test_random_regions_match_exact_arithmetic(sc):
    reg = enumerate_regions(sc)
    feas, adm = rational_regions(sc.resources, [t.cost for t in sc.slice_types])
    assert set(reg.feasible) == feas
    assert set(reg.feasible[:reg.n_admissible]) == adm and reg.n_admissible == len(adm)
    for block in (reg.feasible[:reg.n_admissible], reg.feasible[reg.n_admissible:]):
        assert block == sorted(block)
    position = {s: i for i, s in enumerate(reg.feasible)}
    for i, s in enumerate(reg.feasible):
        for t in range(sc.n_types):
            up, down = (s[:t] + (s[t] + d,) + s[t + 1:] for d in (1, -1))
            assert reg.next_feasible[i][t] == position.get(up, -1)
            assert reg.prev_feasible[i][t] == position.get(down, -1)


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


def test_region_past_the_state_bound_is_refused(monkeypatch):
    # the demo region has 357 states: the bound is checked during the search
    monkeypatch.setattr(core, "MAX_REGION_STATES", 357)
    assert enumerate_regions(demo_scenario()).n_feasible == 357
    monkeypatch.setattr(core, "MAX_REGION_STATES", 100)
    with pytest.raises(UnboundedRegionError, match="more than 100 states"):
        enumerate_regions(demo_scenario())


def test_region_loads_are_states_times_costs():
    for sc in (demo_scenario(), tiny_scenario()):
        reg = enumerate_regions(sc)
        expected = np.asarray(reg.feasible, dtype=float) @ sc.cost_matrix().T
        assert reg.loads.shape == expected.shape
        assert reg.loads.tobytes() == expected.tobytes()


def test_admissible_states_are_indexed_first():
    reg = enumerate_regions(demo_scenario())
    for i, state in enumerate(reg.feasible[:reg.n_admissible]):
        assert reg.feasible[i] == state
        assert reg.feasible_index(state) == i
    # every admissible state has some feasible increment, boundary states none
    for i in range(reg.n_feasible):
        has_up = any(t >= 0 for t in reg.next_feasible[i])
        assert has_up == (i < reg.n_admissible)


def test_region_transitions_reverify_feasible():
    sc = demo_scenario()
    reg = enumerate_regions(sc)
    for i, state in enumerate(reg.feasible[:reg.n_admissible]):
        for t, target in enumerate(reg.next_feasible[i]):
            if target >= 0:
                up = state[:t] + (state[t] + 1,) + state[t + 1:]
                assert (sc.cost_matrix() @ up <= np.asarray(sc.resources) + 1e-9).all()
                assert reg.feasible[target] == up


def test_index_round_trip():
    reg = enumerate_regions(demo_scenario())
    for i, state in enumerate(reg.feasible):
        assert reg.feasible_index(state) == i
        assert reg.feasible[i] == state


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
    boundary = set(reg.feasible) - set(reg.feasible[:reg.n_admissible])
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
    strat = random_strategy(reg, rng)
    assert all(col[-1] == 0 for col in strat.columns)
    assert all(sorted(col) == [0, 1, 2] for col in strat.columns)


def test_random_strategy_two_columns_balanced():
    # with two types and reserve last there are only two possible columns
    reg = enumerate_regions(tiny_scenario())
    rng = np.random.default_rng(1)
    seen = {(1, 2, 0): 0, (2, 1, 0): 0}
    draws = 400
    for _ in range(draws):
        strat = random_strategy(reg, rng)
        for col in strat.columns:
            seen[col] += 1
    total = draws * reg.n_admissible
    for count in seen.values():
        assert abs(count - total / 2) < 3 * np.sqrt(total * 0.25)


def test_random_strategy_seed_determinism():
    reg = enumerate_regions(demo_scenario())
    a = random_strategy(reg, np.random.default_rng(7))
    b = random_strategy(reg, np.random.default_rng(7))
    assert a.columns == b.columns


def _three_type_scenario():
    return Scenario(resources=(1.0, 1.0), slice_types=tuple(
        SliceType(cost=c, arrival_rate=1, release_rate=1, profit_rate=1)
        for c in ((0.06, 0.02), (0.02, 0.06), (0.04, 0.05))))


@pytest.mark.parametrize("make_scenario", [demo_scenario, tiny_scenario, _three_type_scenario])
def test_random_strategy_equals_one_permutation_per_state(make_scenario):
    # the columns come from one row-wise shuffle; they must be the draws of
    # one rng.permutation per admissible state, draw after draw of one stream
    reg = enumerate_regions(make_scenario())
    n_types = len(reg.feasible[0])
    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert random_strategy(reg, rng).columns == \
                permutation_columns(n_types, reg.n_admissible, ref)


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def test_strategy_serialization_round_trip(tmp_path):
    sc = tiny_scenario()
    reg = enumerate_regions(sc)
    strat = random_strategy(reg, np.random.default_rng(3))
    path = tmp_path / "strategy.json"
    _write_json(path, dataclasses.asdict(strat))
    loaded = Strategy.load(path, reg)
    assert loaded == strat


def test_strategy_load_reads_the_region_it_is_given(tmp_path, monkeypatch):
    reg = enumerate_regions(tiny_scenario())
    strat = random_strategy(reg, np.random.default_rng(5))
    path = tmp_path / "strategy.json"
    _write_json(path, dataclasses.asdict(strat))

    def refuse(scenario):
        raise AssertionError("the region was enumerated again")

    monkeypatch.setattr(core, "enumerate_regions", refuse)
    assert Strategy.load(path, reg) == strat


def test_strategy_fingerprint_mismatch(tmp_path):
    reg = enumerate_regions(tiny_scenario())
    strat = naive_strategy(reg, [1, 2, 0])
    path = tmp_path / "strategy.json"
    _write_json(path, dataclasses.asdict(strat))
    with pytest.raises(StrategyMismatchError):
        Strategy.load(path, enumerate_regions(demo_scenario()))


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
    }


def test_scenario_ignores_the_dropped_impatience_keys(tmp_path):
    # files written before alpha and beta were derived from each type carry
    # them; they load, and the keys change neither the scenario nor its hash
    data = demo_scenario().to_dict()
    plain, old = tmp_path / "plain.json", tmp_path / "old.json"
    _write_json(plain, data)
    for raw in data["slice_types"]:
        raw.update(balking_exponent=0.0417, reneging_rate=0.0417)
    _write_json(old, data)
    assert Scenario.load(old).to_dict() == Scenario.load(plain).to_dict()
    assert Scenario.load(old).fingerprint() == Scenario.load(plain).fingerprint()


def test_readme_scenario_example_is_the_demo():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Scenarios", 1)[1]
    example = section.split("```json", 1)[1].split("```", 1)[0]
    assert Scenario.from_dict(json.loads(example)).fingerprint() == demo_scenario().fingerprint()


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
                    "waiting_cost_rate", "utility_rate"):
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
