"""Resource pool, slice types, feasibility/admissibility regions and
preference-matrix strategies.

States are plain tuples of per-type active-slice counts. The region index
enumerates every feasible state, orders the admissible ones first (so that
strategy columns and transition-matrix rows share one indexing scheme) and
precomputes single-slice transition tables for the controller.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, StrategyMismatchError, UnboundedRegionError

# Absolute slack on r_m - a_m when testing feasibility. Decimal cost fractions
# (0.01, 0.05, ...) are not exact binary floats; the slack keeps region counts
# independent of summation order.
FEASIBILITY_SLACK = 1e-9

# Largest region enumerate_regions builds: 198,253 states (three types on one
# resource, costs (c, c, 2c), c = 1/131) took 3.2-3.8 s at a peak RSS of 123 MB
# on a 2-vCPU Xeon, and regions grow with 1/c cubed. The largest region that a
# test or the benchmark builds has 7,293 states.
MAX_REGION_STATES = 200_000


@dataclass(frozen=True)
class SliceType:
    """Parameters of one slice type.

    ``cost`` is the per-slice resource bundle (length M), rates are per
    operations period. ``utility_rate`` defaults to ``waiting_cost_rate``
    when not given.
    """

    cost: tuple[float, ...]
    arrival_rate: float
    release_rate: float
    issue_cost: float = 0.0
    waiting_cost_rate: float = 1.0
    profit_rate: float = 1.0
    utility_rate: float | None = None

    def __post_init__(self):
        # each range is written so that NaN fails it too
        if len(self.cost) < 1:
            raise InvalidInputError("cost vector must have at least one entry")
        if not all(0 <= c < math.inf for c in self.cost):
            raise InvalidInputError("cost entries must be finite and non-negative")
        if not 0 < self.arrival_rate < math.inf:
            raise InvalidInputError("arrival_rate must be positive and finite")
        if not 0 < self.release_rate < math.inf:
            raise InvalidInputError("release_rate must be positive and finite")
        if not 0 < self.profit_rate < math.inf:
            raise InvalidInputError("profit_rate must be positive and finite")
        if not (0 <= self.issue_cost < math.inf and 0 <= self.waiting_cost_rate < math.inf):
            raise InvalidInputError("costs must be finite and non-negative")
        if self.utility_rate is not None and not 0 <= self.utility_rate < math.inf:
            raise InvalidInputError("utility_rate must be finite and non-negative")

    @property
    def mean_lifetime(self) -> float:
        return 1.0 / self.release_rate

    @property
    def effective_utility_rate(self) -> float:
        return self.waiting_cost_rate if self.utility_rate is None else self.utility_rate


@dataclass(frozen=True)
class Scenario:
    """A resource pool plus the catalogue of slice types competing for it."""

    resources: tuple[float, ...]
    slice_types: tuple[SliceType, ...]

    def __post_init__(self):
        if len(self.resources) < 1:
            raise InvalidInputError("need at least one resource dimension")
        if not all(0 <= r < math.inf for r in self.resources):
            # an infinite capacity would make the region infinite
            raise InvalidInputError("resource capacities must be finite and non-negative")
        if len(self.slice_types) < 1:
            raise InvalidInputError("need at least one slice type")
        m = len(self.resources)
        for st in self.slice_types:
            if len(st.cost) != m:
                raise InvalidInputError(
                    f"cost vector length {len(st.cost)} != resource count {m}"
                )
        # hashed once: every replication checks its strategy against it
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        object.__setattr__(self, "_fingerprint", hashlib.sha256(blob.encode()).hexdigest())

    @property
    def n_types(self) -> int:
        return len(self.slice_types)

    def cost_matrix(self) -> np.ndarray:
        """M x N matrix whose columns are the per-type cost bundles."""
        return np.array([st.cost for st in self.slice_types], dtype=float).T

    def to_dict(self) -> dict:
        return {
            "resources": list(self.resources),
            "slice_types": [
                {
                    "cost": list(st.cost),
                    "arrival_rate": st.arrival_rate,
                    "mean_lifetime": st.mean_lifetime,
                    "issue_cost": st.issue_cost,
                    "waiting_cost_rate": st.waiting_cost_rate,
                    "profit_rate": st.profit_rate,
                    "utility_rate": st.effective_utility_rate,
                }
                for st in self.slice_types
            ],
        }

    def fingerprint(self) -> str:
        """Stable hash of the scenario contents, stored in strategy files."""
        return self._fingerprint

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise InvalidInputError("a scenario is a JSON object")
        try:
            resources = tuple(float(r) for r in data["resources"])
            types = []
            for raw in data["slice_types"]:
                mean_lifetime = float(raw["mean_lifetime"])
                if mean_lifetime <= 0:
                    raise InvalidInputError("mean_lifetime must be positive")
                types.append(
                    SliceType(
                        cost=tuple(float(c) for c in raw["cost"]),
                        arrival_rate=float(raw["arrival_rate"]),
                        release_rate=1.0 / mean_lifetime,
                        issue_cost=float(raw.get("issue_cost", 0.0)),
                        waiting_cost_rate=float(raw.get("waiting_cost_rate", 1.0)),
                        profit_rate=float(raw["profit_rate"]),
                        utility_rate=(
                            float(raw["utility_rate"])
                            if raw.get("utility_rate") is not None
                            else None
                        ),
                    )
                )
        except KeyError as exc:
            raise InvalidInputError(f"scenario is missing key {exc}") from exc
        except (TypeError, ValueError) as exc:  # a bad value names itself
            raise InvalidInputError(f"scenario has a malformed value: {exc}") from exc
        return cls(resources=resources, slice_types=tuple(types))

    @classmethod
    def load(cls, path) -> "Scenario":
        return cls.from_dict(_load_json(path))


def demo_scenario() -> Scenario:
    """Bundled two-type scenario used by the experiment presets: two
    complementary slice types on a normalized two-resource pool."""
    return Scenario(
        resources=(1.0, 1.0),
        slice_types=(
            SliceType(
                cost=(0.01, 0.05),
                arrival_rate=6.0,
                release_rate=1.0 / 5.0,
                issue_cost=0.0,
                waiting_cost_rate=1.0,
                profit_rate=8.0,
            ),
            SliceType(
                cost=(0.05, 0.01),
                arrival_rate=10.0,
                release_rate=1.0 / 3.0,
                issue_cost=0.0,
                waiting_cost_rate=1.5,
                profit_rate=12.0,
            ),
        ),
    )


def tiny_scenario() -> Scenario:
    """Single-resource scenario with one big and one small slice type."""
    return Scenario(
        resources=(1.0,),
        slice_types=(
            SliceType(
                cost=(0.6,),
                arrival_rate=1.0,
                release_rate=0.5,
                waiting_cost_rate=1.0,
                profit_rate=4.0,
            ),
            SliceType(
                cost=(0.2,),
                arrival_rate=2.0,
                release_rate=1.0,
                waiting_cost_rate=1.0,
                profit_rate=2.0,
            ),
        ),
    )


BUILTIN_SCENARIOS = {"demo": demo_scenario, "tiny": tiny_scenario}


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise InvalidInputError(f"{path} is not a JSON file: {exc}") from exc


@dataclass
class RegionIndex:
    """Complete enumeration of the feasible and admissible regions.

    ``feasible`` lists every feasible state, the ``n_admissible`` admissible
    ones first; both blocks are lexicographically sorted. So the feasible
    index of an admissible state is its admissible index, which lets strategy
    columns and transition-matrix rows share positions.
    """

    feasible: list[tuple[int, ...]]
    n_admissible: int
    scenario_fingerprint: str
    # loads[i] is the resource bundle that state i assigns (one row per state)
    loads: np.ndarray = field(repr=False)
    _feasible_index: dict = field(repr=False)
    # next_feasible[i][t] is the feasible index reached by adding one type-t
    # slice to state i, or -1 when that is infeasible.
    next_feasible: list[list[int]] = field(repr=False)
    prev_feasible: list[list[int]] = field(repr=False)

    @property
    def n_feasible(self) -> int:
        return len(self.feasible)

    def feasible_index(self, state) -> int:
        try:
            return self._feasible_index[tuple(state)]
        except KeyError:
            raise InvalidInputError(f"state {tuple(state)} is not feasible")


def enumerate_regions(scenario: Scenario) -> RegionIndex:
    """Enumerate every feasible state and the admissible subset.

    Raises UnboundedRegionError when some slice type consumes no resource at
    all, since the state space would then be infinite, and when the region
    has more than MAX_REGION_STATES states.
    """
    n = scenario.n_types
    costs = scenario.cost_matrix()
    r = np.asarray(scenario.resources, dtype=float)
    for t in range(n):
        if not (costs[:, t] > 0).any():
            raise UnboundedRegionError(
                f"slice type {t + 1} has an all-zero cost vector"
            )

    def feasible(vec) -> bool:
        return bool(np.all(r - costs @ np.asarray(vec, dtype=float) >= -FEASIBILITY_SLACK))

    zero = (0,) * n
    if not feasible(zero):
        # Cannot happen with non-negative capacities, kept as a guard.
        raise InvalidInputError("empty state is infeasible")

    seen = {zero}
    stack = [zero]
    while stack:
        s = stack.pop()
        for t in range(n):
            child = s[:t] + (s[t] + 1,) + s[t + 1:]
            if child not in seen and feasible(child):
                seen.add(child)
                stack.append(child)
        if len(seen) > MAX_REGION_STATES:
            raise UnboundedRegionError(f"the region has more than {MAX_REGION_STATES} states")

    boundary = {s for s in seen
                if not any(s[:t] + (s[t] + 1,) + s[t + 1:] in seen for t in range(n))}
    ordered = sorted(seen, key=lambda s: (s in boundary, s))
    index = {s: i for i, s in enumerate(ordered)}
    nxt, prv = [], []
    for s in ordered:
        row_n, row_p = [], []
        for t in range(n):
            up = s[:t] + (s[t] + 1,) + s[t + 1:]
            row_n.append(index.get(up, -1))
            if s[t] > 0:
                down = s[:t] + (s[t] - 1,) + s[t + 1:]
                row_p.append(index[down])
            else:
                row_p.append(-1)
        nxt.append(row_n)
        prv.append(row_p)

    return RegionIndex(
        feasible=ordered,
        n_admissible=len(seen) - len(boundary),
        scenario_fingerprint=scenario.fingerprint(),
        loads=np.asarray(ordered, dtype=float) @ costs.T,
        _feasible_index=index,
        next_feasible=nxt,
        prev_feasible=prv,
    )


def validate_preference(order, n_types: int) -> tuple[int, ...]:
    """Check that ``order`` is a permutation of {0, 1, ..., N}."""
    vec = tuple(int(x) for x in order)
    if sorted(vec) != list(range(n_types + 1)):
        raise InvalidInputError(
            f"preference vector {vec} is not a permutation of 0..{n_types}"
        )
    return vec


@dataclass(frozen=True)
class Strategy:
    """Preference matrix: one preference vector per admissible state."""

    columns: tuple[tuple[int, ...], ...]
    scenario_fingerprint: str

    def check_scenario(self, scenario: Scenario) -> None:
        if scenario.fingerprint() != self.scenario_fingerprint:
            raise StrategyMismatchError(
                "strategy was generated for a different scenario"
            )

    @classmethod
    def load(cls, path, region: RegionIndex) -> "Strategy":
        """Read a strategy file and check that it was made for the region's
        scenario and has one permutation of 0..N per admissible state."""
        data = _load_json(path)
        try:
            strat = cls(
                columns=tuple(tuple(int(x) for x in col) for col in data["columns"]),
                scenario_fingerprint=data["scenario_fingerprint"],
            )
        except KeyError as exc:
            raise InvalidInputError(f"strategy file is missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"strategy file has a malformed value: {exc}") from exc
        if strat.scenario_fingerprint != region.scenario_fingerprint:
            raise StrategyMismatchError("strategy was generated for a different scenario")
        if len(strat.columns) != region.n_admissible:
            raise InvalidInputError(f"strategy has {len(strat.columns)} columns, "
                                    f"the scenario {region.n_admissible} admissible states")
        for col in strat.columns:
            validate_preference(col, len(region.feasible[0]))
        return strat


def naive_strategy(region: RegionIndex, order) -> Strategy:
    """Strategy that applies the same preference vector in every state."""
    n_types = len(region.feasible[0])
    vec = validate_preference(order, n_types)
    return Strategy(
        columns=(vec,) * region.n_admissible,
        scenario_fingerprint=region.scenario_fingerprint,
    )


def random_strategy(region: RegionIndex, rng) -> Strategy:
    """Independent uniform preference vector per admissible state, with the
    reserve element 0 pinned to the end of every column, so some queue is
    always considered before reserving.
    """
    n_types = len(region.feasible[0])
    # one row shuffle per state, in order: the draws of one rng.permutation
    # per state, made in a single call
    rows = rng.permuted(np.tile(np.arange(1, n_types + 1), (region.n_admissible, 1)), axis=1)
    return Strategy(columns=tuple(tuple(row) + (0,) for row in rows.tolist()),
                    scenario_fingerprint=region.scenario_fingerprint)
