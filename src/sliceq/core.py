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
    balking_exponent: float = 0.0
    reneging_rate: float = 0.0

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
        if not (0 <= self.balking_exponent < math.inf and 0 <= self.reneging_rate < math.inf):
            raise InvalidInputError("impatience rates must be finite and non-negative")

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
                    "balking_exponent": st.balking_exponent,
                    "reneging_rate": st.reneging_rate,
                }
                for st in self.slice_types
            ],
        }

    def fingerprint(self) -> str:
        """Stable hash of the scenario contents, stored in strategy files."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

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
                        balking_exponent=float(raw.get("balking_exponent", 0.0)),
                        reneging_rate=float(raw.get("reneging_rate", 0.0)),
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
    """Bundled two-type scenario used by the experiment presets.

    Two complementary slice types on a normalized two-resource pool. The
    impatience parameters are the exponential-model equivalents of rational
    tenants with exponential lifetimes: beta = eta * u / zeta, and alpha set
    to the same value.
    """
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
                balking_exponent=0.2 * 1.0 / 8.0,
                reneging_rate=0.2 * 1.0 / 8.0,
            ),
            SliceType(
                cost=(0.05, 0.01),
                arrival_rate=10.0,
                release_rate=1.0 / 3.0,
                issue_cost=0.0,
                waiting_cost_rate=1.5,
                profit_rate=12.0,
                balking_exponent=(1.0 / 3.0) * 1.5 / 12.0,
                reneging_rate=(1.0 / 3.0) * 1.5 / 12.0,
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

    ``feasible`` lists every feasible state with the admissible states first;
    both blocks are lexicographically sorted. This makes the feasible index of
    an admissible state equal to its admissible index, which is what lets
    strategy columns and transition-matrix rows share positions.
    """

    feasible: list[tuple[int, ...]]
    admissible: list[tuple[int, ...]]
    scenario_fingerprint: str
    _feasible_index: dict = field(repr=False)
    # next_feasible[i][t] is the feasible index reached by adding one type-t
    # slice to state i, or -1 when that is infeasible.
    next_feasible: list[list[int]] = field(repr=False)
    prev_feasible: list[list[int]] = field(repr=False)

    @property
    def n_feasible(self) -> int:
        return len(self.feasible)

    @property
    def n_admissible(self) -> int:
        return len(self.admissible)

    def feasible_index(self, state) -> int:
        try:
            return self._feasible_index[tuple(state)]
        except KeyError:
            raise InvalidInputError(f"state {tuple(state)} is not feasible")

    def is_admissible_index(self, index: int) -> bool:
        return index < self.n_admissible

    def state(self, index: int) -> tuple[int, ...]:
        return self.feasible[index]


def enumerate_regions(scenario: Scenario) -> RegionIndex:
    """Enumerate every feasible state and the admissible subset.

    Raises UnboundedRegionError when some slice type consumes no resource at
    all, since the state space would then be infinite.
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

    all_states = sorted(seen)
    admissible, boundary = [], []
    for s in all_states:
        if any(s[:t] + (s[t] + 1,) + s[t + 1:] in seen for t in range(n)):
            admissible.append(s)
        else:
            boundary.append(s)

    ordered = admissible + boundary
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
        admissible=list(admissible),
        scenario_fingerprint=scenario.fingerprint(),
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

    def column(self, admissible_index: int) -> tuple[int, ...]:
        return self.columns[admissible_index]

    def check_scenario(self, scenario: Scenario) -> None:
        if scenario.fingerprint() != self.scenario_fingerprint:
            raise StrategyMismatchError(
                "strategy was generated for a different scenario"
            )

    @classmethod
    def load(cls, path, scenario: Scenario | None = None) -> "Strategy":
        """Read a strategy file; with ``scenario``, also check that it was made
        for that scenario and has one permutation of 0..N per admissible state."""
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
        if scenario is not None:
            strat.check_scenario(scenario)
            n_admissible = enumerate_regions(scenario).n_admissible
            if len(strat.columns) != n_admissible:
                raise InvalidInputError(f"strategy has {len(strat.columns)} columns, "
                                        f"the scenario {n_admissible} admissible states")
            for col in strat.columns:
                validate_preference(col, scenario.n_types)
        return strat


def naive_strategy(region: RegionIndex, order) -> Strategy:
    """Strategy that applies the same preference vector in every state."""
    n_types = len(region.feasible[0])
    vec = validate_preference(order, n_types)
    return Strategy(
        columns=(vec,) * region.n_admissible,
        scenario_fingerprint=region.scenario_fingerprint,
    )


def random_strategy(region: RegionIndex, rng, reserve_last: bool = True) -> Strategy:
    """Independent uniform preference vector per admissible state.

    With ``reserve_last`` the reserve element 0 is pinned to the end of every
    column, so some queue is always considered before reserving.
    """
    n_types = len(region.feasible[0])
    first = 1 if reserve_last else 0
    # one row shuffle per state, in order: the draws of one rng.permutation
    # per state, made in a single call
    rows = rng.permuted(np.tile(np.arange(first, n_types + 1), (region.n_admissible, 1)), axis=1)
    reserve = (0,) if reserve_last else ()
    return Strategy(columns=tuple(tuple(row) + reserve for row in rows.tolist()),
                    scenario_fingerprint=region.scenario_fingerprint)
