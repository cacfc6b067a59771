"""Heterogeneous multi-queue FCFS admission controller and its baseline.

One FIFO queue per slice type. After every release or arrival the controller
walks the preference vector of its current state, accepting the head of each
non-empty queue whose slice still fits, and repeats until a full pass changes
nothing or the state leaves the admissibility region. The reserve element 0
cuts the walk short: types ranked after it are never served.

The baseline the controller is judged against keeps every type in one mixed
FIFO queue and has no strategy: the head is accepted while its slice fits,
whatever the admissibility region says, and a head that does not fit blocks
everything behind it.

The controller decides only what it admits. Whether an arriving tenant joins
its queue (its balking rule) and whether the queue's cap refuses it are
settled by the caller, the event loop, before the request reaches
``on_request``.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .core import RegionIndex, Strategy
from .errors import InvalidInputError, ProtocolViolationError


@dataclass(slots=True, eq=False)
class PendingRequest:
    """One queued slice request with its realized lifetime and economics.

    Requests compare by identity: a queue finds one with ``deque.index``."""

    request_id: int
    slice_type: int  # 1-based, matching preference-vector entries
    enter_time: float
    lifetime: float
    issue_cost: float
    waiting_cost_rate: float
    profit_rate: float
    entry_queue_length: int = 0
    # set once the request is accepted or reneges
    done: bool = field(default=False, repr=False)

    def __post_init__(self):
        if self.lifetime <= 0:
            raise InvalidInputError("lifetime must be positive")
        if self.enter_time < 0:
            raise InvalidInputError("enter_time must be non-negative")


@dataclass
class ControllerState:
    """Mutable controller state: active-slice vector plus the request queues.

    ``queues`` holds one queue per slice type by default, or a single queue
    that every type shares (the mixed baseline). ``queue_index[t]`` is the
    queue a request of type t + 1 waits in. Owned by a single simulation
    replication; the region index provides O(1) state-transition lookups.
    """

    region: RegionIndex
    state_index: int = 0
    queues: list[deque] = field(default_factory=list)
    queue_index: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.region.feasible[0])
        if not self.queues:
            self.queues = [deque() for _ in range(n)]
        self.queue_index = [0] * n if len(self.queues) == 1 else list(range(n))

    @property
    def state(self) -> tuple[int, ...]:
        return self.region.feasible[self.state_index]


def serve_queues(ctrl: ControllerState, strategy: Strategy) -> list[PendingRequest]:
    """Serve the queues to quiescence and return the accepted requests.

    Each pass reads the preference column of the state at pass start; within
    the pass, feasibility is checked against the live state after every
    acceptance. The pass walk stops at the reserve element. Passes repeat
    until nothing changes or the state leaves the admissibility region.
    """
    n_admissible, next_feasible = ctrl.region.n_admissible, ctrl.region.next_feasible
    queues, columns, index = ctrl.queues, strategy.columns, ctrl.state_index
    accepted: list[PendingRequest] = []
    while index < n_admissible:
        column = columns[index]
        changed = False
        for pref in column:
            if pref == 0:
                break
            queue = queues[pref - 1]
            if not queue:
                continue
            target = next_feasible[index][pref - 1]
            if target < 0:
                continue
            req = queue.popleft()
            req.done = True
            index = target
            accepted.append(req)
            changed = True
        if not changed:
            break
    ctrl.state_index = index
    return accepted


def serve_mixed_queue(ctrl: ControllerState) -> list[PendingRequest]:
    """Serve the single mixed queue and return the accepted requests."""
    if len(ctrl.queues) != 1:
        raise InvalidInputError("the mixed queue needs a controller with a single queue")
    queue = ctrl.queues[0]
    next_feasible = ctrl.region.next_feasible
    accepted: list[PendingRequest] = []
    while queue:
        target = next_feasible[ctrl.state_index][queue[0].slice_type - 1]
        if target < 0:
            break
        req = queue.popleft()
        req.done = True
        ctrl.state_index = target
        accepted.append(req)
    return accepted


def on_release(ctrl: ControllerState, strategy: Strategy | None,
               slice_type: int) -> list[PendingRequest]:
    """Release one active slice of the given type, then serve the queues;
    a ``None`` strategy serves the single mixed queue."""
    t = slice_type - 1
    prev = ctrl.region.prev_feasible[ctrl.state_index][t]
    if prev < 0:
        raise ProtocolViolationError(
            f"no active type-{slice_type} slice to release in state {ctrl.state}"
        )
    ctrl.state_index = prev
    if strategy is None:
        return serve_mixed_queue(ctrl)
    return serve_queues(ctrl, strategy)


def on_request(ctrl: ControllerState, strategy: Strategy | None,
               req: PendingRequest) -> list[PendingRequest]:
    """Append a joining request to its queue, serve the queues and return the
    accepted requests; ``req.done`` tells whether it is one of them. A
    ``None`` strategy serves the single mixed queue.

    The per-type queues are served to quiescence after every arrival and
    release, and reneges only empty them, so a queue that already holds a
    request has a head that does not fit or is ranked after the reserve
    element: an arrival behind it leaves nothing to serve.
    """
    t = req.slice_type - 1
    if t < 0 or t >= len(ctrl.queue_index):
        raise InvalidInputError(f"slice type {req.slice_type} out of range")
    queue = ctrl.queues[ctrl.queue_index[t]]
    queue.append(req)
    req.entry_queue_length = len(queue)
    if strategy is None:
        return serve_mixed_queue(ctrl)
    if len(queue) > 1:
        return []
    return serve_queues(ctrl, strategy)
