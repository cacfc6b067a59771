"""Multi-queue network-slice admission control toolkit.

Simulates a preference-driven admission controller over typed request
queues with impatient tenants, provides the matching single-queue
stationary analytics, embedded-chain strategy evaluation, fitting helpers
and reproducible experiment presets.
"""

__version__ = "0.1.0"

from .core import (
    Scenario,
    SliceType,
    Strategy,
    demo_scenario,
    enumerate_regions,
    naive_strategy,
    random_strategy,
    tiny_scenario,
)
from .controller import ControllerState, PendingRequest
from .engine import RunMetrics, SimConfig, isolated_queue_sim, run_replication
from .queueing import QueueParams
from .tenants import KnowledgeRegime

__all__ = [
    "ControllerState",
    "KnowledgeRegime",
    "PendingRequest",
    "QueueParams",
    "RunMetrics",
    "Scenario",
    "SimConfig",
    "SliceType",
    "Strategy",
    "demo_scenario",
    "enumerate_regions",
    "isolated_queue_sim",
    "naive_strategy",
    "random_strategy",
    "run_replication",
    "tiny_scenario",
]
