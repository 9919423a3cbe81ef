"""Future-work extensions: scale-free SMP, asynchronous schedules, stubborn agents."""

from .asynchrony import (
    AsyncRobustness,
    async_robustness,
    derive_schedule_root,
    order_sensitivity,
)
from .scale_free import (
    SCALE_FREE_STRATEGIES,
    ScaleFreeCell,
    ScaleFreeCensus,
    ScaleFreeOutcome,
    barabasi_albert_topology,
    run_scale_free_experiment,
    scale_free_takeover_census,
    seed_vertices,
)
from .stubborn import StubbornOutcome, stubborn_blockade, stubborn_core_experiment

__all__ = [
    "SCALE_FREE_STRATEGIES",
    "ScaleFreeCell",
    "ScaleFreeCensus",
    "ScaleFreeOutcome",
    "AsyncRobustness",
    "async_robustness",
    "derive_schedule_root",
    "order_sensitivity",
    "barabasi_albert_topology",
    "seed_vertices",
    "run_scale_free_experiment",
    "scale_free_takeover_census",
    "StubbornOutcome",
    "stubborn_blockade",
    "stubborn_core_experiment",
]
