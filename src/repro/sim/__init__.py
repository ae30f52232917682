"""Asynchronous mobile-agent simulation substrate."""

from .actions import (
    Action,
    Erase,
    Log,
    Move,
    NodeView,
    Read,
    TryAcquire,
    WaitUntil,
    Write,
)
from .agent import Agent, ProtocolGen
from .runtime import AgentState, Simulation, SimulationResult, run_agents
from .scheduler import (
    BiasedScheduler,
    GreedyAgentScheduler,
    PCTScheduler,
    RandomScheduler,
    RecordingScheduler,
    RoundRobinScheduler,
    Scheduler,
    SchedulerDecorator,
    default_scheduler_suite,
)
from .signs import Sign, distinct_colors, signs_of_kind
from .traversal import LocalMap, Navigator, draw_map, draw_map_frontier
from .whiteboard import Whiteboard

__all__ = [
    "Action",
    "Move",
    "Read",
    "Write",
    "Erase",
    "TryAcquire",
    "WaitUntil",
    "Log",
    "NodeView",
    "Agent",
    "ProtocolGen",
    "AgentState",
    "Simulation",
    "SimulationResult",
    "run_agents",
    "Scheduler",
    "SchedulerDecorator",
    "PCTScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "GreedyAgentScheduler",
    "BiasedScheduler",
    "RecordingScheduler",
    "default_scheduler_suite",
    "Sign",
    "signs_of_kind",
    "distinct_colors",
    "Whiteboard",
    "LocalMap",
    "Navigator",
    "draw_map",
    "draw_map_frontier",
]
