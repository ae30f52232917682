"""Crash-fault agent wrappers.

A *crash* in the whiteboard model is an agent that stops taking effective
steps forever: it neither terminates nor acts, which from every other
agent's perspective is indistinguishable from being arbitrarily slow
(asynchrony) — until nothing else can make progress either, at which point
the runtime classifies the stall.  :class:`FaultedAgent` wraps any
:class:`~repro.sim.agent.Agent` and injects that behavior at a declaratively
chosen moment: after a fixed number of actions (``crash_after``) or at the
first action of a given kind (``crash_on``).

Two design points that matter for recovery:

* the dead wait is **re-yielded forever** — a spurious wake-up (a board
  change that happens to satisfy some predicate) can never resurrect a
  crashed agent, nor reach an unreachable-code assertion;
* the crash fires **once** (``crashed`` is a consumed flag) — when the
  watchdog restarts the agent from its home-base checkpoint, the fresh
  ``protocol()`` generator runs the inner protocol clean, which is exactly
  the fault model "the agent failed and was restarted".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from ..sim.actions import (
    Erase,
    Log,
    Move,
    NodeView,
    Read,
    TryAcquire,
    WaitUntil,
    Write,
)
from ..sim.agent import Agent, ProtocolGen

#: Picklable names for the action kinds a :class:`FaultedAgent` can target
#: (fault plans are shipped to worker processes; classes stay local).
ACTION_KINDS: Dict[str, type] = {
    "move": Move,
    "read": Read,
    "write": Write,
    "erase": Erase,
    "try-acquire": TryAcquire,
    "wait-until": WaitUntil,
    "log": Log,
}


def resolve_action_kind(kind: Union[str, type]) -> type:
    """Map a kind name (or an action class, passed through) to its class."""
    if isinstance(kind, type):
        return kind
    try:
        return ACTION_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown action kind {kind!r}; expected one of "
            f"{sorted(ACTION_KINDS)}"
        ) from None


class FaultedAgent(Agent):
    """Run the wrapped agent's protocol, crashing at the configured moment.

    Parameters
    ----------
    inner:
        The agent to wrap (color and rng are inherited).
    crash_after:
        Crash once this many inner actions have executed.
    crash_on:
        Crash at the first inner action of this kind (class or name from
        :data:`ACTION_KINDS`).  May be combined with ``crash_after``:
        whichever trigger fires first wins.
    on_fire:
        Optional callback ``(agent, reason)`` invoked when the crash fires —
        the fault plan uses it to journal the injection.
    """

    def __init__(
        self,
        inner: Agent,
        crash_after: Optional[int] = None,
        crash_on: Optional[Union[str, type]] = None,
        on_fire: Optional[Callable[["FaultedAgent", str], None]] = None,
    ):
        super().__init__(inner.color, rng=inner.rng)
        self.inner = inner
        self.crash_after = crash_after
        self.crash_on = resolve_action_kind(crash_on) if crash_on else None
        #: Consumed flag: a restarted agent runs the inner protocol clean.
        self.crashed = False
        self._on_fire = on_fire

    # The runtime hands observability objects to ``rec.agent`` (this
    # wrapper) but the inner protocol is what actually keeps a PhaseClock;
    # forward both directions so fault injection is invisible to metrics.
    @property
    def obs_registry(self) -> Any:
        return getattr(self.inner, "obs_registry", None)

    @obs_registry.setter
    def obs_registry(self, value: Any) -> None:
        self.inner.obs_registry = value

    @property
    def obs_clock(self) -> Any:
        return getattr(self.inner, "obs_clock", None)

    def _crash_reason(self) -> str:
        # Keep the exact legacy diagnostic strings: deadlock messages quote
        # them, and the PR-1 tests assert on them.
        if self.crash_on is not None:
            return f"agent crashed at first {self.crash_on.__name__}"
        return f"agent crashed after {self.crash_after} actions"

    def _should_crash(self, action: Any, taken: int) -> bool:
        if self.crashed:
            return False
        if self.crash_after is not None and taken >= self.crash_after:
            return True
        return self.crash_on is not None and isinstance(action, self.crash_on)

    def protocol(self, start: NodeView) -> ProtocolGen:
        gen = self.inner.protocol(start)
        taken = 0
        send_value: Any = None
        while True:
            try:
                action = gen.send(send_value)
            except StopIteration as stop:
                return stop.value
            if self._should_crash(action, taken):
                self.crashed = True
                reason = self._crash_reason()
                if self._on_fire is not None:
                    self._on_fire(self, reason)
                while True:
                    # Re-yield the dead wait forever: even if a board change
                    # spuriously satisfies a predicate and the runtime wakes
                    # us, a crashed agent stays crashed.
                    yield WaitUntil(lambda view: False, reason=reason)
            taken += 1
            send_value = yield action

    def __repr__(self) -> str:
        trigger = (
            f"crash_on={self.crash_on.__name__}"
            if self.crash_on is not None
            else f"crash_after={self.crash_after}"
        )
        return f"FaultedAgent({self.inner!r}, {trigger})"
