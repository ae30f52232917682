"""Fault-injection tests: crashed agents stall loudly, never lie."""

import random
import re

import pytest

from repro.colors import ColorSpace
from repro.core import Placement
from repro.core.elect import ElectAgent
from repro.errors import DeadlockError
from repro.fault.agents import FaultedAgent
from repro.graphs import complete_bipartite_graph, cycle_graph
from repro.sim import Agent, Log, Simulation, TryAcquire, WaitUntil
from repro.trace import MemorySink, ReplayScheduler, assert_invariants


def build_agents(count, crash_index=None, crash_after=50, crash_kind=None):
    space = ColorSpace()
    agents = []
    for i in range(count):
        agent = ElectAgent(space.fresh(), rng=random.Random(i))
        if i == crash_index:
            if crash_kind is not None:
                agent = FaultedAgent(agent, crash_on=crash_kind)
            else:
                agent = FaultedAgent(agent, crash_after=crash_after)
        agents.append(agent)
    return agents


class TestCrashFaults:
    def test_crash_mid_protocol_stalls_with_diagnostics(self):
        net = complete_bipartite_graph(2, 3)
        homes = [0, 1, 2, 3, 4]
        agents = build_agents(5, crash_index=0, crash_after=60)
        sim = Simulation(net, list(zip(agents, homes)))
        with pytest.raises(DeadlockError) as err:
            sim.run()
        assert "crashed" in str(err.value) or "waiting" in str(err.value)

    def test_deadlock_ok_reports_the_stall(self):
        net = complete_bipartite_graph(2, 3)
        homes = [0, 1, 2, 3, 4]
        # Crash inside MAP-DRAWING (well before the waiter-side protocol
        # finishes) so the stall is guaranteed.
        agents = build_agents(5, crash_index=1, crash_after=10)
        sim = Simulation(net, list(zip(agents, homes)), deadlock_ok=True)
        result = sim.run()
        assert result.deadlocked
        assert result.blocked_reasons

    def test_crash_at_first_acquire_stalls_matching(self):
        net = complete_bipartite_graph(2, 3)
        homes = [0, 1, 2, 3, 4]
        agents = build_agents(5, crash_index=0, crash_kind=TryAcquire)
        sim = Simulation(net, list(zip(agents, homes)), deadlock_ok=True)
        result = sim.run()
        assert result.deadlocked
        # Nobody produced a bogus leader report.
        from repro.core.result import AgentReport, Verdict

        leaders = [
            r
            for r in result.results
            if isinstance(r, AgentReport) and r.verdict is Verdict.LEADER
        ]
        assert leaders == []

    def test_crash_after_completion_is_harmless(self):
        # Crashing "after" more actions than the protocol takes: the agent
        # finishes normally first.
        net = cycle_graph(5)
        agents = build_agents(2, crash_index=0, crash_after=10_000)
        sim = Simulation(net, list(zip(agents, [0, 1])))
        result = sim.run()
        from repro.core.result import Verdict

        verdicts = sorted(r.verdict.value for r in result.results)
        assert verdicts == ["defeated", "leader"]

    def test_deadlock_error_names_the_blocked_waiters(self):
        # The diagnostic must identify *who* is stuck, not just that the
        # run stalled: the crashed agent by its crash reason, and every
        # healthy agent blocked waiting on it by index.
        net = complete_bipartite_graph(2, 3)
        homes = [0, 1, 2, 3, 4]
        agents = build_agents(5, crash_index=0, crash_after=10)
        sim = Simulation(net, list(zip(agents, homes)))
        with pytest.raises(DeadlockError) as err:
            sim.run()
        message = str(err.value)
        assert "agent 0" in message
        assert "crashed after 10 actions" in message
        named = set(re.findall(r"agent (\d+)", message))
        # Every healthy waiter is named alongside the crashed agent: the
        # whole team stalls inside round 1 once the searcher disappears.
        assert named == {"0", "1", "2", "3", "4"}, message

    def test_deadlocked_run_is_replayable(self):
        # deadlock_ok=True yields a deadlocked=True outcome whose trace
        # replays bit-for-bit: the stalled interleaving is reproducible.
        net = complete_bipartite_graph(2, 3)
        homes = [0, 1, 2, 3, 4]

        def run(scheduler=None):
            sink = MemorySink()
            agents = build_agents(5, crash_index=1, crash_after=10)
            sim = Simulation(
                net,
                list(zip(agents, homes)),
                scheduler=scheduler,
                deadlock_ok=True,
                trace=sink,
            )
            return sim.run(), sink

        result, recorded = run()
        assert result.deadlocked
        assert result.blocked_reasons
        assert recorded.events, "deadlocked run must still produce a trace"
        assert_invariants(recorded.events, header=recorded.header)

        replayed_result, replayed = run(
            scheduler=ReplayScheduler.from_events(recorded.events)
        )
        assert replayed_result.deadlocked
        assert replayed_result.blocked_reasons == result.blocked_reasons
        assert [e.to_dict() for e in recorded.events] == [
            e.to_dict() for e in replayed.events
        ]

    def test_spurious_wakeup_cannot_resurrect_a_crashed_agent(self):
        # A crash wrapper that asserted (unreachably, it believed) that its
        # dead wait was never satisfied turned a board change satisfying a
        # predicate into an AssertionError.  FaultedAgent re-yields the
        # dead wait forever instead.
        class ChattyAgent(Agent):
            def protocol(self, start):
                yield Log("a", ())
                yield Log("b", ())
                return "done"

        space = ColorSpace()
        wrapped = FaultedAgent(ChattyAgent(space.fresh()), crash_after=1)
        gen = wrapped.protocol(None)
        first = next(gen)
        assert isinstance(first, Log)
        # The crash fires before the second action; from here on every
        # resumption (spurious or not) yields the same dead wait.
        for send_value in (None, object(), "satisfied-view"):
            action = gen.send(send_value)
            assert isinstance(action, WaitUntil)
            assert not action.predicate(send_value)
            assert "crashed after 1 actions" in action.reason

    def test_crash_on_failure_path_does_not_matter(self):
        # gcd > 1: every agent decides failure from its own map; one agent
        # crashing during map drawing stalls only itself... map drawing is
        # solo, so others still finish.  The run as a whole stalls only on
        # the crashed agent.
        net = cycle_graph(6)
        agents = build_agents(2, crash_index=0, crash_after=5)
        sim = Simulation(net, list(zip(agents, [0, 3])), deadlock_ok=True)
        result = sim.run()
        assert result.deadlocked
        from repro.core.result import AgentReport, Verdict

        # The healthy agent reached its (correct) failure verdict.
        healthy = result.results[1]
        assert isinstance(healthy, AgentReport)
        assert healthy.verdict is Verdict.FAILED
