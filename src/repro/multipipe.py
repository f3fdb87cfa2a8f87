"""Multi-pipeline switches.

Section 4: "if there are multiple line cards with distinct register
state, a separate instance of the Mantis agent will run for each";
Section 6: "if the switch contains multiple disjoint linecards or
pipelines, these can be handled by spawning multiple Mantis agent
threads, each handling its own component."

:class:`MultiPipelineSwitch` instantiates one compiled program N times
-- each pipeline is a full :class:`~repro.system.MantisSystem` (its own
ASIC state, driver, fault injector, agent) on a single shared simulated
clock, and every other keyword argument is forwarded to each system,
so every system-level knob (``retry_policy``, ``fault_plan``,
``verify_commits``, ``record_timeline``, ``seed``) works per pipeline
exactly as it does on a single-pipeline switch.  Agent "threads" are
modelled by interleaving dialogue iterations round-robin (each
iteration advances the shared clock by its own cost; with a real
multicore CPU they would overlap, so the interleaved model is a
conservative latency bound) -- or, via :meth:`spawn_agents`, as actors
on a :class:`~repro.runtime.Scheduler` timeline shared with packet
events and other switches.

Mantis deliberately provides no cross-pipeline isolation (Section 5);
the tests demonstrate both the per-pipeline guarantees and the absence
of cross-pipeline ones.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Mapping, Optional, Union

from repro.agent.agent import ReactionContext
from repro.compiler.spec import CompiledArtifacts
from repro.compiler.transform import CompilerOptions, compile_p4r
from repro.errors import AgentError
from repro.p4r.ast import P4RProgram
from repro.runtime import AgentActor, Scheduler
from repro.switch.clock import SimClock
from repro.system import MantisSystem


class MultiPipelineSwitch:
    """N pipelines of one program on a shared clock.

    ``pipelines`` holds one :class:`MantisSystem` per pipeline, built
    with ``system_kwargs``.  ``fault_plan`` may be a single
    :class:`~repro.faults.FaultPlan` (armed on every pipeline --
    injector state lives outside the plan, so sharing is safe) or a
    mapping ``{pipeline index: plan}`` to target specific pipelines.
    ``seed`` offsets the per-pipeline ASIC seeds (pipeline ``i`` gets
    ``seed + i``), keeping the historical default of seed-by-index at
    ``seed=0``.
    """

    def __init__(
        self,
        artifacts: CompiledArtifacts,
        n_pipelines: int = 2,
        clock: Optional[SimClock] = None,
        seed: int = 0,
        fault_plan=None,
        **system_kwargs,
    ):
        if n_pipelines < 1:
            raise AgentError("need at least one pipeline")
        self.artifacts = artifacts
        self.clock = clock or SimClock()
        # Each pipeline owns its program instance so runtime state
        # (entries, registers) is fully disjoint; the rest of the
        # artifact bundle (spec, sources) is immutable and shared.
        self.pipelines: List[MantisSystem] = [
            MantisSystem(
                replace(artifacts, p4=artifacts.p4.clone()),
                clock=self.clock,
                seed=seed + index,
                fault_plan=self._plan_for(fault_plan, index),
                **system_kwargs,
            )
            for index in range(n_pipelines)
        ]

    @staticmethod
    def _plan_for(fault_plan, index: int):
        if fault_plan is None:
            return None
        if isinstance(fault_plan, Mapping):
            return fault_plan.get(index)
        return fault_plan

    @classmethod
    def from_source(
        cls,
        source_or_program: Union[str, P4RProgram],
        n_pipelines: int = 2,
        options: Optional[CompilerOptions] = None,
        **kwargs,
    ) -> "MultiPipelineSwitch":
        artifacts = compile_p4r(source_or_program, options)
        return cls(artifacts, n_pipelines=n_pipelines, **kwargs)

    def __len__(self) -> int:
        return len(self.pipelines)

    def __getitem__(self, index: int) -> MantisSystem:
        return self.pipelines[index]

    def prologue(self) -> None:
        """Run every pipeline's agent prologue."""
        for pipeline in self.pipelines:
            pipeline.agent.prologue()

    def attach_python(
        self,
        reaction_name: str,
        factory: Callable[[MantisSystem], Callable[[ReactionContext], None]],
    ) -> None:
        """Attach per-pipeline reaction implementations.

        ``factory(system)`` builds one callable per pipeline, so each
        agent instance carries its own closure state (the per-line-card
        agent instances of Section 4).
        """
        for pipeline in self.pipelines:
            pipeline.agent.attach_python(reaction_name, factory(pipeline))

    def run_round(self) -> float:
        """One round-robin pass: each agent runs one dialogue
        iteration.  Returns the total busy time of the round."""
        total = 0.0
        for pipeline in self.pipelines:
            total += pipeline.agent.run_iteration()
        return total

    def run_rounds(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

    def spawn_agents(
        self,
        scheduler: Scheduler,
        period_us: Optional[float] = None,
    ) -> List[AgentActor]:
        """Register every pipeline's agent as an actor on ``scheduler``.

        The scheduler must share this switch's clock.  With
        ``period_us=None`` each agent busy-loops (per-pipeline threads
        of Section 6, interleaved by timestamp); a period paces them.
        """
        if scheduler.clock is not self.clock:
            raise AgentError(
                "scheduler must share the switch clock; build it with "
                "Scheduler(clock=switch.clock)"
            )
        actors = []
        for index, pipeline in enumerate(self.pipelines):
            actor = AgentActor(
                pipeline.agent, period_us=period_us,
                name=f"pipeline{index}.agent",
            )
            scheduler.spawn(actor)
            actors.append(actor)
        return actors

    # ---- cross-pipeline synchronization (the paper's future work) ----

    def run_round_synchronized(self) -> float:
        """One round with *approximately synchronized* commits across
        pipelines -- an exploration of the cross-pipeline consistency
        the paper explicitly leaves as future work (Section 5).

        Measurement and reaction execution run per pipeline as usual,
        but every vv commit is deferred and then issued back to back,
        shrinking the cross-pipeline inconsistency window from a full
        round (many tens of microseconds) to roughly one master-init
        write per pipeline.  Returns the skew window: the simulated
        time from the completion of the first commit to the completion
        of the last (0.0 with a single pipeline) -- the span during
        which pipelines disagree about the active version.
        """
        for pipeline in self.pipelines:
            pipeline.agent.run_iteration(commit=False)
        first_done: Optional[float] = None
        for pipeline in self.pipelines:
            pipeline.agent.commit()
            if first_done is None:
                first_done = self.clock.now
        return self.clock.now - (first_done or self.clock.now)
