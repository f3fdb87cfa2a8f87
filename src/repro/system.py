"""High-level wiring: compile a P4R program and bring up the full
Mantis stack (emulated ASIC + driver + agent) on one shared clock.

This is the reproduction's equivalent of "flash the compiler output
onto the Wedge100BF and start the agent":

    from repro import MantisSystem

    system = MantisSystem.from_source(P4R_SOURCE)
    system.agent.prologue()
    system.asic.process(packet)
    system.agent.run_iteration()
"""

from __future__ import annotations

from typing import Optional, Union

from repro.agent.agent import MantisAgent
from repro.compiler.spec import CompiledArtifacts
from repro.compiler.transform import CompilerOptions, compile_p4r
from repro.p4r.ast import P4RProgram
from repro.switch.asic import SwitchAsic
from repro.switch.clock import SimClock
from repro.switch.driver import Driver, DriverCostModel, RetryPolicy


class MantisSystem:
    """One switch: compiled artifacts, ASIC, driver, and agent.

    ``retry_policy`` arms the driver against transient control-channel
    failures; ``fault_plan`` (a :class:`repro.faults.FaultPlan`)
    attaches a deterministic fault injector; ``verify_commits`` makes
    the agent read commit-path writes back from the device.
    """

    def __init__(
        self,
        artifacts: CompiledArtifacts,
        clock: Optional[SimClock] = None,
        num_ports: int = 32,
        cost_model: Optional[DriverCostModel] = None,
        pacing_sleep_us: float = 0.0,
        record_timeline: bool = False,
        seed: int = 0,
        execution_mode: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan=None,
        verify_commits: bool = False,
        poll_batching: bool = False,
        reaction_engine: Optional[str] = None,
        commit_mode: str = "diff",
        delta_polling: bool = False,
        ctrl_service: bool = False,
        ctrl_window: int = 8,
        timeline_limit: Optional[int] = None,
        commit_pipelining: bool = False,
    ):
        self.artifacts = artifacts
        self.clock = clock or SimClock()
        self.asic = SwitchAsic(
            artifacts.p4,
            clock=self.clock,
            num_ports=num_ports,
            seed=seed,
            execution_mode=execution_mode,
        )
        self.driver = Driver(
            self.asic, model=cost_model, record_timeline=record_timeline,
            retry_policy=retry_policy, timeline_limit=timeline_limit,
        )
        self.fault_injector = None
        if fault_plan is not None:
            from repro.faults import FaultInjector

            self.fault_injector = FaultInjector(fault_plan).attach(self.driver)
        # With the control-plane service enabled, the agent becomes one
        # client session ("mantis" priority, "mantis" channel so the
        # Fig. 12 timeline filter keeps working) and other clients --
        # live legacy controllers, bulk loaders -- can open their own
        # sessions against ``self.ctrl``.
        self.ctrl = None
        agent_driver = self.driver
        if ctrl_service:
            from repro.ctrl import CtrlService

            self.ctrl = CtrlService(self.driver, window=ctrl_window)
            self.agent_session = self.ctrl.open_session(
                "agent", priority="mantis", channel="mantis"
            )
            agent_driver = self.agent_session.driver
        self.agent = MantisAgent(
            artifacts, agent_driver, pacing_sleep_us=pacing_sleep_us,
            verify_commits=verify_commits, poll_batching=poll_batching,
            reaction_engine=reaction_engine, commit_mode=commit_mode,
            delta_polling=delta_polling, commit_pipelining=commit_pipelining,
        )

    @classmethod
    def from_source(
        cls,
        source_or_program: Union[str, P4RProgram],
        options: Optional[CompilerOptions] = None,
        **kwargs,
    ) -> "MantisSystem":
        """Compile P4R source (or a parsed program) and build the stack."""
        artifacts = compile_p4r(source_or_program, options)
        return cls(artifacts, **kwargs)

    @property
    def spec(self):
        return self.artifacts.spec
