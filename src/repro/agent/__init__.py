"""The Mantis control-plane agent (Section 6).

Runs on the "switch CPU" (against the driver's simulated clock) and
executes the paper's prologue/dialogue architecture:

- :mod:`repro.agent.handles` -- runtime handles for malleable values,
  fields, and tables; the table handle implements the three-phase
  (prepare/commit/mirror) serializable update protocol of Section 5.1.2.
- :mod:`repro.agent.agent` -- the agent itself: prologue setup
  (memoization, initial entries), and the high-frequency dialogue loop
  with mv/vv version flips, per-reaction measurement polling with the
  Section 5.2 timestamp cache, reaction execution (interpreted C or
  attached Python callables), and pacing (Figure 11).
- :mod:`repro.agent.legacy` -- the concurrent legacy control-plane
  model used by the Figure 12 interference experiment; import it from
  its module, the package does not re-export it.
"""

from repro.agent.agent import MantisAgent, ReactionContext
from repro.agent.handles import MalleableTableHandle

__all__ = [
    "MalleableTableHandle",
    "MantisAgent",
    "ReactionContext",
]
