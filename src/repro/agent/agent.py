"""The Mantis agent: prologue + high-frequency dialogue loop.

Follows the control flow of Section 6::

    // prologue
    helper_state = precompute_metadata();
    memo = setup_cache(helper_state);
    run_user_initialization(helper_state, memo);
    // dialogue
    while (!stopped) {
        updateTable(memo, "p4r_init_", {measure_ver : mv ^ 1});
        read_measurements(memo, mv); mv ^= 1;
        run_user_reaction(memo, helper_state, vv ^ 1);
        updateTable(memo, "p4r_init_", {config_ver : vv ^ 1});
        fill_shadow_tables(memo, vv); vv ^= 1;
    }

Reactions may be the compiled C-like bodies from the P4R source
(interpreted by :mod:`repro.p4r.creaction`) or Python callables
attached at runtime -- the reproduction's equivalent of the paper's
dynamically loaded ``.so`` files, including hot swap between dialogue
iterations.

Fault tolerance (see DESIGN.md, "Fault model and recovery"): driver
failures (:class:`TransientDriverError` surviving the retry policy,
or :class:`DriverTimeoutError`) never corrupt the commit protocol.
A failed mv flip or measurement poll degrades to the last checkpoint;
a failed commit preserves all staged state and is retried, rolling
the vv flip and the mirror phase forward without ever flipping twice;
:meth:`MantisAgent.recover` rebuilds a crashed agent's bookkeeping
from device state so the dialogue resumes without reinstalling.
"""

from __future__ import annotations

import os

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import AgentError, TransientDriverError
from repro.agent.handles import MalleableTableHandle
from repro.compiler.spec import (
    CompiledArtifacts,
    ControlPlaneSpec,
    InitTableSpec,
    RegisterMirror,
    ReactionSpec,
)
from repro.agent.iteration import RECOVERABLE as _RECOVERABLE, build_iteration
from repro.p4r.creaction import CReaction, ReactionEnv
from repro.p4r.compiled_reaction import (
    CompiledReaction,
    REACTION_ENGINE_ENV,
    REACTION_ENGINES,
)
from repro.switch.driver import Driver, MemoHandle

COMMIT_MODES = ("diff", "full")


class ReactionContext:
    """What a Python reaction sees each dialogue iteration.

    - ``args``: the polled parameter values (field args as ints,
      register slices as ``{index: value}`` dicts, malleable args as
      their last-written values);
    - ``state``: a dict persisting across iterations (the C reactions'
      ``static`` variables);
    - ``read``/``write``: malleable access (`write` stages the change;
      it commits atomically at this iteration's vv flip);
    - ``table``: malleable-table handles exposing
      ``add``/``modify``/``delete``/``addEntry``/... ;
    - ``now``: the simulated time in microseconds.

    One context per reaction lives for the agent's lifetime; only
    ``args`` is swapped each iteration.
    """

    def __init__(self, agent: "MantisAgent", args: Dict[str, object],
                 state: dict):
        self._agent = agent
        self.args = args
        self.state = state

    @property
    def now(self) -> float:
        return self._agent._clock.now

    def read(self, name: str) -> int:
        return self._agent.read_malleable(name)

    def write(self, name: str, value: int) -> None:
        self._agent.write_malleable(name, value)

    def table(self, name: str) -> MalleableTableHandle:
        return self._agent.table(name)


@dataclass
class _InitShadow:
    """Shadow bookkeeping for a non-master init table (Section 5.1.1:
    'all other init tables will contain two entries, one for each
    version, just like a malleable table')."""

    spec: InitTableSpec
    entry_ids: Dict[int, int] = dataclass_field(default_factory=dict)
    args: List[int] = dataclass_field(default_factory=list)
    staged: Dict[int, int] = dataclass_field(default_factory=dict)
    dirty: bool = False
    memo: Optional[MemoHandle] = None
    # Committed args not yet mirrored onto the old-version entry
    # (set at the vv flip, cleared by the mirror phase).
    mirror_dirty: bool = False


@dataclass
class AgentHealth:
    """Snapshot of the agent's fault state (surfaced by the CLI).

    ``degraded`` means the agent is live but behind: recent iterations
    hit driver failures, a commit is deferred, or mirror writes are
    still outstanding.  A degraded agent heals itself once the control
    channel recovers; ``healthy`` is simply ``not degraded``.
    """

    healthy: bool
    degraded: bool
    consecutive_failed_iterations: int
    total_failures: int
    commit_pending: bool
    mirror_backlog: int
    last_error: Optional[str]
    last_error_us: float
    driver_errors: int
    driver_retries: int
    driver_timeouts: int
    # Fast-path engine info (ISSUE 5): which reaction engine runs the
    # C bodies, how commits are diffed, and how often the diff/delta
    # optimizations actually fired.
    reaction_engine: str = "compiled"
    commit_mode: str = "diff"
    delta_polling: bool = False
    dirty_diff_hit_rate: float = 0.0
    delta_poll_skip_rate: float = 0.0


class _MirrorReader:
    """Timestamp-cached reader state for one duplicated register
    (Section 5.2): the generated iteration (:mod:`repro.agent.iteration`)
    polls through it and rejects stale checkpoint values, so the agent
    always sees the most recently committed contents."""

    def __init__(
        self, driver: Driver, mirror: RegisterMirror, delta: bool = False
    ):
        self.mirror = mirror
        self.delta = delta
        self.memo_dup = driver.memoize("register", mirror.duplicate)
        self.memo_ts = driver.memoize("register", mirror.ts)
        self.memo_seq = driver.memoize("register", mirror.seq)
        self.cache_values = [0] * mirror.count
        self.cache_ts = [0] * mirror.count
        self._last_raw = [0] * mirror.count
        self._suspect = [0] * mirror.count
        # Delta polling: the data plane bumps ``seq[i]`` (raw index, no
        # version copies) on *every* write to slot ``i``, so an
        # unchanged seq range proves both version copies are unchanged
        # since the last full poll and the ts+dup reads can be skipped.
        self._seq_cache: Dict[Tuple[int, int], List[int]] = {}
        self.delta_checks = 0
        self.delta_skips = 0

    def invalidate_delta(self) -> None:
        """Drop the seq snapshots (after a driver fault or recovery:
        a retried/corrupted read must not justify a skip)."""
        self._seq_cache.clear()


class _PollPlan:
    """One reaction's measurement poll, resolved once in
    ``prologue()``/``recover()`` so an iteration replays it without
    scanning the spec.

    ``reads`` are the distinct container registers in first-use order
    as ``(register, memo)``; ``fields`` unpack the words they return,
    ``(c_name, read index, shift, mask)`` in declaration order;
    ``rest`` are the mirror and malleable arguments in declaration
    order, ``(c_name, reader, lo, hi, param)`` with ``reader`` None for
    a malleable (then ``param`` names its ``_param_values`` slot).
    """

    __slots__ = ("reads", "fields", "rest")

    def __init__(self):
        self.reads: List[Tuple[str, MemoHandle]] = []
        self.fields: List[Tuple[str, int, int, int]] = []
        self.rest: List[tuple] = []


class _ReactionRuntime:
    """One registered reaction: spec + implementation + static state."""

    def __init__(self, spec: ReactionSpec, engine: str = "compiled"):
        self.spec = spec
        self.c_impl: Optional[Union[CReaction, CompiledReaction]] = None
        self.py_impl: Optional[Callable[[ReactionContext], None]] = None
        if spec.decl.body_source.strip():
            if engine == "compiled":
                self.c_impl = CompiledReaction(
                    spec.decl.body_source, spec.name
                )
            else:
                self.c_impl = CReaction(spec.decl.body_source, spec.name)
        self.statics: dict = {}
        self.state: dict = {}
        # Persistent ReactionEnv (args swapped per iteration).  The
        # compiled engine binds its closure to this object once;
        # the agent resets it to None whenever handles/externs change.
        self.env: Optional[ReactionEnv] = None
        self.context: Optional[ReactionContext] = None
        self.plan = _PollPlan()


class _IterationKnob:
    """A setting the generated iteration is built from: setting it
    after ``prologue()`` regenerates the iteration.  It has no
    ``__get__``, so a read finds the value in the instance dict at a
    plain attribute's cost."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __set__(self, agent: "MantisAgent", value) -> None:
        agent.__dict__[self.name] = value
        if agent._iterate is not None:
            agent._iterate = build_iteration(agent)


class MantisAgent:
    """A per-pipeline Mantis agent bound to one driver.

    ``pacing_sleep_us`` trades CPU utilization for reaction time
    (Figure 11's ``nanosleep`` knob).  ``verify_commits`` reads every
    commit-path write back from the device and treats a mismatch as a
    transient failure -- the defense against silently dropped writes.
    ``commit_retry_limit`` bounds how many times one iteration retries
    a failed commit before deferring it to the next iteration.
    ``poll_batching`` extends the paper's SS6 batched-DMA optimization
    to the measurement phase: all reactions' polls ride one driver
    batch (one PCIe round trip for the whole phase) and the reactions
    execute afterward, so reaction writes never share the poll batch.
    Off by default -- it changes the iteration's timing profile, which
    the Section 8.1 cost model predicts per configuration.
    """

    verify_commits = _IterationKnob()
    poll_batching = _IterationKnob()
    commit_mode = _IterationKnob()

    def __init__(
        self,
        artifacts: CompiledArtifacts,
        driver: Driver,
        pacing_sleep_us: float = 0.0,
        verify_commits: bool = False,
        commit_retry_limit: int = 5,
        poll_batching: bool = False,
        reaction_engine: Optional[str] = None,
        commit_mode: str = "diff",
        delta_polling: bool = False,
    ):
        self.spec: ControlPlaneSpec = artifacts.spec
        self.artifacts = artifacts
        self.driver = driver
        self._clock = driver.clock
        # The generated dialogue iteration (bound in _bind_dialogue()).
        self._iterate: Optional[Callable[[bool], float]] = None
        self.pacing_sleep_us = pacing_sleep_us
        self.verify_commits = verify_commits
        self.commit_retry_limit = commit_retry_limit
        self.poll_batching = poll_batching
        if reaction_engine is None:
            reaction_engine = os.environ.get(REACTION_ENGINE_ENV, "compiled")
        if reaction_engine not in REACTION_ENGINES:
            raise AgentError(
                f"unknown reaction engine {reaction_engine!r} "
                f"(expected one of {REACTION_ENGINES})"
            )
        self.reaction_engine = reaction_engine
        if commit_mode not in COMMIT_MODES:
            raise AgentError(
                f"unknown commit mode {commit_mode!r} "
                f"(expected one of {COMMIT_MODES})"
            )
        self.commit_mode = commit_mode
        self.delta_polling = delta_polling
        # Dirty-diff bookkeeping: how many malleable writes were staged
        # vs. deduplicated against the committed value.
        self.dirty_writes_staged = 0
        self.dirty_writes_skipped = 0
        self.vv = 0
        self.mv = 0
        # Simulated cost per interpreted C expression (Section 8.1's C).
        self.c_op_cost_us = 0.002
        self.iterations = 0
        # Phase breakdown of the most recent iteration.
        self.last_breakdown: Dict[str, float] = {}
        # Lifetime per-phase totals (hot-loop observability: where do
        # the dialogue's microseconds go across the whole run).
        self.phase_totals: Dict[str, float] = {
            "mv_flip_us": 0.0,
            "poll_us": 0.0,
            "react_us": 0.0,
            "commit_us": 0.0,
            "total_us": 0.0,
        }
        self.total_busy_us = 0.0
        self.total_idle_us = 0.0
        self.iteration_durations: List[float] = []
        # Running aggregate over *all* iterations: iteration_durations
        # keeps only a recent window (trimmed when it grows large), so
        # the lifetime average must not be derived from it.
        self._duration_sum_us = 0.0
        self._duration_count = 0
        self.externs: Dict[str, Callable] = {}

        self._prologue_done = False
        self._user_init: Optional[Callable[["ReactionContext"], None]] = None
        # Pending hot swaps: (reaction name, impl, rerun_user_init).
        self._pending_swaps: List[Tuple[str, Callable, bool]] = []
        self._reactions: List[_ReactionRuntime] = [
            _ReactionRuntime(r, engine=reaction_engine)
            for r in self.spec.reactions.values()
        ]
        self._master: Optional[InitTableSpec] = None
        for init in self.spec.init_tables:
            if init.master:
                self._master = init
        self._master_memo: Optional[MemoHandle] = None
        # Positions of the version bits in the master's args (bound in
        # _bind_dialogue()).
        self._vv_index = -1
        self._mv_index = -1
        self._master_args: List[int] = []
        self._master_staged: Dict[int, int] = {}
        self._init_shadows: Dict[str, _InitShadow] = {}
        self._param_values: Dict[str, int] = {}
        self._param_width: Dict[str, int] = {}
        # param -> (init table, is master, position in its args)
        self._param_home: Dict[str, Tuple[str, bool, int]] = {}
        self._container_memos: Dict[str, MemoHandle] = {}
        self._container_cache: Dict[str, int] = {}
        self._mirror_readers: Dict[str, _MirrorReader] = {}
        self._tables: Dict[str, MalleableTableHandle] = {}
        # The mv flip only exists for programs that measure something.
        self._flips_mv = self._master is not None and bool(
            self.spec.containers or self.spec.mirrors
        )
        # Fault state: a committed-but-unmirrored flip (the old vv to
        # mirror onto), and the failure counters behind health().
        self._mirror_old_vv: Optional[int] = None
        self._consecutive_failures = 0
        self._total_failures = 0
        self._last_error: Optional[str] = None
        self._last_error_us = 0.0

    # ------------------------------------------------------------------
    # Registration

    def register_extern(self, name: str, fn: Callable) -> None:
        """Expose a host function to C reaction bodies."""
        self.externs[name] = fn
        # Environments snapshot the extern set when built (the compiled
        # engine additionally prefetches handles at bind time): force a
        # rebuild so the new extern is visible next iteration.
        for runtime in self._reactions:
            runtime.env = None

    def attach_python(
        self, reaction_name: str, fn: Callable[[ReactionContext], None]
    ) -> None:
        """Replace a reaction's implementation with a Python callable
        (the paper's dynamic ``.so`` reload).  Takes effect at the next
        dialogue iteration."""
        for runtime in self._reactions:
            if runtime.spec.name == reaction_name:
                runtime.py_impl = fn
                return
        if reaction_name not in self.spec.reactions:
            # Allow purely host-defined reactions for programs whose
            # P4R source declared the args but no body, or for tests.
            raise AgentError(f"unknown reaction {reaction_name!r}")

    def request_swap(
        self,
        reaction_name: str,
        fn: Callable[[ReactionContext], None],
        rerun_user_init: bool = False,
    ) -> None:
        """Section 7's dynamic-loading protocol: queue a reaction swap
        that takes effect only *after the current dialogue completes*
        (the "transition flag" breaking out of the loop), optionally
        re-running the prologue's user initialization."""
        if reaction_name not in self.spec.reactions:
            raise AgentError(f"unknown reaction {reaction_name!r}")
        self._pending_swaps.append((reaction_name, fn, rerun_user_init))

    def _apply_pending_swaps(self) -> None:
        if not self._pending_swaps:
            return
        swaps, self._pending_swaps = self._pending_swaps, []
        rerun = False
        for name, fn, rerun_init in swaps:
            for runtime in self._reactions:
                if runtime.spec.name == name:
                    runtime.py_impl = fn
                    runtime.statics.clear()  # fresh module DATA segment
                    runtime.state.clear()
                    runtime.env = None
            rerun = rerun or rerun_init
        if rerun and self._user_init is not None:
            context = ReactionContext(self, {}, {})
            self._user_init(context)
            # The re-init's staged configuration commits atomically;
            # under driver failure it stays staged (and the swap stays
            # applied) until a later iteration's commit lands.
            self._commit_with_recovery()

    # ------------------------------------------------------------------
    # Prologue

    def prologue(
        self, user_init: Optional[Callable[[ReactionContext], None]] = None
    ) -> None:
        """Precompute metadata, set up memoization, install initial
        entries, and run optional user initialization."""
        if self._prologue_done:
            raise AgentError("prologue already executed")
        driver = self.driver

        for init in self.spec.init_tables:
            memo = driver.memoize("table", init.table)
            for position, param in enumerate(init.params):
                self._param_values[param.name] = param.init
                self._param_width[param.name] = param.width
                self._param_home[param.name] = (
                    init.table, init.master, position
                )
            if init.master:
                self._master_memo = memo
                self._master_args = [p.init for p in init.params]
                driver.set_default(
                    init.table, init.action, self._master_args, memo=memo
                )
            else:
                shadow = _InitShadow(
                    init, args=[p.init for p in init.params], memo=memo
                )
                for version in (0, 1):
                    shadow.entry_ids[version] = driver.add_entry(
                        init.table, [version], init.action, shadow.args,
                        memo=memo,
                    )
                self._init_shadows[init.table] = shadow

        for load in self.spec.load_tables:
            memo = driver.memoize("table", load.table)
            for alt_index, action in enumerate(load.actions):
                driver.add_entry(load.table, [alt_index], action, [], memo=memo)

        self._bind_dialogue()

        self._prologue_done = True
        self._user_init = user_init
        if user_init is not None:
            context = ReactionContext(self, {}, {})
            user_init(context)
            # Fold any user-staged configuration in atomically.
            self._commit()

    def _bind_dialogue(self) -> None:
        """Resolve, once, everything a dialogue iteration replays:
        measurement memos and mirror readers, table handles, each
        reaction's poll plan and the master's version-bit positions --
        then generate the iteration from them
        (:func:`~repro.agent.iteration.build_iteration`).  Shared by
        ``prologue()`` and ``recover()``, so a recovered agent iterates
        exactly like one that never crashed."""
        driver = self.driver
        for container in self.spec.containers:
            self._container_memos[container.register] = driver.memoize(
                "register", container.register
            )
        for mirror in self.spec.mirrors.values():
            self._mirror_readers[mirror.original] = _MirrorReader(
                driver, mirror, delta=self.delta_polling
            )
        self._make_table_handles()
        for runtime in self._reactions:
            runtime.plan = self._poll_plan(runtime.spec)
        if self._master is not None:
            self._vv_index = self._master.param_index("vv")
            self._mv_index = self._master.param_index("mv")
        self._iterate = build_iteration(self)

    def _poll_plan(self, spec: ReactionSpec) -> _PollPlan:
        plan = _PollPlan()
        read_index: Dict[str, int] = {}
        for arg, (source, key) in zip(spec.decl.args, spec.arg_sources):
            if source == "container":
                container, slot = self.spec.container_for(
                    spec.name, arg.c_name
                )
                register = container.register
                if register not in read_index:
                    read_index[register] = len(plan.reads)
                    plan.reads.append(
                        (register, self._container_memos[register])
                    )
                plan.fields.append((
                    arg.c_name, read_index[register], slot.shift,
                    (1 << slot.width) - 1,
                ))
            elif source == "mirror":
                plan.rest.append(
                    (arg.c_name, self._mirror_readers[key], arg.lo, arg.hi,
                     None)
                )
            elif source == "mbl":
                plan.rest.append(
                    (arg.c_name, None, 0, 0, self._resolve_param(key))
                )
        return plan

    def _make_table_handles(self) -> None:
        alt_counts = {
            name: len(fld.alts) for name, fld in self.spec.fields.items()
        }
        for name, transform in self.spec.tables.items():
            if name in self._init_shadows:
                continue  # managed as init shadows, not user tables
            self._tables[name] = MalleableTableHandle(
                self.driver,
                transform,
                active_version=lambda: self.vv,
                memo=self.driver.memoize("table", name),
                field_alt_counts=alt_counts,
            )

    def table(self, name: str) -> MalleableTableHandle:
        if not self._prologue_done:
            raise AgentError("run prologue() before accessing tables")
        if name not in self._tables:
            raise AgentError(f"no malleable/transformed table {name!r}")
        return self._tables[name]

    # ------------------------------------------------------------------
    # Crash recovery

    def recover(self) -> None:
        """Rebuild a restarted agent's bookkeeping from device state.

        The inverse of :meth:`prologue` for a switch that is already
        configured: version variables, master arguments, malleable
        values, init-shadow entry ids, and user table entries are all
        reconstructed by reading the device back, and interrupted
        commits are rolled forward (a stale shadow copy is repaired),
        so the dialogue resumes exactly where the crashed agent left
        off -- without reinstalling entries or perturbing traffic.

        Limitations: tables transformed for malleable *fields* (alt
        expansion / action specialization) are only recovered when
        empty -- their user-level keys are not invertible from the
        concrete entries.
        """
        if self._prologue_done:
            raise AgentError("recover() requires a fresh agent")
        if self._master is None:
            raise AgentError(
                "cannot recover a program without a master init table"
            )
        driver = self.driver

        # Master first: it holds the authoritative vv/mv.
        master = self._master
        self._master_memo = driver.memoize("table", master.table)
        default = driver.read_default(master.table, memo=self._master_memo)
        if default is None:
            raise AgentError(
                f"cannot recover: master init table {master.table} has no "
                "default action installed (prologue never ran?)"
            )
        self._master_args = list(default[1])
        self.vv = self._master_args[master.param_index("vv")]
        self.mv = self._master_args[master.param_index("mv")]

        for init in self.spec.init_tables:
            for position, param in enumerate(init.params):
                self._param_width[param.name] = param.width
                self._param_home[param.name] = (
                    init.table, init.master, position
                )
            if init.master:
                for index, param in enumerate(init.params):
                    self._param_values[param.name] = self._master_args[index]
                continue
            memo = driver.memoize("table", init.table)
            shadow = _InitShadow(init, memo=memo)
            by_version: Dict[int, List[int]] = {}
            for entry_id, key, _action, args, _priority in driver.read_entries(
                init.table, memo=memo
            ):
                if key in ((0,), (1,)):
                    shadow.entry_ids[key[0]] = entry_id
                    by_version[key[0]] = list(args)
            if set(shadow.entry_ids) != {0, 1}:
                raise AgentError(
                    f"cannot recover: init table {init.table} is missing "
                    f"version entries (found {sorted(shadow.entry_ids)})"
                )
            # The active copy is authoritative; a diverging shadow copy
            # is either an unfinished mirror or an uncommitted prepare
            # -- both repaired by rewriting it to the committed args.
            shadow.args = by_version[self.vv]
            if by_version[self.vv ^ 1] != shadow.args:
                driver.modify_entry(
                    init.table,
                    shadow.entry_ids[self.vv ^ 1],
                    args=list(shadow.args),
                    memo=memo,
                )
            for index, param in enumerate(init.params):
                self._param_values[param.name] = shadow.args[index]
            self._init_shadows[init.table] = shadow

        # Load tables are static and already installed; measurement
        # readers start cold and repopulate via the timestamp cache.
        self._bind_dialogue()
        for handle in self._tables.values():
            entries = driver.read_entries(handle.name, memo=handle.memo)
            if entries:
                handle.adopt_entries(entries, self.vv)

        self._prologue_done = True

    # ------------------------------------------------------------------
    # Malleable access

    def _resolve_param(self, name: str) -> str:
        if name in self.spec.values:
            return self.spec.values[name].param
        if name in self.spec.fields:
            return self.spec.fields[name].param
        raise AgentError(f"unknown malleable {name!r}")

    def read_malleable(self, name: str) -> int:
        """Last-written (staged or committed) value of a malleable.

        For malleable fields this is the current alt *index*.
        """
        return self._param_values[self._resolve_param(name)]

    def write_malleable(self, name: str, value: int) -> None:
        """Stage a malleable update; commits at the next vv flip."""
        param = self._resolve_param(name)
        if name in self.spec.fields:
            alts = self.spec.fields[name].alts
            if not 0 <= value < len(alts):
                raise AgentError(
                    f"malleable field {name}: alt index {value} out of "
                    f"range (has {len(alts)} alts)"
                )
        value &= (1 << self._param_width[param]) - 1
        self._param_values[param] = value
        table, is_master, position = self._param_home[param]
        diff = self.commit_mode == "diff"
        if is_master:
            if diff and value == self._master_args[position]:
                # Dirty-diff dedup: re-writing the committed value is a
                # no-op; dropping any earlier staged value restores the
                # committed state, so nothing needs to be written.
                self._master_staged.pop(position, None)
                self.dirty_writes_skipped += 1
                return
            self._master_staged[position] = value
            self.dirty_writes_staged += 1
        else:
            # Staged; the prepare write happens once per dirty init
            # table at commit time (all staged params in one entry
            # update, like the master's single default-action write).
            shadow = self._init_shadows[table]
            if diff and value == shadow.args[position]:
                shadow.staged.pop(position, None)
                shadow.dirty = bool(shadow.staged)
                self.dirty_writes_skipped += 1
                return
            shadow.staged[position] = value
            shadow.dirty = True
            self.dirty_writes_staged += 1

    def shift_field(self, name: str, alt: Union[int, str]) -> None:
        """Shift a malleable field to an alt, by index or by name."""
        if isinstance(alt, str):
            alts = self.spec.fields[name].alts
            if alt not in alts:
                raise AgentError(f"{alt!r} is not an alt of field {name!r}")
            alt = alts.index(alt)
        self.write_malleable(name, alt)

    # ------------------------------------------------------------------
    # Dialogue

    def run_iteration(self, commit: bool = True) -> float:
        """One dialogue iteration; returns its duration (busy time).

        ``commit=False`` stops before the vv flip -- used by the
        multi-pipeline synchronized-commit extension, which performs
        the commits of all pipelines back to back.

        Driver failures never escape: a failed mv flip or poll falls
        back to the previous checkpoint, a failed commit defers (with
        all staged state preserved) to the next iteration.  Reaction
        exceptions still propagate -- user code bugs are not faults.
        """
        if not self._prologue_done:
            raise AgentError("run prologue() before the dialogue loop")
        return self._iterate(commit)

    def run(self, iterations: int) -> None:
        for _ in range(iterations):
            self.run_iteration()

    def run_until(self, time_us: float, max_iterations: int = 10_000_000) -> int:
        """Run dialogue iterations until the simulated clock passes
        ``time_us``; returns the number of iterations executed."""
        count = 0
        while self.driver.clock.now < time_us and count < max_iterations:
            self.run_iteration()
            count += 1
        return count

    def commit(self) -> None:
        """Public commit: fold staged configuration in atomically
        (prepare + vv flip + mirror).  Used together with
        ``run_iteration(commit=False)`` for externally coordinated
        commit points."""
        self._commit()

    # ------------------------------------------------------------------
    # Health

    def health(self) -> AgentHealth:
        """Fault-state snapshot (consecutive failures, deferred work,
        last error); ``healthy`` once all effects of past faults have
        drained."""
        driver = self.driver
        backlog = sum(h.mirror_backlog for h in self._tables.values())
        commit_pending = (
            self._mirror_old_vv is not None
            or bool(self._master_staged)
            or any(
                shadow.dirty or shadow.mirror_dirty
                for shadow in self._init_shadows.values()
            )
        )
        degraded = (
            self._consecutive_failures > 0
            or commit_pending
            or backlog > 0
        )
        diff_total = self.dirty_writes_staged + self.dirty_writes_skipped
        delta_checks = sum(
            reader.delta_checks for reader in self._mirror_readers.values()
        )
        delta_skips = sum(
            reader.delta_skips for reader in self._mirror_readers.values()
        )
        return AgentHealth(
            reaction_engine=self.reaction_engine,
            commit_mode=self.commit_mode,
            delta_polling=self.delta_polling,
            dirty_diff_hit_rate=(
                self.dirty_writes_skipped / diff_total if diff_total else 0.0
            ),
            delta_poll_skip_rate=(
                delta_skips / delta_checks if delta_checks else 0.0
            ),
            healthy=not degraded,
            degraded=degraded,
            consecutive_failed_iterations=self._consecutive_failures,
            total_failures=self._total_failures,
            commit_pending=commit_pending,
            mirror_backlog=backlog,
            last_error=self._last_error,
            last_error_us=self._last_error_us,
            driver_errors=driver.errors_total,
            driver_retries=driver.retries_total,
            driver_timeouts=driver.timeouts_total,
        )

    # ---- internals -----------------------------------------------------

    def _note_failure(self, error: Exception) -> None:
        self._total_failures += 1
        self._last_error = str(error)
        self._last_error_us = self.driver.clock.now
        # Fault safety for delta polling: a failed/retried op may have
        # returned corrupt data, so no cached seq snapshot may justify
        # skipping a poll until a clean full poll re-establishes it.
        for reader in self._mirror_readers.values():
            reader.invalidate_delta()

    def _write_master(
        self,
        vv: Optional[int] = None,
        mv: Optional[int] = None,
        fold_staged: bool = False,
    ) -> None:
        """Atomic single-entry update of the master init table.

        Staged malleable values are folded in only when
        ``fold_staged`` is set (the vv commit); the mv flip must not
        leak configuration changes early.  Staged state is cleared
        only after the device accepted (and, under ``verify_commits``,
        demonstrably applied) the write, so a failure preserves it
        for the retry.
        """
        master = self._master
        args = list(self._master_args)
        if fold_staged and self._master_staged:
            for index, value in self._master_staged.items():
                args[index] = value
        args[self._vv_index] = self.vv if vv is None else vv
        args[self._mv_index] = self.mv if mv is None else mv
        self.driver.set_default(
            master.table, master.action, args, memo=self._master_memo
        )
        if self.verify_commits:
            landed = self.driver.read_default(
                master.table, memo=self._master_memo
            )
            if landed is None or list(landed[1]) != args:
                raise TransientDriverError(
                    f"master write to {master.table!r} did not land "
                    "(dropped?)"
                )
        if fold_staged and self._master_staged:
            self._master_staged.clear()
        self._master_args = args

    def _write_init_shadow(
        self, shadow: _InitShadow, version: int, args: List[int]
    ) -> None:
        """One memoized entry write to an init-shadow version copy,
        read back under ``verify_commits``.

        Diff mode reads back only the entry it wrote (a single-entry
        read); full mode keeps the whole-table dump as the baseline.
        """
        self.driver.modify_entry(
            shadow.spec.table,
            shadow.entry_ids[version],
            args=args,
            memo=shadow.memo,
        )
        if self.verify_commits:
            if self.commit_mode == "diff":
                entry = self.driver.read_entry(
                    shadow.spec.table,
                    shadow.entry_ids[version],
                    memo=shadow.memo,
                )
                landed_args = None if entry is None else entry[3]
            else:
                landed = {
                    entry_id: entry_args
                    for entry_id, _key, _action, entry_args, _priority
                    in self.driver.read_entries(
                        shadow.spec.table, memo=shadow.memo
                    )
                }
                landed_args = landed.get(shadow.entry_ids[version])
            if landed_args != list(args):
                raise TransientDriverError(
                    f"shadow write to {shadow.spec.table!r} v{version} "
                    "did not land (dropped?)"
                )

    def _commit(self) -> None:
        """Prepare (non-master inits) + vv flip (commit) + mirror.

        Every phase is resumable: a driver failure raises out with all
        staged state intact, and re-running the interrupted phase (via
        :meth:`_commit_with_recovery`) completes the commit without
        ever flipping vv twice for one batch of changes.
        """
        if self._master is None:
            return
        if self._mirror_old_vv is not None:
            self._finish_mirror()
        # Prepare: one shadow-entry write per dirty non-master init
        # ("full" commit mode rewrites every shadow unconditionally --
        # the paper-naive baseline the dirty diff is measured against).
        commit_all = self.commit_mode == "full"
        writing = [
            shadow for shadow in self._init_shadows.values()
            if shadow.dirty or commit_all
        ] if self._init_shadows else ()
        for shadow in writing:
            new_args = list(shadow.args)
            for position, value in shadow.staged.items():
                new_args[position] = value
            self._write_init_shadow(shadow, self.vv ^ 1, new_args)
        old_vv = self.vv
        self._write_master(vv=self.vv ^ 1, fold_staged=True)
        # The flip landed: the commit is now irrevocable.
        self.vv ^= 1
        if "vv" in self._param_values:
            self._param_values["vv"] = self.vv
        sealed = False
        for handle in self._tables.values():
            if handle.pending_mirror:
                handle.seal_mirror(old_vv)
                sealed = True
        if not (writing or sealed):
            return  # nothing to mirror: the shadow copies already agree
        # Record the mirror obligation *before* doing any mirror write,
        # so a failure below leaves a resumable marker instead of a lie.
        self._mirror_old_vv = old_vv
        for shadow in writing:
            for position, value in shadow.staged.items():
                shadow.args[position] = value
            shadow.staged.clear()
            shadow.dirty = False
            shadow.mirror_dirty = True
        self._finish_mirror()

    def _finish_mirror(self) -> None:
        """Mirror phase: replay committed changes onto the now-shadow
        old-version copies, restoring the two-entry invariant."""
        if self._mirror_old_vv is None:
            return
        old_vv = self._mirror_old_vv
        for handle in self._tables.values():
            handle.drain_mirror()
        for shadow in self._init_shadows.values():
            if not shadow.mirror_dirty:
                continue
            self._write_init_shadow(shadow, old_vv, list(shadow.args))
            shadow.mirror_dirty = False
        self._mirror_old_vv = None

    def _finish_mirror_tolerant(self) -> bool:
        """Try to drain mirror debt; absorb driver failures.

        Returns False when debt remains (the caller must not prepare
        new changes on top of an unfinished mirror).
        """
        try:
            self._finish_mirror()
            return True
        except _RECOVERABLE as error:
            self._note_failure(error)
            return False

    def _commit_with_recovery(self) -> bool:
        """Commit, absorbing driver failures; returns True when the
        commit (including its mirror phase) fully landed.

        If the vv flip already happened, only the mirror phase is
        retried -- never the flip.  On exhaustion the commit stays
        deferred: staged values, dirty flags and sealed mirror ops all
        survive for the next iteration.
        """
        attempts_left = self.commit_retry_limit
        while True:
            try:
                if self._mirror_old_vv is not None:
                    self._finish_mirror()
                else:
                    self._commit()
                return True
            except _RECOVERABLE as error:
                self._note_failure(error)
                attempts_left -= 1
                if attempts_left <= 0:
                    return False

    # ------------------------------------------------------------------
    # Statistics (Figure 11)

    @property
    def avg_reaction_time_us(self) -> float:
        if not self._duration_count:
            return 0.0
        return self._duration_sum_us / self._duration_count

    @property
    def cpu_utilization(self) -> float:
        total = self.total_busy_us + self.total_idle_us
        return self.total_busy_us / total if total else 0.0
