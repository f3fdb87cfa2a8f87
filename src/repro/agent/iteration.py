"""One generated function per agent: a whole dialogue iteration as
straight-line code.

The paper's agent replays, each iteration, device instructions it
resolved once in the prologue (Section 6) and runs its reaction as
compiled C.  :func:`build_iteration` does the same for the
reproduction's agent: at ``prologue()``/``recover()`` time it turns the
agent's resolved state -- each reaction's :class:`_PollPlan`, the
master's version-bit positions, the memoized device objects and the
priced cost of every op the iteration issues -- into Python source,
``exec``-compiles it once (as :mod:`repro.p4r.compiled_reaction` does
for reaction bodies) and hands back the function
``MantisAgent.run_iteration`` calls.

The function folds the mv flip, every reaction's poll (container
reads, word unpacking, mirror polls with their timestamp cache), the
reaction call, the commit and the iteration's accounting into one
body.  Each driver op it issues comes in two forms, chosen per op from
live driver state (DESIGN.md, "Control-loop fast path"):

- **inlined plain tail** -- the driver is a bare :class:`Driver` with
  no fault injector, post-op hook or recorded timeline and memoization
  on, the state in which ``Driver._execute`` takes its plain tail.  The
  op applies the device access directly and makes the plain tail's
  counter bumps and its one ``SimClock.advance`` by the op's priced
  cost (a constant, PCIe included or not by the open batch's state),
  so packet events due inside the op still run inside it.  The test
  and the tail are the driver's own source copies
  (:func:`~repro.switch.driver.plain_tail_guard`,
  :func:`~repro.switch.driver.plain_tail_source`);
- **driver call** -- otherwise the op goes through ``Driver.<op>`` (or
  ``SessionDriver.<op>``), inside the same ``RECOVERABLE`` handlers the
  interpretive loop had, so faults, retries, sessions and commit
  verification behave as before.

Device state, op counters, phase breakdowns and the simulated clock are
bit-identical either way (``tests/agent/test_generated_iteration.py``
pins them against the interpretive loop).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from functools import lru_cache
from typing import Callable, Dict, List

from repro.errors import DriverTimeoutError, TransientDriverError
from repro.p4r.creaction import ReactionEnv
from repro.switch.driver import (
    Driver,
    plain_op_cost,
    plain_tail_guard,
    plain_tail_source,
)

# The failure modes the dialogue loop absorbs instead of crashing on.
RECOVERABLE = (TransientDriverError, DriverTimeoutError)

#: Driver state under which ``Driver._execute`` takes its plain tail
#: with a memoized op's prep (what the priced constants assume).
_PLAIN = plain_tail_guard("drv")

# One mirror slot's timestamp-cache update (Section 5.2): accept a newer
# stamp; resynchronize after two consecutive sightings of a stamp that
# advanced yet sits below the high-water mark (the cached stamp came
# from a corrupted read).
_ABSORB = """\
if stamp > {ts}[{i}]:
    {ts}[{i}] = stamp
    {cv}[{i}] = value
    {sus}[{i}] = 0
elif stamp < {ts}[{i}] and stamp > {raw}[{i}]:
    {sus}[{i}] += 1
    if {sus}[{i}] >= 2:
        {ts}[{i}] = stamp
        {cv}[{i}] = value
        {sus}[{i}] = 0
else:
    {sus}[{i}] = 0
{raw}[{i}] = stamp"""


class _Source:
    """Line buffer plus the constants the generated code closes over."""

    def __init__(self):
        self.lines: List[str] = []
        self.depth = 2  # inside ``def __bind__`` and ``def iteration``
        self.consts: Dict[str, object] = {}
        self._names: Dict[int, str] = {}

    def emit(self, text: str) -> None:
        pad = "    " * self.depth
        for line in text.split("\n"):
            self.lines.append(pad + line)

    @contextmanager
    def indent(self):
        self.depth += 1
        yield
        self.depth -= 1

    def const(self, value: object, hint: str) -> str:
        """Name bound to ``value`` in the generated closure (one name
        per object; floats and ints get one per call)."""
        key = id(value)
        if not isinstance(value, (int, float)) and key in self._names:
            return self._names[key]
        name = f"{hint}{len(self.consts)}"
        self.consts[name] = value
        if not isinstance(value, (int, float)):
            self._names[key] = name
        return name


class _Builder:
    def __init__(self, agent):
        self.agent = agent
        self.src = _Source()
        driver = agent.driver
        # Only a bare Driver has a plain tail; a SessionDriver always
        # reserves the shared channel per op.
        self.raw = type(driver) is Driver
        self.model = driver.model
        if agent._master_memo is not None:
            self.master_set = self.src.const(
                agent._master_memo.target.set_default, "set"
            )

    # ---- one op ----------------------------------------------------------

    def plain_op(self, apply: str, device_cost: float) -> None:
        """``Driver._execute``'s plain tail for one memoized op whose
        device access is the statement ``apply``."""
        src = self.src
        head = src.const(plain_op_cost(self.model, device_cost, True), "c")
        rest = src.const(plain_op_cost(self.model, device_cost, False), "c")
        src.emit(plain_tail_source("drv", "bst", "clock", apply, head, rest))

    def op(self, apply: str, device_cost: float, call: str,
           inline: bool = True) -> None:
        """One driver op: the inlined plain tail while the driver is
        plain, else ``call``."""
        src = self.src
        if not (self.raw and inline):
            src.emit(call)
            return
        src.emit(f"if {_PLAIN}:")
        with src.indent():
            self.plain_op(apply, device_cost)
        src.emit("else:")
        with src.indent():
            src.emit(call)

    def read(self, var: str, memo, lo: int, hi: int, at: str = "",
             span: int = 0, word: bool = False) -> None:
        """``var`` = slots ``at + lo .. at + hi`` of ``memo``'s register
        array, ``at`` ranging over ``0 .. span`` (one ``int`` when
        ``word``).  The inlined form indexes the array directly, so it
        is emitted only when every such range is in bounds."""
        src, register = self.src, memo.target
        values = src.const(register.values, "reg")

        def slot(k: int) -> str:
            return f"{at} + {k}" if at and k else at or str(k)

        call = (f"drv.read_registers({memo.name!r}, {slot(lo)}, {slot(hi)},"
                f" memo={src.const(memo, 'memo')})")
        if word:
            apply, call = f"{var} = {values}[{slot(lo)}]", call + "[0]"
        else:
            apply = f"{var} = {values}[{slot(lo)}:{slot(hi + 1)}]"
        self.op(
            apply, self.model.register_read_cost(hi - lo + 1, register.width),
            f"{var} = {call}",
            inline=0 <= lo <= hi and span + hi < len(register.values),
        )

    @contextmanager
    def batch(self):
        """``with drv.batch():``"""
        self.src.emit("with drv.batch():")
        with self.src.indent():
            yield

    @contextmanager
    def recoverable(self, *fallback: str):
        """Degrade a failed op to the ``fallback`` statements."""
        src = self.src
        src.emit("try:")
        with src.indent():
            yield
        src.emit("except RECOVERABLE as error:")
        src.emit("    agent._note_failure(error)")
        for line in fallback:
            src.emit("    " + line)

    # ---- the function ----------------------------------------------------

    def build(self) -> Callable[[bool], float]:
        agent, src = self.agent, self.src
        src.emit("start = clock.now")
        src.emit("failures_before = agent._total_failures")
        src.emit(
            "if agent._mirror_old_vv is not None"
            " and not agent._finish_mirror_tolerant():"
        )
        with src.indent():
            # Mirror debt stays: nothing new may be prepared on top.
            src.emit("busy = clock.now - start")
            src.emit("mv_us = poll_us = react_us = 0.0")
            src.emit("commit_us = busy")
        src.emit("else:")
        with src.indent():
            if agent._flips_mv:
                self.mv_flip()
            src.emit("checkpoint = agent.mv ^ 1")
            src.emit("after_flip = clock.now")
            self.poll_and_react()
            src.emit("before_commit = clock.now")
            if agent._master is not None:
                src.emit("if commit:")
                with src.indent():
                    self.commit()
            src.emit("if agent._pending_swaps:")
            src.emit("    agent._apply_pending_swaps()")
            src.emit("end = clock.now")
            src.emit("busy = end - start")
            src.emit("mv_us = after_flip - start")
            src.emit("react_us = before_commit - after_flip - poll_us")
            src.emit("commit_us = end - before_commit")
        self.account()
        src.emit("return busy")
        return self.compile()

    def compile(self) -> Callable[[bool], float]:
        # Imported here: repro.agent.agent imports this module.
        from repro.agent.agent import ReactionContext

        src = self.src
        agent = self.agent
        driver = agent.driver
        consts = dict(src.consts)
        consts.update(
            agent=agent, drv=driver, clock=driver.clock,
            bst=driver._batch if self.raw else None,
            pv=agent._param_values, ccache=agent._container_cache,
            RECOVERABLE=RECOVERABLE, ReactionEnv=ReactionEnv,
            ReactionContext=ReactionContext,
        )
        lines = ["def __bind__(K):"]
        lines.extend(f"    {name} = K[{name!r}]" for name in consts)
        lines.append("    def iteration(commit=True):")
        lines.extend(src.lines)
        lines.append("    return iteration")
        source = "\n".join(lines) + "\n"
        namespace: Dict[str, object] = {}
        exec(_code(source), namespace)  # noqa: S102 - from the spec only
        iteration = namespace["__bind__"](consts)
        iteration.source = source
        return iteration

    # ---- version flips ---------------------------------------------------

    def inlines_master(self) -> bool:
        """Whether master writes may take the inlined plain tail: not
        under ``verify_commits``, whose read-back ``_write_master``
        keeps."""
        return self.raw and not self.agent.verify_commits

    def master_write(self, vv: str, mv: str, fold_staged: bool) -> None:
        """``MantisAgent._write_master`` on the inlined plain tail."""
        agent, src = self.agent, self.src
        src.emit("args = agent._master_args[:]")
        if fold_staged:
            src.emit("staged = agent._master_staged")
            src.emit("if staged:")
            src.emit("    for index, value in staged.items():")
            src.emit("        args[index] = value")
        src.emit(f"args[{agent._vv_index}] = {vv}")
        src.emit(f"args[{agent._mv_index}] = {mv}")
        action = src.const(agent._master.action, "act")
        self.plain_op(f"{self.master_set}({action}, args)",
                      self.model.table_set_default_us)
        if fold_staged:
            src.emit("if staged:")
            src.emit("    staged.clear()")
        src.emit("agent._master_args = args")

    def mv_flip(self) -> None:
        src = self.src
        src.emit("try:")
        with src.indent():
            src.emit("mv = agent.mv ^ 1")
            if self.inlines_master():
                src.emit(f"if {_PLAIN}:")
                with src.indent():
                    self.master_write("agent.vv", "mv", fold_staged=False)
                src.emit("else:")
                src.emit("    agent._write_master(mv=mv)")
            else:
                src.emit("agent._write_master(mv=mv)")
            src.emit("agent.mv = mv")
            src.emit('pv["mv"] = mv')
        src.emit("except RECOVERABLE as error:")
        with src.indent():
            # Tolerated: poll the previous checkpoint again (one
            # measurement interval staler, still consistent).
            src.emit("agent._note_failure(error)")

    def commit(self) -> None:
        """The vv flip alone, inlined, when the driver is plain and
        nothing is staged outside the master (no dirty init shadow, no
        sealed table mirror, no mirror debt): a plain op cannot fail,
        so no retry loop is needed.  Otherwise the full prepare / flip
        / mirror protocol through ``_commit_with_recovery``."""
        agent, src = self.agent, self.src
        shadows = list(agent._init_shadows.values())
        if not self.inlines_master() or (
            agent.commit_mode == "full" and shadows
        ):
            src.emit("agent._commit_with_recovery()")
            return
        checks = [_PLAIN, "agent._mirror_old_vv is None"]
        checks += [f"not {src.const(s, 'shadow')}.dirty" for s in shadows]
        checks += [
            f"not {src.const(h, 'handle')}.pending_mirror"
            for h in agent._tables.values()
        ]
        src.emit(f"if {' and '.join(checks)}:")
        with src.indent():
            src.emit("vv = agent.vv ^ 1")
            self.master_write("vv", "agent.mv", fold_staged=True)
            # The flip landed: the commit is now irrevocable.
            src.emit("agent.vv = vv")
            if "vv" in agent._param_values:
                src.emit('pv["vv"] = vv')
        src.emit("else:")
        src.emit("    agent._commit_with_recovery()")

    # ---- polls -----------------------------------------------------------

    def poll_and_react(self) -> None:
        agent, src = self.agent, self.src
        runtimes = agent._reactions
        if agent.poll_batching:
            # SS6-style batched DMA for measurement: every reaction's
            # poll reads share one driver batch (one PCIe round trip),
            # then the reactions run outside it.
            src.emit("poll_start = clock.now")
            with self.batch():
                for index, runtime in enumerate(runtimes):
                    self.poll(runtime, f"args{index}")
            src.emit("poll_us = clock.now - poll_start")
            for index, runtime in enumerate(runtimes):
                self.react(runtime, f"args{index}")
            return
        src.emit("poll_us = 0.0")
        for index, runtime in enumerate(runtimes):
            src.emit("poll_start = clock.now")
            self.poll(runtime, f"args{index}")
            src.emit("poll_us += clock.now - poll_start")
            self.react(runtime, f"args{index}")

    def poll(self, runtime, var: str) -> None:
        """Poll one reaction's args into ``var``; a failed read degrades
        to the last successfully read values (stale but consistent)
        instead of raising."""
        src = self.src
        plan = runtime.plan
        with self.batch() if len(plan.reads) > 1 else nullcontext():
            for read, (register, memo) in enumerate(plan.reads):
                with self.recoverable(
                    f"w{read} = ccache.get({register!r}, 0)"
                ):
                    self.read(f"w{read}", memo, 0, 0, "checkpoint", 1,
                              word=True)
                    src.emit(f"ccache[{register!r}] = w{read}")
        items = [
            (c_name, f"(w{read} >> {shift}) & {mask}" if shift
             else f"w{read} & {mask}")
            for c_name, read, shift, mask in plan.fields
        ]
        for n, (c_name, reader, lo, hi, param) in enumerate(plan.rest):
            items.append((c_name, f"m{n}"))
            if reader is None:
                src.emit(f"m{n} = pv[{param!r}]")
                continue
            with self.recoverable(f"m{n} = {self.cached(reader, lo, hi)}"):
                self.mirror_poll(reader, lo, hi)
                src.emit(f"m{n} = {self.cached(reader, lo, hi)}")
        body = ", ".join(f"{c_name!r}: {expr}" for c_name, expr in items)
        src.emit(f"{var} = {{{body}}}")

    def mirror_poll(self, reader, lo: int, hi: int) -> None:
        """Poll one mirror's slots into its timestamp cache.  Under
        delta polling, an unchanged ``seq`` range proves both version
        copies unchanged since the last full poll, so the ts+dup reads
        are skipped."""
        src = self.src
        rd = src.const(reader, "rd")
        src.emit(f"o = checkpoint * {reader.mirror.padded_count}")
        with self.batch():
            if reader.delta:
                self.read("seqs", reader.memo_seq, lo, hi)
                src.emit(f"{rd}.delta_checks += 1")
                src.emit(f"if {rd}._seq_cache.get(({lo}, {hi})) == seqs:")
                src.emit(f"    {rd}.delta_skips += 1")
                src.emit("    seqs = None")
                src.emit("else:")
                src.depth += 1
            span = reader.mirror.padded_count
            self.read("stamps", reader.memo_ts, lo, hi, "o", span)
            self.read("values", reader.memo_dup, lo, hi, "o", span)
            if reader.delta:
                src.depth -= 1
        if reader.delta:
            src.emit("if seqs is not None:")
            src.depth += 1
        names = dict(
            ts=src.const(reader.cache_ts, "ts"),
            cv=src.const(reader.cache_values, "cv"),
            sus=src.const(reader._suspect, "sus"),
            raw=src.const(reader._last_raw, "raw"),
        )
        if lo == hi:
            src.emit("stamp = stamps[0]")
            src.emit("value = values[0]")
            src.emit(_ABSORB.format(i=lo, **names))
        else:
            src.emit(f"i = {lo}")
            src.emit("for stamp, value in zip(stamps, values):")
            with src.indent():
                src.emit(_ABSORB.format(i="i", **names))
                src.emit("i += 1")
        if reader.delta:
            # Snapshot only after a *successful* full poll: a raise
            # above leaves the old snapshot, so the next poll re-reads.
            src.emit(f"{rd}._seq_cache[({lo}, {hi})] = seqs")
            src.depth -= 1

    def cached(self, reader, lo: int, hi: int) -> str:
        """The reader's last polled values for ``lo..hi``."""
        values = self.src.const(reader.cache_values, "cv")
        if lo == hi:
            return f"{{{lo}: {values}[{lo}]}}"
        return f"dict(zip(range({lo}, {hi + 1}), {values}[{lo}:{hi + 1}]))"

    # ---- reaction --------------------------------------------------------

    def react(self, runtime, args: str) -> None:
        """Run one reaction: the attached Python callable through its
        kept :class:`ReactionContext`, else the compiled C body through
        its kept :class:`ReactionEnv`, charging ~2 ns of simulated CPU
        per counted expression (the "C" term of Section 8.1)."""
        src = self.src
        rt = src.const(runtime, "rt")
        src.emit(f"impl = {rt}.py_impl")
        src.emit("if impl is not None:")
        with src.indent():
            src.emit(f"ctx = {rt}.context")
            src.emit("if ctx is None:")
            src.emit(
                f"    ctx = {rt}.context = ReactionContext("
                f"agent, {args}, {rt}.state)"
            )
            src.emit("else:")
            src.emit(f"    ctx.args = {args}")
            src.emit("impl(ctx)")
        src.emit("else:")
        with src.indent():
            src.emit(f"body = {rt}.c_impl")
            src.emit("if body is not None:")
            with src.indent():
                src.emit(f"env = {rt}.env")
                src.emit("if env is None:")
                src.emit(
                    f"    env = {rt}.env = ReactionEnv(args={args},"
                    " read_malleable=agent.read_malleable,"
                    " write_malleable=agent.write_malleable,"
                    " tables=agent._tables, externs=agent.externs,"
                    f" statics={rt}.statics)"
                )
                src.emit("else:")
                src.emit(f"    env.args = {args}")
                src.emit("body.run(env)")
                src.emit(
                    "clock.advance(body.last_op_count * agent.c_op_cost_us)"
                )

    # ---- accounting ------------------------------------------------------

    def account(self) -> None:
        """Book the finished iteration: its per-phase breakdown (the
        terms of the Section 8.1 formula), lifetime totals, duration
        window, pacing sleep and the failure streak."""
        self.src.emit("""agent.last_breakdown = {
    "mv_flip_us": mv_us, "poll_us": poll_us, "react_us": react_us,
    "commit_us": commit_us, "total_us": busy,
}
agent.iterations += 1
agent.total_busy_us += busy
totals = agent.phase_totals
totals["mv_flip_us"] += mv_us
totals["poll_us"] += poll_us
totals["react_us"] += react_us
totals["commit_us"] += commit_us
totals["total_us"] += busy
pacing = agent.pacing_sleep_us
duration = busy + pacing
durations = agent.iteration_durations
durations.append(duration)
agent._duration_sum_us += duration
agent._duration_count += 1
if len(durations) > 100000:
    del durations[:50000]
if pacing:
    clock.advance(pacing)
    agent.total_idle_us += pacing
if agent._total_failures > failures_before:
    agent._consecutive_failures += 1
else:
    agent._consecutive_failures = 0""")


@lru_cache(maxsize=64)
def _code(source: str):
    """``source`` compiled once: agents running one program generate
    the same text (their objects arrive through ``__bind__``), so a
    fleet of them shares one compile."""
    return compile(source, "<agent-iteration>", "exec")


def build_iteration(agent) -> Callable[[bool], float]:
    """Generate ``agent``'s dialogue iteration from its bound state
    (call after ``_bind_dialogue`` resolved the plans and handles).
    The function takes ``commit`` and returns the iteration's busy
    time; its source is kept on it as ``.source``."""
    return _Builder(agent).build()
