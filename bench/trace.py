"""Outside-in tracing: spans around the public entry points of each layer.

Everything here patches ``repro`` from the benchmark's side; nothing in
``src/`` knows it is being traced.  Spans live on one stack.  A span's
*self* time is its duration minus what its child spans cover, which is
the only honest way to bill this simulator: packet events drain
re-entrantly inside driver ops (``Driver._execute -> SimClock.advance ->
Scheduler._on_clock -> EventQueue.drain``), so inclusive timing would
charge the whole data plane to whichever agent iteration happened to be
advancing the clock.

Event callbacks are attributed through ``EventQueue.schedule``: each
scheduled callable is wrapped in a span billed to the layer that owns
the callable's defining module (``MODULE_LAYER``); anything unmapped
goes to ``other``.
"""

from __future__ import annotations

import json
import random
import sys
from time import perf_counter_ns
from typing import Dict, List

LAYERS = (
    "runtime", "net.hosts", "net.fabric", "switch.pipeline", "agent",
    "p4r.reaction", "switch.driver", "ctrl", "setup", "other",
)

#: Which layer owns an event callback, by the callback's module.
MODULE_LAYER = {
    "repro.runtime.scheduler": "runtime",
    "repro.net.events": "runtime",
    "repro.switch.clock": "runtime",
    "repro.net.hosts": "net.hosts",
    "repro.net.tcp": "net.hosts",
    "repro.apps.fabric_lb": "net.hosts",      # MultiFlowSender ticks
    "repro.net.fabric": "net.fabric",
    "repro.net.sim": "net.fabric",
    "repro.switch.asic": "switch.pipeline",
    "repro.agent.agent": "agent",
    "repro.agent.handles": "agent",
    "repro.switch.driver": "switch.driver",
    "repro.ctrl.service": "ctrl",
    "repro.ctrl.channel": "ctrl",
    "repro.ctrl.clients": "ctrl",
    "repro.agent.legacy": "ctrl",
}

DRIVER_OPS = (
    "add_entry", "modify_entry", "delete_entry", "set_default",
    "read_entries", "read_entry", "read_default", "read_registers",
    "write_register", "read_counter", "write_batch",
)
SESSION_SUBMITS = (
    "submit_modify", "submit_add", "submit_set_default",
    "submit_write_register", "submit_batch", "try_submit_modify",
    "try_submit_batch", "drain",
)

SPAN_LIMIT = 20_000
RESERVOIR = 4096


class Tracer:
    """Span stack + in-memory aggregates (count, total, self per kind).

    A *kind* is one wrapped entry point (``"SwitchAsic.process"``) or one
    callback class (``"event:net.fabric"``); each kind belongs to a layer.
    """

    def __init__(self):
        self.kinds: List[str] = []
        self.kind_layer: List[str] = []
        self.count: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        # Frames are [kind, child_ns, start_ns, span_index].
        self.stack: List[list] = []
        # The first SPAN_LIMIT spans: [kind, start_ns, end_ns, parent].
        self.spans: List[list] = []
        # Wall time per agent iteration with the nested event drain taken
        # out (driver and reaction time stay in).
        self.iteration_ns: List[int] = []
        self._iterations_seen = 0
        self._reservoir_rng = random.Random(0)
        self._drain_ns = 0
        self._drain_depth = 0
        self._patches: List[tuple] = []
        self._event_kinds: Dict[str, int] = {}      # layer -> kind

    # ---- kinds and aggregates ---------------------------------------------

    def kind(self, name: str, layer: str) -> int:
        assert layer in LAYERS, layer
        self.kinds.append(name)
        self.kind_layer.append(layer)
        self.count.append(0)
        self.total_ns.append(0)
        self.self_ns.append(0)
        return len(self.kinds) - 1

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-kind ``{count, total_ns, self_ns}`` so far (closed spans)."""
        return {
            name: {
                "layer": self.kind_layer[k],
                "count": self.count[k],
                "total_ns": self.total_ns[k],
                "self_ns": self.self_ns[k],
            }
            for k, name in enumerate(self.kinds)
        }

    # ---- the span stack ---------------------------------------------------

    def enter(self, kind: int) -> list:
        stack, spans = self.stack, self.spans
        index = -1
        if len(spans) < SPAN_LIMIT:
            index = len(spans)
            spans.append([kind, 0, 0, stack[-1][3] if stack else -1])
        frame = [kind, 0, 0, index]
        stack.append(frame)
        frame[2] = perf_counter_ns()
        return frame

    def exit(self, frame: list) -> int:
        end = perf_counter_ns()
        stack = self.stack
        stack.pop()
        kind, child_ns, start, index = frame
        duration = end - start
        self.count[kind] += 1
        self.total_ns[kind] += duration
        self.self_ns[kind] += duration - child_ns
        if stack:
            stack[-1][1] += duration
        if index >= 0:
            span = self.spans[index]
            span[1] = start
            span[2] = end
        return duration

    def wrap(self, fn, kind: int):
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            frame = enter(kind)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return traced

    # ---- patching -----------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_method(self, cls, name: str, layer: str) -> None:
        kind = self.kind(f"{cls.__name__}.{name}", layer)
        self._set(cls, name, self.wrap(cls.__dict__[name], kind))

    def patch_function(self, module, name: str, layer: str) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it
        (``from x import f`` copies the reference into the importer)."""
        original = getattr(module, name)
        traced = self.wrap(original, self.kind(name, layer))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ---- special wrappers -------------------------------------------------

    def _event_kind(self, callback) -> int:
        layer = MODULE_LAYER.get(
            getattr(callback, "__module__", None), "other"
        )
        kind = self._event_kinds.get(layer)
        if kind is None:
            kind = self._event_kinds[layer] = self.kind(
                f"event:{layer}", layer
            )
        return kind

    def _wrap_schedule(self, schedule):
        """Wrap each scheduled callback in a span of its owner's layer.
        Scheduling itself (one heap push) is not a span -- the span would
        cost more than the push -- so it stays in the scheduling layer's
        self time."""
        enter, exit_, event_kind = self.enter, self.exit, self._event_kind

        def traced_schedule(queue, time_us, callback):
            cb_kind = event_kind(callback)

            def traced_callback(now):
                frame = enter(cb_kind)
                try:
                    callback(now)
                finally:
                    exit_(frame)

            return schedule(queue, time_us, traced_callback)

        return traced_schedule

    def _wrap_drain(self, drain):
        enter, exit_ = self.enter, self.exit
        kind = self.kind("EventQueue.drain", "runtime")

        def traced_drain(queue, now_us):
            frame = enter(kind)
            self._drain_depth += 1
            try:
                return drain(queue, now_us)
            finally:
                self._drain_depth -= 1
                duration = exit_(frame)
                if not self._drain_depth:
                    self._drain_ns += duration

        return traced_drain

    def _wrap_iteration(self, run_iteration):
        enter, exit_ = self.enter, self.exit
        kind = self.kind("MantisAgent.run_iteration", "agent")

        def traced_iteration(*args, **kwargs):
            drained_before = self._drain_ns
            frame = enter(kind)
            try:
                return run_iteration(*args, **kwargs)
            finally:
                duration = exit_(frame)
                self._sample_iteration(
                    duration - (self._drain_ns - drained_before)
                )

        return traced_iteration

    def reset_iterations(self) -> None:
        """Forget the iterations sampled so far (set-up runs some)."""
        self.iteration_ns.clear()
        self._iterations_seen = 0

    def _sample_iteration(self, wall_ns: int) -> None:
        self._iterations_seen += 1
        if len(self.iteration_ns) < RESERVOIR:
            self.iteration_ns.append(wall_ns)
            return
        slot = self._reservoir_rng.randrange(self._iterations_seen)
        if slot < RESERVOIR:
            self.iteration_ns[slot] = wall_ns

    def _wrap_process_batch(self, process_batch):
        """The burst sink / traffic-manager tail is fabric code called
        back from inside the pipeline: bill it to ``net.fabric``."""
        enter, exit_ = self.enter, self.exit
        kind = self.kind("SwitchAsic.process_batch", "switch.pipeline")
        tail_kind = self.kind("burst_tm_tail", "net.fabric")
        wrap = self.wrap

        class TracedTM:
            def __init__(self, tm):
                self.admit = wrap(tm.admit, tail_kind)
                self.sink = wrap(tm.sink, tail_kind)

        def traced_batch(asic, packets, times=None, sink=None, tm=None):
            if sink is not None:
                sink = wrap(sink, tail_kind)
            if tm is not None:
                tm = TracedTM(tm)
            frame = enter(kind)
            try:
                return process_batch(asic, packets, times, sink, tm)
            finally:
                exit_(frame)

        return traced_batch

    def _wrap_attach_python(self, attach_python):
        wrap = self.wrap
        kind = self.kind("python_reaction", "p4r.reaction")

        def traced_attach(agent, reaction_name, fn):
            return attach_python(agent, reaction_name, wrap(fn, kind))

        return traced_attach

    # ---- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        """Patch every layer's entry points.  Call after importing the
        workload's modules and before building the scenario (bound
        methods captured at build time must resolve to the wrappers).
        Modules the workload never imported are left alone."""
        def loaded(module: str, name: str):
            return getattr(sys.modules.get(module), name, None)

        def patch(module: str, cls_name: str, methods, layer: str) -> None:
            cls = loaded(module, cls_name)
            if cls is not None:
                for method in methods:
                    self.patch_method(cls, method, layer)

        def replace(module: str, cls_name: str, method: str, make) -> None:
            cls = loaded(module, cls_name)
            if cls is not None:
                self._set(cls, method, make(cls.__dict__[method]))

        events, asic = "repro.net.events", "repro.switch.asic"
        fabric, agent = "repro.net.fabric", "repro.agent.agent"
        service = "repro.ctrl.service"
        patch("repro.runtime.scheduler", "Scheduler", ["run_until"],
              "runtime")
        replace(events, "EventQueue", "schedule", self._wrap_schedule)
        replace(events, "EventQueue", "drain", self._wrap_drain)

        patch(asic, "SwitchAsic", ["process", "process_batch_columnar"],
              "switch.pipeline")
        replace(asic, "SwitchAsic", "process_batch",
                self._wrap_process_batch)

        patch(fabric, "FabricSwitch",
              ["send_to_switch", "send_burst_to_switch"], "net.fabric")
        pending = [loaded(fabric, "HostLike")]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "receive" in cls.__dict__:
                self.patch_method(cls, "receive", "net.hosts")

        patch("repro.switch.driver", "Driver", DRIVER_OPS + ("memoize",),
              "switch.driver")
        patch(service, "SessionDriver", DRIVER_OPS, "ctrl")
        patch(service, "CtrlSession", SESSION_SUBMITS, "ctrl")
        patch(service, "CtrlService", ["drain"], "ctrl")

        replace(agent, "MantisAgent", "run_iteration", self._wrap_iteration)
        patch(agent, "MantisAgent", ["prologue"], "agent")
        replace(agent, "MantisAgent", "attach_python",
                self._wrap_attach_python)
        patch("repro.p4r.compiled_reaction", "CompiledReaction", ["run"],
              "p4r.reaction")
        patch("repro.p4r.creaction", "CReaction", ["run"], "p4r.reaction")

        patch("repro.net.fabric_builder", "FabricSpec", ["build"], "setup")
        for module, function in (
            ("repro.compiler.transform", "compile_p4r"),
            ("repro.net.routing", "install_routes"),
        ):
            if module in sys.modules:
                self.patch_function(sys.modules[module], function, "setup")
        return self

    # ---- output ---------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        closed = [span for span in self.spans if span[2]]
        origin = min((span[1] for span in closed), default=0)
        events = [
            {
                "name": self.kinds[kind],
                "cat": self.kind_layer[kind],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "args": {"span": index, "parent": parent},
            }
            for index, (kind, start, end, parent) in enumerate(self.spans)
            if end  # spans still open when the trace was cut have no end
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "us"}, handle)
