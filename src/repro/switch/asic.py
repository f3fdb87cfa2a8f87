"""The assembled switch ASIC.

Loads a (plain, post-Mantis-compile) P4 program and provides:

- packet processing through ingress -> traffic manager -> egress,
- stepped execution that yields between table applications so
  isolation experiments can interleave control-plane writes mid-packet,
- recirculation (bounded),
- per-port queue statistics surfaced in ``standard_metadata``,
- access to tables/registers/counters for the driver.

All per-packet state lives on the packet; all cross-packet state lives
in registers/counters/tables, exactly as on the hardware.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SwitchError
from repro.p4 import ast
from repro.p4.validate import validate_program
from repro.switch.clock import SimClock
from repro.switch import columnar as columnar_engine
from repro.switch.columnar import (
    ColumnarBatch,
    ColumnarPipeline,
    ColumnarResult,
)
from repro.switch.compiled import CompiledPipeline, PipelineProfile
from repro.switch.packet import Packet, STANDARD_METADATA_FIELDS
from repro.switch.pipeline import PipelineExecutor
from repro.switch.registers import RegisterArray
from repro.switch.tables import TableRuntime

# P4-14 source for the intrinsic metadata; programs that reference
# standard_metadata fields should prepend this snippet.
STANDARD_METADATA_P4 = (
    "header_type standard_metadata_t {\n    fields {\n"
    + "".join(
        f"        {name} : {width};\n"
        for name, width in STANDARD_METADATA_FIELDS.items()
    )
    + "    }\n}\nmetadata standard_metadata_t standard_metadata;\n"
)

MAX_RECIRCULATIONS = 4

# Execution-engine selection: "compiled" (generated-source fast path,
# the default), "interpreter" (the reference tree-walker), or
# "columnar" (numpy struct-of-arrays batch engine; scalar paths fall
# back to the compiled engine's generated controls).  The env var is
# read only when no constructor argument is given, so tests can pin a
# mode per-ASIC while operators flip the whole process.
EXECUTION_MODE_ENV = "MANTIS_PIPELINE"
EXECUTION_MODES = ("compiled", "interpreter", "columnar")


@dataclass
class CounterRuntime:
    """A P4 counter: a register array plus its counting mode."""

    counter_type: str
    array: RegisterArray


@dataclass
class BatchStats:
    """Always-on aggregates for the burst path.

    ``fused`` counts packets a burst finished in one pass with no
    scalar help: lane by lane through the bound controls, or entirely
    inside the columnar sweeps.  ``slow_path`` counts the rest:
    recirculated packets, columnar lanes that needed scalar
    assistance, and lanes a mid-burst :class:`SwitchError` left
    unfinished.  An error still counts the whole burst -- ``packets``
    and :attr:`SwitchAsic.packets_processed` both grow by its length
    on every engine -- so ``packets == fused + slow_path`` always
    holds.

    ``columnar`` counts packets that entered the columnar engine's
    vectorized sweeps; of those, ``columnar_fallback`` needed scalar
    assistance for at least one table, lane, or recirculation pass
    (per-reason detail lives in
    :attr:`ColumnarPipeline.fallback_counts`).
    """

    batches: int = 0
    packets: int = 0
    fused: int = 0
    slow_path: int = 0
    columnar: int = 0
    columnar_fallback: int = 0


# A packet's processing outcome: (egress_port, packet) or None if dropped.
ProcessResult = Optional[Tuple[int, Packet]]

# Pull-based queue-depth signal: (port, now_us) -> depth.  Installed by
# the network simulator so the traffic manager reads live queue state
# (with lazy departure accounting) instead of a pushed snapshot.
QueueModel = Callable[[int, float], int]


@dataclass
class PortStats:
    """Per-port transmit statistics and a queue-depth signal.

    ``queue_depth`` is set by whoever owns the queueing model (the
    network simulator); standalone ASIC tests leave it at 0.
    """

    tx_packets: int = 0
    tx_bytes: int = 0
    queue_depth: int = 0


class SwitchAsic:
    """A software RMT switch executing one P4 program."""

    def __init__(
        self,
        program: ast.Program,
        clock: Optional[SimClock] = None,
        num_ports: int = 32,
        pipeline_latency_us: float = 0.4,
        seed: int = 0,
        execution_mode: Optional[str] = None,
    ):
        self.clock = clock or SimClock()
        self.num_ports = num_ports
        self.pipeline_latency_us = pipeline_latency_us
        self.program = program
        self._ensure_standard_metadata()
        validate_program(program)

        self.field_masks: Dict[str, int] = {}
        for instance in program.headers.values():
            header_type = program.header_types[instance.header_type]
            for fld in header_type.fields:
                self.field_masks[f"{instance.name}.{fld.name}"] = (
                    (1 << fld.width) - 1
                )

        self.registers: Dict[str, RegisterArray] = {
            name: RegisterArray(name, decl.width, decl.instance_count)
            for name, decl in program.registers.items()
        }
        self.counters: Dict[str, CounterRuntime] = {
            name: CounterRuntime(
                decl.counter_type, RegisterArray(name, 64, decl.instance_count)
            )
            for name, decl in program.counters.items()
        }
        self.tables: Dict[str, TableRuntime] = {
            name: TableRuntime(decl, self._key_widths(decl))
            for name, decl in program.tables.items()
        }
        self.ports: List[PortStats] = [PortStats() for _ in range(num_ports)]
        if execution_mode is None:
            execution_mode = os.environ.get(
                EXECUTION_MODE_ENV, EXECUTION_MODES[0]
            )
        if execution_mode not in EXECUTION_MODES:
            raise SwitchError(
                f"unknown execution mode {execution_mode!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        self.execution_mode = execution_mode
        # One RNG shared by both engines so modify_field_rng_uniform
        # draws the same stream regardless of mode (differential tests
        # depend on this).
        rng = random.Random(seed)
        self._rng = rng
        self._seed = seed
        self.interpreter = PipelineExecutor(self, seed=seed, rng=rng)
        if execution_mode == "compiled":
            self._bind_executor(CompiledPipeline(self, rng=rng))
        elif execution_mode == "columnar":
            self._bind_executor(ColumnarPipeline(self, rng=rng))
        else:
            self._bind_executor(self.interpreter)
        self.packets_processed = 0
        self.packets_dropped = 0
        # Total pipeline passes, including recirculations: the unit of
        # the switch's packet-level bandwidth (Section 2's point that
        # recirculation divides usable throughput).
        self.pipeline_passes = 0
        self.batch_stats = BatchStats()
        # Set by whoever owns the queueing model; None means the pushed
        # PortStats.queue_depth snapshot is authoritative (standalone
        # ASIC tests).
        self.queue_model: Optional[QueueModel] = None
        self.profile: Optional[PipelineProfile] = None

    def _bind_executor(self, executor) -> None:
        """Select an engine and bind its two controls once, so
        :meth:`process` pays one call per control block and no
        per-packet lookup (``None``: the program has no such control).

        The burst shape is fixed here too: columnar sweeps when the
        engine has a plan for the program, otherwise ``None`` and
        :meth:`process_batch` runs the bound controls lane by lane
        (scalar engines, profiling, programs the columnar admission
        rejects)."""
        self.executor = executor
        self._ingress = executor.bound_control("ingress")
        self._egress = executor.bound_control("egress")
        self._ingress_sweeps = self._egress_sweeps = None
        if isinstance(executor, ColumnarPipeline):
            self._ingress_sweeps = executor.columnar_ops("ingress")
            self._egress_sweeps = executor.columnar_ops("egress")

    def _ensure_standard_metadata(self) -> None:
        if "standard_metadata" in self.program.headers:
            return
        header_type = ast.HeaderType(
            "standard_metadata_t",
            [
                ast.FieldDecl(name, width)
                for name, width in STANDARD_METADATA_FIELDS.items()
            ],
        )
        if "standard_metadata_t" not in self.program.header_types:
            self.program.add(header_type, front=True)
        self.program.add(
            ast.HeaderInstance(
                "standard_metadata", "standard_metadata_t", is_metadata=True
            ),
            front=True,
        )

    def _key_widths(self, decl: ast.TableDecl) -> List[int]:
        widths = []
        for read in decl.reads:
            if read.match_type is ast.MatchType.VALID:
                widths.append(1)
            elif isinstance(read.ref, ast.MalleableRef):
                raise SwitchError(
                    f"table {decl.name} still reads malleable {read.ref}; "
                    "run the Mantis compiler before loading"
                )
            else:
                widths.append(self.program.field_width(read.ref))
        return widths

    # ---- lookups used by the driver ---------------------------------------

    def get_register(self, name: str) -> RegisterArray:
        if name not in self.registers:
            raise SwitchError(f"unknown register {name!r}")
        return self.registers[name]

    def get_counter(self, name: str) -> CounterRuntime:
        if name not in self.counters:
            raise SwitchError(f"unknown counter {name!r}")
        return self.counters[name]

    def get_table(self, name: str) -> TableRuntime:
        if name not in self.tables:
            raise SwitchError(f"unknown table {name!r}")
        return self.tables[name]

    # ---- profiling --------------------------------------------------------

    def enable_profiling(self) -> PipelineProfile:
        """Rebuild the compiled engine with hot-loop counters.

        Counting costs one dict increment per control run, table apply,
        and action execution, so it is opt-in.  The engine is rebuilt
        around the *same* RNG object, keeping the packet-visible random
        stream unchanged by profiling."""
        if self.execution_mode not in ("compiled", "columnar"):
            raise SwitchError(
                "hot-loop profiling requires the compiled or columnar engine"
            )
        profile = PipelineProfile()
        engine = (
            ColumnarPipeline
            if self.execution_mode == "columnar"
            else CompiledPipeline
        )
        self._bind_executor(engine(self, rng=self._rng, profile=profile))
        self.profile = profile
        return profile

    # ---- packet processing --------------------------------------------------

    def _traffic_manager_at(
        self, packet: Packet, now: float, ts: int
    ) -> None:
        """Between ingress and egress: resolve the egress port and
        expose its queue depth (the signal Mantis polls).  The time is
        explicit because burst coalescing runs packets at their
        per-packet arrival times while the real clock sits at the burst
        start."""
        port = packet.egress_spec
        if not 0 <= port < self.num_ports:
            raise SwitchError(f"egress_spec {port} out of range")
        fields = packet.fields
        fields["standard_metadata.egress_port"] = port
        queue_model = self.queue_model
        if queue_model is not None:
            depth = queue_model(port, now)
        else:
            depth = self.ports[port].queue_depth
        fields["standard_metadata.enq_qdepth"] = depth
        fields["standard_metadata.deq_qdepth"] = depth
        fields["standard_metadata.egress_global_timestamp"] = ts

    def process(self, packet: Packet) -> Optional[Tuple[int, Packet]]:
        """Run a packet through the full pipeline.

        Returns ``(egress_port, packet)`` or ``None`` if dropped.
        Recirculated packets re-enter ingress up to
        ``MAX_RECIRCULATIONS`` times (each pass costs pipeline latency,
        modelling the paper's recirculation bandwidth concern).

        This is the hot path: a thin shell around the two controls the
        executor bound at build time, with the timestamp and the
        traffic manager (:meth:`_traffic_manager_at`) inline.  Nothing
        here advances the clock, so it is read once.
        """
        self.packets_processed += 1
        ingress = self._ingress
        egress = self._egress
        fields = packet.fields
        now = self.clock.now
        ts = int(now)
        recirculations = MAX_RECIRCULATIONS
        while True:
            self.pipeline_passes += 1
            fields["standard_metadata.ingress_global_timestamp"] = ts
            if ingress is not None:
                ingress(packet)
            if fields["standard_metadata.drop_flag"]:
                break
            port_id = fields["standard_metadata.egress_spec"]
            if not 0 <= port_id < self.num_ports:
                raise SwitchError(f"egress_spec {port_id} out of range")
            fields["standard_metadata.egress_port"] = port_id
            queue_model = self.queue_model
            if queue_model is not None:
                depth = queue_model(port_id, now)
            else:
                depth = self.ports[port_id].queue_depth
            fields["standard_metadata.enq_qdepth"] = depth
            fields["standard_metadata.deq_qdepth"] = depth
            fields["standard_metadata.egress_global_timestamp"] = ts
            if egress is not None:
                egress(packet)
            if (
                fields["standard_metadata.drop_flag"]
                or not fields["standard_metadata.recirculate_flag"]
            ):
                break
            fields["standard_metadata.recirculate_flag"] = 0
            if not recirculations:
                break
            recirculations -= 1
        if fields["standard_metadata.drop_flag"]:
            self.packets_dropped += 1
            return None
        port_id = fields["standard_metadata.egress_port"]
        port = self.ports[port_id]
        port.tx_packets += 1
        port.tx_bytes += packet.size_bytes
        return port_id, packet

    def process_batch(
        self,
        packets: Sequence[Packet],
        times: Optional[Sequence[float]] = None,
        sink: Optional[Callable[[int, ProcessResult], None]] = None,
        tm: Optional[object] = None,
    ) -> List[ProcessResult]:
        """Run a burst of packets through the pipeline in one call.

        Semantically identical to calling :meth:`process` per packet --
        same results, counters, timestamps, and port statistics.  A
        burst takes one of two shapes, fixed when the engine was bound:
        the columnar engine's vectorized sweeps when it has a plan for
        the program, otherwise the bound controls lane by lane, with
        the port list and timestamp resolved once per burst.  Drops
        stay inline; recirculation finishes its extra passes per
        packet.

        ``times`` optionally gives each packet a notional clock value
        (the network simulator's burst coalescing: one event, exact
        per-packet arrival times).  ``sink`` is called with
        ``(index, result)`` immediately after each packet, letting a
        caller interleave per-packet work -- queue accounting must see
        packet ``i`` enqueued before packet ``i + 1`` reads depths.

        ``tm`` is the columnar alternative to ``sink``: a traffic
        manager with ``admit(lanes, ports, times, sizes)`` (causal
        batched queue accounting at the TM point) and a per-lane
        ``sink`` fallback.  Only pass it when the caller has proved
        statically that no reachable egress action drops and nothing
        recirculates -- ``admit`` commits enqueues before the egress
        sweeps run, which is exactly the scalar interleaving only
        under that guarantee (the vectorized tail enforces it).

        A :class:`SwitchError` (an out-of-range ``egress_spec``, say)
        propagates after the lanes before it have fully committed; the
        whole burst still counts, unreached lanes as ``slow_path``
        (see :class:`BatchStats`).
        """
        if self._ingress_sweeps is not None:
            return self._batch_columnar(
                ColumnarBatch.from_packets(
                    packets if isinstance(packets, list) else list(packets)
                ),
                times, sink, True, tm,
            )
        if tm is not None and sink is None:
            # The lane loop takes the traffic manager's per-lane view.
            sink = tm.sink
        ingress = self._ingress
        egress = self._egress
        ports = self.ports
        num_ports = self.num_ports
        queue_model = self.queue_model
        clock_now = self.clock.now
        shared_ts = int(clock_now) if times is None else None
        results: List[ProcessResult] = []
        append = results.append
        passes = 0
        dropped = 0
        fused = 0
        drop_key = "standard_metadata.drop_flag"
        try:
            for index, packet in enumerate(packets):
                passes += 1
                fields = packet.fields
                if shared_ts is None:
                    t_now = times[index]
                    ts = int(t_now)
                else:
                    t_now = clock_now
                    ts = shared_ts
                fields["standard_metadata.ingress_global_timestamp"] = ts
                if ingress is not None:
                    ingress(packet)
                if not fields[drop_key]:
                    port_id = fields["standard_metadata.egress_spec"]
                    if not 0 <= port_id < num_ports:
                        raise SwitchError(
                            f"egress_spec {port_id} out of range"
                        )
                    fields["standard_metadata.egress_port"] = port_id
                    if queue_model is not None:
                        depth = queue_model(port_id, t_now)
                    else:
                        depth = ports[port_id].queue_depth
                    fields["standard_metadata.enq_qdepth"] = depth
                    fields["standard_metadata.deq_qdepth"] = depth
                    fields["standard_metadata.egress_global_timestamp"] = ts
                    if egress is not None:
                        egress(packet)
                if fields[drop_key]:
                    dropped += 1
                    fused += 1
                    result = None
                elif fields["standard_metadata.recirculate_flag"]:
                    extra, result = self._recirculate(packet, t_now, ts)
                    passes += extra
                    if result is None:
                        dropped += 1
                else:
                    fused += 1
                    port = ports[port_id]
                    port.tx_packets += 1
                    port.tx_bytes += packet.size_bytes
                    result = (port_id, packet)
                append(result)
                if sink is not None:
                    sink(index, result)
        finally:
            # Every lane not finished in one pass -- recirculated,
            # failing, or never reached -- is slow path.
            n = len(packets)
            self.packets_processed += n
            self.pipeline_passes += passes
            self.packets_dropped += dropped
            stats = self.batch_stats
            stats.batches += 1
            stats.packets += n
            stats.fused += fused
            stats.slow_path += n - fused
        return results

    def process_batch_columnar(
        self,
        batch: ColumnarBatch,
        times: Optional[Sequence[float]] = None,
    ) -> ColumnarResult:
        """Native columnar entry: run a (typically pool-backed) batch
        and return per-lane egress ports without materializing
        ``Packet`` objects -- the benchmark fast path.  Requires the
        columnar engine with a columnar-admissible program; use
        :meth:`process_batch` for the always-available path."""
        if self._ingress_sweeps is None:
            raise SwitchError(
                "process_batch_columnar requires execution_mode='columnar' "
                "with a columnar-admissible program (and profiling off)"
            )
        return self._batch_columnar(batch, times, None, False)

    def _batch_columnar(
        self,
        batch: ColumnarBatch,
        times: Optional[Sequence[float]],
        sink: Optional[Callable[[int, ProcessResult], None]],
        collect: bool,
        tm: Optional[object] = None,
    ):
        """Columnar burst execution: vectorized table-major ingress
        sweeps, then either a vectorized traffic-manager/egress tail
        (no sink, vectorizable egress, in-range specs, and either no
        queue model or a caller-provided batched ``tm``) or a scalar
        per-lane tail that runs the traffic manager and the bound
        egress control in lane order, exactly like the second half of
        :meth:`process_batch`'s lane loop.  Returns per-packet results
        (``collect``) or a :class:`ColumnarResult`."""
        np = columnar_engine.np
        executor = self.executor
        sweeps = self._ingress_sweeps
        egress_sweeps = self._egress_sweeps
        n = batch.n
        ports = self.ports
        num_ports = self.num_ports
        queue_model = self.queue_model
        clock_now = self.clock.now
        drop_key = "standard_metadata.drop_flag"
        if times is None:
            stamps = None
            shared_ts = int(clock_now)
            batch.store(
                "standard_metadata.ingress_global_timestamp", None, shared_ts
            )
        else:
            stamps = np.fromiter((int(t) for t in times), np.int64, count=n)
            shared_ts = 0
            batch.store(
                "standard_metadata.ingress_global_timestamp", None, stamps
            )
        state = columnar_engine._SweepState(batch, executor.fallback_counts)
        results: Optional[List[ProcessResult]] = (
            [None] * n if collect else None
        )
        processed = n
        passes = n
        dropped = 0
        try:
            try:
                for sweep in sweeps:
                    sweep.run(state)
            except SwitchError:
                # Every lane was mid-sweep: bucket them all so
                # packets == fused + slow_path holds in the flush.
                state.fallback[:] = True
                raise
            drop = batch.col(drop_key)
            live_mask = drop == 0
            if sink is not None:
                tail_reason = "tail:sink"
            elif queue_model is not None and (tm is None or times is None):
                tail_reason = "tail:queue-model"
            elif egress_sweeps is None:
                tail_reason = "tail:egress-plan"
            else:
                tail_reason = None
            live_idx = None
            live_spec = None
            if tail_reason is None:
                if not bool(live_mask.all()):
                    live_idx = np.nonzero(live_mask)[0]
                try:
                    spec = batch.col("standard_metadata.egress_spec")
                except columnar_engine._Unvectorizable:
                    tail_reason = "tail:egress-spec"
                else:
                    live_spec = spec if live_idx is None else spec[live_idx]
                    if live_spec.size and bool(
                        ((live_spec < 0) | (live_spec >= num_ports)).any()
                    ):
                        # An out-of-range spec must raise with scalar
                        # semantics (lane position, partial effects).
                        tail_reason = "tail:egress-spec"
            if tail_reason is None:
                # ---- vectorized traffic manager + egress ----
                batch.store(
                    "standard_metadata.egress_port", live_idx, live_spec
                )
                if tm is not None:
                    # Caller-provided traffic manager: causal batched
                    # queue accounting (enqueues committed now; the
                    # caller guaranteed egress cannot drop them).
                    depth_vals = tm.admit(
                        live_idx, live_spec, times,
                        batch.sizes if live_idx is None
                        else batch.sizes[live_idx],
                    )
                else:
                    depths = np.fromiter(
                        (port.queue_depth for port in ports),
                        np.int64, count=num_ports,
                    )
                    depth_vals = (
                        depths[live_spec] if live_spec.size else live_spec
                    )
                batch.store(
                    "standard_metadata.enq_qdepth", live_idx, depth_vals
                )
                batch.store(
                    "standard_metadata.deq_qdepth", live_idx, depth_vals
                )
                if stamps is None:
                    egress_ts = shared_ts
                elif live_idx is None:
                    egress_ts = stamps
                else:
                    egress_ts = stamps[live_idx]
                batch.store(
                    "standard_metadata.egress_global_timestamp",
                    live_idx, egress_ts,
                )
                # Delivery uses the TM-time port even if egress
                # rewrites egress_spec; snapshot before the sweeps.
                tm_vals = (
                    live_spec.copy() if live_idx is None else live_spec
                )
                for sweep in egress_sweeps:
                    sweep.run(state)
                drop = batch.col(drop_key)
                live2 = drop == 0
                dropped = n - int(live2.sum())
                recirc = batch.col("standard_metadata.recirculate_flag")
                recirc_mask = live2 & (recirc != 0)
                has_recirc = bool(recirc_mask.any())
                if tm is not None and (
                    has_recirc or dropped != n - int(live_mask.sum())
                ):
                    # The caller's static no-drop/no-recirc guarantee
                    # was violated after enqueues were committed.
                    raise SwitchError(
                        "burst traffic manager requires egress without "
                        "drops or recirculation"
                    )
                deliver_mask = (
                    live2 & ~recirc_mask if has_recirc else live2
                )
                tm_ports = np.full(n, -1, np.int64)
                if live_idx is None:
                    tm_ports[:] = tm_vals
                else:
                    tm_ports[live_idx] = tm_vals
                if bool(deliver_mask.all()):
                    del_ports = tm_ports
                    del_sizes = batch.sizes
                else:
                    del_idx = np.nonzero(deliver_mask)[0]
                    del_ports = tm_ports[del_idx]
                    del_sizes = batch.sizes[del_idx]
                if del_ports.size:
                    tx_counts = np.bincount(del_ports, minlength=num_ports)
                    tx_bytes = np.bincount(
                        del_ports,
                        weights=del_sizes.astype(np.float64),
                        minlength=num_ports,
                    )
                    for port_id in np.nonzero(tx_counts)[0].tolist():
                        port = ports[port_id]
                        port.tx_packets += int(tx_counts[port_id])
                        port.tx_bytes += int(tx_bytes[port_id])
                packets = None
                if collect or has_recirc:
                    batch.flush()
                    packets = batch.packets
                if has_recirc:
                    # Columnar recirculation: compact the flagged
                    # lanes into a sub-batch and re-run the vectorized
                    # sweeps per pass instead of draining each lane.
                    lanes = np.nonzero(recirc_mask)[0]
                    extra, lane_ports = self._recirculate_columnar(
                        batch, lanes, times, stamps, shared_ts,
                        clock_now, state,
                    )
                    passes += extra
                    tm_ports[lanes] = lane_ports
                    port_vals = lane_ports.tolist()
                    for pos, lane in enumerate(lanes.tolist()):
                        port_id = port_vals[pos]
                        if port_id < 0:
                            dropped += 1
                            if collect:
                                results[lane] = None
                        elif collect:
                            results[lane] = (port_id, packets[lane])
                if collect:
                    port_list = tm_ports.tolist()
                    for lane, alive in enumerate(deliver_mask.tolist()):
                        if alive:
                            results[lane] = (port_list[lane], packets[lane])
                    return results
                return ColumnarResult(tm_ports, n - dropped, dropped)
            # ---- scalar tail: TM + bound egress control per lane ----
            if tm is not None and sink is None:
                sink = tm.sink
            executor.count_fallback(tail_reason, n)
            batch.flush()
            packets = batch.packets
            egress = self._egress
            lane_ports = None if collect else np.full(n, -1, np.int64)
            index = -1
            accounted = True
            try:
                for index, packet in enumerate(packets):
                    accounted = False
                    fields = packet.fields
                    if stamps is None:
                        t_now = clock_now
                        ts = shared_ts
                    else:
                        t_now = times[index]
                        ts = int(stamps[index])
                    if fields[drop_key]:
                        dropped += 1
                        accounted = True
                        if sink is not None:
                            sink(index, None)
                        continue
                    port_id = fields["standard_metadata.egress_spec"]
                    if not 0 <= port_id < num_ports:
                        raise SwitchError(
                            f"egress_spec {port_id} out of range"
                        )
                    fields["standard_metadata.egress_port"] = port_id
                    if queue_model is not None:
                        depth = queue_model(port_id, t_now)
                    else:
                        depth = ports[port_id].queue_depth
                    fields["standard_metadata.enq_qdepth"] = depth
                    fields["standard_metadata.deq_qdepth"] = depth
                    fields["standard_metadata.egress_global_timestamp"] = ts
                    if egress is not None:
                        egress(packet)
                    if fields[drop_key]:
                        dropped += 1
                        accounted = True
                        if sink is not None:
                            sink(index, None)
                        continue
                    if fields["standard_metadata.recirculate_flag"]:
                        state.fallback[index] = True
                        state.reasons["recirc"] = (
                            state.reasons.get("recirc", 0) + 1
                        )
                        accounted = True
                        extra, result = self._recirculate(packet, t_now, ts)
                        passes += extra
                        if result is None:
                            dropped += 1
                        if collect:
                            results[index] = result
                        elif result is not None:
                            lane_ports[index] = result[0]
                        if sink is not None:
                            sink(index, result)
                        continue
                    accounted = True
                    port = ports[port_id]
                    port.tx_packets += 1
                    port.tx_bytes += packet.size_bytes
                    if collect:
                        results[index] = (port_id, packet)
                    else:
                        lane_ports[index] = port_id
                    if sink is not None:
                        sink(index, (port_id, packet))
            except SwitchError:
                # The failing lane counts slow; unreached lanes already
                # finished ingress, so they count by its drop flag.
                if not accounted:
                    state.fallback[index] = True
                for later_index in range(index + 1, n):
                    if packets[later_index].fields[drop_key]:
                        dropped += 1
                    else:
                        state.fallback[later_index] = True
                raise
            if collect:
                return results
            return ColumnarResult(lane_ports, n - dropped, dropped)
        finally:
            slow = int(state.fallback.sum())
            self.packets_processed += processed
            self.pipeline_passes += passes
            self.packets_dropped += dropped
            stats = self.batch_stats
            stats.batches += 1
            stats.packets += processed
            stats.fused += processed - slow
            stats.slow_path += slow
            stats.columnar += processed
            stats.columnar_fallback += slow

    def _recirculate(
        self, packet: Packet, now: float, ts: int
    ) -> Tuple[int, ProcessResult]:
        """Passes 2..N of a packet whose first pass requested
        recirculation; mirrors the tail of :meth:`process`.  Returns
        ``(extra_passes, result)``; the caller owns the counters."""
        fields = packet.fields
        fields["standard_metadata.recirculate_flag"] = 0
        fields["standard_metadata.ingress_global_timestamp"] = ts
        if self._ingress is not None:
            self._ingress(packet)
        if fields["standard_metadata.drop_flag"]:
            return 1, None
        extra, result = self._recirculate_tail(
            packet, now, ts, MAX_RECIRCULATIONS - 1
        )
        return 1 + extra, result

    def _recirculate_tail(
        self, packet: Packet, now: float, ts: int, budget: int
    ) -> Tuple[int, ProcessResult]:
        """Finish one recirculation pass from the traffic manager
        onward (its ingress already ran), then continue for up to
        ``budget`` further full passes through the bound controls;
        mirrors the loop of :meth:`process`.  Returns
        ``(extra_full_passes, result)``."""
        ingress = self._ingress
        egress = self._egress
        fields = packet.fields
        extra = 0
        while True:
            self._traffic_manager_at(packet, now, ts)
            if egress is not None:
                egress(packet)
            if (
                fields["standard_metadata.drop_flag"]
                or not fields["standard_metadata.recirculate_flag"]
            ):
                break
            fields["standard_metadata.recirculate_flag"] = 0
            if budget == 0:
                break
            budget -= 1
            extra += 1
            fields["standard_metadata.ingress_global_timestamp"] = ts
            if ingress is not None:
                ingress(packet)
            if fields["standard_metadata.drop_flag"]:
                break
        if fields["standard_metadata.drop_flag"]:
            return extra, None
        port_id = fields["standard_metadata.egress_port"]
        port = self.ports[port_id]
        port.tx_packets += 1
        port.tx_bytes += packet.size_bytes
        return extra, (port_id, packet)

    def _recirculate_columnar(
        self,
        parent: ColumnarBatch,
        lanes,
        times,
        stamps,
        shared_ts: int,
        clock_now: float,
        parent_state,
    ):
        """Columnar recirculation: compact the recirculate-flagged
        lanes into a sub-batch (sharing the parent's packet objects)
        and re-run the vectorized sweeps pass by pass instead of
        draining each lane through the bound controls.

        Only reachable for programs whose admitted footprint is
        recirc-alone -- no registers, counters, or RNG anywhere -- so
        sweeping all still-recirculating lanes together each pass is
        unobservable.  Lanes that need scalar semantics mid-flight (an
        out-of-range ``egress_spec`` must raise at its exact lane
        position with per-lane partial effects) drain in ascending
        lane order and count as fallbacks; everything else stays
        vectorized.  Returns ``(extra_passes, lane_ports)`` where
        ``lane_ports[k] == -1`` marks a dropped lane."""
        np = columnar_engine.np
        executor = self.executor
        sweeps = self._ingress_sweeps
        egress_sweeps = self._egress_sweeps
        ports = self.ports
        num_ports = self.num_ports
        packets = parent.packets
        sub_packets = [packets[int(lane)] for lane in lanes.tolist()]
        sub = ColumnarBatch.from_packets(sub_packets)
        m = sub.n
        state = columnar_engine._SweepState(sub, executor.fallback_counts)
        active = np.ones(m, bool)
        lane_ports = np.full(m, -1, np.int64)
        vec_tx = np.zeros(m, bool)
        tm_latest = np.full(m, -1, np.int64)
        extra_passes = 0
        sub_ts = None if stamps is None else stamps[lanes]
        drop_key = "standard_metadata.drop_flag"
        recirc_key = "standard_metadata.recirculate_flag"
        for pass_no in range(MAX_RECIRCULATIONS):
            act_idx = np.nonzero(active)[0]
            if not act_idx.size:
                break
            extra_passes += int(act_idx.size)
            sub.store(recirc_key, act_idx, 0)
            sub.store(
                "standard_metadata.ingress_global_timestamp", act_idx,
                shared_ts if sub_ts is None else sub_ts[act_idx],
            )
            for sweep in sweeps:
                sweep.run(state, active)
            drop = sub.col(drop_key)
            alive = active & (drop == 0)
            active = alive  # ingress-dropped lanes finish as None
            if not bool(alive.any()):
                continue
            alive_idx = np.nonzero(alive)[0]
            spec = sub.col("standard_metadata.egress_spec")
            aspec = spec[alive_idx]
            if bool(((aspec < 0) | (aspec >= num_ports)).any()):
                # Scalar continuation: the bad lane must raise at its
                # own position, with earlier lanes fully committed.
                parent_state.mark_fallback(
                    lanes[alive_idx], int(alive_idx.size), "recirc"
                )
                sub.flush()
                budget = MAX_RECIRCULATIONS - pass_no - 1
                for k in alive_idx.tolist():
                    lane = int(lanes[k])
                    t_now = clock_now if times is None else times[lane]
                    ts = shared_ts if sub_ts is None else int(sub_ts[k])
                    tail_extra, result = self._recirculate_tail(
                        sub_packets[k], t_now, ts, budget
                    )
                    extra_passes += tail_extra
                    lane_ports[k] = -1 if result is None else result[0]
                active[:] = False
                sub.resync()  # the packet dicts are authoritative now
                break
            # Vectorized traffic manager: static depth snapshot (the
            # queue model is statically absent on this tail).
            sub.store("standard_metadata.egress_port", alive_idx, aspec)
            depths = np.fromiter(
                (port.queue_depth for port in ports),
                np.int64, count=num_ports,
            )
            depth_vals = depths[aspec]
            sub.store("standard_metadata.enq_qdepth", alive_idx, depth_vals)
            sub.store("standard_metadata.deq_qdepth", alive_idx, depth_vals)
            sub.store(
                "standard_metadata.egress_global_timestamp", alive_idx,
                shared_ts if sub_ts is None else sub_ts[alive_idx],
            )
            tm_latest[alive_idx] = aspec
            for sweep in egress_sweeps:
                sweep.run(state, alive)
            drop = sub.col(drop_key)
            alive = active & (drop == 0)
            recirc = sub.col(recirc_key)
            again = alive & (recirc != 0)
            deliver = alive & ~again
            if bool(deliver.any()):
                didx = np.nonzero(deliver)[0]
                lane_ports[didx] = tm_latest[didx]
                vec_tx[didx] = True
            active = again
        if bool(active.any()):
            # Budget exhausted with the flag still raised: the scalar
            # loop clears it on its way out and delivers at the final
            # pass's traffic-manager port.
            aidx = np.nonzero(active)[0]
            sub.store(recirc_key, aidx, 0)
            lane_ports[aidx] = tm_latest[aidx]
            vec_tx[aidx] = True
        sub.flush()
        if bool(vec_tx.any()):
            vidx = np.nonzero(vec_tx)[0]
            vports = lane_ports[vidx]
            tx_counts = np.bincount(vports, minlength=num_ports)
            tx_bytes = np.bincount(
                vports,
                weights=sub.sizes[vidx].astype(np.float64),
                minlength=num_ports,
            )
            for port_id in np.nonzero(tx_counts)[0].tolist():
                port = ports[port_id]
                port.tx_packets += int(tx_counts[port_id])
                port.tx_bytes += int(tx_bytes[port_id])
        if bool(state.fallback.any()):
            parent_state.fallback[lanes[np.nonzero(state.fallback)[0]]] = True
        return extra_passes, lane_ports

    def process_stepped(self, packet: Packet) -> Iterator[Tuple[str, str]]:
        """Stepped variant of :meth:`process`; yields
        ``("apply", table)`` before every table application."""
        self.packets_processed += 1
        for _pass in range(1 + MAX_RECIRCULATIONS):
            self.pipeline_passes += 1
            # Re-read per pass: the caller may advance the clock
            # between yields.
            packet.fields["standard_metadata.ingress_global_timestamp"] = int(
                self.clock.now
            )
            yield from self.executor.iter_control("ingress", packet)
            if packet.dropped:
                break
            now = self.clock.now
            self._traffic_manager_at(packet, now, int(now))
            yield from self.executor.iter_control("egress", packet)
            if packet.dropped or not packet.recirculated:
                break
            packet.fields["standard_metadata.recirculate_flag"] = 0
        if packet.dropped:
            self.packets_dropped += 1
        else:
            port = self.ports[packet.fields["standard_metadata.egress_port"]]
            port.tx_packets += 1
            port.tx_bytes += packet.size_bytes
