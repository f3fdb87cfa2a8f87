"""The control-plane update-rate model, in simulated time.

The same stream of memoized route-table modifies runs three ways:

- **sync**      -- the bare driver, one ``modify_entry`` at a time
  (``prep + pcie + device`` per op);
- **pipelined** -- through a ``CtrlService`` session with an in-flight
  window, so prep and PCIe overlap device windows and throughput is
  bounded by device cost alone;
- **bulk**      -- coalesced into DMA-burst ``write_batch``
  transactions.

Speedups are ratios of simulated time for the identical op stream, so
they hold at any stream length; a 4 096-op stream over a 1 024-entry
window shows the same ratios as a million-op one.  A contended run
(agent + live legacy client + streaming ``BulkLoader``) checks that
strict-priority arbitration keeps legacy latency at Fig. 12 scale
while the bulk session is backpressured.
"""

import pytest

from repro.agent.legacy import LiveLegacyClient
from repro.analysis.stats import percentile
from repro.ctrl.clients import BulkLoader
from repro.runtime.scheduler import AgentActor, Scheduler
from repro.switch.asic import STANDARD_METADATA_P4
from repro.system import MantisSystem

ENTRIES = 4_096
WINDOW = 1_024
TIMELINE_LIMIT = 1_024

ROUTE_P4R = STANDARD_METADATA_P4 + """
header_type ipv4_t { fields { dstAddr : 32; } }
header ipv4_t ipv4;
action forward(port) { modify_field(standard_metadata.egress_spec, port); }
action _drop() { drop(); }
table route {
    reads { ipv4.dstAddr : exact; }
    actions { forward; _drop; }
    default_action : _drop();
    size : 4096;
}
control ingress { apply(route); }
"""

# The Fig. 12 shape: a busy Mantis dialogue (malleable knob + register
# poll) plus a legacy table for the live legacy client.
CONTENDED_P4R = STANDARD_METADATA_P4 + """
header_type hdr_t { fields { a : 32; } }
header hdr_t hdr;
register probe { width : 32; instance_count : 8; }
register shadow { width : 32; instance_count : 64; }
malleable value knob { width : 32; init : 0; }
action stamp() { modify_field(hdr.a, ${knob}); }
table t { actions { stamp; } default_action : stamp(); }
action set_a(v) { modify_field(hdr.a, v); }
action nop() { no_op(); }
table legacy_table {
    reads { hdr.a : exact; }
    actions { set_a; nop; }
    default_action : nop();
    size : 128;
}
control ingress { apply(t); apply(legacy_table); }

reaction tick(reg probe[0:7]) {
    ${knob} = ${knob} + 1;
}
"""


def route_stack(ctrl_service):
    """A switch with ``WINDOW`` routes installed and a memoized
    route-table handle; returns ``(system, entry_ids, memo)``."""
    system = MantisSystem.from_source(
        ROUTE_P4R, ctrl_service=ctrl_service,
        record_timeline=True, timeline_limit=TIMELINE_LIMIT,
    )
    entry_ids = system.driver.write_batch([
        ("add", "route", [addr], "forward", [addr % 64])
        for addr in range(WINDOW)
    ])
    return system, entry_ids, system.driver.memoize("table", "route")


@pytest.fixture(scope="module")
def sync_run():
    system, entry_ids, memo = route_stack(ctrl_service=False)
    driver, start = system.driver, system.clock.now
    for i in range(ENTRIES):
        driver.modify_entry("route", entry_ids[i % WINDOW], args=[i % 64],
                            memo=memo)
    return system, system.clock.now - start


@pytest.fixture(scope="module")
def pipelined_run():
    system, entry_ids, memo = route_stack(ctrl_service=True)
    system.ctrl.channel.window = 8
    clock = system.clock
    scheduler = Scheduler(clock)
    system.ctrl.attach_scheduler(scheduler)
    session = system.ctrl.open_session("updater", priority="mantis")
    start, submitted = clock.now, 0
    while submitted < ENTRIES:
        ticket = session.try_submit_modify(
            "route", entry_ids[submitted % WINDOW], args=[submitted % 64],
            memo=memo,
        )
        if ticket is not None:
            submitted += 1
            continue
        # Window full: run simulated time to the next completion.
        next_time = scheduler.events.peek_time()
        if next_time > clock.now:
            clock.advance_to(next_time)
        else:
            scheduler.events.drain(clock.now)
    session.drain()
    return system, clock.now - start


@pytest.fixture(scope="module")
def bulk_run():
    system, entry_ids, _memo = route_stack(ctrl_service=True)
    driver, start = system.driver, system.clock.now
    txns = driver.bulk_txns
    for base in range(0, ENTRIES, 512):
        driver.write_batch([
            ("modify", "route", entry_ids[i % WINDOW], None, [i % 64])
            for i in range(base, base + 512)
        ])
    assert driver.bulk_txns - txns == ENTRIES // 512
    return system, system.clock.now - start


def test_pipelined_and_bulk_beat_sync(sync_run, pipelined_run, bulk_run):
    sync_us, pipelined_us, bulk_us = (
        sync_run[1], pipelined_run[1], bulk_run[1]
    )
    assert sync_us / pipelined_us >= 2.0
    assert sync_us / bulk_us >= 5.0


def test_pipelined_stream_is_device_bound(pipelined_run):
    system, sim_us = pipelined_run
    # us/op collapses to the memoized table-modify device cost ...
    assert sim_us / ENTRIES == pytest.approx(0.5, rel=0.01)
    # ... because the in-flight window kept the device saturated.
    assert system.ctrl.channel.utilization(sim_us) > 0.95


def test_timeline_ring_stays_bounded(sync_run):
    driver = sync_run[0].driver
    assert len(driver.timeline) <= TIMELINE_LIMIT < driver.timeline_total


def test_contended_legacy_latency_under_bulk_load():
    system = MantisSystem.from_source(
        CONTENDED_P4R, ctrl_service=True, record_timeline=True
    )
    system.agent.prologue()
    scheduler = Scheduler(system.clock)
    system.ctrl.attach_scheduler(scheduler)
    legacy = LiveLegacyClient(
        system.ctrl.open_session("legacy", priority="legacy"),
        "legacy_table", interval_us=11.0,
    )
    legacy.setup([1], "set_a", [0])
    loader = BulkLoader(
        system.ctrl.open_session("loader", priority="bulk", queue_limit=8),
        [("write_register", "shadow", i % 64, i) for i in range(10_000)],
        chunk_size=64,
    )
    start = system.clock.now
    legacy.start(scheduler, start, start + 8_000.0)
    loader.start()
    scheduler.spawn(AgentActor(system.agent, name="mantis-agent"))
    scheduler.run_until(start + 8_000.0)
    system.ctrl.drain()

    latencies = legacy.latencies
    assert system.agent.iterations > 100
    assert len(latencies) > 500
    assert loader.ops_completed == 10_000
    # Backpressure engaged on the bounded bulk queue ...
    assert loader.parked > 0
    # ... and arbitration held legacy at Fig. 12 scale underneath it.
    assert percentile(latencies, 50) < 5.0
    assert percentile(latencies, 99) < 60.0
