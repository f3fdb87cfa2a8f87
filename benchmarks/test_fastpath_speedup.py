"""Fast-path microbenchmark: interpreter vs compiled vs batch vs
columnar.

Pumps the Figure 15 DoS data-plane workload (blocklist, accounting
with register read-modify-write, exact routing -- as compiled from
P4R by the Mantis compiler) through ``SwitchAsic.process`` under both
execution modes, then through the burst-mode ``process_batch`` path
on the compiled engine (pooled packets, the generated controls run
lane by lane), then through the columnar struct-of-arrays sweep
(``process_batch_columnar`` over a ``ColumnarPool``, best of the
batch-size sweep), and asserts the compiled engine is at least 3x the
interpreter's packet rate, the batch path faster than the compiled
per-packet rate, and the columnar path at least 5x the batch rate.
(The batch path used to be gated at 2x over per-packet; the generated
per-packet controls closed most of that gap from below, so the ratio
is reported, not gated.)  The ECMP rotating-hash workload
(vectorized crc16 + dynamic-index egress counter) must also hit 5x
over batch with no ``drain:`` fallbacks.  All numbers land in a JSON
artifact so the speedups are tracked across PRs.
"""

from __future__ import annotations

from benchmarks.conftest import report, report_json
from repro.fastbench import run_fastpath_benchmark

N_PACKETS = 12_000
MIN_SPEEDUP = 3.0
MIN_COLUMNAR_SPEEDUP = 5.0
MIN_ECMP_COLUMNAR_SPEEDUP = 5.0


def test_fastpath_speedup(bench_once, bench_json_path):
    result = bench_once(run_fastpath_benchmark, n_packets=N_PACKETS)

    columnar_rows = [
        [f"columnar (x{size})", f"{pps:,.0f}", ""]
        for size, pps in result["columnar_pps_by_batch"].items()
    ]
    report(
        "Fast path speedup (Figure 15 DoS workload)",
        ["engine", "pkt/s", "elapsed (s)"],
        [
            ["interpreter", f"{result['interpreter_pps']:,.0f}",
             f"{result['interpreter_elapsed_sec']:.4f}"],
            ["compiled", f"{result['compiled_pps']:,.0f}",
             f"{result['compiled_elapsed_sec']:.4f}"],
            [f"batch (x{result['batch_size']})",
             f"{result['batch_pps']:,.0f}",
             f"{result['batch_elapsed_sec']:.4f}"],
        ] + columnar_rows + [
            ["ecmp batch", f"{result['ecmp_batch_pps']:,.0f}", ""],
            ["ecmp columnar", f"{result['ecmp_columnar_pps']:,.0f}", ""],
            ["speedup", f"{result['speedup']:.2f}x", ""],
            ["batch speedup", f"{result['batch_speedup_vs_compiled']:.2f}x",
             ""],
            ["columnar speedup",
             f"{result['columnar_speedup_vs_batch']:.2f}x", ""],
        ],
    )
    report_json(result, bench_json_path, name="fastpath_speedup")

    assert result["compiled_pps"] > result["interpreter_pps"]
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"compiled path only {result['speedup']:.2f}x over interpreter "
        f"(target {MIN_SPEEDUP}x): {result}"
    )
    assert result["batch_pps"] > result["compiled_pps"]
    # The DoS ingress is fully columnar-admissible, so no lane may fall
    # back: a nonempty fallback map means the lowering regressed.
    assert not result["columnar_fallbacks"], result["columnar_fallbacks"]
    assert result["columnar_speedup_vs_batch"] >= MIN_COLUMNAR_SPEEDUP, (
        f"columnar path only {result['columnar_speedup_vs_batch']:.2f}x "
        f"over batch (target {MIN_COLUMNAR_SPEEDUP}x): {result}"
    )
    # ECMP's crc16-over-malleable-inputs action and the dynamic-index
    # egress counter must lower into the vectorized sweeps: any
    # ``drain:`` reason means the hash/'g'-kind lowering regressed to
    # per-lane scalar drains.
    ecmp_fallbacks = result["fallbacks_by_workload"]["ecmp-rotating-hash"]
    hash_drains = {
        reason: count
        for reason, count in ecmp_fallbacks.items()
        if reason.startswith("drain:")
    }
    assert not hash_drains, ecmp_fallbacks
    assert result["ecmp_columnar_speedup_vs_batch"] >= (
        MIN_ECMP_COLUMNAR_SPEEDUP
    ), (
        f"ecmp columnar only {result['ecmp_columnar_speedup_vs_batch']:.2f}x "
        f"over batch (target {MIN_ECMP_COLUMNAR_SPEEDUP}x): {result}"
    )
