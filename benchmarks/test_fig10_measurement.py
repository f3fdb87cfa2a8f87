"""Figure 10a: latency of raw measurements vs. size of state read.

Paper series:
- 32-bit *field* arguments: latency grows linearly with the number of
  packed 32-bit registers the control plane must read;
- 32-bit *register* arguments: reads of multiple entries of a single
  register array are cheap -- each additional byte costs only 10s of
  nanoseconds.

We generate programs with N field args / N-entry register slices, run
the agent's real polling path, and check both shapes.  The cost-model
prediction (repro.analysis.costmodel) is printed alongside.
"""

import pytest

from benchmarks.conftest import report
from repro.analysis.costmodel import predict_measurement_us
from repro.switch.asic import STANDARD_METADATA_P4
from repro.system import MantisSystem

FIELD_COUNTS = [1, 2, 4, 8, 16]
REG_ENTRIES = [1, 4, 16, 64, 256]


def field_args_program(n_fields: int) -> str:
    fields = "\n".join(f"        f{i} : 32;" for i in range(n_fields))
    args = ", ".join(f"ing hdr.f{i}" for i in range(n_fields))
    return STANDARD_METADATA_P4 + f"""
header_type hdr_t {{
    fields {{
{fields}
    }}
}}
header hdr_t hdr;
action nop() {{ no_op(); }}
table t {{ actions {{ nop; }} default_action : nop(); }}
control ingress {{ apply(t); }}
reaction poll({args}) {{
    int x = 0;
}}
"""


def register_args_program(entries: int) -> str:
    return STANDARD_METADATA_P4 + f"""
header_type hdr_t {{ fields {{ f : 32; }} }}
header hdr_t hdr;
register data {{ width : 32; instance_count : {entries}; }}
action touch() {{ register_write(data, 0, hdr.f); }}
table t {{ actions {{ touch; }} default_action : touch(); }}
control ingress {{ apply(t); }}
reaction poll(reg data[0:{entries - 1}]) {{
    int x = 0;
}}
"""


def measure_poll_latency(source: str) -> float:
    """Average time of the measurement phase over 50 iterations."""
    system = MantisSystem.from_source(source)
    system.agent.prologue()
    agent = system.agent
    total = 0.0
    rounds = 50
    for _ in range(rounds):
        agent.run_iteration()
        total += agent.last_breakdown["poll_us"]
    return total / rounds


def run_experiment():
    field_rows = []
    for count in FIELD_COUNTS:
        measured = measure_poll_latency(field_args_program(count))
        predicted = predict_measurement_us(
            MantisSystem.from_source(field_args_program(1)).driver.model,
            containers=count,
        )
        field_rows.append((count * 4, count, measured, predicted))
    register_rows = []
    for entries in REG_ENTRIES:
        measured = measure_poll_latency(register_args_program(entries))
        predicted = predict_measurement_us(
            MantisSystem.from_source(register_args_program(1)).driver.model,
            register_entries=entries,
            register_arrays=1,
        )
        register_rows.append((entries * 4, entries, measured, predicted))
    return field_rows, register_rows


def test_fig10a_measurement_latency(bench_once):
    field_rows, register_rows = bench_once(run_experiment)

    report(
        "Figure 10a: measurement latency vs state size (field args)",
        ["bytes", "32b fields", "measured us", "model us"],
        [(b, n, f"{m:.2f}", f"{p:.2f}") for b, n, m, p in field_rows],
    )
    report(
        "Figure 10a register args: measurement latency vs entries",
        ["bytes", "entries", "measured us", "model us"],
        [(b, n, f"{m:.2f}", f"{p:.2f}") for b, n, m, p in register_rows],
    )

    # Shape 1: field args scale linearly with packed registers.
    lat = {n: m for _b, n, m, _p in field_rows}
    per_field = (lat[16] - lat[1]) / 15
    assert per_field > 0.2  # each extra container costs real time
    assert lat[16] == pytest.approx(lat[1] + 15 * per_field, rel=0.2)

    # Shape 2: register-array reads are nearly flat -- 10s of ns/byte.
    rlat = {n: m for _b, n, m, _p in register_rows}
    bytes_span = (256 - 1) * 4
    per_byte_us = (rlat[256] - rlat[1]) / bytes_span
    assert 0.005 <= per_byte_us <= 0.05  # "10s of ns" per extra byte

    # Shape 3 (crossover): reading 16 words from ONE array is much
    # cheaper than reading 16 separate field containers.
    assert rlat[16] < lat[16] / 2.5

    # The cost model tracks the measured latencies.
    for _b, _n, measured, predicted in field_rows + register_rows:
        assert measured == pytest.approx(predicted, rel=0.35)
