"""numpy and the columnar engine load only when a switch binds the
columnar engine.

Each case runs in a fresh interpreter: ``sys.modules`` in the test
process already holds everything the rest of the suite imported.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src"
)

PRELUDE = (
    "import json, sys\n"
    "def heavy():\n"
    "    return sorted(name for name in ('numpy', 'repro.switch.columnar')\n"
    "                  if name in sys.modules)\n"
)


def _run(code: str, **env: str):
    """Run ``code`` after :data:`PRELUDE`; return its last stdout line
    decoded as JSON."""
    base = {k: v for k, v in os.environ.items()
            if not k.startswith("MANTIS_")}
    result = subprocess.run(
        [sys.executable, "-c", PRELUDE + code], capture_output=True,
        text=True, env={**base, "PYTHONPATH": SRC, **env},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


#: What each scalar-engine scenario imports before it builds.
SCALAR_IMPORTS = {
    "dos": ("repro.apps.dos", "repro.net.hosts", "repro.net.tcp"),
    "fabric_lb": ("repro.apps.fabric_lb",),
    "ctrl": ("repro.system", "repro.net.sim", "repro.ctrl",
             "repro.agent.legacy"),
}

# A short Fig. 15 run with a bursting flooder: covers set-up, the
# per-packet path and the burst path with its traffic-manager object.
SCALAR_RUN = """
from repro.apps.dos import build_dos_scenario
app, sim, flows, sink, attacker = build_dos_scenario(
    n_benign=2, min_duration_us=20.0, burst_size=16)
app.prologue()
for flow in flows:
    flow.start(at_us=1.0)
attacker.start(at_us=50.0)
sim.run_until(400.0)
assert app.system.asic.batch_stats.batches > 0
after_run = heavy()
"""


@pytest.mark.parametrize("scenario", sorted(SCALAR_IMPORTS))
def test_scalar_scenarios_load_neither(scenario):
    imports = "".join(
        f"import {module}\n" for module in SCALAR_IMPORTS[scenario]
    )
    loaded = _run(
        imports + "after_import = heavy()\n" + SCALAR_RUN
        + "print(json.dumps([after_import, after_run]))\n"
    )
    assert loaded == [[], []]


def test_columnar_asic_loads_both_at_construction():
    loaded = _run(
        "from repro.apps.dos import DOS_P4R\n"
        "from repro.compiler import compile_p4r\n"
        "from repro.switch.asic import SwitchAsic\n"
        "program = compile_p4r(DOS_P4R).p4\n"
        "before = heavy()\n"
        "SwitchAsic(program, num_ports=8, execution_mode='columnar')\n"
        "print(json.dumps([before, heavy()]))\n"
    )
    assert loaded == [[], ["numpy", "repro.switch.columnar"]]


def test_cli_loads_neither():
    assert _run("import repro.cli\nprint(json.dumps(heavy()))\n") == []


def test_columnar_without_numpy_fails_fast_scalar_runs():
    # ``sys.modules['numpy'] = None`` makes ``import numpy`` fail as if
    # numpy were not installed.
    outcome = _run(
        "sys.modules['numpy'] = None\n"
        "from repro.apps.dos import DOS_P4R\n"
        "from repro.errors import SwitchError\n"
        "from repro.system import MantisSystem\n"
        "MantisSystem.from_source(DOS_P4R, num_ports=8,\n"
        "                         execution_mode='compiled')\n"
        "try:\n"
        "    MantisSystem.from_source(DOS_P4R, num_ports=8)\n"
        "except SwitchError as exc:\n"
        "    print(json.dumps(str(exc)))\n",
        MANTIS_PIPELINE="columnar",
    )
    assert "requires numpy" in outcome


# A columnar template burst that takes both vector ``unique`` paths: a
# per-lane register scatter and an exact table past the per-entry scan
# size (sorted-key lookup).
COLUMNAR_BURST = """
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.columnar import ColumnarBatch
from repro.switch.packet import PacketTemplate, TemplateBurst
from repro.system import MantisSystem
source = STANDARD_METADATA_P4 + '''
header_type h_t { fields { i : 8; f : 32; k : 32; } }
header h_t hdr;
register r { width : 32; instance_count : 16; }
action put() { register_write(r, hdr.i, hdr.f); }
table t { actions { put; } default_action : put(); }
action fwd(p) { modify_field(standard_metadata.egress_spec, p); }
action nop() { no_op(); }
table route {
    reads { hdr.k : exact; }
    actions { fwd; nop; }
    default_action : nop();
    size : 64;
}
control ingress { apply(t); apply(route); }
'''
system = MantisSystem.from_source(source, num_ports=8)
for key in range(12):
    system.driver.add_entry('route', [key], 'fwd', [1 + key % 4])
burst = TemplateBurst(PacketTemplate({'hdr.i': 5, 'hdr.f': 7, 'hdr.k': 9}), 16)
results = system.asic.process_batch_columnar(ColumnarBatch.from_burst(burst))
executor = system.asic.executor
assert len(results) == 16 and executor.fallback_counts == {}, executor.fallback_counts
assert system.asic.registers['r'].values[5] == 7
assert system.asic.tables['route'].hits == 16
print(json.dumps(sorted(name for name in ('numpy', 'numpy.ma')
                        if name in sys.modules)))
"""


def test_columnar_burst_does_not_load_numpy_ma():
    # np.unique imports numpy.ma on first use; the burst's unique
    # lookups must not.
    assert _run(COLUMNAR_BURST, MANTIS_PIPELINE="columnar") == ["numpy"]
