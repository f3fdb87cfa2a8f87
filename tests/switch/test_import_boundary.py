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
