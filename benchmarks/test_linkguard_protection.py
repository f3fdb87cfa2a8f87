"""LinkGuardian-style loss-sweep benchmark: FCT / throughput vs link
loss rate, no-protection baseline vs Mantis protection.

Setup: the two-switch parallel-link fabric, a window-limited TCP flow
over the primary link (WAN-ish 25 us ACK latency, so per the Mathis
relation sustained throughput collapses as 1/sqrt(loss)), per-link
sequence-number probes feeding the gap counters, and the linkguard
reaction rerouting the data path onto the clean parallel link once
the measured loss crosses 5e-3.

Gate (acceptance criterion): at loss 1e-2 the protected run delivers
>= 2x the baseline throughput or completes transfers in <= 0.5x the
baseline FCT.  At 1e-4 (clean regime, protection never fires) the two
runs coincide; 1e-3 sits below the protection threshold, so both runs
ride the same lossy link and only simulation noise separates them.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import report
from repro.apps.linkguard import run_linkguard_sweep

LOSS_RATES = (1e-4, 1e-3, 1e-2, 1e-1)
DURATION_US = 4000.0


@pytest.fixture(scope="module")
def sweep():
    return run_linkguard_sweep(
        loss_rates=LOSS_RATES, duration_us=DURATION_US
    )


def _fmt(value, pattern="{:.2f}"):
    return pattern.format(value) if value is not None else "-"


def test_loss_sweep_curves(sweep):
    rows = []
    for loss in LOSS_RATES:
        point = sweep["points"][repr(loss)]
        base, prot = point["baseline"], point["protected"]
        rows.append([
            f"{loss:.0e}",
            _fmt(base["throughput_gbps"]),
            _fmt(prot["throughput_gbps"]),
            _fmt(point["throughput_ratio"]),
            _fmt(base["avg_fct_us"], "{:.0f}"),
            _fmt(prot["avg_fct_us"], "{:.0f}"),
            _fmt(point["fct_ratio"]),
            _fmt(prot["protect_time_us"], "{:.0f}"),
        ])
    report(
        "LinkGuard: throughput/FCT vs loss rate "
        "(baseline vs Mantis protection)",
        ["loss", "base Gbps", "prot Gbps", "tput x",
         "base FCT us", "prot FCT us", "FCT x", "protect@us"],
        rows,
    )

    # Shape: protection monotonically matters more as loss grows.
    ratios = [sweep["points"][repr(l)]["throughput_ratio"]
              for l in (1e-2, 1e-1)]
    assert ratios[0] > 1.5 and ratios[1] > 1.5


def test_gate_2x_at_1e2(sweep):
    gate = sweep["gate"]
    assert gate["loss_rate"] == 1e-2
    assert gate["pass"], (
        f"protection gate failed at 1e-2: tput ratio "
        f"{gate['throughput_ratio']:.2f} (need >= 2.0) and FCT ratio "
        f"{gate['fct_ratio']} (need <= 0.5)"
    )


def test_protection_fires_only_above_threshold(sweep):
    clean = sweep["points"][repr(1e-4)]["protected"]
    assert clean["protections"] == 0  # 1e-4 << 5e-3 threshold
    for loss in (1e-2, 1e-1):
        lossy = sweep["points"][repr(loss)]["protected"]
        assert lossy["protections"] >= 1
        assert lossy["protect_time_us"] < DURATION_US / 2


def test_clean_regime_runs_coincide(sweep):
    point = sweep["points"][repr(1e-4)]
    # No protection event: both runs are the same flow modulo the
    # agent's (tiny) polling load; loose bounds absorb the noise.
    assert 0.7 <= point["throughput_ratio"] <= 1.3


def test_protected_never_worse_at_high_loss(sweep):
    point = sweep["points"][repr(1e-1)]
    assert point["throughput_ratio"] >= 1.0
    base, prot = point["baseline"], point["protected"]
    assert prot["delivered_packets"] >= base["delivered_packets"]
