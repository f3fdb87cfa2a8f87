"""Bulk route installation: ``install_routes(bulk=True)`` must
coalesce each switch's entries into one DMA-burst transaction, leave
identical data-plane state as the per-entry path, and report the op
accounting the ``run-fattree`` summary surfaces."""

from repro.apps.fabric_lb import FABRIC_P4R, run_fattree_rebalance
from repro.net.fabric_builder import FatTree
from repro.net.routing import compute_fabric_routes, install_routes
from repro.switch.compiled import asic_state_snapshot


def table_state(built):
    return {
        name: asic_state_snapshot(switch.system.asic)["tables"]
        for name, switch in built.switches.items()
    }


def test_bulk_install_matches_per_entry_state():
    bulk_built = FatTree(4).build(FABRIC_P4R)
    solo_built = FatTree(4).build(FABRIC_P4R)
    bulk_summary = install_routes(bulk_built, bulk=True)
    solo_summary = install_routes(solo_built, bulk=False)

    assert table_state(bulk_built) == table_state(solo_built)
    for name in bulk_summary:
        assert (
            bulk_summary[name]["driver_ops"]
            == solo_summary[name]["driver_ops"]
        )
        assert bulk_summary[name]["routes"] == solo_summary[name]["routes"]


def test_bulk_install_is_one_txn_per_switch_and_cheaper():
    built = FatTree(4).build(FABRIC_P4R)
    summary = install_routes(built, bulk=True)
    for name, entry in summary.items():
        assert entry["bulk"] is True
        assert entry["bulk_txns"] == 1
        assert entry["driver_ops"] > 0
        switch = built.switches[name]
        assert switch.system.driver.bulk_txns == 1
        assert switch.system.driver.ops_issued == entry["driver_ops"]

    solo_built = FatTree(4).build(FABRIC_P4R)
    solo_summary = install_routes(solo_built, bulk=False)
    for name, entry in solo_summary.items():
        assert entry["bulk"] is False
        assert entry["bulk_txns"] == 0
        # Bulk spends strictly less simulated driver time per switch.
        assert (
            summary[name]["install_sim_us"] < entry["install_sim_us"]
        )
    # Fleet-wide, coalescing wins an order of magnitude of simulated
    # install time: one txn per switch instead of one op per entry.
    assert sum(e["bulk_txns"] for e in summary.values()) == len(built.switches)
    assert sum(e["install_sim_us"] for e in solo_summary.values()) >= 5 * sum(
        e["install_sim_us"] for e in summary.values()
    )


def test_compute_fabric_routes_one_sweep_matches_per_switch():
    """The shared-BFS sweep must give every switch the same ECMP
    groups as querying it alone."""
    spec = FatTree(4)
    names = list(spec.switches)
    swept = compute_fabric_routes(spec, names)
    for name in names[:6]:  # spot-check a prefix, it's O(switches^2)
        solo = compute_fabric_routes(spec, [name])[name]
        assert swept[name] == solo


def test_run_fattree_summary_reports_install_accounting():
    summary = run_fattree_rebalance(
        k=4, duration_us=60.0, flows_per_host=1
    )
    install = summary["route_install"]
    assert install["bulk"] is True
    assert install["mode"] == "hashed"
    assert install["driver_ops"] > 0
    assert install["bulk_txns"] == len(summary["per_switch"])

    solo = run_fattree_rebalance(
        k=4, duration_us=60.0, flows_per_host=1, route_bulk=False
    )
    assert solo["route_install"]["bulk"] is False
    assert solo["route_install"]["bulk_txns"] == 0
    assert solo["route_install"]["driver_ops"] == install["driver_ops"]
    # Delivery is unaffected by how routes were installed.
    assert solo["delivery_rate"] == summary["delivery_rate"]
