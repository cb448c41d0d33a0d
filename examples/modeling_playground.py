#!/usr/bin/env python3
"""Analytical-modelling playground: NoC latency models.

This example exercises the Section-III-C NoC modelling blocks: average
packet latency from the cycle-level simulator vs the queuing-theory
analytical model vs the SVR-based learned model, over a range of uniform
random injection rates on a 4x4 mesh.

Run with:  python examples/modeling_playground.py
"""

from __future__ import annotations

from repro.noc.analytical import AnalyticalNoCModel
from repro.noc.simulator import NoCSimulator
from repro.noc.svr_model import SVRNoCLatencyModel, build_noc_training_set
from repro.noc.topology import MeshTopology
from repro.noc.traffic import UniformRandomTraffic
from repro.utils.tables import format_table


def noc_demo() -> None:
    mesh = MeshTopology(4, 4)
    simulator = NoCSimulator(mesh)
    analytical = AnalyticalNoCModel(mesh)
    train = build_noc_training_set(
        mesh, injection_rates=(0.02, 0.04, 0.06, 0.08, 0.10, 0.12), n_cycles=300,
        seed=0)
    svr = SVRNoCLatencyModel().fit(train)
    rows = []
    for rate in (0.03, 0.07, 0.11):
        traffic = UniformRandomTraffic(mesh, injection_rate=rate, seed=42)
        simulated = simulator.run(traffic, n_cycles=300).average_latency_cycles
        estimate = analytical.estimate(traffic.rate_matrix())
        test_samples = build_noc_training_set(mesh, injection_rates=(rate,),
                                              n_cycles=300, seed=7)
        svr_prediction = float(svr.predict(test_samples)[0])
        rows.append((rate, simulated, estimate.average_latency_cycles, svr_prediction))
    print(format_table(
        ["injection rate", "simulator (cycles)", "analytical (cycles)", "SVR (cycles)"],
        rows, precision=1, title="NoC average packet latency (Sec. III-C)"))


def main() -> None:
    noc_demo()


if __name__ == "__main__":
    main()
