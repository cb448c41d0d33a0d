"""Table I — data collected in each snippet.

Table I of the paper is the list of performance counters recorded per
snippet.  The "experiment" here verifies that the reproduction's counter
vector covers the same quantities and demonstrates one collected sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.soc.configuration import ConfigurationSpace
from repro.soc.counters import COUNTER_NAMES
from repro.soc.platform import odroid_xu3_like
from repro.soc.simulator import SoCSimulator
from repro.soc.snippet import Snippet
from repro.utils.tables import format_table

#: The paper's Table I rows mapped onto the reproduction's counter names.
PAPER_TABLE1_ROWS: Dict[str, str] = {
    "Instructions Retired": "instructions_retired",
    "CPU Cycles": "cpu_cycles",
    "Branch Miss Prediction": "branch_mispredictions",
    "Level 2 Cache Misses": "l2_cache_misses",
    "Data Memory Access": "data_memory_accesses",
    "Noncache External Memory Request": "noncache_external_memory_requests",
    "Total Little Cluster Utilization": "little_cluster_utilization",
    "Per Core Big Cluster Utilization": "big_cluster_utilization",
    "Total Chip Power Consumption": "total_chip_power_w",
}


@dataclass
class Table1Result:
    """Counter schema plus one example sample."""

    rows: List[str]
    example: Dict[str, float]

    @property
    def covered(self) -> bool:
        return all(name in COUNTER_NAMES for name in PAPER_TABLE1_ROWS.values())


def run_table1(seed: int = 0) -> Table1Result:
    """Collect one example snippet's counters and report the schema."""
    platform = odroid_xu3_like()
    space = ConfigurationSpace(platform)
    simulator = SoCSimulator(platform, seed=seed)
    snippet = Snippet(application="example", index=0)
    result = simulator.run_snippet(snippet, space.default_configuration(),
                                   simulator.draw_noise(1)[0])
    return Table1Result(
        rows=list(PAPER_TABLE1_ROWS.keys()),
        example=result.counters.as_dict(),
    )


def format_table1(result: Table1Result) -> str:
    rows = [
        (paper_name, repro_name, result.example.get(repro_name, float("nan")))
        for paper_name, repro_name in PAPER_TABLE1_ROWS.items()
    ]
    return format_table(
        ["Table I counter", "repro field", "example value"], rows,
        precision=4, title="Table I — data collected in each snippet",
    )
