"""The per-configuration NMPC solve loop (oracle of ``solve_batch``).

:class:`~repro.control.nmpc.NMPCGpuController` solves its problem with one
array sweep over every GPU configuration.  These two functions are the
Python loop it replaced: each configuration's predicted energy from the
``GPUSpec`` scalar laws, then a sort of the feasible configurations by
``(energy, opp_index, active_slices)``, or of all of them by busy time
under overload.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.control.nmpc import NMPCGpuController
from repro.gpu.gpu import GPUConfiguration


def predicted_energy_j(controller: NMPCGpuController,
                       config: GPUConfiguration, work_cycles: float,
                       memory_bytes: float) -> float:
    """Predicted GPU energy of one frame at ``config`` (race-to-idle)."""
    deadline = 1.0 / controller.target_fps
    busy = controller.gpu.busy_time_s(config, work_cycles, memory_bytes)
    frame_time = max(busy, deadline)
    idle = frame_time - busy
    energy = (
        controller.gpu.active_power_w(config) * busy
        + controller.gpu.idle_power_w_at(config) * idle
    )
    if config.active_slices != controller.current.active_slices:
        energy += controller.slice_switch_energy_j * abs(
            config.active_slices - controller.current.active_slices
        )
    return energy


def solve(controller: NMPCGpuController, work_cycles: float,
          memory_bytes: float) -> GPUConfiguration:
    """Exhaustively minimise predicted energy subject to the deadline."""
    deadline = (1.0 / controller.target_fps) * (1.0 - controller.deadline_margin)
    feasible: List[Tuple[float, GPUConfiguration]] = []
    infeasible: List[Tuple[float, GPUConfiguration]] = []
    for config in controller.gpu.configurations():
        busy = controller.gpu.busy_time_s(config, work_cycles, memory_bytes)
        energy = predicted_energy_j(controller, config, work_cycles,
                                    memory_bytes)
        if busy <= deadline:
            feasible.append((energy, config))
        else:
            # Track the fastest configuration as a fallback when nothing
            # meets the deadline (overload): minimise the busy time.
            infeasible.append((busy, config))
    if feasible:
        feasible.sort(key=lambda item: (item[0], item[1].opp_index,
                                        item[1].active_slices))
        return feasible[0][1]
    infeasible.sort(key=lambda item: item[0])
    return infeasible[0][1]
