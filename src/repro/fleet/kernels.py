"""Cross-session execution kernel for lockstep fleets.

:func:`lockstep_execute` is the many-device twin of
:meth:`~repro.soc.simulator.SoCSimulator.run_snippet`: one step of ``S``
devices — each with its *own* snippet and its *own* configuration — is
one :meth:`~repro.soc.simulator.SoCSimulator.expected_arrays` call over
``S`` lanes instead of ``S`` scalar simulator calls.  That method is the
SoC model's one array implementation.  The Oracle sweep
(:meth:`~repro.soc.simulator.SoCSimulator.evaluate_expected_batch`) runs
it with snippet rows broadcast against a space's configuration knobs;
this kernel runs it with one (snippet, configuration) pair per lane,
which is why snippet characteristics arrive as one
:func:`~repro.soc.simulator.characteristics_matrix` row per device.

What this module adds is measurement noise.  The caller
(:class:`~repro.fleet.engine.FleetEngine`) gathers each device's
log-normal factor pair for the step from the session's noise array
(:meth:`~repro.soc.simulator.SoCSimulator.draw_noise`, the rows
:meth:`~repro.core.session.PolicySession.execute` reads too); the kernel
applies the factors with the scalar path's arithmetic, and
:meth:`~repro.soc.simulator.SoCBatchResult.lane_results` materialises the
per-device results.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.soc.configuration import SoCConfiguration
from repro.soc.simulator import SnippetResult, SoCSimulator
from repro.soc.snippet import Snippet


def masked_first_argmin(costs: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Row-wise argmin over the valid prefix of padded cost rows.

    ``costs`` is a ``(devices, max_candidates)`` matrix whose rows are
    ragged candidate sweeps padded to a common width; ``valid`` is the
    boolean mask of real entries.  Padding is replaced by ``+inf`` so it
    can never win, and ``np.argmin`` over each full row then returns the
    *first* minimum among the valid entries — exactly the scalar sweep's
    first-minimum tie-breaking (``np.argmin`` over the unpadded row, or
    ``min`` over an estimate list).  This is the segmented-argmin step of
    the fleet-wide candidate sweep.

    A row with *no* valid entry has no argmin, so rather than let
    ``np.argmin`` over an all-``+inf`` row return position 0 this raises
    :class:`ValueError` naming the offending rows.  ``costs`` entries that
    are already ``+inf`` but *valid* still win normally — only the mask
    defines emptiness.
    """
    masked = np.where(valid, costs, np.inf)
    empty = ~valid.any(axis=1)
    if empty.any():
        raise ValueError(
            "masked_first_argmin: rows "
            f"{np.flatnonzero(empty).tolist()} have no valid candidates"
        )
    return np.argmin(masked, axis=1)


def lockstep_execute(
    simulator: SoCSimulator,
    snippets: Sequence[Snippet],
    char_rows: np.ndarray,
    opp_index: Dict[str, np.ndarray],
    cores: Dict[str, np.ndarray],
    configurations: Sequence[SoCConfiguration],
    noise_factors: np.ndarray,
) -> List[SnippetResult]:
    """Execute one lockstep step of ``S`` devices on ``simulator``.

    Parameters
    ----------
    snippets / configurations:
        Per-device snippet and configuration objects (result metadata).
    char_rows:
        ``(S, len(CHARACTERISTIC_COLUMNS))`` characteristics matrix (see
        :func:`~repro.soc.simulator.characteristics_matrix`) — one row per
        device, at the snippet it executes.
    opp_index / cores:
        Per-cluster ``(S,)`` integer arrays of each device's decided
        configuration.
    noise_factors:
        ``(S, 2)`` factors (time, power), one
        :meth:`~repro.soc.simulator.SoCSimulator.draw_noise` row per device
        (ones for a noise-free simulator).

    Returns the per-device :class:`~repro.soc.simulator.SnippetResult`
    list, bitwise identical to per-device
    :meth:`~repro.soc.simulator.SoCSimulator.run_snippet` calls fed the
    same factor rows.
    """
    lanes = simulator.expected_arrays(
        snippets, configurations, char_rows.T, opp_index, cores
    )
    lanes.execution_time_s = lanes.execution_time_s * noise_factors[:, 0]
    lanes.average_power_w = lanes.average_power_w * noise_factors[:, 1]
    lanes.energy_j = lanes.average_power_w * lanes.execution_time_s
    return lanes.lane_results()
