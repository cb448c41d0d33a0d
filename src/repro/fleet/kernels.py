"""Cross-session array kernel for lockstep fleets.

:func:`masked_first_argmin` is the segmented argmin of the fleet-wide
runtime-Oracle candidate sweep
(:meth:`~repro.core.runtime_oracle.RuntimeOracle.fleet_best_indices`).
A fleet step's executions run on the SoC model's lane executor,
:meth:`~repro.soc.simulator.SoCSimulator.execute_lanes`.
"""

from __future__ import annotations

import numpy as np


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
