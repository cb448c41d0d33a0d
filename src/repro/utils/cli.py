"""Process plumbing shared by the package's command-line entry points."""

from __future__ import annotations

import os
import sys
from typing import Callable

#: Exit status of a CLI whose reader closed stdout early (Python's own
#: status for an unhandled broken pipe).
BROKEN_PIPE_EXIT = 1


def exit_status(command: Callable[[], int]) -> int:
    """Run ``command`` and flush stdout; a closed stdout ends it quietly.

    A reader that exits early (``| head -1``) makes the next write raise
    :class:`BrokenPipeError`.  As the Python docs advise, stdout then
    points at ``os.devnull``, so the flush at exit cannot raise again.
    """
    try:
        status = command()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
    return status
