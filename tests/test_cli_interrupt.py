"""Graceful interruption of the CLIs: SIGINT, and a reader closing stdout.

``python -m repro.experiments`` owns a process pool; Ctrl-C must not
leave orphaned workers or die with a stack trace.  The contract: drain
the pool, print a partial-results notice naming how many experiments
completed, and exit with the conventional interrupted status (130).

A reader that closes the pipe early (``| head -1``) ends either CLI
(``repro.experiments`` here, ``repro.service`` in ``test_service.py``)
with exit status 1 and nothing on stderr.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest


def _env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _first_line(stream, timeout: float) -> str:
    """The first line of ``stream``, or ``""`` if none arrives in time."""
    lines: queue.Queue = queue.Queue()
    threading.Thread(target=lambda: lines.put(stream.readline()),
                     daemon=True).start()
    try:
        return lines.get(timeout=timeout)
    except queue.Empty:
        return ""


def run_into_closed_pipe(argv, env) -> subprocess.CompletedProcess:
    """Run ``python argv`` with a stdout whose reader already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True,
                              timeout=300)
    finally:
        os.close(write_end)


class TestExperimentsClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["--list", "--json"],
        ["table1", "--scale", "tiny"],
    ], ids=["list-json", "table1"])
    def test_closed_stdout_exits_quietly(self, argv):
        result = run_into_closed_pipe(["-m", "repro.experiments", *argv],
                                      _env())
        assert result.returncode == 1
        assert "Traceback" not in result.stderr, result.stderr
        assert "Exception ignored" not in result.stderr, result.stderr


class TestExperimentsSigint:
    def test_sigint_drains_and_reports_partial_results(self):
        # figure2 reports within about a second; robustness, figure3 and
        # figure4 at 40 seeds then keep the run busy for several seconds
        # more (~5 s on a 2-core host).  The signal is sent as soon as the
        # first report header arrives, so it lands mid-run however fast
        # the host is; unbuffered output makes the header arrive when it
        # is printed.
        env = _env()
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments",
             "figure2", "robustness", "figure3", "figure4",
             "--scale", "tiny", "--seeds", "40", "--jobs", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            header = _first_line(process.stdout, timeout=120)
            assert header.startswith("=== figure2"), header
            assert process.poll() is None, "run finished before the signal"
            process.send_signal(signal.SIGINT)
            stdout, stderr = process.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            raise AssertionError("CLI did not drain after SIGINT")
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 130, (stdout, stderr)
        assert "interrupted: completed" in stderr
        assert "partial results" in stderr
        # Drained, not crashed: no stack trace reaches the user.
        assert "Traceback (most recent call last)" not in stderr

    def test_uninterrupted_run_still_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "table1",
             "--scale", "tiny"],
            env=_env(), capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
