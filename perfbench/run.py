#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics of the reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload online-il-fleet --seed 0 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 6 --trace 1
    python3 perfbench/run.py --write-spec          # regenerate BENCHMARK.json

Each workload runs in a fresh interpreter (``perfbench/workloads.py``)
with BLAS/OpenMP pinned to one thread and ``PYTHONHASHSEED=0``; journals
and Oracle stores live under ``.bench_work/`` in the checkout and are
deleted after the run.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``).  A copy of each result, with host details, is kept
in ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: Child wall-time limit; a whole run must end within 180 s.
CHILD_TIMEOUT_S = 170.0

#: Environment every workload interpreter starts with.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

_PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Become the parent of any process our children leave behind."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def _reap_orphans(grace_s: float = 10.0) -> None:
    """Wait for adopted descendants; kill any still running after a grace."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = math.inf
        time.sleep(0.05)


def child_pids() -> List[int]:
    """Live child processes of this process (Linux ``/proc``)."""
    pid = os.getpid()
    with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as f:
        return [int(token) for token in f.read().split()]


def _child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    source = str(root / "src")
    env["PYTHONPATH"] = (source + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else source)
    return env


def run_workload(root: Path, workload: str, seed: int, seconds: int,
                 trace: int) -> dict:
    """Run one workload in a fresh interpreter and return its result."""
    work = root / ".bench_work" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    results = root / ".bench_work" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{workload}-s{seed}-t{trace}-{stamp}-{os.getpid()}.json"
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work", str(work), "--out", str(out)]
    sys.stdout.flush()
    try:
        completed = subprocess.run(command, cwd=root, env=_child_env(root),
                                   timeout=CHILD_TIMEOUT_S)
    finally:
        _reap_orphans()
        shutil.rmtree(work, ignore_errors=True)
    if completed.returncode != 0 or not out.is_file():
        raise RuntimeError(
            f"{workload} exited with {completed.returncode} and no result")
    return json.loads(out.read_text(encoding="utf-8"))


def summary_line(workload: str, result: dict, trace: int) -> dict:
    """The result object printed as the last line of a workload run."""
    table = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = {}
    for name, (unit, *_) in table.items():
        value = result["metrics"].get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"{workload} produced no value for {name}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    names = [name for name, _ in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.write_spec:
        (root / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n",
            encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} has no src/repro; run from the repository root",
              file=sys.stderr)
        return 2
    _adopt_orphans()
    # A SIGTERM becomes an exception, so subprocess.run kills and waits
    # for the workload and the finally blocks reap and clean up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = names if args.workload == "all" else [args.workload]
    lines = {}
    try:
        for workload in workloads:
            result = run_workload(root, workload, args.seed, args.seconds,
                                  args.trace)
            print(f"host: {json.dumps(result['host'], sort_keys=True)}")
            lines[workload] = summary_line(workload, result, args.trace)
            for name, metric in lines[workload]["metrics"].items():
                print(f"{workload}/{name} = {metric['value']:.6g} "
                      f"{metric['unit']}")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = lines[workloads[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{workload}/{name}": metric
                        for workload, line in lines.items()
                        for name, metric in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
