"""Run ``python -m repro.experiments`` with the benchmark's hooks installed.

    python3 perfbench/cli_boot.py --sample OUT.json [CLI ARGS...]
    python3 perfbench/cli_boot.py --trace OUT.json [CLI ARGS...]

Times the library import, then calls ``repro.experiments.runner.main``
(what ``python -m repro.experiments`` calls) with the remaining
arguments.  ``--sample`` runs the host-speed sampler of ``reference.py``
around it and writes the kernel samples and their total time to
``OUT.json``.  ``--trace`` wraps the traced targets instead, restores
every wrapped attribute and writes the spans, the import time, the Oracle
cache/store counter deltas and the MiB that sharded engines shipped to
their workers.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from multiprocessing.reduction import ForkingPickler


def shipped_bytes(engine) -> int:
    """Bytes of the pickled bundles ``prepare()`` sends to the shards."""
    return sum(len(ForkingPickler.dumps((engine.base_space, engine.simulator,
                                         engine.devices[lo:hi])))
               for lo, hi in engine.shard_bounds)


def sampled(runner, cli_args) -> tuple:
    from reference import Sampler, Stretch

    stretch = Stretch()
    with Sampler() as sampler, sampler.timed(stretch):
        code = runner.main(cli_args)
    return code, {"kernel_s": stretch.kernel_s,
                  "kernel_total_s": sampler.kernel_total_s}


def traced(runner, cli_args) -> tuple:
    from repro.core.oracle import cache_stats_snapshot
    from repro.fleet.sharding import ShardedFleetEngine

    import targets
    from tracing import Tracer

    tracer = Tracer()
    before = cache_stats_snapshot()
    targets.install(tracer)
    traced_prepare = ShardedFleetEngine.prepare
    measured = weakref.WeakSet()
    shipped = []

    def prepare(engine):
        if engine not in measured:  # prepare() ships once per engine
            measured.add(engine)
            with tracer.paused():
                shipped.append(shipped_bytes(engine))
        return traced_prepare(engine)

    ShardedFleetEngine.prepare = prepare
    try:
        code = runner.main(cli_args)
    finally:
        ShardedFleetEngine.prepare = traced_prepare
        tracer.restore()
    after = cache_stats_snapshot()
    return code, {
        "cache": {key: after[key] - before.get(key, 0) for key in after},
        "shipped_mb": sum(shipped) / 2**20,
        "spans": [[s.name, s.start, s.end, s.parent, s.round_id]
                  for s in tracer.spans],
    }


def main() -> int:
    mode, out_path, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import repro.experiments.runner as runner
    import_s = time.perf_counter() - start
    run = {"--sample": sampled, "--trace": traced}[mode]
    code, record = run(runner, cli_args)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, **record}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
