"""``python -m repro.service`` — control-plane CLI.

Subcommands:

* ``serve``     — start (or ``--resume``) a journaled fleet run server.
* ``status``    — print a running server's ``/status`` payload.
* ``dispatch``  — send one control command to a running server.
* ``demo``      — the full crash-safety exercise: start a journaled
  server in a subprocess, drive it with dispatches over HTTP, ``kill
  -9`` it mid-run, restart with ``--resume``, wait for completion, and
  compare every device's state digest against an uninterrupted
  in-process reference run.  Exits nonzero on any mismatch — this is
  what the CI ``control-plane`` job runs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.protocol import DispatchCommand
from repro.service.run import RunConfig, ServiceRun
from repro.service.server import PORT_FILE, ServiceServer, read_port_file
from repro.utils.cli import exit_status


class CLIError(Exception):
    """Bad command-line input; ``main`` prints it and exits 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Crash-safe fleet control-plane service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="start (or resume) a fleet server")
    serve.add_argument("--journal", type=Path, required=True,
                       help="run directory (journal + snapshots)")
    serve.add_argument("--resume", action="store_true",
                       help="recover from an existing journal instead of "
                            "starting fresh")
    serve.add_argument("--policy", default="ondemand")
    serve.add_argument("--scale", default="tiny")
    serve.add_argument("--devices", type=int, default=4)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--scenario", action="append", default=[],
                       dest="scenarios", metavar="NAME",
                       help="scenario rotation entry (repeatable)")
    serve.add_argument("--snapshot-every", type=int, default=5)
    serve.add_argument("--step-delay", type=float, default=0.0,
                       help="seconds to sleep between fleet rounds")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 binds an ephemeral port (recorded in "
                            f"<journal>/{PORT_FILE})")

    for name, help_text in (("status", "print a running server's status"),
                            ("dispatch", "send one control command")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--journal", type=Path, default=None,
                         help=f"read the port from <journal>/{PORT_FILE}")
        cmd.add_argument("--host", default="127.0.0.1")
        cmd.add_argument("--port", type=int, default=0)
        if name == "dispatch":
            cmd.add_argument("action",
                             choices=("pause", "resume", "restrict-space",
                                      "set-policy"))
            cmd.add_argument("--device", default="")
            cmd.add_argument("--value", default=None,
                             help="cap index / policy name (omit or 'none' "
                                  "to lift a cap)")

    demo = sub.add_parser(
        "demo", help="kill -9 + resume crash-safety demonstration"
    )
    demo.add_argument("--policy", default="ondemand")
    demo.add_argument("--scale", default="tiny")
    demo.add_argument("--devices", type=int, default=3)
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--snapshot-every", type=int, default=3)
    demo.add_argument("--kill-after-rounds", type=int, default=6)
    demo.add_argument("--journal", type=Path, default=None,
                      help="run directory (a temp dir by default)")
    demo.add_argument("--keep", action="store_true",
                      help="keep the journal directory afterwards")
    return parser


def _resolve_port(args: argparse.Namespace) -> int:
    if args.port:
        return args.port
    if args.journal is not None:
        try:
            return read_port_file(args.journal)
        except FileNotFoundError:
            raise CLIError(
                f"no {PORT_FILE} in {args.journal}: is a server serving it?"
            ) from None
    raise CLIError("need --port or --journal to locate the server")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    if args.resume:
        run = ServiceRun.recover(args.journal)
        print(f"resumed from {args.journal} at round {run.rounds}",
              file=sys.stderr)
    else:
        config = RunConfig(
            policy=args.policy, scale=args.scale, n_devices=args.devices,
            seed=args.seed, scenarios=tuple(args.scenarios),
            snapshot_every=args.snapshot_every,
        )
        run = ServiceRun.start(config=config, journal_dir=args.journal)
        print(f"started journaled run in {args.journal}", file=sys.stderr)
    server = ServiceServer(run, host=args.host, port=args.port,
                           step_delay=args.step_delay)
    asyncio.run(server.serve())
    if server.failure is not None:
        print(f"error: fleet stepping failed at {server.failure.message}",
              file=sys.stderr)
        return 1
    print(f"drained at round {run.rounds} (done={run.done})",
          file=sys.stderr)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServiceClient(host=args.host, port=_resolve_port(args))
    print(json.dumps(client.status(), indent=2, sort_keys=True))
    return 0


def _cmd_dispatch(args: argparse.Namespace) -> int:
    value: Optional[object] = args.value
    if args.action == "restrict-space":
        try:
            value = None if value in (None, "none", "None") else int(value)
        except ValueError:
            raise CLIError(f"restrict-space --value takes an OPP cap index "
                           f"or 'none', got {value!r}") from None
    client = ServiceClient(host=args.host, port=_resolve_port(args))
    receipt = client.dispatch(DispatchCommand(
        command=args.action, device=args.device, value=value,
    ))
    print(json.dumps({
        "status": receipt.status, "apply_round": receipt.apply_round,
        "detail": receipt.detail,
    }, sort_keys=True))
    return 0 if receipt.status in ("accepted", "duplicate") else 1


def _spawn_server(journal: Path, args: argparse.Namespace,
                  resume: bool) -> subprocess.Popen:
    command: List[str] = [
        sys.executable, "-m", "repro.service", "serve",
        "--journal", str(journal),
        "--step-delay", "0.05",
    ]
    if resume:
        command.append("--resume")
    else:
        command += [
            "--policy", args.policy, "--scale", args.scale,
            "--devices", str(args.devices), "--seed", str(args.seed),
            "--snapshot-every", str(args.snapshot_every),
        ]
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(command, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _wait_for_port(journal: Path, process: subprocess.Popen,
                   timeout: float = 60.0) -> int:
    deadline = time.monotonic() + timeout
    port_file = journal / PORT_FILE
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(
                f"server exited early with code {process.returncode}"
            )
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                return int(text)
        time.sleep(0.05)
    raise SystemExit("server did not publish its port in time")


def _cmd_demo(args: argparse.Namespace) -> int:
    config = RunConfig(
        policy=args.policy, scale=args.scale, n_devices=args.devices,
        seed=args.seed, snapshot_every=args.snapshot_every,
    )

    journal = args.journal or Path(tempfile.mkdtemp(prefix="repro-demo-"))
    journal = Path(journal)
    print(f"[demo] journal directory: {journal}", file=sys.stderr)

    print("[demo] phase 1: serve, dispatch over HTTP, then kill -9",
          file=sys.stderr)
    server = _spawn_server(journal, args, resume=False)
    try:
        port = _wait_for_port(journal, server)
        client = ServiceClient(port=port)
        client.wait_rounds(2)
        receipt = client.dispatch(DispatchCommand(
            command="restrict-space", device="device-00", value=1,
            idempotency_key="demo-cap",
        ))
        cap_round = receipt.apply_round
        print(f"[demo] dispatch receipt: {receipt.status} "
              f"@ round {cap_round}", file=sys.stderr)
        client.wait_rounds(max(args.kill_after_rounds, cap_round + 1))
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
        print(f"[demo] killed server (SIGKILL) after round "
              f">= {args.kill_after_rounds}", file=sys.stderr)
    except BaseException:
        server.kill()
        raise

    print("[demo] phase 2: restart with --resume, run to completion",
          file=sys.stderr)
    (journal / PORT_FILE).unlink(missing_ok=True)
    server = _spawn_server(journal, args, resume=True)
    try:
        port = _wait_for_port(journal, server)
        client = ServiceClient(port=port)
        status = client.wait_done(timeout=300.0)
        digests = {device["name"]: device["digest"]
                   for device in status["devices"]}
        client.shutdown()
        server.wait(timeout=30)
    except BaseException:
        server.kill()
        raise
    if server.returncode != 0:
        print(f"[demo] FAIL: resumed server exited {server.returncode}",
              file=sys.stderr)
        return 1

    print("[demo] phase 3: uninterrupted in-process reference applying "
          f"the same dispatch at round {cap_round}", file=sys.stderr)
    reference = ServiceRun.start(config=config)
    while not reference.done:
        if reference.rounds == cap_round:
            reference.dispatch(DispatchCommand(
                command="restrict-space", device="device-00", value=1,
                idempotency_key="demo-cap",
            ))
        reference.step_round()
    expected = reference.digests()

    mismatched = {name for name in expected
                  if digests.get(name) != expected[name]}
    if mismatched:
        print(f"[demo] FAIL: digests diverged for {sorted(mismatched)}",
              file=sys.stderr)
        return 1
    print(f"[demo] OK: {len(expected)} devices bitwise identical to the "
          "uninterrupted reference after kill -9 + resume",
          file=sys.stderr)
    if not args.keep and args.journal is None:
        import shutil

        shutil.rmtree(journal, ignore_errors=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return exit_status(lambda: _run_command(args))


def _run_command(args: argparse.Namespace) -> int:
    handlers = {"serve": _cmd_serve, "status": _cmd_status,
                "dispatch": _cmd_dispatch, "demo": _cmd_demo}
    try:
        return handlers[args.command](args)
    except (CLIError, ServiceUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
