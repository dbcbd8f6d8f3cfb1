"""The command line: ``python -m repro`` (or just ``repro``).

One argparse tree over the execution stack::

    python -m repro run --plan MODULE:FACTORY [...]   # execute a plan
    python -m repro cache {--stats,--clear} [...]     # persistent cache
    python -m repro distrib {worker,submit,status,run} [...]
    python -m repro serve {start,submit,status,wait} [...]  # experiment service
    python -m repro serve objstore [...]              # object-store server
    python -m repro campaign {run,list,fuzz,repro} [...]
    python -m repro obs {append,check,dashboard} [...]
    python -m repro check [PATHS] [--json] [--rule ID] # invariant linter

Every subcommand registers its own arguments and a
``set_defaults(func=...)`` handler; :func:`main` parses once and
dispatches ``args.func(args)``.  Registration is lazy: a subcommand's
registrar runs only when argparse selects that subcommand, so
``repro distrib worker`` imports the distrib stack and nothing of the
service or the dashboard.

``run`` resolves execution policy through the
:class:`~repro.analysis.session.RunConfig` chain (flags > ``REPRO_*``
environment variables > ``repro.toml`` > defaults) and executes through a
:class:`~repro.analysis.session.Session`, so the command line, the
benchmark harness and library callers all share one wiring path.
``pip install -e .`` additionally installs the ``repro`` console script
pointing here.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Optional, Sequence

__all__ = ["build_parser", "main"]

#: (name, help, "module:function" registering the subcommand's arguments)
_COMMANDS = (
    ("run", "execute a plan through a Session", "repro.cli:_register_run"),
    ("cache", "inspect or clear the persistent result cache",
     "repro.analysis.cache:register_cli"),
    ("distrib", "fleet worker/submit/status/run over a shared root",
     "repro.analysis.distrib:register_cli"),
    ("serve", "experiment service (start/submit/status/wait) and the "
              "object-store server (objstore)", "repro.cli:_register_serve"),
    ("campaign", "scenario campaigns and the invariant fuzzer",
     "repro.analysis.campaign.cli:register_cli"),
    ("obs", "perf-trajectory append/check and the live fleet dashboard",
     "repro.analysis.obs:register_cli"),
    ("check", "project-invariant static analysis over src/ — determinism, "
              "store layering, clock/lock discipline, batched cache keys",
     "repro.analysis.lint:register_cli"),
)


def _usage(parser: argparse.ArgumentParser):
    """The handler of a command group invoked without a subcommand."""
    def show(args) -> int:
        parser.print_help()
        return 2

    return show


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose arguments are registered on first use.

    *register* names a ``"module:function"`` that receives the parser and
    adds its arguments (and its ``func`` default); it runs when argparse
    first hands this parser arguments, i.e. when its subcommand is
    selected.  Until then the parser is just a name and a help line.
    """

    def __init__(self, *args, register: Optional[str] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._register = register

    def ensure_registered(self) -> "_Parser":
        """Run the pending registrar, once; returns the parser."""
        if self._register is not None:
            module, _, name = self._register.partition(":")
            self._register = None
            self.set_defaults(func=_usage(self))
            getattr(importlib.import_module(module), name)(self)
        return self

    def parse_known_args(self, args=None, namespace=None):
        self.ensure_registered()
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree (subcommand arguments still unregistered)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, cache, distribute, serve and check the paper's "
                    "experiment plans through one entry point.",
        epilog="Execution policy for 'run' resolves as: flags > REPRO_* "
               "environment variables > repro.toml ([run] table) > "
               "defaults.")
    parser.set_defaults(func=_usage(parser))
    commands = parser.add_subparsers(metavar="COMMAND", parser_class=_Parser)
    for name, help_text, register in _COMMANDS:
        commands.add_parser(name, help=help_text, description=help_text,
                            register=register)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch one command-line invocation; returns the exit code."""
    args = build_parser().parse_args(argv)
    from repro.errors import ConfigurationError

    try:
        return args.func(args)
    except ConfigurationError as exc:
        # Misconfiguration is a user error: one clear line, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# run


def _register_run(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Execute MODULE:FACTORY — a callable returning (plan, quantities) "
        "— through a Session wired from the resolved RunConfig.")
    parser.add_argument("--plan", required=True,
                        help="MODULE:CALLABLE returning (plan, quantities)"
                             " — e.g. repro.analysis.distrib:selftest_plan")
    parser.add_argument("--workers", default=None, metavar="N|auto",
                        help="pool size (auto = cpu count; default: "
                             "resolved)")
    parser.add_argument("--cache-mode", default=None,
                        choices=("off", "rw", "ro"),
                        help="persistent-cache mode (default: resolved)")
    parser.add_argument("--cache-root", default=None, metavar="SPEC",
                        help="cache root: a directory, a bucket URL, or "
                             "fs / obj:URL (default: resolved)")
    parser.add_argument("--distrib-root", default=None, metavar="ROOT",
                        help="shared fleet root — directory or bucket URL "
                             "(default: resolved; none = local execution)")
    parser.add_argument("--shard-size", default=None, metavar="N",
                        help="points per distrib shard (default: resolved)")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="repro.toml to resolve from (default: "
                             "$REPRO_CONFIG or ./repro.toml)")
    parser.add_argument("--json", action="store_true",
                        help="emit config, values and provenance as JSON")
    parser.set_defaults(func=_cmd_run)


def _cmd_run(args) -> int:
    from repro.analysis.distrib import _load_plan_factory
    from repro.analysis.session import RunConfig, Session

    plan, quantities = _load_plan_factory(args.plan)
    config = RunConfig.resolve(
        config_file=args.config,
        workers=args.workers,
        cache_mode=args.cache_mode,
        cache_root=args.cache_root,
        distrib_root=args.distrib_root,
        shard_size=args.shard_size,
    )
    with Session(config) as session:
        result = session.run(plan, quantities)
    record = result.provenance
    if args.json:
        print(json.dumps({
            "config": config.describe(),
            "values": result.values,
            "provenance": record.as_dict(),
        }, indent=2, sort_keys=True))
        return 0
    print(f"ran {record.points} point(s) of "
          f"{', '.join(record.quantities)} [{record.kind}] on the "
          f"'{record.executor}' executor in "
          f"{record.wall_time_s * 1e3:.1f} ms")
    for name, source in sorted(config.sources.items()):
        if source != "default":
            print(f"  config {name} = "
                  f"{getattr(config, name)!r}  ({source})")
    for name in record.quantities:
        coords, value = result.argmin(name)
        where = ", ".join(f"{axis}={c:g}" for axis, c
                          in zip(record.axes, coords))
        print(f"  {name}: min {value:.6g} at {where}")
    return 0


# ---------------------------------------------------------------------------
# serve: the experiment service, its tenant client, the object store


def _register_serve(parser: argparse.ArgumentParser) -> None:
    parser.description = ("The multi-tenant experiment service: start it, "
                          "or talk to a running one as a tenant; objstore "
                          "runs the S3-style object-store server.")
    sub = parser.add_subparsers(metavar="SUBCOMMAND")
    for name, help_text, register in (
            ("start", "run the experiment service in the foreground",
             "repro.cli:_register_serve_start"),
            ("submit", "submit a plan or campaign to a running service",
             "repro.cli:_register_serve_submit"),
            ("status", "queue, tenants and admission state of a service",
             "repro.cli:_register_serve_status"),
            ("wait", "long-poll plans until they reach a terminal state",
             "repro.cli:_register_serve_wait"),
            ("objstore", "run the S3-style object-store server in the "
                         "foreground", "repro.analysis.objstore:register_cli")):
        sub.add_parser(name, help=help_text, description=help_text,
                       register=register)


def _add_url(parser: argparse.ArgumentParser) -> None:
    from repro.analysis.serve.http import DEFAULT_PORT

    default_url = f"http://127.0.0.1:{DEFAULT_PORT}"
    parser.add_argument("--url", default=default_url,
                        help=f"service URL (default: {default_url})")


def _client_command(command):
    """A tenant-client handler: transport failures are one error line."""
    def run(args) -> int:
        from repro.analysis.serve.client import ServiceError

        try:
            return command(args)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    return run


def _register_serve_start(parser: argparse.ArgumentParser) -> None:
    from repro.analysis.serve.http import DEFAULT_PORT
    from repro.analysis.serve.service import DEFAULT_DISPATCHERS

    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port (default: {DEFAULT_PORT}; "
                             "0 picks a free one)")
    parser.add_argument("--scheduler", choices=("vtc", "fifo"),
                        default="vtc",
                        help="fair-share (vtc) or arrival-order (fifo) "
                             "dispatch (default: vtc)")
    parser.add_argument("--dispatchers", type=int,
                        default=DEFAULT_DISPATCHERS, metavar="N",
                        help="dispatcher threads draining the queue "
                             f"(default: {DEFAULT_DISPATCHERS})")
    parser.add_argument("--max-queue-depth", type=int, default=64,
                        metavar="N",
                        help="admission watermark: queued plans "
                             "(default: 64)")
    parser.add_argument("--max-queued-cost", type=float,
                        default=100_000.0, metavar="C",
                        help="admission watermark: queued quantity "
                             "evaluations; 0 disables (default: 100000)")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="repro.toml the owned Session resolves "
                             "from (default: $REPRO_CONFIG or "
                             "./repro.toml)")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        metavar="FILE",
                        help="bench trajectory the /v1/dashboard "
                             "sparklines plot (default: "
                             "BENCH_history.jsonl; missing file just "
                             "darkens that section)")
    parser.set_defaults(func=_serve_start)


def _serve_start(args) -> int:
    from repro.analysis.serve import ExperimentServer, ExperimentService
    from repro.analysis.session import RunConfig

    config = RunConfig.resolve(config_file=args.config)
    service = ExperimentService(
        config, scheduler=args.scheduler, dispatchers=args.dispatchers,
        max_queue_depth=args.max_queue_depth,
        max_queued_cost=(None if args.max_queued_cost <= 0
                         else args.max_queued_cost))
    server = ExperimentServer(service, host=args.host, port=args.port,
                              history_path=args.history)
    print(f"experiment service on {server.url} "
          f"(scheduler={args.scheduler}, dispatchers={args.dispatchers}, "
          f"max-queue-depth={args.max_queue_depth}; live dashboard at "
          f"{server.url}/v1/dashboard)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (in-flight plans complete)")
    finally:
        server.stop()
        service.close()
    return 0


def _register_serve_submit(parser: argparse.ArgumentParser) -> None:
    _add_url(parser)
    parser.add_argument("--plan", default=None, metavar="SPEC",
                        help="MODULE:FACTORY returning (plan, quantities) "
                             "— same spec as 'repro run --plan'")
    parser.add_argument("--campaign", default=None, metavar="NAME",
                        help="bundled campaign name or TOML path; "
                             "expands to one plan per run")
    parser.add_argument("--smoke", action="store_true",
                        help="submit the campaign's smoke-trimmed form")
    parser.add_argument("--runs", default=None, metavar="LIST",
                        help="comma-separated campaign run labels "
                             "(default: all)")
    parser.add_argument("--tenant", default=None,
                        help="tenant the fair share charges "
                             "(default: anonymous)")
    parser.add_argument("--wait", action="store_true",
                        help="block until every submitted plan is "
                             "terminal")
    parser.add_argument("--json", action="store_true",
                        help="emit the plan records as JSON")
    parser.set_defaults(func=_client_command(_serve_submit))


def _serve_records(records, as_json: bool) -> int:
    """Print plan records (the submit/wait output); 1 if any failed."""
    if as_json:
        print(json.dumps({"plans": records}, indent=2, sort_keys=True))
    else:
        for record in records:
            line = (f"{record['id']}  {record['state']:<7}  "
                    f"tenant={record['tenant']}  "
                    f"{record['points']} point(s) [{record['kind']}]")
            if record["label"]:
                line += f"  run={record['label']}"
            if record["error"]:
                line += f"  error: {record['error']}"
            print(line)
    return 0 if all(record["state"] != "failed"
                    for record in records) else 1


def _serve_submit(args) -> int:
    from repro.analysis.serve.client import ServiceClient, ServiceOverloaded
    from repro.errors import ConfigurationError

    if (args.plan is None) == (args.campaign is None):
        raise ConfigurationError(
            "submit needs exactly one of --plan or --campaign")
    client = ServiceClient(args.url)
    try:
        if args.plan is not None:
            records = [client.submit_plan(args.plan, tenant=args.tenant)]
        else:
            runs = ([label.strip() for label in args.runs.split(",")
                     if label.strip()] if args.runs else None)
            records = client.submit_campaign(args.campaign,
                                             tenant=args.tenant,
                                             smoke=args.smoke, runs=runs)
    except ServiceOverloaded as exc:
        print(f"error: {exc} — retry in {exc.retry_after_s:.1f}s",
              file=sys.stderr)
        return 3
    if args.wait:
        records = [client.wait(str(record["id"])) for record in records]
    return _serve_records(records, args.json)


def _register_serve_status(parser: argparse.ArgumentParser) -> None:
    _add_url(parser)
    parser.add_argument("--json", action="store_true",
                        help="emit the raw /v1/status payload")
    parser.set_defaults(func=_client_command(_serve_status))


def _serve_status(args) -> int:
    from repro.analysis.serve.client import ServiceClient

    payload = ServiceClient(args.url).status()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    scheduler = payload["scheduler"]
    plans = payload["plans"]
    admission = payload["admission"]
    print(f"experiment service at {args.url}: "
          f"up {payload['uptime_s']:.0f}s, "
          f"{payload['dispatchers']} dispatcher(s), "
          f"scheduler={scheduler['scheduler']}")
    print(f"  plans: {plans['queued']} queued, {plans['running']} running, "
          f"{plans['done']} done, {plans['failed']} failed")
    print(f"  admission: {admission['admitted']} admitted, "
          f"{admission['rejected']} rejected "
          f"(watermarks: depth {admission['max_depth']}, "
          f"cost {admission['max_cost']})")
    virtual = scheduler.get("virtual_time", {})
    for tenant, entry in sorted(payload["tenants"].items()):
        line = (f"  tenant {tenant}: {entry['submitted']} submitted, "
                f"{entry['completed']} completed, {entry['failed']} failed")
        if tenant in virtual:
            line += f", virtual time {virtual[tenant]:g}"
        print(line)
    return 0


def _register_serve_wait(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("plan_ids", nargs="+", metavar="PLAN_ID")
    _add_url(parser)
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="S", help="give up after S seconds "
                                          "(default: wait forever)")
    parser.add_argument("--json", action="store_true",
                        help="emit the terminal records as JSON")
    parser.set_defaults(func=_client_command(_serve_wait))


def _serve_wait(args) -> int:
    from repro.analysis.serve.client import ServiceClient

    client = ServiceClient(args.url)
    records = [client.wait(plan_id, timeout_s=args.timeout)
               for plan_id in args.plan_ids]
    return _serve_records(records, args.json)
