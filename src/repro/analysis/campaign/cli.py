"""``python -m repro campaign`` — the campaign/fuzzer command line.

Four subcommands::

    python -m repro campaign run [--campaign NAME|FILE] [--smoke] [...]
    python -m repro campaign list
    python -m repro campaign fuzz [--budget N] [--seed N] [--corpus DIR]
    python -m repro campaign repro CASE_ID [--corpus DIR]

``run`` resolves execution policy through the same
:class:`~repro.analysis.session.RunConfig` chain as ``python -m repro
run`` (flags > ``REPRO_*`` environment > ``repro.toml`` > defaults) and
executes the compiled campaign through one
:class:`~repro.analysis.session.Session` — pool, batched kernels,
persistent cache and distrib fleet included.  ``--smoke`` trims every
scenario to a skeleton cross-product, which is what CI runs on every
push.

``fuzz`` spends a seeded budget across the invariant registry and
persists every (shrunk) violation under the corpus directory; ``repro``
replays one persisted case and exits 0 only when the re-run reproduces
the recorded violations byte-for-byte.
"""

from __future__ import annotations

import json

__all__ = ["register_cli"]


def register_cli(parser) -> None:
    """``python -m repro campaign``: ``run`` / ``list`` / ``fuzz`` /
    ``repro``."""
    parser.description = ("Enumerate, execute and fuzz scenario campaigns "
                          "over the paper's model space.")
    commands = parser.add_subparsers(metavar="SUBCOMMAND")

    run_cmd = commands.add_parser(
        "run", help="compile and execute a campaign through a Session")
    run_cmd.add_argument("--campaign", default="paper_space",
                         metavar="NAME|FILE",
                         help="bundled campaign name (campaigns/NAME.toml) "
                              "or a path to a campaign TOML file "
                              "(default: paper_space)")
    run_cmd.add_argument("--smoke", action="store_true",
                         help="trim every scenario to a skeleton "
                              "cross-product (seconds, not minutes)")
    run_cmd.add_argument("--workers", default=None, metavar="N|auto",
                         help="pool size (auto = cpu count; default: "
                              "resolved)")
    run_cmd.add_argument("--cache-mode", default=None,
                         choices=("off", "rw", "ro"),
                         help="persistent-cache mode (default: resolved)")
    run_cmd.add_argument("--cache-root", default=None, metavar="SPEC",
                         help="cache root: a directory, a bucket URL, or "
                              "fs / obj:URL (default: resolved)")
    run_cmd.add_argument("--distrib-root", default=None, metavar="ROOT",
                         help="shared fleet root (default: resolved)")
    run_cmd.add_argument("--config", default=None, metavar="FILE",
                         help="repro.toml to resolve from (default: "
                              "$REPRO_CONFIG or ./repro.toml)")
    run_cmd.add_argument("--json", action="store_true",
                         help="emit the campaign summary as JSON")
    run_cmd.add_argument("--plan-only", action="store_true",
                         help="compile and describe the campaign without "
                              "executing it")
    run_cmd.set_defaults(func=_cmd_run)

    commands.add_parser(
        "list", help="list registry point functions and fuzz invariants"
    ).set_defaults(func=_cmd_list)

    fuzz_cmd = commands.add_parser(
        "fuzz", help="draw seeded scenario points against the invariant "
                     "registry")
    fuzz_cmd.add_argument("--budget", type=int, default=64, metavar="N",
                          help="seeded draws to spend (default: 64)")
    fuzz_cmd.add_argument("--seed", type=int, default=0, metavar="N",
                          help="campaign seed of the draw streams "
                               "(default: 0)")
    fuzz_cmd.add_argument("--corpus", default=None, metavar="DIR",
                          help="violation corpus directory "
                               "(default: .repro_fuzz)")
    fuzz_cmd.add_argument("--invariant", action="append", default=None,
                          metavar="NAME",
                          help="restrict to one invariant (repeatable)")
    fuzz_cmd.set_defaults(func=_cmd_fuzz)

    repro_cmd = commands.add_parser(
        "repro", help="replay one persisted fuzz case byte-for-byte")
    repro_cmd.add_argument("case_id", metavar="CASE_ID",
                           help="identifier of a case under the corpus "
                                "directory")
    repro_cmd.add_argument("--corpus", default=None, metavar="DIR",
                           help="violation corpus directory "
                                "(default: .repro_fuzz)")
    repro_cmd.set_defaults(func=_cmd_repro)


def _resolve_campaign(spec_arg: str, smoke: bool):
    from repro.analysis.campaign.spec import (builtin_campaign_path,
                                              compile_campaign,
                                              load_campaign)

    path = spec_arg
    if not str(spec_arg).endswith(".toml"):
        path = builtin_campaign_path(str(spec_arg))
    spec = load_campaign(path)
    if smoke:
        spec = spec.trimmed()
    return compile_campaign(spec)


def _cmd_run(args) -> int:
    from repro.analysis.campaign.engine import run_campaign
    from repro.analysis.session import RunConfig, Session

    campaign = _resolve_campaign(args.campaign, args.smoke)
    if args.plan_only:
        payload = campaign.describe()
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json
              else _describe_lines(payload))
        return 0
    config = RunConfig.resolve(
        config_file=args.config,
        workers=args.workers,
        cache_mode=args.cache_mode,
        cache_root=args.cache_root,
        distrib_root=args.distrib_root,
    )
    with Session(config) as session:
        result = run_campaign(campaign, session)
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(_describe_lines(summary))
    print(f"  executed {summary['evaluated_points']} point(s) across "
          f"{summary['runs']} run(s) in {summary['wall_time_s']:.2f} s "
          f"on {', '.join(summary['executors'])}")
    if summary["persistent_hits"] or summary["persistent_misses"]:
        print(f"  persistent cache: {summary['persistent_hits']} hit(s), "
              f"{summary['persistent_misses']} miss(es)")
    return 0


def _describe_lines(payload) -> str:
    lines = [f"campaign '{payload['name']}' (seed {payload['seed']}): "
             f"{payload['points']} point(s) in {payload['runs']} "
             f"planned run(s)"]
    for name, points in sorted(payload["scenario_points"].items()):
        lines.append(f"  {name}: {points} point(s)")
    lines.append(f"  signature {payload['signature'][:16]}...")
    return "\n".join(lines)


def _cmd_list(args) -> int:
    from repro.analysis.campaign.invariants import DEFAULT_INVARIANTS
    from repro.analysis.campaign.registry import REGISTRY

    print("point functions:")
    for name in sorted(REGISTRY):
        entry = REGISTRY[name]
        axes = ", ".join(entry.axes)
        print(f"  {name} [{entry.kind}; axes: {axes}] — "
              f"{entry.description}")
        print(f"    metrics: {', '.join(entry.metrics)}")
    print("invariants:")
    for name in sorted(DEFAULT_INVARIANTS):
        print(f"  {name} — {DEFAULT_INVARIANTS[name].description}")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.analysis.campaign.fuzz import DEFAULT_CORPUS_DIR, fuzz

    corpus = args.corpus or DEFAULT_CORPUS_DIR

    def progress(case):
        print(f"  VIOLATION {case.case_id} [{case.invariant}] "
              f"index={case.index}:")
        for message in case.violations:
            print(f"    {message}")

    report = fuzz(seed=args.seed, budget=args.budget, corpus_dir=corpus,
                  names=args.invariant, progress=progress)
    print(f"fuzz: seed {report.seed}, {report.budget} draw(s) — "
          f"{report.evaluated} evaluated, {report.rejected} rejected, "
          f"{report.violation_count} violation(s)")
    if report.cases:
        print(f"  corpus: {corpus} — replay with "
              f"'python -m repro campaign repro CASE_ID"
              + (f" --corpus {corpus}'" if args.corpus else "'"))
        return 1
    return 0


def _cmd_repro(args) -> int:
    from repro.analysis.campaign.fuzz import (DEFAULT_CORPUS_DIR, load_case,
                                              reproduce)

    corpus = args.corpus or DEFAULT_CORPUS_DIR
    case = load_case(args.case_id, corpus_dir=corpus)
    identical, violations = reproduce(case)
    print(f"case {case.case_id} [{case.invariant}] seed={case.seed} "
          f"index={case.index}")
    for message in violations:
        print(f"  {message}")
    if identical:
        print("reproduced byte-for-byte")
        return 0
    print("DID NOT reproduce: recorded violations were:")
    for message in case.violations:
        print(f"  {message}")
    return 1
