"""Command-line interface: regenerate any table or figure of the paper.

Examples::

    python -m repro campaign run all --jobs 8          # every table + figure
    python -m repro campaign run table1                # complexity (instant)
    python -m repro campaign run fig7 --mixes all      # all Table II mixes
    python -m repro campaign run fig8 --scale 4        # larger caches
    python -m repro campaign status fig6               # cached/missing/ready
    python -m repro campaign clean                     # wipe the store
    python -m repro workloads                          # list catalog + mixes
    python -m repro policies                           # list policies

    python -m repro campaign serve --bind 0.0.0.0:9000      # share a store
    python -m repro campaign run smoke --bind 0.0.0.0:9100
    python -m repro campaign worker HOST:9100 --store-url http://HOST:9000/

    python -m repro campaign run all --scale micro --jobs 2  # populate
    python -m repro report build                      # html/md/json artifacts
    python -m repro report check --strict             # grade the verdicts

    python -m repro lint                              # repo contract checks
    python -m repro lint --format json                # CI artifact output
    python -m repro lint --list-rules                 # rule catalogue

Every verb that runs jobs takes ``--scale micro|small|paper|N`` (a preset
or a capacity divisor; default ``small``), parsed by one resolver
(:func:`~repro.experiments.common.resolve_scale`); ``campaign`` refines it
with ``--accesses``, ``--mixes``, ``--seed`` and ``--target-cycles``.  A
value that makes no scale, or a section or target name that does not
exist, is a usage error: one ``repro: error:`` line, exit status 2, no
job run.

``campaign run`` is the one command that runs jobs.  Its targets are the
sections of :mod:`repro.reporting.sections` (plus ``smoke``); their job
matrices are unioned, de-duplicated and executed on a worker pool
(``--jobs 1`` serial, ``--jobs N`` a process pool, ``--bind HOST:PORT`` a
remote pool), memoising every simulation in a content-addressed store
(``--store DIR``, default ``.repro-store`` or ``$REPRO_STORE``; add
``--store-url`` / ``$REPRO_STORE_URL`` to read through a shared HTTP
store).  Each target then prints its tables; a table section that misses
an exactly graded paper value exits 1.  Re-running an interrupted or
finished sweep only executes missing jobs — that *is* the resume
mechanism — and ``--force`` recomputes everything.  ``campaign serve``
exports a store over HTTP and ``campaign worker`` joins a ``campaign run
--bind`` coordinator from another process or machine.

A ``campaign run`` in which no job failed records a manifest of its scale
and section targets in the store.  ``report build`` turns the store into
the paper's artifacts: it reads the manifest when given no ``--scale``,
assembles ``report.html`` / ``report.md`` / ``report.json`` (graded
against the checked-in paper values), and ``report check`` validates an
emitted ``report.json``.  See ``docs/reproducing.md`` for the full
walkthrough.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, NoReturn, Optional, Sequence

from repro.cache.replacement.base import POLICY_REGISTRY
from repro.experiments.common import ExperimentScale, resolve_scale
from repro.reporting.sections import (
    SECTIONS,
    resolve_sections,
    section_text,
)
from repro.workloads.mixes import ALL_WORKLOADS, get_workload
from repro.workloads.spec2000 import benchmark_names


def _usage_error(message: object) -> NoReturn:
    """One ``repro: error:`` line on stderr and exit status 2."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _add_scale_argument(parser: argparse.ArgumentParser,
                        default: Optional[str] = "small") -> None:
    parser.add_argument("--scale", default=default, metavar="NAME|N",
                        help="micro | small | paper, or an integer cache "
                             "capacity divisor (default: "
                             f"{default or 'the campaign-run manifest'})")


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scale_argument(parser)
    parser.add_argument("--accesses", type=int, default=None,
                        help="trace length per thread in memory accesses")
    parser.add_argument("--mixes", choices=("default", "all"),
                        default="default",
                        help="Table II mix coverage")
    parser.add_argument("--seed", type=int, default=None,
                        help="base random seed")
    parser.add_argument("--target-cycles", type=float, default=None,
                        help="cycle-matching horizon (smaller = faster)")


def _scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    """The scale ``--scale`` and its refinements select, through
    :func:`resolve_scale` (``report build`` takes no refinements); a value
    that makes no scale is a usage error."""
    flags = vars(args)
    try:
        return resolve_scale(flags.get("scale") or "small",
                             accesses=flags.get("accesses"),
                             seed=flags.get("seed"),
                             target_cycles=flags.get("target_cycles"),
                             mixes=flags.get("mixes", "default"))
    except ValueError as exc:
        _usage_error(exc)


def _resolve_names(resolver: Callable[[Sequence[str]], list],
                   names: Sequence[str]) -> list:
    """Section / target names through their resolver; an unknown name
    (whose ``KeyError`` lists the known ones) is a usage error."""
    try:
        return resolver(names)
    except KeyError as exc:
        _usage_error(exc.args[0])


def _print_failures(report) -> bool:
    """List a campaign's permanently failed jobs on stderr; True if any."""
    if not report.failed:
        return False
    print(f"ERROR: {len(report.failed)} job(s) failed permanently:",
          file=sys.stderr)
    for failure in report.failed:
        print(f"  {failure.label}: {failure.error} "
              f"(after {failure.attempts} attempts)", file=sys.stderr)
    return True


def _cmd_workloads(args: argparse.Namespace) -> int:
    print("benchmarks:", ", ".join(benchmark_names()))
    print()
    print("workload mixes (Table II):")
    for name in sorted(ALL_WORKLOADS):
        print(f"  {name}: {', '.join(get_workload(name))}")
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    print("registered replacement policies:")
    for name in sorted(POLICY_REGISTRY):
        cls = POLICY_REGISTRY[name]
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:8s} {doc}")
    return 0


def _campaign_store(args: argparse.Namespace):
    from repro.campaign.store import open_store
    return open_store(args.store or None, getattr(args, "store_url", None))


def _jobs_count(value: str) -> int:
    """``--jobs`` parser: a count ``>= 0``, or ``auto`` for every core."""
    if value == "auto":
        return 0
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 or 'auto': {value}")
    return count


def _parse_hostport(value: str):
    """``HOST:PORT`` as ``(host, port)`` — an argparse ``type``: a bare
    host means an ephemeral port, an empty host the loopback; a port
    that is not a number in 0-65535 is a usage error."""
    host, sep, port = value.rpartition(":")
    if not sep:
        return value, 0
    if not (port.isdigit() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(
            f"{value!r}: PORT must be a number in 0-65535")
    return host or "127.0.0.1", int(port)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import registry
    from repro.campaign.pool import RemotePool
    from repro.campaign.runner import Campaign
    from repro.reporting import build

    scale = _scale_from_args(args)
    specs = _resolve_names(registry.resolve_targets, args.targets)
    jobs = [job for spec in specs for job in spec.matrix(scale)]
    store = _campaign_store(args)
    pool = None
    if args.bind is not None:
        pool = RemotePool(*args.bind)
        print(f"remote pool: waiting for `repro campaign worker "
              f"{pool.address[0]}:{pool.address[1]}` to connect")
    campaign = Campaign(store, workers=args.jobs, force=args.force,
                        echo=print, pool=pool,
                        max_retries=args.max_retries)
    print(f"campaign store: {store.describe()}")
    results, report = campaign.run(jobs)
    print(report.summary())
    for line in report.stage_lines():
        print(f"  {line}")
    if _print_failures(report):
        return 1
    # The store now holds every job of these sections: record them for a
    # flag-less `report build` (smoke is no report section).
    report_specs = [spec for spec in specs if spec.name in SECTIONS]
    if report_specs:
        manifest = build.write_manifest(store, args.scale, scale,
                                        report_specs)
        print(f"manifest: {manifest} (scale: {args.scale}; sections: "
              f"{', '.join(spec.name for spec in report_specs)})")
    sections = [spec.build(scale, results) for spec in specs]
    for section in sections:
        print()
        print(f"=== {section.name} ===")
        print(section_text(section))
    if args.expect_cached and report.executed:
        print(f"ERROR: expected a fully cached campaign but "
              f"{report.executed} job(s) executed", file=sys.stderr)
        return 1
    # Tables are graded exactly: a missed paper value fails the command.
    return int(any(section.kind == "table"
                   and section.verdict_counts()["fail"]
                   for section in sections))


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import registry
    from repro.campaign.hashing import job_key
    from repro.campaign.jobs import KIND_OUTCOME, isolation_deps
    from repro.campaign.runner import plan_jobs
    from repro.campaign.store import StoreUnavailable
    from repro.experiments.report import format_table

    scale = _scale_from_args(args)
    specs = _resolve_names(registry.resolve_targets, args.targets or ["all"])
    store = _campaign_store(args)
    try:
        objects = len(store)
    except StoreUnavailable as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    rows = []
    for spec in specs:
        plan = plan_jobs(spec.matrix(scale))
        entries = plan.isolation + plan.outcome
        cached = {key for key, _ in entries if key in store}
        # Dispatchable right now under ready-set scheduling: a missing
        # job whose own isolation deps are all already stored.
        ready = 0
        for key, job in entries:
            if key in cached:
                continue
            if job.kind != KIND_OUTCOME:
                ready += 1
            elif all(job_key(dep) in cached for dep in isolation_deps(job)):
                ready += 1
        rows.append([spec.name, len(plan.outcome), len(plan.isolation),
                     len(cached), plan.total - len(cached), ready])
    print(f"campaign store: {store.describe()} ({objects} object(s))")
    print(format_table(
        ["target", "sim jobs", "iso jobs", "cached", "missing", "ready"],
        rows,
        title="campaign status (at the current scale)",
    ))
    return 0


def _cmd_campaign_clean(args: argparse.Namespace) -> int:
    from repro.campaign.store import StoreUnavailable
    from repro.reporting.build import manifest_path

    store = _campaign_store(args)
    try:
        removed = store.clean()
    except StoreUnavailable as exc:
        print(f"ERROR: nothing removed: {exc}", file=sys.stderr)
        return 1
    # A manifest without its objects would send `report build` into a
    # silent full recompute.
    manifest = manifest_path(store)
    had_manifest = manifest.is_file()
    manifest.unlink(missing_ok=True)
    print(f"campaign store: {store.describe()} — removed {removed} object(s)"
          + (" and the report manifest" if had_manifest else ""))
    return 0


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    from repro.campaign.pool import run_remote_worker

    store = _campaign_store(args)
    address = args.coordinator
    print(f"worker store: {store.describe()}")
    try:
        return run_remote_worker(address, store, name=args.name,
                                 connect_timeout=args.connect_timeout,
                                 echo=print)
    except OSError as exc:
        print(f"ERROR: could not reach coordinator at "
              f"{address[0]}:{address[1]}: {exc}", file=sys.stderr)
        return 1


def _cmd_campaign_serve(args: argparse.Namespace) -> int:
    from repro.campaign.server import StoreServer
    from repro.campaign.store import default_store_path

    host, port = args.bind or ("127.0.0.1", 0)
    server = StoreServer(args.store or default_store_path(), host, port)
    print(f"serving store {server.root} at {server.url}")
    print(f"point workers at it with --store-url {server.url} "
          f"(or REPRO_STORE_URL)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


def _report_sections(args: argparse.Namespace):
    names = []
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
    return _resolve_names(resolve_sections, names)


def _cmd_report_build(args: argparse.Namespace) -> int:
    from repro.reporting import build
    from repro.reporting.emit import write_report

    store = _campaign_store(args)
    sections = None
    manifest = None if args.scale else build.read_manifest(store)
    if manifest is not None:
        scale_name = manifest["scale_name"]
        scale = build.scale_from_dict(manifest["scale"])
        if not args.only:
            sections = build.resolve_sections(manifest["sections"])
    else:
        scale_name, scale = args.scale or "small", _scale_from_args(args)
    if sections is None:
        sections = _report_sections(args)

    print(f"report store: {store.root} (scale: {scale_name})")
    workers = 1 if args.jobs is None else args.jobs
    report, campaign_report = build.build_report(
        scale, store, sections, scale_name=scale_name, workers=workers,
        echo=print)
    print(campaign_report.summary())
    if _print_failures(campaign_report):
        return 1
    paths = write_report(report, args.out)
    counts = report.verdict_counts()
    print(f"verdicts: pass={counts['pass']} warn={counts['warn']} "
          f"fail={counts['fail']} over {report.total_points} point(s)")
    for kind in ("html", "md", "json"):
        print(f"wrote {paths[kind]}")
    return 0


def _cmd_report_check(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.reporting.emit import validate_report_dict

    path = Path(args.out) / "report.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"ERROR: cannot read {path}: {exc} "
              f"(run `repro report build` first)", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ERROR: {path} is not valid JSON: {exc}", file=sys.stderr)
        return 1
    problems = validate_report_dict(payload)
    if problems:
        for problem in problems:
            print(f"ERROR: {problem}", file=sys.stderr)
        return 1
    counts = payload["verdicts"]
    total = sum(len(s["points"]) for s in payload["sections"])
    print(f"report ok: {len(payload['sections'])} section(s), "
          f"{total} graded point(s) — pass={counts['pass']} "
          f"warn={counts['warn']} fail={counts['fail']}")
    if args.strict and counts["fail"]:
        print(f"ERROR: --strict and {counts['fail']} point(s) failed "
              f"against the paper's values", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro import lint

    ctx = (lint.LintContext(args.root) if args.root
           else lint.default_context())
    if args.list_rules:
        for name in sorted(lint.RULE_REGISTRY):
            print(f"  {name:24s} {lint.RULE_REGISTRY[name].description}")
        return 0
    if args.refresh_engine_checksum:
        digest = lint.refresh_engine_checksum(ctx)
        print(f"engine source checksum refreshed: {digest[:16]}… "
              f"(bump ENGINE_VERSION first if simulation results changed)")
        return 0
    names = ([n.strip() for n in args.rules.split(",") if n.strip()]
             if args.rules else None)
    diagnostics = lint.run_lint(ctx, lint.make_rules(names))
    if args.format == "json":
        print(lint.format_json(diagnostics))
    else:
        print(lint.format_text(diagnostics))
    return 1 if diagnostics else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fuzz import run_fuzz

    out_dir = Path(args.out) if args.out else None
    progress = print if not args.quiet else None
    report = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        out_dir=out_dir,
        shrink=not args.no_shrink,
        time_limit=args.time_limit,
        progress=progress,
    )
    print(report.summary())
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (one subcommand per verb)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduce 'Adapting Cache Partitioning Algorithms to "
                     "Pseudo-LRU Replacement Policies' (IPDPS 2010)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list benchmarks and Table II mixes")
    sub.add_parser("policies", help="list registered replacement policies")

    lint_p = sub.add_parser(
        "lint",
        help="static-analysis contract checks (see docs/static-analysis.md)",
    )
    lint_p.add_argument("--format", choices=("text", "json"), default="text",
                        help="diagnostic output format")
    lint_p.add_argument("--rules", default=None, metavar="RULES",
                        help="comma-separated rule subset (default: all)")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    lint_p.add_argument("--root", default=None, metavar="DIR",
                        help="source root to scan (default: this repo's src/)")
    lint_p.add_argument("--refresh-engine-checksum", action="store_true",
                        help="re-record the engine hot-path checksum "
                             "(after an ENGINE_VERSION review)")

    fuzz_p = sub.add_parser(
        "fuzz",
        help="differential fuzz of the execution engines "
             "(seeded, reproducible; shrinks any divergence)",
    )
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="campaign seed (case i = generate_case(seed, i))")
    fuzz_p.add_argument("--budget", type=int, default=25,
                        help="number of cases to generate and cross-check")
    fuzz_p.add_argument("--out", default=None, metavar="DIR",
                        help="directory for shrunk divergence repros "
                             "(repro-fuzz-case/1 JSON)")
    fuzz_p.add_argument("--time-limit", type=float, default=None,
                        metavar="SECONDS",
                        help="stop between cases once this much wall clock "
                             "has elapsed")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="report divergences without ddmin reduction")
    fuzz_p.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress lines")

    campaign = sub.add_parser(
        "campaign",
        help="parallel sweep runner with a content-addressed result store",
    )
    csub = campaign.add_subparsers(dest="campaign_command", required=True)
    run_p = csub.add_parser(
        "run", help="run the targets' jobs on a worker pool and print "
                    "their tables")
    run_p.add_argument("targets", nargs="+", metavar="TARGET",
                       help="fig6..fig9, table1, table2, smoke, or all")
    _add_scale_arguments(run_p)
    run_p.add_argument("--jobs", "-j", type=_jobs_count, default=None,
                       metavar="N|auto",
                       help="worker processes; 0 or 'auto' means every core "
                            "(the default)")
    run_p.add_argument("--store", default=None,
                       help="result store directory (default: .repro-store "
                            "or $REPRO_STORE)")
    run_p.add_argument("--store-url", default=None, metavar="URL",
                       help="remote object store (repro campaign serve), "
                            "read through a local cache "
                            "(default: $REPRO_STORE_URL)")
    run_p.add_argument("--bind", default=None, metavar="HOST:PORT",
                       type=_parse_hostport,
                       help="run on a remote pool: listen here for "
                            "`campaign worker`s instead of running jobs "
                            "in this host's processes")
    run_p.add_argument("--max-retries", type=int, default=2, metavar="N",
                       help="requeue attempts after a worker death before a "
                            "job is reported failed (default: 2)")
    run_p.add_argument("--force", action="store_true",
                       help="ignore cached results and re-simulate")
    run_p.add_argument("--expect-cached", action="store_true",
                       help="fail if any job actually executed "
                            "(CI cache-hit assertion)")
    status_p = csub.add_parser(
        "status", help="cached vs missing vs ready jobs per target")
    status_p.add_argument("targets", nargs="*", metavar="TARGET",
                          help="targets to inspect (default: all)")
    _add_scale_arguments(status_p)
    status_p.add_argument("--store", default=None,
                          help="result store directory")
    status_p.add_argument("--store-url", default=None, metavar="URL",
                          help="remote object store to read through")
    clean_p = csub.add_parser("clean", help="delete every stored result")
    clean_p.add_argument("--store", default=None,
                         help="result store directory")
    worker_p = csub.add_parser(
        "worker", help="pull jobs from a remote-pool coordinator")
    worker_p.add_argument("coordinator", metavar="HOST:PORT",
                          type=_parse_hostport,
                          help="address printed by "
                               "`campaign run --bind`")
    worker_p.add_argument("--store", default=None,
                          help="local result store / cache directory")
    worker_p.add_argument("--store-url", default=None, metavar="URL",
                          help="shared object store so the coordinator sees "
                               "results (default: $REPRO_STORE_URL)")
    worker_p.add_argument("--name", default=None,
                          help="worker name shown in scheduler logs")
    worker_p.add_argument("--connect-timeout", type=float, default=30.0,
                          metavar="SECONDS",
                          help="how long to retry the first connection")
    serve_p = csub.add_parser(
        "serve", help="serve a store directory over HTTP for remote workers")
    serve_p.add_argument("--store", default=None,
                         help="store directory to serve (default: "
                              ".repro-store or $REPRO_STORE)")
    serve_p.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                         type=_parse_hostport,
                         help="listen address (default: 127.0.0.1:0)")

    report = sub.add_parser(
        "report",
        help="render every figure/table into a verified reproduction report",
    )
    rsub = report.add_subparsers(dest="report_command", required=True)

    build_r = rsub.add_parser(
        "build", help="assemble report.html / report.md / report.json")
    _add_scale_argument(build_r, None)
    build_r.add_argument("--only", default=None, metavar="SECTIONS",
                         help="comma-separated subset, e.g. fig6,table1 "
                              "(default: the manifest's, else all sections)")
    build_r.add_argument("--store", default=None,
                         help="campaign store directory (default: "
                              ".repro-store or $REPRO_STORE)")
    build_r.add_argument("--jobs", "-j", type=_jobs_count, default=None,
                         metavar="N|auto",
                         help="worker processes for missing jobs; 0 or "
                              "'auto' means every core (default: 1)")
    build_r.add_argument("--out", default="report",
                         help="output directory (default: report/)")
    check_r = rsub.add_parser(
        "check", help="validate an emitted report.json")
    check_r.add_argument("--out", default="report",
                         help="report directory holding report.json")
    check_r.add_argument("--strict", action="store_true",
                         help="also fail when any point's verdict is fail")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    command = args.command
    if command == "workloads":
        return _cmd_workloads(args)
    if command == "lint":
        return _cmd_lint(args)
    if command == "policies":
        return _cmd_policies(args)
    if command == "fuzz":
        return _cmd_fuzz(args)
    if command == "campaign":
        if args.campaign_command == "run":
            return _cmd_campaign_run(args)
        if args.campaign_command == "status":
            return _cmd_campaign_status(args)
        if args.campaign_command == "clean":
            return _cmd_campaign_clean(args)
        if args.campaign_command == "worker":
            return _cmd_campaign_worker(args)
        if args.campaign_command == "serve":
            return _cmd_campaign_serve(args)
    if command == "report":
        if args.report_command == "build":
            return _cmd_report_build(args)
        if args.report_command == "check":
            return _cmd_report_check(args)
    raise AssertionError(f"unhandled command {command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
