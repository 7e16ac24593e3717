"""Command-line interface: ``repro-bench`` / ``python -m repro``.

Subcommands mirror the methodology's steps and the paper's exhibits:

* ``scan``      — G-SWFIT step 1: scan an OS build, print/save the faultload
* ``profile``   — profiling phase: print the Table 2 analogue
* ``faultload`` — full pipeline: scan + profile + fine-tune (Table 3 row)
* ``campaign``  — one server/OS campaign (Table 5 rows) cut into shards
  and run across worker processes, with scan caching and
  checkpoint/resume; each shard's machine is seeded from (``--seed``,
  shard index), so the numbers are the same for any worker count
* ``oltp``      — the OLTP case study: walnut vs breezy under a
  domain-tuned faultload, each engine one campaign with its metrics
  digest
* ``tables``    — regenerate Tables 1, 3 and 5 at scaled cost, each
  Table 5 row a campaign with its metrics digest
"""

import argparse
import json
import sys
from dataclasses import replace

from repro.faults.types import iter_fault_types
from repro.gswfit.scanner import scan_build
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import profile_servers
from repro.harness.metrics import DependabilityMetrics
from repro.ossim.builds import ALL_BUILDS, get_build
from repro.pipeline import FaultloadPipeline
from repro.profiling.usage import UsageTable
from repro.reporting.report import (
    oltp_results,
    table1_fault_types,
    table2_api_usage,
    table3_faultload_details,
    table5_results,
)
from repro.webservers.registry import (
    BENCHMARKED_SERVERS,
    PROFILING_SERVERS,
    server_names,
)

__all__ = ["main"]


def _add_common(parser):
    parser.add_argument(
        "--os", dest="os_codename", default="nt50",
        choices=sorted(ALL_BUILDS),
        help="OS build to target (default: nt50)",
    )
    parser.add_argument(
        "--seed", type=int, default=2004, help="base random seed"
    )


def _add_operator_specs(parser):
    parser.add_argument(
        "--operator-spec", dest="operator_specs", action="append",
        metavar="FILE", default=None,
        help="declarative operator spec JSON (repeatable; DESIGN.md "
             "§16) — a re-expression (\"replaces\": true) swaps in for "
             "its built-in Table 1 operator, a new fault type extends "
             "the faultload",
    )


def _make_config(args, **overrides):
    config = ExperimentConfig.scaled(**overrides)
    config.os_codename = args.os_codename
    config.seed = args.seed
    return config


def _load_operator_specs(paths):
    """Load, validate and install-check ``--operator-spec`` files.

    Returns ``(specs, error)``: a tuple of canonical spec dicts ready
    for ``ExperimentConfig.operator_specs``, or an rc-2 error string
    whose message is the validator's path-precise complaint.
    """
    if not paths:
        return None, None
    from repro.gswfit.dsl import OperatorSpec, SpecValidationError

    specs = []
    seen = {}
    for path in paths:
        try:
            spec = OperatorSpec.load(path)
        except SpecValidationError as exc:
            return None, f"--operator-spec: {exc}"
        previous = seen.get(spec.fault_type_name)
        if previous is not None and previous != str(path):
            return None, (
                f"--operator-spec: duplicate spec for fault type "
                f"{spec.fault_type_name!r} ({previous} and {path})"
            )
        seen[spec.fault_type_name] = str(path)
        specs.append(spec.to_dict())
    return tuple(specs), None


def _install_operator_specs(specs):
    """Register compiled operators for already-validated spec dicts."""
    if specs:
        from repro.gswfit.dsl import install_spec_operators

        install_spec_operators(specs)


def _cmd_scan(args):
    specs, error = _load_operator_specs(
        getattr(args, "operator_specs", None)
    )
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    _install_operator_specs(specs)
    build = get_build(args.os_codename)
    faultload = scan_build(build)
    counts = faultload.counts_by_type()
    print(f"Scanned {build.display_name}: {len(faultload)} fault locations")
    for fault_type in iter_fault_types():
        print(f"  {fault_type.value:5s} {counts[fault_type]}")
    if args.validate:
        from repro.faults.validate import validate_faultload

        report = validate_faultload(faultload)
        print(report)
        if not report.ok:
            return 1
    if args.output:
        faultload.save(args.output)
        print(f"faultload written to {args.output}")
    return 0


def _cmd_profile(args):
    config = _make_config(args)
    tracers = profile_servers(
        config, PROFILING_SERVERS, seconds=args.seconds
    )
    usage = UsageTable.from_tracers(tracers)
    print(table2_api_usage(usage).render())
    return 0


def _cmd_faultload(args):
    config = _make_config(args)
    pipeline = FaultloadPipeline(config, profile_seconds=args.seconds)
    tuned = pipeline.run()
    build = get_build(args.os_codename)
    print(table3_faultload_details({build.display_name: tuned}).render())
    if args.output:
        tuned.save(args.output)
        print(f"tuned faultload written to {args.output}")
    return 0


def _validate_campaign_args(args):
    """Check flag combinations up front; returns an error string or
    None.  A bad combination should cost the user one clear line, not a
    traceback from deep inside the campaign."""
    if args.resume and not args.journal:
        return "--resume requires --journal"
    _specs, error = _load_operator_specs(
        getattr(args, "operator_specs", None)
    )
    if error is not None:
        return error
    if args.workers is not None and args.workers < 1:
        return f"--workers must be >= 1, got {args.workers}"
    if args.slots_per_shard is not None and args.slots_per_shard < 1:
        return (f"--slots-per-shard must be >= 1, "
                f"got {args.slots_per_shard}")
    if args.shard_timeout is not None and args.shard_timeout <= 0:
        return (f"--shard-timeout must be positive, "
                f"got {args.shard_timeout}")
    if args.max_retries < 0:
        return f"--max-retries must be >= 0, got {args.max_retries}"
    if args.adaptive_slots and args.no_inject:
        return ("--adaptive-slots cannot be combined with --no-inject: "
                "a no-inject run has no fault for a probe to hit")
    return None


def _campaign_config(args):
    """Build the :class:`ExperimentConfig` a ``campaign`` invocation
    describes."""
    config = _make_config(
        args, fault_sample=args.faults, connections=args.connections
    )
    config.server_name = args.server
    if args.slots_per_shard is not None:
        config.slots_per_shard = args.slots_per_shard
    config.integrity_audit = not args.no_integrity_audit
    if args.reboot_budget is not None:
        config.reboot_budget = args.reboot_budget
    config.inject_faults = not args.no_inject
    config.adaptive_slots = args.adaptive_slots
    config.pristine_slots = args.pristine_slots
    specs, _error = _load_operator_specs(
        getattr(args, "operator_specs", None)
    )
    config.operator_specs = specs
    return config


def _cmd_campaign(args):
    from repro.harness.campaign import JournalMismatch, ParallelCampaign

    error = _validate_campaign_args(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    config = _campaign_config(args)
    campaign = ParallelCampaign(
        config,
        workers=args.workers,
        journal_path=args.journal,
        resume=args.resume,
        shard_timeout=args.shard_timeout,
        max_retries=args.max_retries,
        telemetry_path=args.telemetry,
        manifest_path=args.manifest,
    )
    try:
        result = campaign.run(
            include_baseline=not args.no_baseline,
            include_profile_mode=not args.no_profile,
        )
    except JournalMismatch as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"campaign: {campaign.workers} worker(s), "
          f"{config.rules.iterations} iteration(s), "
          f"shard size {config.slots_per_shard} slots")
    stats = campaign.warmup_stats
    print(f"mutant warm-up: {stats['compiled']} compiled, "
          f"{stats['cached']} cached, {stats['failed']} failed "
          f"of {stats['slots']} slots")
    manifest = campaign.manifest
    print(f"metrics digest: {manifest.metrics_digest}")
    if campaign.manifest_path:
        print(f"run manifest written to {campaign.manifest_path}")
    supervision = manifest.supervision
    if supervision["retries"] or supervision["pool_rebuilds"]:
        print(f"supervision: {supervision['retries']} retries, "
              f"{supervision['pool_rebuilds']} pool rebuilds"
              + (", serial fallback"
                 if supervision["serial_fallback"] else ""))
    integrity = manifest.integrity
    if integrity["enabled"]:
        print(f"integrity: {integrity['contaminated_slots']} "
              f"contaminated slot(s), {integrity['reboots']} verified "
              f"reboot(s) (budget {integrity['reboot_budget']}/shard)")
        if integrity["violation_kinds"]:
            kinds = ", ".join(
                f"{kind}={count}" for kind, count
                in integrity["violation_kinds"].items()
            )
            print(f"  violation kinds: {kinds}")
        if integrity["unrebooted_contamination"]:
            print(f"WARNING: reboot budget exhausted — "
                  f"{integrity['unrebooted_contamination']} "
                  f"contaminated slot(s) measured without a reboot",
                  file=sys.stderr)
    activation = manifest.activation
    if activation["enabled"]:
        rate = activation["activation_rate"]
        rate_text = "n/a" if rate is None else f"{100.0 * rate:.1f}%"
        print(f"activation: {activation['faults_activated']} of "
              f"{activation['faults_injected']} fault(s) activated "
              f"({rate_text})")
        if activation["adaptive"]:
            print(f"  adaptive slots: {activation['slots_truncated']} "
                  f"truncated, {activation['sim_seconds_saved']:.1f} "
                  f"sim-seconds saved "
                  f"({activation['deadline_functions']} profiled "
                  f"deadline(s))")
    snapshot = manifest.snapshot
    total = snapshot["epochs_booted"] + snapshot["epochs_restored"]
    line = (f"snapshots: {snapshot['epochs_restored']} of "
            f"{total} epoch(s) restored")
    if snapshot["pristine_slots"]:
        line += f" ({snapshot['pristine_restarts']} pristine restart(s))"
    print(line)
    if result.degraded:
        print(f"WARNING: campaign degraded — "
              f"{len(result.quarantine)} shard(s) quarantined:",
              file=sys.stderr)
        for entry in result.quarantine:
            print(f"  iteration {entry['iteration']} shard "
                  f"{entry['shard_index']} (slots {entry['first_slot']}"
                  f"..{entry['first_slot'] + entry['num_slots'] - 1}): "
                  f"{entry['failures'][-1]}", file=sys.stderr)
    build = get_build(args.os_codename)
    print(table5_results({(build.display_name, args.server): result})
          .render())
    if result.iterations and (result.baseline or result.profile_mode):
        metrics = DependabilityMetrics.from_results(result)
        print()
        print("Dependability metrics:")
        print(json.dumps(metrics.as_dict(), indent=2))
    if args.export:
        from repro.reporting.export import export_campaign

        written = export_campaign(
            result, args.export, config=config, manifest=manifest,
            telemetry_path=campaign.telemetry_path,
        )
        print(f"results exported: "
              f"{', '.join(str(path) for path in written)}")
    return 0


def _cmd_oltp(args):
    from repro.harness.campaign import ParallelCampaign
    from repro.harness.telemetry import metrics_digest
    from repro.oltp import ENGINES
    from repro.pipeline import build_tuned_faultload

    config = _make_config(
        args, fault_sample=args.faults, connections=args.connections
    )
    config.rules = replace(config.rules, iterations=1)
    print("fine-tuning the faultload for the OLTP domain...")
    tuned = build_tuned_faultload(
        config, servers=ENGINES, profile_seconds=args.seconds
    )
    results = {
        engine: ParallelCampaign(
            config.with_target(server_name=engine)
        ).run(faultload=tuned, include_profile_mode=False)
        for engine in ENGINES
    }
    print(oltp_results(results).render())
    print("metrics digests:")
    for engine, result in results.items():
        print(f"  {engine}: {metrics_digest(result)}")
    return 0


def _table5_config(args, os_codename, server_name):
    """The config of one Table 5 campaign that ``tables`` runs."""
    config = _make_config(
        args, fault_sample=args.faults, connections=args.connections
    )
    config.os_codename = os_codename
    config.server_name = server_name
    return config


def _cmd_tables(args):
    from repro.harness.campaign import ParallelCampaign

    print(table1_fault_types().render())
    print()
    # Table 3 is the fine-tuned faultload of each build, profiled as the
    # Table 3 bench profiles it.
    faultloads = {}
    for codename in sorted(ALL_BUILDS):
        config = _make_config(args, connections=args.connections)
        config.os_codename = codename
        faultloads[get_build(codename).display_name] = FaultloadPipeline(
            config, profile_seconds=15.0
        ).run()
    print(table3_faultload_details(faultloads).render())
    print()
    results = {}
    digests = []
    for codename in sorted(ALL_BUILDS):
        build = get_build(codename)
        for server in BENCHMARKED_SERVERS:
            campaign = ParallelCampaign(
                _table5_config(args, codename, server)
            )
            results[(build.display_name, server)] = campaign.run()
            digests.append(f"  {codename}/{server}: "
                           f"{campaign.manifest.metrics_digest}")
    print(table5_results(results).render())
    print("metrics digests:")
    print("\n".join(digests))
    return 0


def build_parser():
    """Construct the argparse parser for repro-bench."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Dependability benchmarking with software-fault faultloads "
            "(DSN 2004 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    scan = subparsers.add_parser("scan", help="scan an OS build (step 1)")
    _add_common(scan)
    scan.add_argument("--output", help="write the faultload JSON here")
    scan.add_argument(
        "--validate", action="store_true",
        help="verify every location builds a mutant before writing",
    )
    _add_operator_specs(scan)
    scan.set_defaults(func=_cmd_scan)

    profile = subparsers.add_parser(
        "profile", help="profile API usage of all servers (Table 2)"
    )
    _add_common(profile)
    profile.add_argument(
        "--seconds", type=float, default=40.0,
        help="profiling workload duration per server",
    )
    profile.set_defaults(func=_cmd_profile)

    faultload = subparsers.add_parser(
        "faultload", help="full pipeline: scan+profile+tune (Table 3)"
    )
    _add_common(faultload)
    faultload.add_argument("--seconds", type=float, default=40.0)
    faultload.add_argument("--output")
    faultload.set_defaults(func=_cmd_faultload)

    campaign = subparsers.add_parser(
        "campaign",
        help="benchmark one server/OS pair (Table 5) in parallel, with "
             "checkpoint/resume and scan caching",
    )
    _add_common(campaign)
    campaign.add_argument(
        "--server", default="apache", choices=server_names()
    )
    campaign.add_argument("--faults", type=int, default=96,
                          help="faultload subsample size (0 = full)")
    campaign.add_argument("--connections", type=int, default=16)
    campaign.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: cpu count): 1 runs shards "
             "in-process, N forks N workers; results are "
             "identical for any worker count",
    )
    campaign.add_argument(
        "--slots-per-shard", type=int, default=None,
        help="slots per shard, each shard one machine's run; part of "
             "the campaign key (default: one conformance batch)",
    )
    campaign.add_argument(
        "--journal", help="JSONL checkpoint journal for this campaign"
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="skip units already recorded in --journal",
    )
    campaign.add_argument(
        "--shard-timeout", type=float, default=None,
        help="wall-clock deadline in seconds per shard attempt; a "
             "shard exceeding it is treated as hung and retried",
    )
    campaign.add_argument(
        "--max-retries", type=int, default=2,
        help="failures a shard may accumulate before it is "
             "quarantined (default: 2)",
    )
    campaign.add_argument(
        "--telemetry",
        help="JSONL supervision/phase event stream (default: next to "
             "--journal when one is given)",
    )
    campaign.add_argument(
        "--manifest",
        help="write the run manifest (with the deterministic metrics "
             "digest) to this path (default: next to --journal)",
    )
    campaign.add_argument(
        "--no-baseline", action="store_true",
        help="skip the baseline phase",
    )
    campaign.add_argument(
        "--no-profile", action="store_true",
        help="skip the profile-mode (intrusiveness) phase",
    )
    campaign.add_argument(
        "--no-integrity-audit", action="store_true",
        help="skip the slot-gap state-integrity audits (and the "
             "verified reboots they trigger)",
    )
    campaign.add_argument(
        "--reboot-budget", type=int, default=None,
        help="verified machine reboots allowed per shard after "
             "contaminated slots (default: 2); when exhausted the run "
             "continues and keeps flagging",
    )
    campaign.add_argument(
        "--no-inject", action="store_true",
        help="control run: walk the slot protocol with the injector "
             "attached but swap no code (any integrity violation is an "
             "auditor false positive; the parity harness's no-inject "
             "rows check for none)",
    )
    campaign.add_argument(
        "--adaptive-slots", action="store_true",
        help="truncate a slot once the faulted function's profiled "
             "activation deadline passes with zero probe hits; cuts "
             "campaign time, deterministic for any worker count",
    )
    campaign.add_argument(
        "--pristine-slots", action="store_true",
        help="restart the machine after every injection slot (the "
             "paper's Fig. 4 isolation protocol); near-free because "
             "each restart restores the epoch snapshot, changes the "
             "measured timeline so digests differ from the default "
             "back-to-back schedule",
    )
    _add_operator_specs(campaign)
    campaign.add_argument("--export",
                          help="write results to this directory")
    campaign.set_defaults(func=_cmd_campaign)

    oltp = subparsers.add_parser(
        "oltp", help="the OLTP case study (walnut vs breezy)"
    )
    _add_common(oltp)
    oltp.add_argument("--faults", type=int, default=48)
    oltp.add_argument("--connections", type=int, default=10)
    oltp.add_argument("--seconds", type=float, default=15.0,
                      help="profiling duration per engine")
    oltp.set_defaults(func=_cmd_oltp)

    tables = subparsers.add_parser(
        "tables", help="regenerate all tables at scaled cost"
    )
    _add_common(tables)
    # The bench's sample size, so the defaults print the Table 5
    # digests EXPERIMENTS.md publishes.
    tables.add_argument("--faults", type=int, default=72)
    tables.add_argument("--connections", type=int, default=12)
    tables.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "faults", None) == 0:
        args.faults = None
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
