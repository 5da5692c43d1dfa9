"""Command-line interface: ``python -m repro <experiment>``.

Each subcommand regenerates one table/figure and prints it in the paper's
layout; ``report`` runs everything and emits the markdown comparison.
Each is one record of ``COMMANDS``, which builds the parser and dispatches.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import signal
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import calibration
from repro.checks import at_least, finite, non_negative, positive


def _checked(convert: Callable[[str], Any],
             check: Callable[[Any, str], Any],
             requirement: str) -> Callable[[str], Any]:
    """An argparse type: ``convert`` the text, then apply ``check``, the
    :mod:`repro.checks` rule the library applies to the same value."""
    def parse(text: str) -> Any:
        value = convert(text)
        try:
            return check(value, "value")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r}: {requirement}") from None

    parse.__name__ = convert.__name__  # "invalid int value: 'x'"
    return parse


def _at_least(minimum: int) -> Callable[[str], int]:
    """An int argparse type refusing values below ``minimum``."""
    return _checked(int, lambda n, name: at_least(n, minimum, name),
                    f"must be >= {minimum}")


_count = _at_least(0)
_finite = _checked(float, finite, "must be a finite number")
_positive = _checked(float, positive, "must be a finite number > 0")
_seconds = _checked(float, positive, "must be a finite number of seconds > 0")
_wait = _checked(float, non_negative,
                 "must be a finite number of seconds >= 0")


def _lazy(path: str) -> Any:
    """The object at ``module:name``, imported when a flag is parsed, not
    at module level: the analysis, fault and scenario packages take about
    0.6 s to import, which ``--help`` and ``repro worker`` should not
    pay."""
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


#: A ``--duration`` floor: a library constant, its multiple, and why.
Floor = Tuple[str, float, str]
_WINDOWED: Floor = ("repro.analysis.throughput:MIN_WINDOWED_SESSION_S", 1,
                    "one throughput window after the skipped head, with "
                    "slack")
_FIG6_HALF: Floor = ("repro.analysis.throughput:MIN_WINDOWED_SESSION_S", 2,
                     "fig6's network half runs at duration / 2")
_DISTURBANCE: Floor = ("repro.faults.schedule:STANDARD_DISTURBANCE_MIN_S", 1,
                       "the standard disturbance's five faults must fit")


def _duration(command: str, floor: Optional[Floor]) -> Callable[[str], float]:
    """The type of one duration flag: seconds, at least ``floor``."""
    def parse(text: str) -> float:
        value = _seconds(text)
        if floor is not None:
            constant, multiple, why = floor
            limit = multiple * _lazy(constant)
            if value < limit:
                raise argparse.ArgumentTypeError(
                    f"{text!r}: {command} needs at least {limit:g} s "
                    f"({why})")
        return value

    parse.__name__ = "float"
    return parse


def _known(catalog: str) -> Callable[[str], str]:
    """An argparse type: a name in a library catalog (a mapping, or a
    function returning the names)."""
    def parse(text: str) -> str:
        names = _lazy(catalog)
        known = list(names() if callable(names) else names)
        if text not in known:
            raise argparse.ArgumentTypeError(
                f"{text!r}: must be one of {', '.join(known)}")
        return text

    return parse


class _Cells(argparse.Action):
    """A list whose values each become cells: a repeated value would run
    its cells twice under one label, so it is refused."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.distinct(values))

    def distinct(self, values: List[Any]) -> List[Any]:
        for index, value in enumerate(values):
            if value in values[:index]:
                raise argparse.ArgumentError(
                    self, f"{value!r}: given twice (each value is a cell)")
        return values


class _NameList(_Cells):
    """Names given space- or comma-separated (``a,b c``), as one list,
    each checked by the ``known`` type."""

    def __init__(self, *args, known: Callable[[str], str], **kwargs):
        super().__init__(*args, **kwargs)
        self.known = known

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            names = [self.known(name) for value in values
                     for name in value.split(",") if name]
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None
        setattr(namespace, self.dest, self.distinct(names))


class _Given(argparse.Action):
    """Store the value (``const`` for a switch, ``nargs=0``) and note the
    flag as given: ``--quick`` refuses an explicit ``--duration`` or
    ``--repeats``, and ``scenarios`` the flags its action does not read."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.given = getattr(namespace, "given", ()) + (
            self.option_strings[0],)


def _given(args) -> Tuple[str, ...]:
    """The ``_Given`` flags on the command line, in order."""
    return getattr(args, "given", ())


#: One ``add_argument`` call, as data: the flag names and the keywords.
_Arg = Tuple[Tuple[str, ...], Dict[str, Any]]


def _arg(*names: str, **kwargs: Any) -> _Arg:
    return names, kwargs


def _common(name: str, command: _Command) -> List[_Arg]:
    """The common flags ``command`` reads, in help order."""
    flags = {
        "seed": _arg("--seed", type=_count, default=0, action=_Given,
                     help="master seed (>= 0)"),
        "duration": _arg("--duration", type=_duration(name, command.floor),
                         default=20.0, action=_Given,
                         help="session seconds per run"),
        "repeats": _arg("--repeats", type=_at_least(1),
                        default=calibration.MIN_REPEATS, action=_Given,
                        help="independent repeats per experiment"),
    }
    return [flags[flag] for flag in command.reads.split()]


#: Flags more than one subcommand takes, declared once; each subcommand
#: gives its own defaults through ``_shared``.
_SHARED = {
    "csv": dict(metavar="PATH", action=_Given,
                help="export the records to this CSV"),
    "policies": dict(nargs="+", action=_NameList, metavar="NAME",
                     known=_known("repro.geo.policy:policy_names"),
                     help="selection policies to sweep, space- or "
                     "comma-separated (default: all registered)"),
    "regions": dict(type=_at_least(1), metavar="N", help="limit demand to "
                    "the N most populous world regions"),
    "session_size": dict(type=_at_least(2),
                         help="participants per telepresence session"),
    "site_step": dict(type=_positive, metavar="DEG",
                      help="global candidate-lattice spacing, degrees"),
}


def _shared(**defaults: Any) -> Tuple[_Arg, ...]:
    """Shared flags by dest name (``site_step=4.0``), with defaults."""
    return tuple(_arg("--" + dest.replace("_", "-"), default=default,
                      **_SHARED[dest]) for dest, default in defaults.items())


def _switch(name: str, help: str) -> _Arg:
    """A ``store_true`` flag that notes itself as given."""
    return _arg(name, action=_Given, nargs=0, const=True, default=False,
                help=help)


#: Flags of the sweep subcommands (parallelism, caching and crash-safe
#: execution), whose handlers run under ``_run_sweep``.
_SWEEP = (
    _arg("--jobs", type=_count, default=1, action=_Given,
         help="worker processes (1 = serial)"),
    _switch("--no-cache", "recompute every cell, ignore the result cache"),
    _arg("--cache-dir", action=_Given, help="result-cache root (default: "
         "REPRO_CACHE_DIR or ~/.cache/repro-sweeps)"),
    _arg("--cell-timeout", type=_seconds, default=None, metavar="SECONDS",
         action=_Given, help="per-cell watchdog deadline; a hung worker is "
         "killed and the cell retried as transient"),
    _arg("--max-retries", type=_count, default=1, action=_Given,
         help="transient-failure retries per cell (exponential backoff "
         "between attempts)"),
    _arg("--journal", action=_Given, help="checkpoint-journal path "
         "(campaign default: derived from the sweep fingerprint under the "
         "cache root)"),
    _switch("--resume", "replay cells already checkpointed in the journal "
            "and run only the remainder"),
    _arg("--manifest", action=_Given,
         help="write the run-manifest JSON to this path"),
    _arg("--trace", metavar="PATH", action=_Given,
         help="emit chrome://tracing-compatible span JSONL to this path "
         "(convert with 'python -m repro.obs.trace PATH out.json')"),
    _switch("--metrics", "print the metrics-registry snapshot after the run"),
)


@contextlib.contextmanager
def _graceful_interrupts():
    """Turn SIGINT/SIGTERM into CampaignInterrupted inside the block.

    The runner reacts by draining finished workers, killing the rest,
    and flushing the checkpoint journal — so the command can exit with a
    "resume with --resume" hint instead of a raw traceback.
    """
    from repro.core.errors import CampaignInterrupted

    def _handler(signum, frame):
        del frame
        raise CampaignInterrupted(signal.Signals(signum).name)

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _handler)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _progress(line: str) -> None:
    print(f"  {line}")


def _export_csv(args, result) -> None:
    """Write the sweep's records where ``--csv`` asks, if it does."""
    if args.csv:
        result.to_csv(args.csv)
        print(f"wrote {args.csv}")


def _run_sweep(args, sweep: Callable[..., Any], *, journal_path=None,
               store=None, echo: bool = True) -> Any:
    """Run one sweep subcommand under the crash-safe CLI harness.

    Opens the journal (``--journal``, else ``journal_path``) and a fresh
    run manifest, arms ``--trace``, and turns SIGINT/SIGTERM into
    :class:`CampaignInterrupted` while ``sweep(**runner_kwargs)`` runs.
    The keyword arguments are the ones every sweep driver takes:
    ``jobs``, ``cache``, ``timeout``, ``retries``, ``journal``,
    ``resume`` and ``manifest``.  An interrupt exits 130 with the resume
    hint that fits.  Otherwise the journal is closed, the manifest and
    observability output printed, and the sweep's result returned.
    ``echo=False`` is for ``reproduce``: its markdown carries the
    manifest and metrics sections and may be on stdout, so only the
    ``wrote ...`` notes are printed, on stderr.
    """
    from repro.core.cache import ResultCache
    from repro.core.errors import CampaignInterrupted
    from repro.core.journal import RunJournal, RunManifest

    path = args.journal or journal_path
    if path is None and args.resume:
        raise SystemExit(
            "error: --resume needs --journal PATH for this subcommand "
            "(only 'campaign' derives a default journal path)"
        )
    journal = RunJournal(path) if path else None
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    manifest = RunManifest()
    if args.trace:
        from repro.obs import trace

        trace.configure(args.trace)
    try:
        with _graceful_interrupts():
            result = sweep(jobs=args.jobs, cache=cache,
                           timeout=args.cell_timeout,
                           retries=args.max_retries, journal=journal,
                           resume=args.resume, manifest=manifest)
    except CampaignInterrupted:
        if store:
            hint = (f"committed cells live in {store}; re-run the same "
                    f"command (same --store) to resume, workers can keep "
                    f"running meanwhile")
        elif journal is not None:
            hint = (f"completed cells are checkpointed in {journal.path}\n"
                    f"resume with the same command plus: --resume")
        else:
            what = ("the reproduction" if args.command == "reproduce"
                    else "this sweep")
            hint = f"no journal; pass --journal PATH to make {what} resumable"
        print(f"\ninterrupted — {hint}", file=sys.stderr)
        raise SystemExit(130)
    finally:
        if journal is not None:
            journal.close()
    log = sys.stdout if echo else sys.stderr
    if echo:
        print(f"manifest: {manifest.summary_line()}")
        for cell in manifest.fallbacks():
            print(f"  fallback: {cell.name} ran in-process after "
                  f"{cell.attempts} worker attempt(s)")
        for cell in manifest.quarantined():
            reason = (cell.error or {}).get("message", "unknown")
            print(f"  quarantined: {cell.name} — {reason}")
    if args.manifest:
        manifest.write(args.manifest)
        print(f"wrote manifest {args.manifest}", file=log)
    if args.trace:
        from repro.obs import trace

        trace.shutdown()
        print(f"wrote trace {args.trace}", file=log)
    if echo and args.metrics:
        from repro.obs import metrics

        print()
        print(metrics.format_snapshot(metrics.snapshot()))
    return result


def _cmd_table1(args) -> int:
    from repro.experiments import table1

    result = table1.run(repeats=args.repeats, seed=args.seed)
    print(result.format_table())
    print(f"max cell std: {result.max_std_ms():.1f} ms (paper bound "
          f"< {calibration.TABLE1_RTT_STD_BOUND_MS:g})")
    return 0


def _cmd_protocols(args) -> int:
    from repro.experiments import protocols

    for obs in protocols.run_protocol_matrix(seed=args.seed):
        print(f"{obs.vca:10s} {obs.device_mix:26s} -> "
              f"{obs.observed_protocol:5s} p2p={obs.p2p}")
    print("anycast:", protocols.run_anycast_check(seed=args.seed))
    return 0


def _cmd_fig4(args) -> int:
    from repro.experiments import fig4
    from repro.analysis.plots import box_plot

    result = fig4.run(duration_s=args.duration, repeats=args.repeats,
                      seed=args.seed)
    print(result.format_table())
    print()
    print(box_plot(result.summaries, unit=" Mbps"))
    print("ordering F < Z < F* < T < W:", result.ordering_holds())
    return 0


def _cmd_content(args) -> int:
    from repro.experiments import content_delivery

    draco_mean, draco_std = calibration.DRACO_STREAMING_MBPS
    keypoint_mean, keypoint_std = calibration.KEYPOINT_STREAMING_MBPS
    mesh = content_delivery.run_mesh_streaming(seed=args.seed)
    print(f"Draco mesh streaming : {mesh.summary.mean:.1f} ± "
          f"{mesh.summary.std:.1f} Mbps (paper {draco_mean:g} ± "
          f"{draco_std:g})")
    keypoints = content_delivery.run_keypoint_streaming(seed=args.seed)
    print(f"keypoints + LZMA     : {keypoints.mbps.mean:.3f} ± "
          f"{keypoints.mbps.std:.3f} Mbps (paper {keypoint_mean:g} ± "
          f"{keypoint_std:g})")
    latency = content_delivery.run_display_latency(seed=args.seed)
    print(f"display-latency invariant: {latency.local_mode_invariant()}")
    return 0


def _cmd_rate(args) -> int:
    from repro.experiments import rate_adaptation

    result = rate_adaptation.run(duration_s=args.duration, seed=args.seed)
    print(result.format_table())
    print(f"cutoff {result.cutoff_kbps():.0f} Kbps; "
          f"no rate adaptation: {result.no_rate_adaptation()}")
    return 0


def _cmd_fig5(args) -> int:
    from repro.experiments import fig5
    from repro.analysis.plots import box_plot

    result = fig5.run(seed=args.seed)
    print(result.format_table())
    print()
    print(box_plot(result.gpu_ms, unit=" ms"))
    return 0


def _cmd_fig6(args) -> int:
    from repro.experiments import fig6

    if not args.cohort_only:
        rendering = fig6.run_rendering(duration_s=args.duration,
                                       repeats=args.repeats, seed=args.seed)
        print(rendering.format_table())
        network = fig6.run_network(duration_s=args.duration / 2,
                                   repeats=args.repeats, seed=args.seed)
        print(network.format_table())
    if args.fanouts or args.cohort_only:
        cohort = fig6.run_network_cohort(
            fanouts=tuple(args.fanouts) or fig6.COHORT_FANOUTS,
            duration_s=args.cohort_duration,
            seed=args.seed,
            server_gbps=args.server_gbps,
        )
        print()
        print(cohort.format_table())
        print(f"egress knee at ~{cohort.knee_fanout():.0f} participants")
    return 0


def _cmd_ablations(args) -> int:
    from repro.experiments import ablations, fig5

    a1 = ablations.run_delivery_culling(duration_s=args.duration,
                                        seed=args.seed)
    print(f"A1 delivery culling : {a1.baseline_mbps:.2f} -> "
          f"{a1.culled_mbps:.2f} Mbps ({a1.savings_fraction:.0%})")
    for a2 in ablations.run_server_policies():
        print(f"A2 {a2.scenario}: {a2.initiator_nearest_ms:.0f} -> "
              f"{a2.geo_distributed_ms:.0f} ms")
    a3 = fig5.run_occlusion(occlusion_aware=True)
    print(f"A3 occlusion-aware  : {a3.spread_triangles} -> "
          f"{a3.line_triangles} triangles")
    a4 = ablations.run_layered_codec(duration_s=args.duration / 2,
                                     seed=args.seed)
    print(a4.format_table())
    print(f"A4 layered cutoff   : {a4.cutoff_kbps():.0f} Kbps "
          f"(FaceTime: {calibration.RATE_ADAPTATION_CUTOFF_KBPS:g})")
    return 0


def _cmd_resilience(args) -> int:
    from repro.experiments import resilience

    result = _run_sweep(args, lambda **runner: resilience.run(
        duration_s=args.duration, seed=args.seed, **runner))
    print(result.format_table())
    print(f"all profiles recovered: {result.all_recovered()}")
    facetime = result.details["FaceTime"]
    for event in facetime.reconnect_events:
        print(f"FaceTime failover: {event.from_server} -> {event.to_server} "
              f"(downtime {event.downtime_s * 1000:.0f} ms, "
              f"{event.attempts + 1} attempt(s))")
    return 0 if result.all_recovered() else 1


def _cmd_placement(args) -> int:
    from repro.experiments import placement_study

    result = _run_sweep(args, lambda **runner: placement_study.run(
        users=args.users, policies=args.policies, k_range=args.k_range,
        seed=args.seed, epochs=args.epochs, regions=args.regions,
        session_size=args.session_size, site_step_deg=args.site_step,
        progress=_progress, **runner))
    print(result.format_table())
    best = result.best()
    print(f"best objective: {best['policy']} at k={best['k']} "
          f"(QoE {best['qoe_mean']:.3f}, cost {best['cost_units']:.1f})")
    try:
        penalty = result.initiator_penalty()
        print(f"initiator-nearest QoE penalty vs client-nearest: "
              f"{penalty:+.3f}")
    except KeyError:
        pass  # the sweep did not include both policies
    _export_csv(args, result)
    return 0


def _cmd_gauntlet(args) -> int:
    from repro.experiments import gauntlet as gauntlet_study

    result = _run_sweep(args, lambda **runner: gauntlet_study.run(
        scenarios=args.scenarios, policies=args.policies,
        fleet_sizes=args.fleet_sizes, seed=args.seed,
        duration_s=args.gauntlet_duration, tick_s=args.tick, k=args.k,
        regions=args.regions, session_size=args.session_size,
        capacity_factor=args.capacity_factor, site_step_deg=args.site_step,
        progress=_progress, **runner))
    print(result.format_table())
    worst = result.worst()
    print(f"worst cell: {worst['scenario']} / {worst['policy']} at "
          f"n={worst['n_sessions']} (QoE delta {worst['qoe_delta']:+.4f}, "
          f"recovered {worst['recovered_fraction']:.0%})")
    _export_csv(args, result)
    return 0


def _cmd_scenarios(args) -> int:
    from repro.scenario import (
        DISTRIBUTIONS,
        ScenarioGenerator,
        ScenarioSpec,
        run_batch,
        to_jsonl,
    )

    if args.action == "describe":
        print("distribution     profiles                      users"
              "   churn  storm  faults")
        for dist in DISTRIBUTIONS.values():
            users = (f"{dist.fanout_range[0]}-{dist.fanout_range[1]}"
                     if dist.fanout_range is not None else
                     f"{dist.participants_range[0]}-"
                     f"{dist.participants_range[1]}")
            print(f"{dist.name:15s}  {','.join(dist.profiles):28s}"
                  f"  {users:6s}  {dist.churn_probability:5.0%}"
                  f"  {dist.storm_probability:5.0%}"
                  f"  {','.join(sorted(set(dist.fault_scenarios)))}")
        return 0

    if args.spec_file:
        try:
            with open(args.spec_file) as handle:
                lines = handle.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            why = exc.strerror if isinstance(exc, OSError) else exc
            print(f"error: {args.spec_file}: {why}", file=sys.stderr)
            return 2
        specs = []
        for line_no, line in enumerate(lines, 1):
            try:
                if line.strip():
                    specs.append(ScenarioSpec.from_json(line))
            except (KeyError, TypeError, ValueError) as exc:
                why = (f"missing key {exc}" if isinstance(exc, KeyError)
                       else exc)
                print(f"error: {args.spec_file}:{line_no}: {why}",
                      file=sys.stderr)
                return 2
    else:
        generator = ScenarioGenerator(args.seed,
                                      DISTRIBUTIONS[args.distribution])
        specs = generator.batch(args.count, start=args.start)

    if args.action == "generate":
        jsonl = to_jsonl(specs)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(jsonl)
            print(f"wrote {len(specs)} scenarios to {args.out}")
        else:
            sys.stdout.write(jsonl)
        return 0

    result = _run_sweep(args, lambda **runner: run_batch(
        specs, progress=_progress, **runner))
    print(result.format_table())
    worst = result.worst()
    print(f"worst scenario: {worst['name']} (qoe {worst['qoe']:.3f}, "
          f"worst dimension {worst['worst_dimension']})")
    means = result.dimension_means()
    print("dimension means: " + "  ".join(
        f"{name}={value:.3f}" for name, value in means.items()))
    _export_csv(args, result)
    return 0


def _cmd_validate(args) -> int:
    from repro.analysis.comparison import format_report, validate_all

    del args
    checks = validate_all()
    print(format_report(checks))
    return 0 if all(c.within_band for c in checks) else 1


def _cmd_campaign(args) -> int:
    from repro.core.campaign import Campaign

    if args.distributed and not args.store:
        raise SystemExit("error: --distributed needs --store DIR "
                         "(a directory every worker can reach)")
    campaign = Campaign.grid(args.vcas, args.users,
                             duration_s=args.duration, repeats=args.repeats,
                             base_seed=args.seed)

    def sweep(retries, **runner) -> None:
        campaign.run(progress=_progress, max_retries=retries,
                     store=args.store, worker_wait_s=args.worker_wait,
                     **runner)
        # The summary prints here, ahead of the wrapper's manifest lines.
        for vca, summary in campaign.summary_by("vca").items():
            print(f"{vca:10s} sessions={summary['sessions']:3.0f}  "
                  f"up={summary['uplink_mbps_mean']:6.2f} Mbps  "
                  f"down={summary['downlink_mbps_mean']:6.2f} Mbps")
        stats = campaign.last_run_stats
        print(f"{stats.tasks} cells: {stats.executed} executed, "
              f"{stats.cache_hits} cached ({stats.hit_rate():.0%} hit "
              f"rate), {stats.resumed} resumed, {stats.retries} retries, "
              f"{stats.timeouts} timeouts "
              f"in {stats.elapsed_s:.1f} s with jobs={args.jobs}")
        dist = campaign.last_dist
        if dist is not None:
            workers = (", ".join(dist["workers"])
                       or "none (coordinator ran everything)")
            print(f"distributed: workers={workers}; "
                  f"{dist['takeovers']} takeover(s), "
                  f"{dist['fenced_zombies']} fenced zombie(s), "
                  f"{dist['resumed']} resumed, "
                  f"{dist['inline_cells']} coordinator-inline")

    _run_sweep(args, sweep, store=args.store,
               journal_path=campaign.default_journal_path(args.cache_dir))
    _export_csv(args, campaign)
    return 0 if not campaign.skipped else 3


def _cmd_report(args) -> int:
    from repro.report import ReportSettings, generate_report

    settings = (
        dataclasses.replace(ReportSettings.quick(), seed=args.seed)
        if args.quick
        else ReportSettings(duration_s=args.duration, repeats=args.repeats,
                            seed=args.seed)
    )
    if args.command == "reproduce":
        markdown = _run_sweep(
            args,
            lambda timeout, retries, **runner: generate_report(
                dataclasses.replace(settings, cell_timeout=timeout,
                                    max_retries=retries,
                                    metrics=args.metrics, **runner)),
            echo=False)
    else:
        markdown = generate_report(settings)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(markdown)
        print(f"wrote {args.output}")
    else:
        print(markdown)
    return 0


def _cmd_worker(args) -> int:
    from repro.core.dist import QueueError, WorkerAgent
    from repro.core.errors import CampaignInterrupted

    progress = None if args.quiet else (lambda line: print(f"  {line}"))
    agent = WorkerAgent(
        args.store, args.id,
        poll_s=args.poll,
        heartbeat_interval_s=args.heartbeat_interval,
        lease_timeout_s=args.lease_timeout,
        cell_timeout_s=args.cell_timeout,
        retries=args.max_retries,
        join_timeout_s=args.join_timeout,
        idle_exit_s=args.idle_exit,
        max_cells=args.max_cells,
        progress=progress,
    )
    print(f"worker {agent.worker} joining store {args.store}")
    try:
        with _graceful_interrupts():
            stats = agent.run()
    except CampaignInterrupted:
        print("\nworker interrupted before joining a campaign",
              file=sys.stderr)
        return 130
    except QueueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"worker {agent.worker}: {stats.summary_line()}")
    if stats.interrupted:
        print("interrupted — current lease released; the campaign resumes "
              "from the store's commit markers (just restart a worker)",
              file=sys.stderr)
        return 130
    return 0


def _cmd_cache(args) -> int:
    from repro.core.cache import ResultCache

    cache = ResultCache(args.cache_dir, sweep_orphans=False)
    if args.cache_command == "stats":
        disk = cache.disk_stats()
        print(f"cache root : {cache.root}")
        print(f"entries    : {disk['entries']}")
        print(f"bytes      : {disk['bytes']} "
              f"({disk['bytes'] / 1e6:.2f} MB)")
        print(f"orphans    : {disk['orphans']} stale temp file(s)")
        print("(per-run hit rates are printed by the sweep commands "
              "themselves)")
        return 0
    report = cache.gc(orphan_ttl_s=args.orphan_ttl)
    print(f"cache root : {cache.root}")
    print(f"checked    : {report['checked']} entries")
    print(f"evicted    : {report['evicted']} corrupt/foreign entries")
    print(f"orphans    : {report['orphans']} temp file(s) swept")
    return 0


def _quick_alone(args) -> Optional[str]:
    fixed = [flag for flag in _given(args)
             if flag in ("--duration", "--repeats")]
    if args.quick and fixed:
        return f"argument {fixed[0]}: not allowed with --quick"
    return None


#: The flags ``scenarios generate`` reads; ``describe`` reads none of
#: its flags and ``run`` all of them.
_GENERATE_READS = ("--seed", "--distribution", "--count", "--start", "--out",
                   "--spec-file")


def _action_reads(args) -> Optional[str]:
    if args.action == "run":
        return None
    reads = _GENERATE_READS if args.action == "generate" else ()
    unread = [flag for flag in _given(args) if flag not in reads]
    if unread:
        return (f"argument {unread[0]}: not read by 'scenarios "
                f"{args.action}'")
    return None


def _sessions_fill(args) -> Optional[str]:
    if args.users < args.session_size:
        return (f"argument --users: {args.users} users cannot fill one "
                f"session of --session-size {args.session_size}")
    return None


@dataclasses.dataclass(frozen=True)
class _Command:
    """One subcommand: all that ``build_parser`` and ``main`` know of it.

    ``reads`` lists the common flags it takes (it refuses the others);
    ``flags`` are its own, in help order; ``check`` returns an error when
    two flags disagree.  ``children`` are sub-subcommands, which the
    handler tells apart by ``args.<name>_command``.
    """

    help: str
    run: Optional[Callable[[argparse.Namespace], int]] = None
    reads: str = ""
    floor: Optional[Floor] = None
    flags: Tuple[_Arg, ...] = ()
    sweep: bool = False
    check: Optional[Callable[[argparse.Namespace], Optional[str]]] = None
    children: Tuple[Tuple[str, _Command], ...] = ()


_ALL = "seed duration repeats"
_REPORT = (
    _arg("--quick", action="store_true", help="short smoke-run settings "
         "(fixes --duration and --repeats; takes --seed)"),
    _arg("--output", help="write markdown to this path"),
)
_CACHE_ROOT = _arg("--cache-dir", help="cache root (default: "
                   "REPRO_CACHE_DIR or ~/.cache/repro-sweeps)")

#: Every subcommand, in help order.
COMMANDS: Dict[str, _Command] = {
    "table1": _Command("Table 1: server RTT matrix", _cmd_table1,
                       reads="seed repeats"),
    "protocols": _Command("Sec. 4.1: transport / P2P / anycast findings",
                          _cmd_protocols, reads="seed"),
    "fig4": _Command("Fig. 4: two-party throughput per VCA", _cmd_fig4,
                     reads=_ALL, floor=_WINDOWED),
    "content": _Command("Sec. 4.3: content-delivery elimination analysis",
                        _cmd_content, reads="seed"),
    "rate": _Command("Sec. 4.3: rate-adaptation sweep", _cmd_rate,
                     reads="seed duration"),
    "fig5": _Command("Fig. 5: visibility-aware optimizations", _cmd_fig5,
                     reads="seed"),
    "fig6": _Command(
        "Fig. 6: scalability 2-5 users", _cmd_fig6, reads=_ALL,
        floor=_FIG6_HALF, flags=(
            _arg("--fanouts", nargs="*", type=_at_least(2), default=[],
                 action=_Cells,
                 metavar="N", help="also run the batched SFU cohort what-if "
                 "at these fan-outs (e.g. 50 200 500), using the vectorized "
                 "cohort engine"),
            _arg("--cohort-duration", default=12.0, metavar="SECONDS",
                 type=_duration("fig6 --cohort-duration", _WINDOWED),
                 help="simulated seconds per cohort fan-out"),
            _arg("--server-gbps", type=_positive, default=10.0,
                 help="SFU NIC rate assumed for the what-if (the 0.3 Gbps "
                 "testbed AP saturates at n ~ 22)"),
            _arg("--cohort-only", action="store_true", help="skip the "
                 "paper panels and run only the batched cohort what-if"),
        )),
    "ablations": _Command("A1-A5 ablations", _cmd_ablations,
                          reads="seed duration"),
    "resilience": _Command("fault gauntlet: recovery, ladder occupancy, MOS",
                           _cmd_resilience, reads="seed duration",
                           floor=_DISTURBANCE, sweep=True),
    "campaign": _Command(
        "automated measurement campaign over a config grid", _cmd_campaign,
        reads=_ALL, floor=_WINDOWED, sweep=True, flags=(
            _arg("--vcas", nargs="+", action=_Cells,
                 type=_known("repro.vca.profiles:PROFILES"),
                 default=["FaceTime", "Zoom", "Webex", "Teams"],
                 help="VCA profiles to sweep"),
            _arg("--users", nargs="+", type=_at_least(2), default=[2, 3],
                 action=_Cells,
                 help="user counts to sweep"),
            *_shared(csv=None),
            _arg("--distributed", action="store_true", help="publish cells "
                 "to a shared store and let 'repro worker' processes "
                 "execute them (requires --store)"),
            _arg("--store", metavar="DIR", help="shared store directory for "
                 "distributed execution (implies --distributed)"),
            _arg("--worker-wait", type=_wait, default=10.0,
                 metavar="SECONDS", help="grace period to wait for worker "
                 "heartbeats before the coordinator executes cells itself"),
        )),
    "placement": _Command(
        "planet-scale placement x selection-policy study", _cmd_placement,
        reads="seed", sweep=True, check=_sessions_fill, flags=(
            _arg("--users", type=_at_least(2), default=100_000,
                 help="sampled users per cell (split across the UTC "
                 "epochs)"),
            _arg("--k-range", nargs="+", type=_at_least(1),
                 default=[2, 4, 8], metavar="K",
                 help="server counts to optimize placements for"),
            _arg("--epochs", nargs="+", type=_finite,
                 default=[2.0, 8.0, 14.0, 20.0], metavar="H",
                 help="UTC hours to sample demand at"),
            *_shared(policies=None, regions=None, session_size=3,
                     site_step=4.0, csv=None),
        )),
    "gauntlet": _Command(
        "fleet-scale fault gauntlet: correlated domains x policies x fleet "
        "sizes", _cmd_gauntlet, reads="seed", sweep=True, flags=(
            _arg("--scenarios", nargs="+", action=_NameList,
                 known=_known("repro.faults.domains:scenario_names"),
                 default=["region-outage", "mixed"], metavar="NAME",
                 help="fault-domain scenarios to sweep, space- or "
                 "comma-separated (catalog: region-outage ap-storm "
                 "brownout flash-crowd mixed none)"),
            _arg("--fleet-sizes", nargs="+", type=_at_least(1),
                 default=[50, 200], metavar="N", help="sessions per cell"),
            _arg("--gauntlet-duration", type=_seconds, default=120.0,
                 metavar="SECONDS", help="campaign seconds per cell"),
            _arg("--tick", type=_seconds, default=1.0, metavar="SECONDS",
                 help="fleet timeline resolution"),
            _arg("--k", type=_at_least(1), default=6,
                 help="servers in the optimized placement"),
            _arg("--capacity-factor", type=_positive, default=1.2,
                 help="per-server admission capacity as a multiple of the "
                 "even-split load"),
            *_shared(policies=None, regions=12, session_size=3,
                     site_step=8.0, csv=None),
        )),
    "scenarios": _Command(
        "seeded generative workloads: generate / describe / run scenario "
        "batches", _cmd_scenarios, reads="seed", sweep=True,
        check=_action_reads, flags=(
            _arg("action", choices=("generate", "describe", "run"),
                 help="generate: emit the spec batch as JSONL; describe: "
                 "print the distribution library; run: execute the batch "
                 "on the campaign runner"),
            _arg("--distribution", default="paper-calls", metavar="NAME",
                 action=_Given,
                 type=_known("repro.scenario:DISTRIBUTIONS"),
                 help="named scenario distribution (see 'scenarios "
                 "describe')"),
            _arg("--count", type=_at_least(1), default=20, metavar="N",
                 action=_Given,
                 help="scenarios to generate / run"),
            _arg("--start", type=_count, default=0, metavar="I",
                 action=_Given,
                 help="first scenario index (batches are an indexed "
                 "family; generation is index-stable)"),
            _arg("--out", metavar="PATH", action=_Given,
                 help="write generated JSONL here instead of stdout"),
            _arg("--spec-file", metavar="PATH", action=_Given,
                 help="run specs from this JSONL file instead of generating "
                 "them"),
            *_shared(csv=None),
        )),
    "validate": _Command("re-check every calibrated anchor against the "
                         "paper", _cmd_validate),
    "report": _Command("full markdown reproduction report", _cmd_report,
                       reads=_ALL, floor=_FIG6_HALF, flags=_REPORT,
                       check=_quick_alone),
    "reproduce": _Command("full report with sharded workers + result cache",
                          _cmd_report, reads=_ALL, floor=_FIG6_HALF,
                          flags=_REPORT, sweep=True, check=_quick_alone),
    "worker": _Command(
        "join a distributed campaign as a pull-based worker", _cmd_worker,
        flags=(
            _arg("--store", required=True, metavar="DIR", help="shared "
                 "store directory published by 'repro campaign "
                 "--distributed --store DIR'"),
            _arg("--id", help="worker id (default: host-pid-nonce)"),
            _arg("--poll", type=_seconds, default=0.25, metavar="SECONDS",
                 help="sleep between claim attempts when idle"),
            _arg("--heartbeat-interval", type=_seconds, default=1.0,
                 metavar="SECONDS", help="seconds between liveness beacons"),
            _arg("--lease-timeout", type=_seconds, default=None,
                 metavar="SECONDS", help="owner-silence span after which a "
                 "lease is stolen (default: 3x the heartbeat interval)"),
            _arg("--cell-timeout", type=_seconds, default=None,
                 metavar="SECONDS", help="self-watchdog: a cell running "
                 "past this stops the worker's heartbeat so its lease gets "
                 "taken over"),
            _arg("--max-retries", type=_count, default=1,
                 help="transient-failure retries per cell"),
            _arg("--join-timeout", type=_wait, default=60.0,
                 metavar="SECONDS",
                 help="how long to wait for a campaign to be published"),
            _arg("--idle-exit", type=_wait, default=None, metavar="SECONDS",
                 help="exit after this much continuous idleness"),
            _arg("--max-cells", type=_count, default=None,
                 help="commit at most this many cells, then exit"),
            _arg("--quiet", action="store_true",
                 help="suppress per-cell progress lines"),
        )),
    "cache": _Command(
        "inspect or garbage-collect the on-disk result cache", _cmd_cache,
        children=(
            ("stats", _Command("entry count, bytes on disk, orphaned temp "
                               "files", flags=(_CACHE_ROOT,))),
            ("gc", _Command(
                "sweep orphaned temp files and evict corrupt entries",
                flags=(_CACHE_ROOT, _arg(
                    "--orphan-ttl", type=_wait, default=0.0,
                    metavar="SECONDS", help="only sweep temp files older "
                    "than this (default 0: sweep all)")))),
        )),
}


def _add_commands(parser, dest: str, commands) -> None:
    """One subparser per ``(name, record)`` in ``commands``."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, command in commands:
        p = sub.add_parser(name, help=command.help)
        for names, kwargs in (*_common(name, command), *command.flags,
                              *(_SWEEP if command.sweep else ())):
            p.add_argument(*names, **kwargs)
        if command.children:
            _add_commands(p, f"{name}_command", command.children)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs), from ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'A First Look at Immersive Telepresence on Apple "
            "Vision Pro' (IMC 2024) on the simulated testbed."
        ),
    )
    _add_commands(parser, "command", COMMANDS.items())
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = COMMANDS[args.command]
    problem = command.check(args) if command.check else None
    if problem:
        parser.error(problem)
    return command.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
