"""Command-line interface: ``python -m repro <experiment>``.

Each subcommand regenerates one table/figure and prints it in the paper's
layout; ``report`` runs everything and emits the markdown comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import signal
import sys
from typing import Any, Callable, List, Optional, Tuple

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


def _min_duration(command: str) -> Optional[Tuple[float, str]]:
    """The shortest value of a subcommand's duration flag, and why (None:
    any).

    Imported here, not at module level: the analysis and fault packages
    take about a second to import, which ``--help`` and ``repro worker``
    should not pay.
    """
    from repro.analysis.throughput import MIN_WINDOWED_SESSION_S
    from repro.faults.schedule import STANDARD_DISTURBANCE_MIN_S

    windowed = (MIN_WINDOWED_SESSION_S, "one throughput window after the "
                                        "skipped head, with slack")
    fig6_half = (2 * MIN_WINDOWED_SESSION_S,
                 "fig6's network half runs at duration / 2")
    return {
        "fig4": windowed,
        "campaign": windowed,
        "fig6 --cohort-duration": windowed,
        "fig6": fig6_half,
        "report": fig6_half,
        "reproduce": fig6_half,
        "resilience": (STANDARD_DISTURBANCE_MIN_S, "the standard "
                       "disturbance's five faults must fit"),
    }.get(command)


def _duration(command: str) -> Callable[[str], float]:
    """The type of one duration flag (see ``_min_duration``)."""
    def parse(text: str) -> float:
        value = _seconds(text)
        limit = _min_duration(command)
        if limit is not None and value < limit[0]:
            raise argparse.ArgumentTypeError(
                f"{text!r}: {command} needs at least {limit[0]:g} s "
                f"({limit[1]})")
        return value

    parse.__name__ = "float"
    return parse


class _NameList(argparse.Action):
    """Names given space- or comma-separated (``a,b c``), as one list."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest,
                [name for value in values for name in value.split(",")
                 if name])


class _Given(argparse.Action):
    """Store the value and note the flag as given (``--quick`` refuses
    an explicit ``--duration`` or ``--repeats``)."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (
            self.option_strings[0],)


#: The common flags each result subcommand reads, where not all three;
#: it refuses the others (exit 2).
_READS = {
    "table1": "seed repeats", "rate": "seed duration",
    "ablations": "seed duration", "resilience": "seed duration",
    "protocols": "seed", "content": "seed", "fig5": "seed",
    "placement": "seed", "gauntlet": "seed", "scenarios": "seed",
    "validate": "",
}


def _add_common(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the common flags ``command`` reads (see ``_READS``)."""
    flags = {
        "seed": dict(type=_count, default=0, help="master seed (>= 0)"),
        "duration": dict(type=_duration(command), default=20.0,
                         action=_Given, help="session seconds per run"),
        "repeats": dict(type=_at_least(1), default=calibration.MIN_REPEATS,
                        action=_Given,
                        help="independent repeats per experiment"),
    }
    for name in _READS.get(command, "seed duration repeats").split():
        parser.add_argument(f"--{name}", **flags[name])


#: Flags more than one subcommand takes, declared once; each subcommand
#: gives its own default through ``_add_shared``.
_SHARED = {
    "--csv": dict(metavar="PATH", help="export the records to this CSV"),
    "--policies": dict(nargs="+", action=_NameList, metavar="NAME",
                       help="selection policies to sweep, space- or "
                            "comma-separated (default: all registered)"),
    "--regions": dict(type=_at_least(1), metavar="N",
                      help="limit demand to the N most populous world "
                           "regions"),
    "--session-size": dict(type=_at_least(2),
                           help="participants per telepresence session"),
    "--site-step": dict(type=_positive, metavar="DEG",
                        help="global candidate-lattice spacing, degrees"),
}


def _add_shared(parser: argparse.ArgumentParser, **defaults: Any) -> None:
    """Add shared flags by dest name (``site_step=4.0``), with defaults."""
    for dest, default in defaults.items():
        flag = "--" + dest.replace("_", "-")
        parser.add_argument(flag, default=default, **_SHARED[flag])


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    """Flags of the sweep-capable subcommands (parallelism, caching,
    and crash-safe execution)."""
    parser.add_argument("--jobs", type=_count, default=1,
                        help="worker processes (1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every cell, ignore the result cache")
    parser.add_argument("--cache-dir",
                        help="result-cache root (default: REPRO_CACHE_DIR "
                             "or ~/.cache/repro-sweeps)")
    parser.add_argument("--cell-timeout", type=_seconds, default=None,
                        metavar="SECONDS",
                        help="per-cell watchdog deadline; a hung worker is "
                             "killed and the cell retried as transient")
    parser.add_argument("--max-retries", type=_count, default=1,
                        help="transient-failure retries per cell "
                             "(exponential backoff between attempts)")
    parser.add_argument("--journal",
                        help="checkpoint-journal path (campaign default: "
                             "derived from the sweep fingerprint under the "
                             "cache root)")
    parser.add_argument("--resume", action="store_true",
                        help="replay cells already checkpointed in the "
                             "journal and run only the remainder")
    parser.add_argument("--manifest",
                        help="write the run-manifest JSON to this path")
    parser.add_argument("--trace", metavar="PATH",
                        help="emit chrome://tracing-compatible span JSONL "
                             "to this path (convert with "
                             "'python -m repro.obs.trace PATH out.json')")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics-registry snapshot after "
                             "the run")


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


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'A First Look at Immersive Telepresence on Apple "
            "Vision Pro' (IMC 2024) on the simulated testbed."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("table1", "Table 1: server RTT matrix"),
        ("protocols", "Sec. 4.1: transport / P2P / anycast findings"),
        ("fig4", "Fig. 4: two-party throughput per VCA"),
        ("content", "Sec. 4.3: content-delivery elimination analysis"),
        ("rate", "Sec. 4.3: rate-adaptation sweep"),
        ("fig5", "Fig. 5: visibility-aware optimizations"),
        ("fig6", "Fig. 6: scalability 2-5 users"),
        ("ablations", "A1-A5 ablations"),
        ("resilience", "fault gauntlet: recovery, ladder occupancy, MOS"),
        ("campaign", "automated measurement campaign over a config grid"),
        ("placement", "planet-scale placement x selection-policy study"),
        ("gauntlet", "fleet-scale fault gauntlet: correlated domains x "
                     "policies x fleet sizes"),
        ("scenarios", "seeded generative workloads: generate / describe / "
                      "run scenario batches"),
        ("validate", "re-check every calibrated anchor against the paper"),
        ("report", "full markdown reproduction report"),
        ("reproduce", "full report with sharded workers + result cache"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, name)
        if name in ("report", "reproduce"):
            p.add_argument("--quick", action="store_true",
                           help="short smoke-run settings (fixes "
                                "--duration and --repeats; takes --seed)")
            p.add_argument("--output", help="write markdown to this path")
        if name == "campaign":
            p.add_argument("--vcas", nargs="+",
                           default=["FaceTime", "Zoom", "Webex", "Teams"],
                           help="VCA profiles to sweep")
            p.add_argument("--users", nargs="+", type=int, default=[2, 3],
                           help="user counts to sweep")
            _add_shared(p, csv=None)
            p.add_argument("--distributed", action="store_true",
                           help="publish cells to a shared store and let "
                                "'repro worker' processes execute them "
                                "(requires --store)")
            p.add_argument("--store", metavar="DIR",
                           help="shared store directory for distributed "
                                "execution (implies --distributed)")
            p.add_argument("--worker-wait", type=_wait, default=10.0,
                           metavar="SECONDS",
                           help="grace period to wait for worker heartbeats "
                                "before the coordinator executes cells "
                                "itself")
        if name == "fig6":
            p.add_argument("--fanouts", nargs="*", type=_at_least(2),
                           default=[], metavar="N",
                           help="also run the batched SFU cohort what-if "
                                "at these fan-outs (e.g. 50 200 500), "
                                "using the vectorized cohort engine")
            p.add_argument("--cohort-duration",
                           type=_duration("fig6 --cohort-duration"),
                           default=12.0, metavar="SECONDS",
                           help="simulated seconds per cohort fan-out")
            p.add_argument("--server-gbps", type=_positive, default=10.0,
                           help="SFU NIC rate assumed for the what-if "
                                "(the 0.3 Gbps testbed AP saturates at "
                                "n ~ 22)")
            p.add_argument("--cohort-only", action="store_true",
                           help="skip the paper panels and run only the "
                                "batched cohort what-if")
        if name == "placement":
            p.add_argument("--users", type=_at_least(2), default=100_000,
                           help="sampled users per cell (split across the "
                                "UTC epochs)")
            p.add_argument("--k-range", nargs="+", type=_at_least(1),
                           default=[2, 4, 8], metavar="K",
                           help="server counts to optimize placements for")
            p.add_argument("--epochs", nargs="+", type=_finite,
                           default=[2.0, 8.0, 14.0, 20.0], metavar="H",
                           help="UTC hours to sample demand at")
            _add_shared(p, policies=None, regions=None, session_size=3,
                        site_step=4.0, csv=None)
        if name == "gauntlet":
            p.add_argument("--scenarios", nargs="+", action=_NameList,
                           default=["region-outage", "mixed"],
                           metavar="NAME",
                           help="fault-domain scenarios to sweep, space- "
                                "or comma-separated (catalog: "
                                "region-outage ap-storm brownout "
                                "flash-crowd mixed none)")
            p.add_argument("--fleet-sizes", nargs="+", type=_at_least(1),
                           default=[50, 200], metavar="N",
                           help="sessions per cell")
            p.add_argument("--gauntlet-duration", type=_seconds,
                           default=120.0, metavar="SECONDS",
                           help="campaign seconds per cell")
            p.add_argument("--tick", type=_seconds, default=1.0,
                           metavar="SECONDS",
                           help="fleet timeline resolution")
            p.add_argument("--k", type=_at_least(1), default=6,
                           help="servers in the optimized placement")
            p.add_argument("--capacity-factor", type=_positive, default=1.2,
                           help="per-server admission capacity as a "
                                "multiple of the even-split load")
            _add_shared(p, policies=None, regions=12, session_size=3,
                        site_step=8.0, csv=None)
        if name == "scenarios":
            p.add_argument("action", choices=("generate", "describe", "run"),
                           help="generate: emit the spec batch as JSONL; "
                                "describe: print the distribution library; "
                                "run: execute the batch on the campaign "
                                "runner")
            p.add_argument("--distribution", default="paper-calls",
                           metavar="NAME",
                           help="named scenario distribution (see "
                                "'scenarios describe')")
            p.add_argument("--count", type=_at_least(1), default=20,
                           metavar="N",
                           help="scenarios to generate / run")
            p.add_argument("--start", type=_count, default=0, metavar="I",
                           help="first scenario index (batches are an "
                                "indexed family; generation is "
                                "index-stable)")
            p.add_argument("--out", metavar="PATH",
                           help="write generated JSONL here instead of "
                                "stdout")
            p.add_argument("--spec-file", metavar="PATH",
                           help="run specs from this JSONL file instead of "
                                "generating them")
            _add_shared(p, csv=None)
        if name in ("campaign", "resilience", "reproduce", "placement",
                    "gauntlet", "scenarios"):
            _add_sweep(p)
    _add_worker_parser(sub)
    _add_cache_parser(sub)
    return parser


def _add_worker_parser(sub) -> None:
    p = sub.add_parser(
        "worker",
        help="join a distributed campaign as a pull-based worker",
    )
    p.add_argument("--store", required=True, metavar="DIR",
                   help="shared store directory published by "
                        "'repro campaign --distributed --store DIR'")
    p.add_argument("--id", default=None,
                   help="worker id (default: host-pid-nonce)")
    p.add_argument("--poll", type=_seconds, default=0.25, metavar="SECONDS",
                   help="sleep between claim attempts when idle")
    p.add_argument("--heartbeat-interval", type=_seconds, default=1.0,
                   metavar="SECONDS", help="seconds between liveness beacons")
    p.add_argument("--lease-timeout", type=_seconds, default=None,
                   metavar="SECONDS",
                   help="owner-silence span after which a lease is stolen "
                        "(default: 3x the heartbeat interval)")
    p.add_argument("--cell-timeout", type=_seconds, default=None,
                   metavar="SECONDS",
                   help="self-watchdog: a cell running past this stops the "
                        "worker's heartbeat so its lease gets taken over")
    p.add_argument("--max-retries", type=_count, default=1,
                   help="transient-failure retries per cell")
    p.add_argument("--join-timeout", type=_wait, default=60.0,
                   metavar="SECONDS",
                   help="how long to wait for a campaign to be published")
    p.add_argument("--idle-exit", type=_wait, default=None,
                   metavar="SECONDS",
                   help="exit after this much continuous idleness")
    p.add_argument("--max-cells", type=_count, default=None,
                   help="commit at most this many cells, then exit")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-cell progress lines")


def _add_cache_parser(sub) -> None:
    parser = sub.add_parser(
        "cache",
        help="inspect or garbage-collect the on-disk result cache",
    )
    cache_sub = parser.add_subparsers(dest="cache_command", required=True)
    stats_p = cache_sub.add_parser(
        "stats", help="entry count, bytes on disk, orphaned temp files")
    gc_p = cache_sub.add_parser(
        "gc", help="sweep orphaned temp files and evict corrupt entries")
    for p in (stats_p, gc_p):
        p.add_argument("--cache-dir",
                       help="cache root (default: REPRO_CACHE_DIR or "
                            "~/.cache/repro-sweeps)")
    gc_p.add_argument("--orphan-ttl", type=_wait, default=0.0,
                      metavar="SECONDS",
                      help="only sweep temp files older than this "
                           "(default 0: sweep all)")


def _cmd_table1(args) -> int:
    from repro.experiments import table1

    result = table1.run(repeats=args.repeats, seed=args.seed)
    print(result.format_table())
    print(f"max cell std: {result.max_std_ms():.1f} ms (paper bound < 7)")
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

    mesh = content_delivery.run_mesh_streaming(seed=args.seed)
    print(f"Draco mesh streaming : {mesh.summary.mean:.1f} ± "
          f"{mesh.summary.std:.1f} Mbps (paper 107.4 ± 14.1)")
    keypoints = content_delivery.run_keypoint_streaming(seed=args.seed)
    print(f"keypoints + LZMA     : {keypoints.mbps.mean:.3f} ± "
          f"{keypoints.mbps.std:.3f} Mbps (paper 0.64 ± 0.02)")
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
          f"(FaceTime: 700)")
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

    if args.distribution not in DISTRIBUTIONS:
        raise SystemExit(f"error: unknown distribution "
                         f"{args.distribution!r} (known: "
                         f"{', '.join(DISTRIBUTIONS)})")
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


_COMMANDS = {
    "table1": _cmd_table1,
    "protocols": _cmd_protocols,
    "fig4": _cmd_fig4,
    "content": _cmd_content,
    "rate": _cmd_rate,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "ablations": _cmd_ablations,
    "resilience": _cmd_resilience,
    "campaign": _cmd_campaign,
    "placement": _cmd_placement,
    "gauntlet": _cmd_gauntlet,
    "scenarios": _cmd_scenarios,
    "validate": _cmd_validate,
    "report": _cmd_report,
    "reproduce": _cmd_report,
    "worker": _cmd_worker,
    "cache": _cmd_cache,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "quick", False) and getattr(args, "given", ()):
        parser.error(f"argument {args.given[0]}: not allowed with --quick")
    if args.command == "placement" and args.users < args.session_size:
        parser.error(f"argument --users: {args.users} users cannot fill one "
                     f"session of --session-size {args.session_size}")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
