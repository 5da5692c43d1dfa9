"""The layers the benchmark attributes time to, and what each should move.

:data:`WRAPS` names the public entry points the traced pass wraps, one
row per boundary, grouped by the layer (module family) that owns them.
:data:`EXPECTATIONS` records, for each layer's metrics, the end-to-end
metric and workload an optimisation of that layer should move and where
it should leave the figures flat; :func:`per_layer_metrics` turns one
workload's pass results into the per-layer metric values.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from tracer import COUNT, SPAN

#: Report sections, in report order (``repro.report.<name>_section``).
SECTIONS = ("table1", "protocols", "fig4", "content", "rate", "fig5",
            "fig6", "ablations", "placement", "gauntlet", "scenarios")


def _quic_bytes(datagrams: Sequence[bytes]) -> int:
    return sum(len(d) for d in datagrams)


#: (layer, module, attribute, kind[, counter]).  ``span`` boundaries keep
#: a record per call; ``count`` boundaries (per packet / per frame) keep
#: per-cell totals only.
WRAPS: List[tuple] = [
    ("netsim.engine", "repro.netsim.engine", "Simulator.run", SPAN),
    ("netsim.batch", "repro.netsim.batch", "BatchSimulator.run", SPAN),
    ("netsim.fabric", "repro.netsim.network", "Network.send", COUNT),
    ("netsim.fabric", "repro.netsim.node", "Host.deliver", COUNT),
    ("netsim.fabric", "repro.netsim.link", "Link.transmit", COUNT),
    ("netsim.fabric", "repro.netsim.capture", "PacketCapture.observe", COUNT),
    ("netsim.fabric", "repro.netsim.shaper", "TrafficShaper.process", COUNT),
    ("transport", "repro.transport.quic", "QuicConnection.protect_frame",
     COUNT, ("transport.quic.bytes", _quic_bytes)),
    ("transport", "repro.transport.quic", "QuicConnection.unprotect", COUNT),
    ("transport", "repro.transport.rtp", "RtpPacketizer.packetize", COUNT),
    ("transport", "repro.transport.fec", "FecEncoder.protect", COUNT),
    ("transport", "repro.transport.fec", "FecDecoder.receive", COUNT),
    ("keypoints", "repro.keypoints.codec", "SemanticCodec.encode", COUNT),
    ("keypoints", "repro.keypoints.codec", "SemanticCodec.decode", COUNT),
    ("keypoints", "repro.keypoints.layered", "LayeredSemanticCodec.encode",
     COUNT),
    ("keypoints", "repro.keypoints.layered", "LayeredSemanticCodec.decode",
     COUNT),
    ("mesh", "repro.mesh.codec", "DracoLikeCodec.encode", COUNT),
    ("mesh", "repro.mesh.codec", "DracoLikeCodec.decode", COUNT),
    ("rendering", "repro.rendering.pipeline", "RenderPipeline.render_frame",
     COUNT),
    ("rendering", "repro.rendering.pipeline",
     "RenderPipeline.render_session", SPAN),
    ("vca", "repro.vca.session", "TelepresenceSession.run", SPAN),
    ("vca", "repro.vca.session", "TelepresenceSession.collect", SPAN),
    ("vca", "repro.vca.cohort", "CohortRunner.run", SPAN),
    ("vca", "repro.vca.stats", "MediaStatsCollector.on_packet", COUNT),
    ("vca", "repro.vca.receiver", "SemanticReceiver.handle", COUNT),
    ("vca", "repro.vca.jitterbuffer", "JitterBuffer.play", COUNT),
    ("vca", "repro.vca.jitterbuffer", "JitterBuffer.play_batch", COUNT),
    ("vca", "repro.vca.jitterbuffer", "AdaptiveJitterBuffer.observe", COUNT),
    ("vca.cohort", "repro.vca.cohort", "sfu_cohort_downlink", SPAN),
    ("geo", "repro.geo.latency", "PathModel.one_way_ms", COUNT),
    ("geo", "repro.geo.latency", "PathModel.sample_rtt_ms", COUNT),
    ("geo", "repro.geo.latency", "rtt_matrix_ms", COUNT),
    ("geo", "repro.geo.placement", "optimize_placement", SPAN),
    ("faults", "repro.faults.injector", "FaultInjector.arm", COUNT),
    ("faults", "repro.faults.injector", "FaultInjector.apply_event", COUNT),
    ("faults", "repro.faults.injector", "FaultInjector.revert_event", COUNT),
    ("faults", "repro.faults.cohort", "CohortInjector.enroll", COUNT),
    ("faults", "repro.faults.cohort", "CohortInjector.seal", COUNT),
    ("faults", "repro.faults.domains", "build_plan", COUNT),
    ("faults", "repro.faults.domains", "impairment_timeline", COUNT),
    ("scenario", "repro.scenario.campaign", "run_batch", SPAN),
    ("scenario", "repro.scenario.compiler", "run_scenario_cell", SPAN),
    ("analysis", "repro.analysis.throughput", "throughput_windows_mbps",
     COUNT),
    ("analysis", "repro.analysis.throughput",
     "cohort_throughput_windows_mbps", COUNT),
    ("analysis", "repro.analysis.throughput", "throughput_summary", COUNT),
    ("analysis", "repro.analysis.stats", "summarize_samples", COUNT),
    ("analysis", "repro.analysis.protocol", "classify_records", COUNT),
    ("analysis", "repro.analysis.latency", "measure_server_rtts", SPAN),
    ("analysis", "repro.analysis.patterns", "profile_records", COUNT),
    ("core", "repro.core.parallel", "TaskRunner.run", SPAN),
    ("core", "repro.core.cache", "ResultCache.get", SPAN),
    ("core", "repro.core.cache", "ResultCache.put", SPAN),
    ("experiments", "repro.report", "generate_report", SPAN),
] + [("experiments", "repro.report", f"{name}_section", SPAN)
     for name in SECTIONS]

#: Cell boundary: every span opened inside one executed cell shares its id.
CELL_BOUNDARY = ("core", "repro.core.parallel", "CellTask.execute")

#: Layers whose self time includes callback code the benchmark does not
#: wrap (event callbacks run inside ``run``).
ENGINE_NOTE = ("includes unwrapped event-callback code, e.g. the private "
               "forwarding steps in Network")

#: Per layer: its metrics, then (metrics it should move, on which
#: workloads) and where it should stay flat.
EXPECTATIONS: List[Dict[str, Any]] = [
    {"layer": "netsim.batch",
     "metrics": ["netsim.batch.events", "netsim.batch.merges",
                 "netsim.batch.events_per_merge", "netsim.batch.self_s"],
     "moves": "sim_s_per_wall_s on calls; wall_s on report-quick",
     "flat": "fanout; warm_wall_s on report-quick"},
    {"layer": "netsim.engine",
     "metrics": ["netsim.engine.events", "netsim.engine.queue_high_water",
                 "netsim.engine.self_s"],
     "moves": "warm_wall_s and wall_s on report-quick",
     "flat": "calls, fanout"},
    {"layer": "netsim.fabric",
     "metrics": ["netsim.fabric.packets", "netsim.fabric.delivered_ratio",
                 "netsim.fabric.self_s", "netsim.fabric.us_per_packet"],
     "moves": "sim_s_per_wall_s on calls; wall_s, warm_wall_s on "
              "report-quick",
     "flat": "fanout"},
    {"layer": "transport",
     "metrics": ["transport.quic.bytes", "transport.self_s"],
     "moves": "warm_wall_s on report-quick (FaceTime rate sweep); "
              "sim_s_per_wall_s on calls",
     "flat": "fanout"},
    {"layer": "keypoints",
     "metrics": ["keypoints.codec.frames", "keypoints.self_s"],
     "moves": "sim_s_per_wall_s on fanout",
     "flat": "warm_wall_s on report-quick"},
    {"layer": "mesh",
     "metrics": ["mesh.codec.self_s"],
     "moves": "wall_s, warm_wall_s on report-quick (content section)",
     "flat": "calls, fanout"},
    {"layer": "rendering",
     "metrics": ["rendering.frames", "rendering.self_s"],
     "moves": "wall_s on report-quick (fig5, fig6 rendering)",
     "flat": "warm_wall_s on report-quick (cached), calls, fanout"},
    {"layer": "vca",
     "metrics": ["vca.sessions", "vca.self_s", "vca.jitterbuffer.late_ratio"],
     "moves": "sim_s_per_wall_s on calls; wall_s on report-quick",
     "flat": "none"},
    {"layer": "vca.cohort",
     "metrics": ["vca.cohort.fast_path_s", "vca.cohort.self_s"],
     "moves": "sim_s_per_wall_s on fanout",
     "flat": "calls"},
    {"layer": "geo",
     "metrics": ["geo.calls", "geo.self_s"],
     "moves": "sim_s_per_wall_s on calls",
     "flat": "fanout"},
    {"layer": "faults",
     "metrics": ["faults.applied", "faults.self_s"],
     "moves": "sim_s_per_wall_s on calls",
     "flat": "fanout"},
    {"layer": "scenario",
     "metrics": ["scenario.self_s"],
     "moves": "setup_s, sim_s_per_wall_s on calls, fanout",
     "flat": "none"},
    {"layer": "analysis",
     "metrics": ["analysis.self_s"],
     "moves": "wall_s, warm_wall_s on report-quick",
     "flat": "calls, fanout"},
    {"layer": "core runner",
     "metrics": ["core.runner.cells", "core.runner.overhead_s",
                 "core.runner.worker_user_s", "core.runner.worker_sys_s",
                 "core.self_s"],
     "moves": "core.runner.* of fanout's trace run, whose pool pass forks "
              "workers; no end-to-end metric, since every timed pass runs "
              "in-process",
     "flat": "wall_s, sim_s_per_wall_s on every workload"},
    {"layer": "core cache",
     "metrics": ["core.cache.hit_ratio", "core.cache.get_s",
                 "core.cache.put_s"],
     "moves": "warm_wall_s on report-quick (get); every cold pass (put)",
     "flat": "none"},
    {"layer": "experiments/report",
     "metrics": ([f"report.{s}.cold_s" for s in SECTIONS]
                 + [f"report.{s}.warm_s" for s in SECTIONS]
                 + ["experiments.self_s"]),
     "moves": "wall_s, warm_wall_s on report-quick",
     "flat": "calls, fanout"},
    {"layer": "obs",
     "metrics": ["obs.trace_overhead"],
     "moves": "none (tracing cost, traced / untraced wall - 1)",
     "flat": "every workload"},
]

#: Self-time layers in report order (every WRAPS layer).
SELF_LAYERS = tuple(dict.fromkeys(row[0] for row in WRAPS))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _obs(counters: Dict[str, float], *names: str) -> float:
    return float(sum(counters.get(name, 0) for name in names))


def per_layer_metrics(traced: Sequence[Dict[str, Any]],
                      sections: Dict[str, Dict[str, float]],
                      runner: Dict[str, float],
                      overhead: float) -> Dict[str, float]:
    """One workload's per-layer metrics.

    ``traced`` holds the traced passes' summaries (tracer totals, obs
    counter deltas, cache stats); ``sections`` maps ``cold``/``warm`` to
    inclusive section seconds; ``runner`` carries the runner figures of
    the pass they come from; ``overhead`` is traced / untraced wall - 1.
    """
    layer_self: Dict[str, float] = {layer: 0.0 for layer in SELF_LAYERS}
    calls: Dict[str, List[float]] = {}
    work: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    hits = lookups = 0
    for summary in traced:
        for layer, own in summary["layer_self"].items():
            layer_self[layer] = layer_self.get(layer, 0.0) + own
        for name, (_, count, incl, _own) in summary["by_name"].items():
            entry = calls.setdefault(name, [0, 0.0])
            entry[0] += count
            entry[1] += incl
        for name, amount in summary["counters"].items():
            work[name] = work.get(name, 0.0) + amount
        for name, value in summary["obs"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in summary["obs"]["gauges"].items():
            gauges[name] = max(gauges.get(name, 0), value)
        hits += summary["cache"]["hits"]
        lookups += summary["cache"]["hits"] + summary["cache"]["misses"]

    def count(name: str) -> float:
        return float(calls.get(name, (0, 0.0))[0])

    def inclusive(name: str) -> float:
        return float(calls.get(name, (0, 0.0))[1])

    events = _obs(counters, "netsim.batch.events_fired")
    merges = _obs(counters, "netsim.batch.merges")
    packets = count("netsim.network.Network.send")
    geo_calls = sum(c for name, (c, _) in calls.items()
                    if name.startswith(("geo.",)))
    out: Dict[str, float] = {
        "netsim.batch.events": events,
        "netsim.batch.merges": merges,
        "netsim.batch.events_per_merge": events_per_merge(events, merges),
        "netsim.batch.self_s": layer_self["netsim.batch"],
        "netsim.engine.events": _obs(counters, "netsim.events_fired"),
        "netsim.engine.queue_high_water": float(
            gauges.get("netsim.queue_high_water", 0)),
        "netsim.engine.self_s": layer_self["netsim.engine"],
        "netsim.fabric.packets": packets,
        "netsim.fabric.delivered_ratio": delivered_ratio(
            count("netsim.node.Host.deliver"), packets),
        "netsim.fabric.self_s": layer_self["netsim.fabric"],
        "netsim.fabric.us_per_packet": 1e6 * _ratio(
            layer_self["netsim.fabric"], packets),
        "transport.quic.bytes": work.get("transport.quic.bytes", 0.0),
        "transport.self_s": layer_self["transport"],
        "keypoints.codec.frames": (
            count("keypoints.codec.SemanticCodec.encode")
            + count("keypoints.layered.LayeredSemanticCodec.encode")),
        "keypoints.self_s": layer_self["keypoints"],
        "mesh.codec.self_s": layer_self["mesh"],
        "rendering.frames": count(
            "rendering.pipeline.RenderPipeline.render_frame"),
        "rendering.self_s": layer_self["rendering"],
        "vca.sessions": _obs(counters, "vca.sessions_run",
                             "vca.cohort.fast_path_runs"),
        "vca.self_s": layer_self["vca"],
        "vca.jitterbuffer.late_ratio": _ratio(
            _obs(counters, "vca.jitterbuffer.late_frames"),
            _obs(counters, "vca.jitterbuffer.frames")),
        "vca.cohort.fast_path_s": inclusive("vca.cohort.sfu_cohort_downlink"),
        "vca.cohort.self_s": layer_self["vca.cohort"],
        "geo.calls": float(geo_calls),
        "geo.self_s": layer_self["geo"],
        "faults.applied": _obs(counters, "faults.applied",
                               "faults.cohort.applies"),
        "faults.self_s": layer_self["faults"],
        "scenario.self_s": layer_self["scenario"],
        "analysis.self_s": layer_self["analysis"],
        "core.runner.cells": runner["cells"],
        "core.runner.overhead_s": runner["overhead_s"],
        "core.runner.worker_user_s": runner["worker_user_s"],
        "core.runner.worker_sys_s": runner["worker_sys_s"],
        "core.self_s": layer_self["core"],
        "core.cache.hit_ratio": _ratio(hits, lookups),
        "core.cache.get_s": inclusive("core.cache.ResultCache.get"),
        "core.cache.put_s": inclusive("core.cache.ResultCache.put"),
        "experiments.self_s": layer_self["experiments"],
        "obs.trace_overhead": overhead,
    }
    for phase in ("cold", "warm"):
        for section in SECTIONS:
            out[f"report.{section}.{phase}_s"] = float(
                sections.get(phase, {}).get(section, 0.0))
    return out


def events_per_merge(events: float, merges: float) -> float:
    """Batch-arena events fired per pending-buffer merge (0 with none)."""
    return _ratio(events, merges)


def delivered_ratio(delivered: float, sent: float) -> float:
    """Packets handed to a host over packets injected into the fabric."""
    return _ratio(delivered, sent)


def self_time_gap(layer_self: Dict[str, float], wall: float) -> float:
    """|sum of layer self times - traced wall| as a share of the wall."""
    return abs(sum(layer_self.values()) - wall) / wall if wall else 0.0


def metric_names() -> List[str]:
    """Every per-layer metric, in table order."""
    return [m for row in EXPECTATIONS for m in row["metrics"]]


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "events_per_merge", "trace_overhead")):
        return "ratio"
    if metric.endswith("us_per_packet"):
        return "us"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def better_of(metric: str) -> str:
    """Which direction of a per-layer metric is an improvement."""
    higher = ("hit_ratio", "delivered_ratio", "events_per_merge")
    return "higher" if metric.endswith(higher) else "lower"
