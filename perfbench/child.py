"""One benchmark pass in a fresh interpreter.

``run.py`` starts this script once per pass and reads the JSON it
writes to ``--out``.  The pass records the monotonic instant it is ready
to make its first timed call (imports done, inputs generated from the
seed, cache opened), so the parent can measure set-up from interpreter
start.  Passes:

- ``setup``: set up, then exit;
- ``cold``: run the workload ``--runs`` times back to back, run ``i``
  against its own fresh cache ``<--cache>/<i>`` (the second run of a
  scenario workload is its warm-interpreter figure);
- ``warm``: run it again against the cache a cold pass filled
  (``<--cache>/0``);
- ``anchors``: ``repro.analysis.comparison.validate_all()``.

With ``--trace 1`` the timed calls run under :class:`tracer.Tracer`.

A :class:`speed.SpeedSampler` runs from the start of the pass: every
wall figure it reports leaves out the time spent sampling (unless cells
run in forked workers, which go on meanwhile), and comes with the mean
machine speed sampled over it (``setup_speed`` over the set-up,
``speeds`` over each timed run), which ``run.py`` turns into reference
seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List


def _rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _manifest_summary(manifests: List[Any]) -> Dict[str, Any]:
    """Cells and failures over every run; executed time and completed
    cells of the first run."""
    counts: Dict[str, int] = {}
    for manifest in manifests:
        for status, count in manifest.counts().items():
            counts[status] = counts.get(status, 0) + count
    first = manifests[0].cells
    return {
        "cells": sum(len(manifest.cells) for manifest in manifests),
        "counts": counts,
        "timeouts": sum(cell.timeouts for manifest in manifests
                        for cell in manifest.cells),
        "executed_s": sum(cell.duration_s for cell in first
                          if cell.status == "ok"),
        "ok_names": [cell.name for cell in first
                     if cell.status in ("ok", "cached", "resumed")],
    }


def _install(tracer: Any) -> None:
    import layers

    for row in layers.WRAPS:
        layer, module, path, kind = row[:4]
        counter = row[4] if len(row) > 4 else None
        tracer.patch(module, path, layer, kind, counter)
    layer, module, path = layers.CELL_BOUNDARY
    tracer.patch(module, path, layer, "span", cell=True)


def _anchors() -> Dict[str, Any]:
    from repro.analysis.comparison import validate_all

    return {"anchors": [
        {"name": c.name, "source": c.source, "measured": c.measured,
         "paper_mean": c.paper_mean, "paper_std": c.paper_std,
         "sigmas": c.sigmas, "error": c.error, "within_band": c.within_band}
        for c in validate_all()
    ]}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass", dest="phase", required=True,
                        choices=("setup", "cold", "warm", "anchors"))
    parser.add_argument("--cache", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    if args.phase == "anchors":
        with open(args.out, "w") as handle:
            json.dump(_anchors(), handle)
        return 0

    from speed import SpeedSampler

    sampler = SpeedSampler()
    sampling_from = time.perf_counter()
    sampler.start()
    try:
        return _timed_pass(args, sampler, sampling_from)
    finally:
        sampler.stop()


def _timed_pass(args: argparse.Namespace, sampler: Any,
                sampling_from: float) -> int:
    import numpy

    from repro.core.cache import ResultCache
    from repro.core.journal import RunManifest
    from repro.obs import metrics as obs_metrics

    import workloads

    report = args.workload == "report-quick"
    if report:
        from repro.report import generate_report
    else:
        from repro.scenario import run_batch
        specs = workloads.specs_for(args.workload, args.seed)
    caches = [ResultCache(os.path.join(args.cache, str(i)))
              for i in range(args.runs)]
    ready = time.monotonic()
    out: Dict[str, Any] = {
        "ready": ready, "setup_sampling_s": sampler.spent,
        "setup_speed": sampler.speed(sampling_from),
        "numpy": numpy.__version__, "python": sys.version.split()[0]}
    if args.phase == "setup":
        out["rss_mb"] = _rss_mb()
        with open(args.out, "w") as handle:
            json.dump(out, handle)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(clock=sampler.clock)
        _install(tracer)

    # With forked workers the batch goes on while this process samples,
    # so sampling time stays in the wall.
    clock = sampler.clock if args.jobs == 1 else time.perf_counter
    before = obs_metrics.snapshot()
    walls: List[float] = []
    speeds: List[float] = []
    digests: List[str] = []
    manifests = []
    for cache in caches:
        manifest = RunManifest()
        timed_from = time.perf_counter()
        started = clock()
        if report:
            markdown = generate_report(workloads.report_settings(
                cache=cache, manifest=manifest))
        else:
            result = run_batch(specs, jobs=args.jobs, cache=cache,
                               manifest=manifest)
        walls.append(clock() - started)
        speeds.append(sampler.speed(timed_from, time.perf_counter()))
        digests.append(
            workloads.digest_text(workloads.report_body(markdown)) if report
            else workloads.digest_records(result.records))
        manifests.append(manifest)
    times = os.times()
    out.update({
        "walls": walls,
        "speeds": speeds,
        "digests": digests,
        "rss_mb": _rss_mb(),
        "worker_user_s": times.children_user,
        "worker_sys_s": times.children_system,
        "manifest": _manifest_summary(manifests),
        "cache": {key: sum(getattr(c.stats, key) for c in caches)
                  for key in ("hits", "misses", "stores")},
        "obs": obs_metrics.delta(before, obs_metrics.snapshot()),
    })
    if not report:
        completed = set(out["manifest"]["ok_names"])
        out["sim_s"] = sum(spec.duration_s for spec in specs
                           if f"scenario/{spec.name}" in completed)
    if tracer is not None:
        tracer.restore()
        out["trace"] = {
            "layer_self": tracer.layer_self,
            "by_name": tracer.by_name(),
            "counters": tracer.counters,
            "spans": len(tracer.spans),
        }
        if args.trace_out:
            tracer.dump(args.trace_out)
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
