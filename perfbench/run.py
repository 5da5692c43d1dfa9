"""The repository benchmark: three workloads, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py                          # every workload
    python3 perfbench/run.py --workload calls --seed 3
    python3 perfbench/run.py --workload fanout --trace 1

Each workload is a closed loop: one client submits one batch and waits
for it, every pass in a fresh interpreter (``perfbench/child.py``).  With
``--trace 0`` a run prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics of a separate traced pass on the same
inputs, plus the tracing overhead.  Every run checks its outputs (cold
== warm digest, the pinned digest, no failed cells, the paper anchors)
and exits 1, naming the failed check, when one does not hold.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

Every time metric is in *reference seconds*: the measured wall times the
machine speed sampled while it ran (``perfbench/speed.py``), so a host
that slows down for a minute does not read as a slower program.  The
measured walls and speeds are printed beside the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402  (stdlib-only; lives beside this file)

#: Workload -> timed runs per cold pass.  A scenario workload's cold pass
#: runs its batch twice in one interpreter, each time on a fresh cache:
#: the first run is its cold figure, the second its warm-interpreter
#: figure (``warm_wall_s``).  Its cache replay, about 1 ms of file reads,
#: JSON and hashing, is no steady figure on a shared host: the fastest
#: replay of calls took 0.75 ms in one hour and 0.56 ms in the next, and
#: scaling by the sampled speed overcorrected as much the other way.
#: report-quick's warm figure is its warm pass on the filled cache.  Every
#: timed run is in-process (jobs 1).
WORKLOADS: Dict[str, int] = {"report-quick": 1, "calls": 2, "fanout": 2}

#: Runner jobs of the fanout trace run's untraced pool pass, which gives
#: the process-per-cell runner's figures (``core.runner.*``).
POOL_JOBS = 2

#: Environment of every pass.  One BLAS thread, so a pass is one thread
#: of load on a small host.  Fixed glibc heap thresholds: by default glibc
#: moves its mmap and trim thresholds as blocks are freed, and the order
#: in which that happens varied between identical fanout passes, which
#: took from 70k to 2.5M page faults (0.1 to 4 s of system time) around
#: their numpy and LZMA buffers.  With the thresholds fixed (mmap above
#: 32 MiB, glibc's ceiling; trim above 1 GiB) such a pass takes about 5k
#: faults every time.  Allocator page-fault churn is therefore not part of
#: what the benchmark measures.
PASS_ENV = {"OPENBLAS_NUM_THREADS": "1",
            "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
            "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}

#: Set-up-only passes per run, on top of the set-up of every timed pass:
#: set-up time is the median over all of them (three or more).
SETUP_PASSES = 2

#: Seconds one workload's passes may take together; a pass still running
#: at the deadline is killed and the run fails (a run must end in 180 s).
WORKLOAD_DEADLINE_S = 170.0

#: Scratch directory, under the directory the benchmark is run from.
WORK_DIR = ".perfbench-work"

#: Allowed |sum of layer self times - traced wall|: a share of the wall,
#: but never below a millisecond (the root wrapper's own entry and exit).
SELF_TIME_TOLERANCE = 1e-3
SELF_TIME_FLOOR_S = 1e-3

END_TO_END_UNITS = {
    "wall_s": "s", "warm_wall_s": "s", "sim_s_per_wall_s": "sim_s/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """A correctness or anchor check did not hold."""


class Run:
    """Spawns one workload's passes and keeps what they report."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + WORKLOAD_DEADLINE_S
        self.work = root / WORK_DIR / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        #: (measured set-up wall, speed sampled over it) per pass
        self.setups: List[Tuple[float, float]] = []
        self.rss: List[float] = []
        self.passes = 0

    def child(self, phase: str, cache: str, jobs: int = 1, runs: int = 1,
              trace: int = 0) -> Dict[str, Any]:
        """Run one pass in a fresh interpreter; returns its report."""
        self.passes += 1
        out = self.work / f"{self.passes:02d}-{phase}.json"
        cmd = [sys.executable, str(BENCH / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--pass", phase, "--cache", str(self.work / cache),
               "--out", str(out), "--jobs", str(jobs),
               "--runs", str(runs), "--trace", str(trace)]
        if trace:
            cmd += ["--trace-out", str(self.work / f"trace-{self.passes:02d}"
                                       f"-{phase}.jsonl")]
        env = dict(os.environ, **PASS_ENV)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(self.deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _kill_group(proc)
        if code != 0:
            raise CheckFailed(f"{phase} pass exited with {code}")
        with open(out) as handle:
            report = json.load(handle)
        if phase == "anchors":
            return report
        self.setups.append((report["ready"] - report["setup_sampling_s"]
                            - spawned, report["setup_speed"]))
        self.rss.append(report["rss_mb"])
        return report if phase == "setup" else at_reference_speed(report)


def at_reference_speed(report: Dict[str, Any]) -> Dict[str, Any]:
    """A timed pass's report with its seconds in reference seconds.

    Each run's wall is scaled by the speed sampled over that run; cell
    durations, worker CPU times and trace times (passes of one run) by
    the first run's.  The measured walls and trace stay under ``raw``.
    """
    speed = report["speeds"][0]
    scaled = dict(report, raw={"walls": report["walls"],
                               "trace": report.get("trace")})
    scaled["walls"] = [wall * run_speed for wall, run_speed
                       in zip(report["walls"], report["speeds"])]
    scaled["worker_user_s"] = report["worker_user_s"] * speed
    scaled["worker_sys_s"] = report["worker_sys_s"] * speed
    scaled["manifest"] = dict(
        report["manifest"],
        executed_s=report["manifest"]["executed_s"] * speed)
    if "trace" in report:
        trace = report["trace"]
        scaled["trace"] = dict(
            trace,
            layer_self={layer: own * speed
                        for layer, own in trace["layer_self"].items()},
            by_name={name: [layer, count, incl * speed, own * speed]
                     for name, (layer, count, incl, own)
                     in trace["by_name"].items()})
    return scaled


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a pass's process group, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def _pinned() -> Dict[str, Any]:
    with open(BENCH / "digests.json") as handle:
        return json.load(handle)


def check_digests(workload: str, seed: int, digests: List[str],
                  pinned: Dict[str, Any]) -> List[str]:
    """Every pass agrees; at the pinned seed they match the pinned digest.

    ``report-quick`` runs the same input on every seed, so its pinned
    digest applies to every seed.
    """
    failures = []
    if len(set(digests)) != 1:
        failures.append(f"cold/warm output digest mismatch ({workload}: "
                        f"{sorted(set(d[:12] for d in digests))})")
    if workload == "report-quick" or seed == pinned["seed"]:
        if digests and digests[0] != pinned[workload]:
            failures.append(f"pinned digest mismatch ({workload}: "
                            f"{digests[0][:12]} != "
                            f"{pinned[workload][:12]})")
    return failures


def failed_cells(manifest: Dict[str, Any]) -> int:
    """Cells failed, quarantined or timed out in one pass's manifest."""
    counts = manifest["counts"]
    return (counts.get("failed", 0) + counts.get("quarantined", 0)
            + manifest["timeouts"])


def check_self_time(report: Dict[str, Any]) -> Optional[str]:
    """Layer self times of a traced pass must add up to its wall.

    Checked on the measured figures of ``report`` (a pass read by
    :meth:`Run.child`), before any scaling.
    """
    wall = sum(report["raw"]["walls"])
    layer_self = report["raw"]["trace"]["layer_self"]
    gap = layers.self_time_gap(layer_self, wall)
    if gap * wall > max(SELF_TIME_TOLERANCE * wall, SELF_TIME_FLOOR_S):
        return (f"layer self times sum to {sum(layer_self.values()):.4f} s, "
                f"traced wall {wall:.4f} s")
    return None


def source_digest(root: Path) -> Tuple[str, int]:
    """sha256 over ``src/repro`` sources, and their line count."""
    sha = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        data = path.read_bytes()
        sha.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return sha.hexdigest(), lines


def anchors(root: Path, digest: str) -> Dict[str, Any]:
    """Paper-anchor checks, run outside every timed pass.

    ``validate_all()`` is a deterministic function of the sources (about
    7 s), so it runs once per source tree: its result is stored in the
    scratch directory under the source digest, and every run prints and
    checks it.  Any source change recomputes it.
    """
    stored = root / WORK_DIR / f"anchors-{digest[:16]}.json"
    if stored.exists():
        with open(stored) as handle:
            return json.load(handle)
    run = Run(root, "anchors", 0)
    report = run.child("anchors", "unused")
    stored.write_text(json.dumps(report))
    shutil.rmtree(run.work, ignore_errors=True)
    return report


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _manifests(reports: List[Dict[str, Any]]) -> Tuple[int, int]:
    attempted = sum(r["manifest"]["cells"] for r in reports)
    failed = sum(failed_cells(r["manifest"]) for r in reports)
    return attempted, failed


def _sim_seconds(report: Dict[str, Any]) -> float:
    """Simulated seconds of a pass: spec durations, else engine clocks."""
    if "sim_s" in report:
        return report["sim_s"]
    counters = report["obs"]["counters"]
    return (counters.get("netsim.sim_time_s", 0.0)
            + counters.get("netsim.batch.sim_time_s", 0.0))


def end_to_end(run: Run, seconds: float) -> Dict[str, Any]:
    """Timed passes with tracing off: the end-to-end metrics."""
    runs = WORKLOADS[run.workload]
    for _ in range(SETUP_PASSES):
        run.child("setup", "cache-probe")
    colds: List[Dict[str, Any]] = []
    while not colds or sum(sum(r["raw"]["walls"]) for r in colds) < seconds:
        colds.append(run.child("cold", f"cache-{len(colds)}", runs=runs))
    passes = list(colds)
    if runs == 1:
        passes.append(run.child("warm", "cache-0"))
        warms, raw_warms = [passes[-1]["walls"]], [passes[-1]["raw"]["walls"]]
    else:
        warms = [r["walls"][1:] for r in colds]
        raw_warms = [r["raw"]["walls"][1:] for r in colds]
    attempted, failed = _manifests(passes)
    return {
        "digests": [d for r in passes for d in r["digests"]],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": _median([r["walls"][0] for r in colds]),
            "warm_wall_s": _median([w for ws in warms for w in ws]),
            "sim_s_per_wall_s": _median(
                [_sim_seconds(r) / r["walls"][0] for r in colds]),
            "setup_s": _median([wall * speed for wall, speed in run.setups]),
            "peak_rss_mb": max(run.rss),
        },
        "measured": {
            "wall_s": _median([r["raw"]["walls"][0] for r in colds]),
            "warm_wall_s": _median([w for ws in raw_warms for w in ws]),
            "setup_s": _median([wall for wall, _ in run.setups]),
            "speeds": [speed for r in passes for speed in r["speeds"]],
            "setup_speeds": [speed for _, speed in run.setups],
        },
        "context": {"numpy": passes[-1]["numpy"],
                    "python": passes[-1]["python"]},
    }


def _runner(report: Dict[str, Any], jobs: int) -> Dict[str, float]:
    """Runner cells, overhead and worker CPU time of one cold pass.

    Overhead is the runner's wall beyond its cells' own durations divided
    over the jobs.  In-process, it comes from the traced ``TaskRunner.run``
    and ``CellTask.execute`` totals, whose clock leaves sampling out (the
    runner's own cell durations keep it in); on a worker pool, from the
    batch wall and the workers' cell durations in the manifest.
    """
    if jobs == 1:
        by_name = report["trace"]["by_name"]
        runner = by_name.get("core.parallel.TaskRunner.run", [0, 0, 0.0])[2]
        cells = by_name.get("core.parallel.CellTask.execute", [0, 0, 0.0])[2]
        overhead = runner - cells
    else:
        overhead = report["walls"][0] - report["manifest"]["executed_s"] / jobs
    return {
        "cells": float(report["manifest"]["counts"].get("ok", 0)),
        "overhead_s": overhead,
        "worker_user_s": report["worker_user_s"],
        "worker_sys_s": report["worker_sys_s"],
    }


def _sections(report: Dict[str, Any]) -> Dict[str, float]:
    by_name = report["trace"]["by_name"]
    return {s: by_name.get(f"report.{s}_section", [0, 0, 0.0])[2]
            for s in layers.SECTIONS}


def _overhead(traced: Dict[str, Any], untraced: Dict[str, Any]) -> float:
    """Traced wall over the untraced wall of the same pass, minus 1."""
    return traced["walls"][0] / untraced["walls"][0] - 1.0


def per_layer(run: Run) -> Dict[str, Any]:
    """Traced passes (plus the untraced pass they are compared with)."""
    if run.workload == "report-quick":
        cold = run.child("cold", "cache-t", trace=1)
        plain = [run.child("warm", "cache-t")]
        warm = run.child("warm", "cache-t", trace=1)
        traced = [cold, warm]
        overhead = _overhead(warm, plain[0])
        runner = _runner(cold, 1)
        sections = {"cold": _sections(cold), "warm": _sections(warm)}
    else:
        # fanout's runner figures come from an untraced pass on a pool of
        # forked workers; they take their spans with them, so the traced
        # pass runs in-process like the timed ones.
        jobs = POOL_JOBS if run.workload == "fanout" else 1
        pool = run.child("cold", "cache-p", jobs=jobs)
        plain = [pool] if jobs == 1 else [pool, run.child("cold", "cache-1")]
        cold = run.child("cold", "cache-t", trace=1)
        warm = run.child("warm", "cache-t", trace=1)
        traced = [cold, warm]
        overhead = _overhead(cold, plain[-1])
        runner = _runner(pool if jobs > 1 else cold, jobs)
        sections = {}
    failures = [msg for msg in map(check_self_time, traced) if msg]
    attempted, failed = _manifests(traced + plain)
    summaries = [dict(r["trace"], obs=r["obs"], cache=r["cache"])
                 for r in traced]
    return {
        "digests": [d for r in traced + plain for d in r["digests"]],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": layers.per_layer_metrics(summaries, sections, runner,
                                            overhead),
        "traced_wall_s": sum(sum(r["raw"]["walls"]) for r in traced),
        "self_sum_s": sum(sum(r["raw"]["trace"]["layer_self"].values())
                          for r in traced),
        "speeds": [r["speeds"][0] for r in traced + plain],
        "context": {"numpy": cold["numpy"], "python": cold["python"]},
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "n/a (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _speeds(speeds: List[float]) -> str:
    return " ".join(f"{speed:.3f}" for speed in speeds)


def print_anchors(report: Dict[str, Any]) -> List[str]:
    print("paper anchors (measured - paper):")
    failures = []
    for a in report["anchors"]:
        band = max(a["paper_std"], 1e-9) * a["sigmas"]
        flag = "ok " if a["within_band"] else "OFF"
        print(f"  [{flag}] {a['name']:26s} {a['error']:+10.4f}  "
              f"(band ±{band:.4f}, {a['source']})")
        if not a["within_band"]:
            failures.append(f"anchor out of band: {a['name']}")
    return failures


def run_one(root: Path, workload: str, seed: int, seconds: float,
            trace: int, anchor_report: Dict[str, Any],
            context: Dict[str, Any]) -> Dict[str, Any]:
    """Run, check and print one workload; returns its result object."""
    print(f"== {workload}  seed={seed}  trace={trace}")
    run = Run(root, workload, seed)
    failures: List[str] = []
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    try:
        outcome = per_layer(run) if trace else end_to_end(run, seconds)
    except CheckFailed as exc:
        failures.append(str(exc))
        outcome = None
    if outcome is not None:
        attempted, failed = outcome["attempted"], outcome["failed"]
        failures += outcome.get("failures", [])
        failures += check_digests(workload, seed, outcome["digests"],
                                  _pinned())
        if failed:
            failures.append(f"failed_fraction {failed}/{attempted} != 0")
        ctx = dict(context, **outcome["context"])
        print("context: " + "  ".join(f"{k}={v}" for k, v in ctx.items()))
        units = (END_TO_END_UNITS if not trace
                 else {m: layers.unit_of(m) for m in outcome["metrics"]})
        for name, value in outcome["metrics"].items():
            metrics[name] = {"value": value, "unit": units[name]}
        print_metrics(workload, trace, outcome, metrics, attempted, failed)
    failures += print_anchors(anchor_report)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if not failures:
        pinned = ("checked" if workload == "report-quick"
                  or seed == _pinned()["seed"] else "not pinned at this seed")
        print(f"checks: outputs match across passes, pinned digest {pinned}, "
              f"failed_fraction 0, anchors in band")
    return {"correct": not failures, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def print_metrics(workload: str, trace: int, outcome: Dict[str, Any],
                  metrics: Dict[str, Dict[str, Any]], attempted: int,
                  failed: int) -> None:
    if not trace:
        print("end-to-end metrics:")
        for name, entry in metrics.items():
            print(f"  {name:18s} {_fmt(entry['value']):>12s} {entry['unit']}")
        fraction = failed / attempted if attempted else 0.0
        print(f"  {'failed_fraction':18s} {_fmt(fraction):>12s} "
              f"({failed}/{attempted} cells)")
        measured = outcome["measured"]
        print("wall_s, warm_wall_s, setup_s are in reference seconds; "
              "as measured: "
              + ", ".join(f"{name} {_fmt(measured[name])} s"
                          for name in ("wall_s", "warm_wall_s", "setup_s")))
        print(f"machine speed sampled per timed run: "
              f"{_speeds(measured['speeds'])}; per set-up: "
              f"{_speeds(measured['setup_speeds'])}")
        return
    print(f"per-layer metrics in reference seconds (measured: traced wall "
          f"{outcome['traced_wall_s']:.4f} s, layer self times sum "
          f"{outcome['self_sum_s']:.4f} s; machine speed per pass "
          f"{_speeds(outcome['speeds'])}):")
    for row in layers.EXPECTATIONS:
        print(f"  [{row['layer']}] should move: {row['moves']}; "
              f"should stay flat: {row['flat']}")
        for name in row["metrics"]:
            entry = metrics[name]
            note = ("  <- " + layers.ENGINE_NOTE
                    if name in ("netsim.engine.self_s", "netsim.batch.self_s")
                    else "")
            print(f"    {name:32s} {_fmt(entry['value']):>12s} "
                  f"{entry['unit']}{note}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark workloads and check their outputs.")
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure at least this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro; run from the repository "
              f"root", file=sys.stderr)
        return 2
    (root / WORK_DIR).mkdir(exist_ok=True)
    digest, lines = source_digest(root)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    context = {
        "git": _git_sha(root), "source_sha256": digest[:16],
        "nproc": os.cpu_count(), "cpu": f'"{_cpu_model()}"',
        "src_repro_lines": lines, "seed": args.seed,
        "workloads": ",".join(names),
    }
    try:
        anchor_report = anchors(root, digest)
    except CheckFailed as exc:
        print(f"CHECK FAILED: anchors: {exc}")
        return 1
    results = {name: run_one(root, name, args.seed, args.seconds,
                             args.trace, anchor_report, context)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
