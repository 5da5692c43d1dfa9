"""Fleet-scale fault gauntlet: correlated domains x policies x fleets.

The resilience study (PR 1) answers "how does one session ride out its
own faults"; this campaign answers the operator's question — **what does
a correlated incident do to a fleet, and how well do the server-side
defenses contain it?**  It sweeps the fault-domain catalog
(:mod:`repro.faults.domains`) against server-selection policies and
fleet sizes, with admission control, QoE-aware load shedding, and
failover re-assignment (:mod:`repro.geo.servers`) active, and reports
recovery metrics against a fault-free twin of every cell.

Two engines, one campaign surface:

* the **fleet engine** (:func:`evaluate_fleet_cell`) scores thousands of
  geo-distributed sessions per cell on a per-tick timeline: domain
  events expand to dense impairment arrays (one vectorized fan-out per
  event), down servers trigger failover re-assignment to the
  next-feasible server, over-capacity servers shed their
  cheapest-regret sessions, and per-session QoE runs through the
  placement delay-factor objective;
* the **cohort engine** (:func:`run_cohort`) drives full
  :class:`~repro.vca.session.TelepresenceSession` objects on the batch
  simulator through the resilience study's ``run_sessions`` and row, with
  :class:`~repro.faults.cohort.CohortInjector` arming a whole cohort's
  fault schedules in grouped cohort events.  A cohort of one with the
  ``standard`` scenario reproduces a scalar session byte for byte
  (``tests/test_gauntlet.py`` ``cmp``'s the CSVs).

Every (scenario, policy, fleet-size) cell is one :class:`CellTask` on
the shared campaign runner — parallel, cached, resumable, and
distributable like every other sweep in the package.  All randomness
flows through :func:`~repro.faults.schedule.derive_seed`, so a cell is
bit-identical serial, pooled, or on a remote worker.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.checks import positive
from repro.core.cache import ResultCache
from repro.core.journal import RunJournal, RunManifest
from repro.core.parallel import CellTask, run_tasks
from repro.experiments.resilience import VICTIM, ResilienceRow, run_sessions
from repro.faults.domains import (
    STANDARD_SCENARIO,
    DomainPlan,
    build_plan,
    impairment_timeline,
    scenario_names,
    scenario_schedules,
    server_down_timeline,
)
from repro.geo.coords import latlon_arrays
from repro.geo.demand import DemandModel
from repro.geo.latency import PathModel
from repro.geo.placement import global_candidate_sites, optimize_placement
from repro.geo.policy import get_policy, policy_names, AssignmentContext
from repro.geo.servers import failover_assignment, shed_overload
from repro.obs import metrics as obs_metrics
from repro.vca.qoe import delay_factor_arrays

#: Default fleet sizes (sessions per cell) swept by :func:`run`.
DEFAULT_FLEET_SIZES: Tuple[int, ...] = (50, 200)


def _world_seed(seed: int, scenario: str, n_sessions: int) -> int:
    """Stable per-(scenario, fleet) seed — deliberately *policy-free*.

    Every policy in a sweep faces the identical demand sample, session
    grouping, and domain-event plan; only the assignment differs.  That
    is what makes the policy columns of one gauntlet row comparable.
    (sha256; ``hash()`` is process-salted.)
    """
    digest = hashlib.sha256(
        f"gauntlet-{seed}-{scenario}-{n_sessions}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "little")


# ----------------------------------------------------------------------
# The fleet engine
# ----------------------------------------------------------------------


def _fleet_timeline(
    plan: DomainPlan,
    ticks: np.ndarray,
    rtt_sessions: np.ndarray,
    baseline: np.ndarray,
    server_regions: np.ndarray,
    session_size: int,
    capacity_factor: float,
) -> Dict[str, np.ndarray]:
    """Advance one fleet through one plan, tick by tick.

    Per tick: region outages mark servers down, displaced sessions fail
    over to the next-feasible up server, over-capacity servers shed
    their cheapest-QoE-regret sessions, and every surviving session is
    scored ``delay_factor(worst one-way + brownout delay) x WiFi rate``.
    Assignment is memoryless — each tick re-derives from the baseline —
    so sessions fail *back* the tick their server returns (reconnects
    are below tick granularity).  The fault-free twin runs this same
    code with an empty plan.
    """
    n_sessions, n_servers = rtt_sessions.shape
    rows = np.arange(n_sessions)
    down = server_down_timeline(plan.events, server_regions, ticks)
    imp = impairment_timeline(plan, ticks)
    capacity = capacity_factor * n_sessions * session_size / n_servers
    qoe = np.zeros((len(ticks), n_sessions))
    interactivity = np.zeros((len(ticks), n_sessions))
    presence = np.zeros((len(ticks), n_sessions))
    shed = np.zeros((len(ticks), n_sessions), dtype=bool)
    failovers = 0
    previous = baseline
    for t in range(len(ticks)):
        up_t = ~down[t]
        load_t = session_size * imp.load[t]
        a_t, _ = failover_assignment(rtt_sessions, baseline, up_t)
        a_t, shed_t, _ = shed_overload(rtt_sessions, a_t, up_t,
                                       capacity, load_t)
        safe = np.where(a_t >= 0, a_t, 0)
        delay = rtt_sessions[rows, safe] / 2.0 + imp.delay_ms[t]
        served = a_t >= 0
        # The fleet objective factors into two QoE dimensions: delay ->
        # interactivity, access-rate collapse -> presence.  Their
        # product reproduces the scalar qoe surface bit for bit.
        interactivity[t] = np.where(served, delay_factor_arrays(delay),
                                    0.0)
        presence[t] = np.where(served, imp.wifi_rate[t], 0.0)
        qoe[t] = interactivity[t] * presence[t]
        shed[t] = shed_t | (a_t < 0)
        failovers += int((a_t != previous).sum())
        previous = a_t
    return {"qoe": qoe, "shed": shed,
            "interactivity": interactivity, "presence": presence,
            "failovers": np.int64(failovers)}


def evaluate_fleet_cell(
    scenario: str,
    policy: str,
    n_sessions: int,
    seed: int,
    duration_s: float = 120.0,
    tick_s: float = 1.0,
    k: int = 6,
    regions: Optional[int] = 12,
    session_size: int = 3,
    capacity_factor: float = 1.2,
    site_step_deg: float = 8.0,
    t_utc_h: float = 14.0,
) -> Dict[str, object]:
    """One (scenario, policy, fleet-size) cell, scored against its twin.

    Builds the fleet the way the placement study does — seeded demand,
    optimized k-placement, policy-assigned sessions — then runs the
    domain plan and its fault-free twin through :func:`_fleet_timeline`
    and reports the recovery metrics as a JSON-safe record.

    The gauntlet tracks each session's *initiator relay* (the policy's
    assignment for member 0); per-relay refinements of multi-relay
    policies stay with the placement study.
    """
    if scenario not in scenario_names():
        raise KeyError(
            f"unknown scenario {scenario!r} (known: {scenario_names()})")
    if not n_sessions >= 1:
        raise ValueError("need at least one session")
    positive(tick_s, "tick_s")
    positive(duration_s, "duration_s")
    world_seed = _world_seed(seed, scenario, n_sessions)
    demand = DemandModel.default(max_regions=regions)
    model = PathModel()

    # The fleet: demand-weighted placement, policy-assigned sessions.
    points, weights = demand.demand_points([t_utc_h])
    placement = optimize_placement(
        k, clients=points, model=model, weights=weights,
        sites=global_candidate_sites(site_step_deg),
    )
    s_lat, s_lon = latlon_arrays(placement.servers)
    sample = demand.sample_users(n_sessions * session_size, t_utc_h,
                                 seed=world_seed)
    rtt_us = model.base_rtt_ms_arrays(
        sample.lat[:, None], sample.lon[:, None],
        s_lat[None, :], s_lon[None, :],
    )
    backbone = model.propagation_rtt_ms_arrays(
        s_lat[:, None], s_lon[:, None], s_lat[None, :], s_lon[None, :]
    )
    rng = np.random.default_rng(world_seed)
    order = rng.permutation(len(sample))
    sessions = order[:n_sessions * session_size].reshape(
        n_sessions, session_size)
    member_assignment = get_policy(policy).assign(
        AssignmentContext(rtt_us, sessions, backbone))
    baseline = member_assignment[:, 0].astype(np.int64)
    # Session-level surfaces: worst-member RTT to each server, the
    # initiator's demand region as the session's fault-domain home.
    rtt_sessions = rtt_us[sessions].max(axis=1)
    session_regions = sample.region_index[sessions[:, 0]]
    server_regions = np.array([
        int(np.argmin([site.distance_km(region.location)
                       for region in demand.regions]))
        for site in placement.servers
    ])

    ticks = np.arange(0.0, duration_s, tick_s)
    plan = build_plan(scenario, world_seed, duration_s, session_regions,
                      n_regions=len(demand.regions))
    twin_plan = build_plan("none", world_seed, duration_s, session_regions,
                           n_regions=len(demand.regions))
    faulted = _fleet_timeline(plan, ticks, rtt_sessions, baseline,
                              server_regions, session_size,
                              capacity_factor)
    twin = _fleet_timeline(twin_plan, ticks, rtt_sessions, baseline,
                           server_regions, session_size, capacity_factor)

    degraded = faulted["qoe"] < twin["qoe"] - 1e-12
    ever = degraded.any(axis=0)
    if ever.any():
        sub = degraded[:, ever]
        first = np.argmax(sub, axis=0)
        last = len(ticks) - 1 - np.argmax(sub[::-1], axis=0)
        ttr = (last - first + 1) * tick_s
        recovered = ~sub[-1]
        recovered_fraction = float(recovered.mean())
        ttr_stats = (float(ttr.mean()), float(np.percentile(ttr, 50)),
                     float(np.percentile(ttr, 95)), float(ttr.max()))
    else:
        recovered_fraction = 1.0
        ttr_stats = (0.0, 0.0, 0.0, 0.0)

    obs_metrics.counter("gauntlet.cells").inc()
    obs_metrics.counter("gauntlet.sessions_scored").inc(n_sessions)
    obs_metrics.counter("gauntlet.domain_events").inc(len(plan.events))
    return {
        "scenario": scenario,
        "policy": policy,
        "n_sessions": int(n_sessions),
        "seed": int(seed),
        "duration_s": float(duration_s),
        "tick_s": float(tick_s),
        "k": int(k),
        "events": len(plan.events),
        "peak_degraded_fraction": float(degraded.mean(axis=1).max(
            initial=0.0)),
        "mean_degraded_fraction": float(degraded.mean()),
        "ever_degraded_fraction": float(ever.mean()),
        "peak_shed_fraction": float(faulted["shed"].mean(axis=1).max(
            initial=0.0)),
        "ever_shed_fraction": float(faulted["shed"].any(axis=0).mean()),
        "failovers": int(faulted["failovers"]),
        "ttr_mean_s": ttr_stats[0],
        "ttr_p50_s": ttr_stats[1],
        "ttr_p95_s": ttr_stats[2],
        "ttr_max_s": ttr_stats[3],
        "recovered_fraction": recovered_fraction,
        "qoe_mean": float(faulted["qoe"].mean()),
        "qoe_twin_mean": float(twin["qoe"].mean()),
        "qoe_delta": float(faulted["qoe"].mean() - twin["qoe"].mean()),
        # Multi-dimensional view (repro.vca.qoe.QoeVector semantics):
        # the fleet engine exercises interactivity (delay) and presence
        # (access collapse / shedding); fidelity and comfort have no
        # fleet-level observable and stay 1.0.  Extra key only — the CSV
        # column set (FIELDS) is unchanged.
        "qoe_vector": {
            "interactivity": float(faulted["interactivity"].mean()),
            "presence": float(faulted["presence"].mean()),
            "fidelity": 1.0,
            "comfort": 1.0,
            "aggregate": float(faulted["qoe"].mean()),
        },
    }


# ----------------------------------------------------------------------
# The cohort engine (full sessions on the batch simulator)
# ----------------------------------------------------------------------

#: CSV columns of one cohort lane's outcome — the scalar resilience
#: study's observables plus the lane identity, so a cohort-of-1 CSV is
#: byte-comparable against the scalar path.
LANE_FIELDS: Tuple[str, ...] = (
    "lane", "profile", "persona", "p2p", "mos_mean", "total_stall_s",
    "mean_ttr_s", "max_ttr_s", "failovers", "top_rung_fraction",
    "audio_only_fraction", "recovered",
)


def run_cohort(
    profile_name: str,
    n_lanes: int,
    duration_s: float = 30.0,
    seed: int = 0,
    scenario: str = STANDARD_SCENARIO,
    regions: int = 3,
) -> List[Dict[str, object]]:
    """Run ``n_lanes`` full sessions through one fault scenario, batched.

    Every lane hosts an unmodified two-user session of ``profile_name``
    on one shared :class:`~repro.netsim.batch.BatchSimulator`
    (:func:`~repro.experiments.resilience.run_sessions`); the
    :class:`~repro.faults.cohort.CohortInjector` arms all fault
    schedules when the cohort runs, grouping identical domain events
    across lanes into single cohort apply/revert pairs.

    Scenarios: :data:`STANDARD_SCENARIO` gives every lane the scalar
    study's scripted five-fault disturbance (lane 0 with the verbatim
    base seed — the cohort-of-1 ``cmp`` anchor); any
    :mod:`~repro.faults.domains` scenario assigns lanes round-robin to
    ``regions`` demand regions and realizes the sampled domain plan as
    per-lane schedules.  Each row's :data:`LANE_FIELDS` past ``lane``
    are read off the lane's :class:`~repro.experiments.resilience.
    ResilienceRow`.
    """
    if not n_lanes >= 1:
        raise ValueError("need at least one lane")
    n_regions = max(1, regions)
    schedules = scenario_schedules(
        scenario, seed, duration_s, np.arange(n_lanes) % n_regions,
        n_regions, VICTIM)
    rows = [ResilienceRow.of(result) for result
            in run_sessions(profile_name, schedules, duration_s, seed)]
    return [{"lane": lane, **{field: getattr(row, field)
                              for field in LANE_FIELDS[1:]}}
            for lane, row in enumerate(rows)]


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------


@dataclass
class GauntletResult:
    """The scenario x policy x fleet-size recovery surface."""

    records: List[Dict[str, object]]

    FIELDS = ("scenario", "policy", "n_sessions", "events",
              "peak_degraded_fraction", "mean_degraded_fraction",
              "ever_degraded_fraction", "peak_shed_fraction",
              "ever_shed_fraction", "failovers", "ttr_mean_s",
              "ttr_p50_s", "ttr_p95_s", "ttr_max_s",
              "recovered_fraction", "qoe_mean", "qoe_twin_mean",
              "qoe_delta")

    def record(self, scenario: str, policy: str,
               n_sessions: int) -> Dict[str, object]:
        """The record of one cell."""
        for record in self.records:
            if (record["scenario"] == scenario
                    and record["policy"] == policy
                    and record["n_sessions"] == n_sessions):
                return record
        raise KeyError(
            f"no record for ({scenario!r}, {policy!r}, n={n_sessions})")

    def scenarios(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record["scenario"] not in seen:
                seen.append(str(record["scenario"]))
        return seen

    def worst(self) -> Dict[str, object]:
        """The cell with the largest QoE loss against its twin."""
        return min(self.records, key=lambda r: r["qoe_delta"])

    def format_table(self) -> str:
        """Printable recovery surface."""
        lines = [
            "scenario       policy              n     ev  degr%  shed%"
            "  failov  ttr_p95  recov%  qoe_delta"
        ]
        for r in self.records:
            lines.append(
                f"{str(r['scenario']):13s}  {str(r['policy']):18s}"
                f"  {r['n_sessions']:4d}  {r['events']:3d}"
                f"  {r['peak_degraded_fraction']:5.0%}"
                f"  {r['peak_shed_fraction']:5.0%}"
                f"  {r['failovers']:6d}  {r['ttr_p95_s']:7.1f}"
                f"  {r['recovered_fraction']:6.0%}"
                f"  {r['qoe_delta']:+9.4f}"
            )
        return "\n".join(lines)

    def to_csv(self, path: Union[str, Path]) -> None:
        """Export the flat per-cell records."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.FIELDS)
            for record in self.records:
                writer.writerow([record[f] for f in self.FIELDS])


def run(
    scenarios: Sequence[str] = ("region-outage", "mixed"),
    policies: Optional[Sequence[str]] = None,
    fleet_sizes: Sequence[int] = DEFAULT_FLEET_SIZES,
    seed: int = 0,
    duration_s: float = 120.0,
    tick_s: float = 1.0,
    k: int = 6,
    regions: Optional[int] = 12,
    session_size: int = 3,
    capacity_factor: float = 1.2,
    site_step_deg: float = 8.0,
    t_utc_h: float = 14.0,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    journal: Optional[RunJournal] = None,
    resume: bool = False,
    manifest: Optional[RunManifest] = None,
    progress=None,
) -> GauntletResult:
    """Sweep scenarios x policies x fleet sizes on the campaign runner.

    Each cell is a pure function of its arguments, so the sweep shards
    over ``jobs`` processes, replays from ``cache``, checkpoints into
    ``journal`` and resumes byte-identically — the gauntlet acceptance
    criterion.  Crash-safety knobs behave as in every other sweep.
    """
    for scenario in scenarios:
        if scenario not in scenario_names():
            raise KeyError(f"unknown scenario {scenario!r} "
                           f"(known: {scenario_names()})")
    chosen_policies = list(policies) if policies else list(policy_names())
    for name in chosen_policies:
        get_policy(name)  # fail fast on unknown names
    sizes = sorted(set(int(n) for n in fleet_sizes))
    if not sizes or sizes[0] < 1:
        raise ValueError("fleet_sizes must contain positive session counts")
    tasks = [
        CellTask(
            name=f"gauntlet/{scenario}/{policy}/n{n}",
            fn=evaluate_fleet_cell,
            kwargs={
                "scenario": scenario, "policy": policy, "n_sessions": n,
                "seed": seed, "duration_s": duration_s, "tick_s": tick_s,
                "k": k, "regions": regions, "session_size": session_size,
                "capacity_factor": capacity_factor,
                "site_step_deg": site_step_deg, "t_utc_h": t_utc_h,
            },
        )
        for scenario in scenarios
        for policy in chosen_policies
        for n in sizes
    ]
    records = run_tasks(
        tasks, jobs=jobs, cache=cache, retries=retries, timeout=timeout,
        journal=journal, resume=resume, manifest=manifest,
        progress=progress,
    )
    return GauntletResult(records)
