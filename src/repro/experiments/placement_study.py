"""Placement study: searching server placements x selection policies.

Table 1 shows what one policy (initiator-nearest) over one placement (the
reverse-engineered US fleets) does to eight vantage cities.  This driver
turns that single observation into an explorable design space at planetary
scale — the simulate -> evaluate -> optimize loop of ROADMAP item 3:

1. **simulate** demand: the global region catalog emits millions of
   seeded users per UTC epoch (diurnal load + flash crowds,
   :mod:`repro.geo.demand`);
2. **optimize** placement: the vectorized k-median searches a global
   candidate lattice against the time-averaged demand surface
   (:mod:`repro.geo.placement`);
3. **evaluate** policies: every registered server-selection policy
   (:mod:`repro.geo.policy`) assigns the sampled sessions, and each
   (policy, k) cell scores a joint QoE + cost objective built on the
   paper's 100 ms one-way threshold (:mod:`repro.vca.qoe`).

Each (policy, k) pair is one cell on the shared campaign runner, so
sweeps are parallel, cached, resumable, and distributable like every
other experiment in the package.  Same seed -> same planet -> identical
records, byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.checks import at_least
from repro.core.cache import ResultCache
from repro.core.journal import RunJournal, RunManifest
from repro.core.parallel import CellTask, run_tasks
from repro.geo.coords import latlon_arrays
from repro.geo.demand import DemandModel
from repro.geo.latency import PathModel
from repro.geo.placement import global_candidate_sites, optimize_placement
from repro.geo.policy import (
    AssignmentContext,
    get_policy,
    policy_names,
    session_worst_one_way_ms,
)
from repro.obs import metrics as obs_metrics
from repro.vca.qoe import ONE_WAY_DELAY_THRESHOLD_MS, delay_factor_arrays

#: Default UTC sampling epochs: a trough, two shoulders, and a peak as
#: seen from the Americas/Europe/Asia population centers.
DEFAULT_EPOCHS: Tuple[float, ...] = (2.0, 8.0, 14.0, 20.0)

#: Default server counts searched when the CLI gives no --k-range.
DEFAULT_K_RANGE: Tuple[int, ...] = (2, 4, 8)

#: Cost units per deployed server site (relative accounting — only
#: ratios between cells matter to the objective).
SERVER_COST_UNIT = 1.0
#: Extra per-server cost when sessions span relays (the private-backbone
#: interconnect of Sec. 4.1's remedy has to exist and be provisioned).
BACKBONE_COST_UNIT = 0.5
#: Objective trade-off: QoE points sacrificed per cost unit.
DEFAULT_COST_WEIGHT = 0.01


def _cell_seed(seed: int, policy: str, k: int) -> int:
    """Stable per-cell seed (sha256, not hash(): salted str hashing would
    break cross-process determinism)."""
    digest = hashlib.sha256(f"placement-{seed}-{policy}-{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def evaluate_cell(
    policy: str,
    k: int,
    users: int,
    seed: int,
    epochs: Sequence[float] = DEFAULT_EPOCHS,
    regions: Optional[int] = None,
    session_size: int = 3,
    backbone_speedup: float = 2.0,
    flash_count: int = 3,
    site_step_deg: float = 4.0,
    cost_weight: float = DEFAULT_COST_WEIGHT,
) -> Dict[str, object]:
    """One (policy, k) cell: optimize a placement, score the policy on it.

    Returns a JSON-safe record; the unit of work for the campaign runner.
    """
    at_least(users, session_size, "users")
    if not session_size >= 2:
        raise ValueError("sessions need at least two participants")
    cell_seed = _cell_seed(seed, policy, k)
    demand = DemandModel.default(max_regions=regions, flash_seed=cell_seed,
                                 flash_count=flash_count)
    model = PathModel()

    # --- optimize: search the global lattice against averaged demand.
    points, weights = demand.demand_points(list(epochs))
    placement = optimize_placement(
        k, clients=points, model=model, weights=weights,
        sites=global_candidate_sites(site_step_deg),
    )
    s_lat, s_lon = latlon_arrays(placement.servers)
    backbone = model.propagation_rtt_ms_arrays(
        s_lat[:, None], s_lon[:, None], s_lat[None, :], s_lon[None, :]
    )

    # --- simulate + evaluate, epoch by epoch.
    selection = get_policy(policy)
    per_epoch: List[Dict[str, float]] = []
    qoe_all: List[np.ndarray] = []
    delay_all: List[np.ndarray] = []
    multi_relay = 0
    sessions_total = 0
    users_per_epoch = max(session_size, users // len(epochs))
    for epoch_index, t_utc in enumerate(epochs):
        sample = demand.sample_users(users_per_epoch, float(t_utc),
                                     seed=cell_seed + 7919 * epoch_index)
        rtt_us = model.base_rtt_ms_arrays(
            sample.lat[:, None], sample.lon[:, None],
            s_lat[None, :], s_lon[None, :],
        )
        rng = np.random.default_rng(cell_seed + 104729 * epoch_index)
        order = rng.permutation(len(sample))
        n_sessions = len(sample) // session_size
        sessions = order[:n_sessions * session_size].reshape(
            n_sessions, session_size)
        ctx = AssignmentContext(rtt_us, sessions, backbone)
        assignment = selection.assign(ctx)
        worst_ms = session_worst_one_way_ms(ctx, assignment,
                                            backbone_speedup)
        qoe = delay_factor_arrays(worst_ms)
        qoe_all.append(qoe)
        delay_all.append(worst_ms)
        multi_relay += int((assignment.max(axis=1)
                            > assignment.min(axis=1)).sum())
        sessions_total += n_sessions
        per_epoch.append({
            "t_utc_h": float(t_utc),
            "sessions": n_sessions,
            "qoe_mean": float(qoe.mean()),
            "worst_one_way_p95_ms": float(np.percentile(worst_ms, 95)),
        })
        obs_metrics.counter("geo.study.sessions_scored").inc(n_sessions)
    obs_metrics.counter("geo.study.cells").inc()

    qoe_flat = np.concatenate(qoe_all)
    delay_flat = np.concatenate(delay_all)
    multi_relay_fraction = multi_relay / sessions_total
    # Cost: server sites, plus backbone interconnect if the policy
    # actually splits sessions across relays.
    cost = k * SERVER_COST_UNIT
    if multi_relay_fraction > 0:
        cost += k * BACKBONE_COST_UNIT
    qoe_mean = float(qoe_flat.mean())
    return {
        "policy": policy,
        "k": int(k),
        "users": int(users),
        "sessions": int(sessions_total),
        "qoe_mean": qoe_mean,
        "qoe_p5": float(np.percentile(qoe_flat, 5)),
        "worst_one_way_p95_ms": float(np.percentile(delay_flat, 95)),
        "meets_threshold_fraction": float(
            (delay_flat <= ONE_WAY_DELAY_THRESHOLD_MS).mean()),
        "multi_relay_fraction": float(multi_relay_fraction),
        "cost_units": float(cost),
        "objective": float(qoe_mean - cost_weight * cost),
        # Multi-dimensional view (repro.vca.qoe.QoeVector semantics):
        # placement exercises only the interactivity dimension — the
        # delay factor *is* its QoE objective; the other dimensions have
        # no placement-level observable and stay 1.0.  Extra key only —
        # the CSV column set (FIELDS) is unchanged.
        "qoe_vector": {
            "interactivity": qoe_mean,
            "presence": 1.0,
            "fidelity": 1.0,
            "comfort": 1.0,
            "aggregate": qoe_mean,
        },
        "mean_rtt_to_placement_ms": float(placement.mean_rtt_ms),
        "optimizer_rounds": int(placement.rounds),
        "optimizer_swaps": int(placement.exchange_swaps),
        "placed_sites": [s.name for s in placement.servers],
        "per_epoch": per_epoch,
    }


@dataclass
class PlacementStudyResult:
    """The policy x placement design space, scored."""

    records: List[Dict[str, object]]

    FIELDS = ("policy", "k", "users", "sessions", "qoe_mean", "qoe_p5",
              "worst_one_way_p95_ms", "meets_threshold_fraction",
              "multi_relay_fraction", "cost_units", "objective",
              "mean_rtt_to_placement_ms")

    def record(self, policy: str, k: int) -> Dict[str, object]:
        """The record of one (policy, k) cell."""
        for record in self.records:
            if record["policy"] == policy and record["k"] == k:
                return record
        raise KeyError(f"no record for ({policy!r}, k={k})")

    def policies(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record["policy"] not in seen:
                seen.append(str(record["policy"]))
        return seen

    def k_values(self) -> List[int]:
        return sorted({int(record["k"]) for record in self.records})

    def best(self) -> Dict[str, object]:
        """The record maximizing the QoE + cost objective."""
        return max(self.records, key=lambda r: r["objective"])

    def initiator_penalty(self, k: Optional[int] = None) -> float:
        """QoE lost to initiator-nearest vs client-nearest at one k.

        The planetary-scale restatement of the paper's Table 1 finding;
        positive means the observed policy is leaving QoE on the table.
        """
        k = k if k is not None else max(self.k_values())
        observed = self.record("initiator-nearest", k)
        remedy = self.record("client-nearest", k)
        return float(remedy["qoe_mean"]) - float(observed["qoe_mean"])

    def format_table(self) -> str:
        """policy x k matrix of QoE (objective) cells."""
        ks = self.k_values()
        header = "policy             | " + " | ".join(
            f"k={k}: QoE (obj)" for k in ks)
        lines = [header, "-" * len(header)]
        for policy in self.policies():
            cells = []
            for k in ks:
                try:
                    r = self.record(policy, k)
                    cells.append(f"{r['qoe_mean']:.3f} ({r['objective']:+.3f})")
                except KeyError:
                    cells.append("--")
            lines.append(f"{policy:18s} | " + " | ".join(
                f"{c:>15s}" for c in cells))
        return "\n".join(lines)

    def to_csv(self, path: Union[str, Path]) -> None:
        """Export the flat per-cell records."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.FIELDS)
            for record in self.records:
                writer.writerow([record[f] for f in self.FIELDS])


def run(
    users: int = 100_000,
    policies: Optional[Sequence[str]] = None,
    k_range: Sequence[int] = DEFAULT_K_RANGE,
    seed: int = 0,
    epochs: Sequence[float] = DEFAULT_EPOCHS,
    regions: Optional[int] = None,
    session_size: int = 3,
    backbone_speedup: float = 2.0,
    cost_weight: float = DEFAULT_COST_WEIGHT,
    site_step_deg: float = 4.0,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    journal: Optional[RunJournal] = None,
    resume: bool = False,
    manifest: Optional[RunManifest] = None,
    progress=None,
) -> PlacementStudyResult:
    """Sweep the (policy x k) design space on the shared campaign runner.

    ``users`` is the total sampled population per cell (split across the
    UTC ``epochs``); every registered policy name is legal in
    ``policies`` (default: all of them).  The crash-safety knobs
    (``timeout``/``retries``/``journal``/``resume``/``manifest``) behave
    exactly as in every other sweep driver.
    """
    chosen_policies = list(policies) if policies else list(policy_names())
    for name in chosen_policies:
        get_policy(name)  # fail fast on unknown names
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 1:
        raise ValueError("k_range must contain positive server counts")
    at_least(users, session_size, "users")
    tasks = [
        CellTask(
            name=f"placement/{policy}/k{k}",
            fn=evaluate_cell,
            kwargs={
                "policy": policy, "k": k, "users": users, "seed": seed,
                "epochs": tuple(float(t) for t in epochs),
                "regions": regions, "session_size": session_size,
                "backbone_speedup": backbone_speedup,
                "flash_count": 3, "site_step_deg": site_step_deg,
                "cost_weight": cost_weight,
            },
        )
        for policy in chosen_policies for k in ks
    ]
    records = run_tasks(
        tasks, jobs=jobs, cache=cache, retries=retries, timeout=timeout,
        journal=journal, resume=resume, manifest=manifest,
        progress=progress,
    )
    return PlacementStudyResult(records)
