"""Pluggable server-selection policies over vectorized session batches.

Sec. 4.1 reverse-engineers one policy — every provider picks the server
nearest the session *initiator*, penalizing far participants (Table 1).
The placement studies turn that observation into a design space: a policy
maps a batch of sessions onto per-participant server attachments, and the
registry below lets campaigns sweep policies by name.

Four policies ship:

- ``initiator-nearest`` — the observed behavior (the paper's blind spot:
  non-initiating participants never influence the choice);
- ``client-nearest`` — every participant attaches to its own nearest
  server, servers interconnected by a private backbone (the paper's
  proposed remedy, ablation A2);
- ``latency-budget`` — initiator-nearest until some participant would
  exceed a worst-RTT budget, then the single relay minimizing the worst
  participant RTT;
- ``load-aware`` — client-nearest with per-server admission capacity;
  overflow spills to each user's next-nearest server.

All policies are pure array transforms: a million sessions assign in
tens of milliseconds, and identical inputs yield identical attachments.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.checks import at_least, positive


@dataclass(frozen=True)
class AssignmentContext:
    """Everything a policy may look at, in struct-of-arrays form.

    Attributes:
        rtt_user_server: ``(n_users, n_servers)`` base RTT matrix, ms.
        sessions: ``(n_sessions, party_size)`` user indices; column 0 is
            the session initiator.
        server_backbone_ms: ``(n_servers, n_servers)`` one-way-capable
            server interconnect RTT (propagation only), ms.
    """

    rtt_user_server: np.ndarray
    sessions: np.ndarray
    server_backbone_ms: np.ndarray

    def __post_init__(self) -> None:
        if self.rtt_user_server.ndim != 2:
            raise ValueError("rtt_user_server must be 2-D")
        if self.sessions.ndim != 2:
            raise ValueError("sessions must be 2-D (sessions x party)")
        k = self.rtt_user_server.shape[1]
        if self.server_backbone_ms.shape != (k, k):
            raise ValueError("server_backbone_ms must be (k, k)")

    @property
    def n_servers(self) -> int:
        return self.rtt_user_server.shape[1]

    def participant_rtts(self) -> np.ndarray:
        """``(n_sessions, party, n_servers)`` RTT per participant."""
        return self.rtt_user_server[self.sessions]


class ServerSelectionPolicy(abc.ABC):
    """A named rule mapping session batches to server attachments."""

    #: Registry key; subclasses must override.
    name: str = ""

    @abc.abstractmethod
    def assign(self, ctx: AssignmentContext) -> np.ndarray:
        """Per-participant server indices, shape ``sessions.shape``."""

    def describe(self) -> str:
        """One-line human summary (docstring head by default)."""
        doc = (self.__doc__ or "").strip().splitlines()
        return doc[0] if doc else self.name


class InitiatorNearest(ServerSelectionPolicy):
    """The observed policy: everyone rides the initiator's nearest server."""

    name = "initiator-nearest"

    def assign(self, ctx: AssignmentContext) -> np.ndarray:
        initiator = ctx.sessions[:, 0]
        server = np.argmin(ctx.rtt_user_server[initiator], axis=1)
        return np.broadcast_to(server[:, None], ctx.sessions.shape).copy()


class ClientNearest(ServerSelectionPolicy):
    """The paper's remedy (A2): each client attaches to its nearest server."""

    name = "client-nearest"

    def assign(self, ctx: AssignmentContext) -> np.ndarray:
        return np.argmin(ctx.participant_rtts(), axis=2)


class LatencyBudget(ServerSelectionPolicy):
    """Initiator-nearest unless someone busts the budget, then min-worst.

    Keeps the observed policy's simplicity for local sessions and switches
    to the single relay minimizing the worst participant RTT only when the
    initiator's choice would push some participant past ``budget_ms``.
    """

    name = "latency-budget"

    def __init__(self, budget_ms: float = 120.0) -> None:
        self.budget_ms = positive(budget_ms, "budget_ms")

    def assign(self, ctx: AssignmentContext) -> np.ndarray:
        per_participant = ctx.participant_rtts()       # (s, m, k)
        worst_by_server = per_participant.max(axis=1)  # (s, k)
        initiator_pick = np.argmin(
            ctx.rtt_user_server[ctx.sessions[:, 0]], axis=1)
        rows = np.arange(len(initiator_pick))
        over_budget = worst_by_server[rows, initiator_pick] > self.budget_ms
        min_worst_pick = np.argmin(worst_by_server, axis=1)
        server = np.where(over_budget, min_worst_pick, initiator_pick)
        return np.broadcast_to(server[:, None], ctx.sessions.shape).copy()


class LoadAware(ServerSelectionPolicy):
    """Client-nearest with admission caps; overflow spills to 2nd-nearest.

    Every server admits at most ``capacity_factor`` times its fair share
    of the batch's participants.  Overloaded servers shed the attachments
    that are cheapest to move (smallest RTT regret to the participant's
    next-nearest server).  One shedding pass: a spilled participant may
    land on a server that is itself full — real admission control behaves
    the same way under correlated overload, and the single pass keeps the
    transform deterministic and O(n log n).
    """

    name = "load-aware"

    def __init__(self, capacity_factor: float = 1.5) -> None:
        self.capacity_factor = positive(capacity_factor, "capacity_factor")

    def assign(self, ctx: AssignmentContext) -> np.ndarray:
        per_participant = ctx.participant_rtts()       # (s, m, k)
        flat = per_participant.reshape(-1, ctx.n_servers)
        order = np.argsort(flat, axis=1, kind="stable")
        best = order[:, 0]
        second = order[:, 1] if ctx.n_servers > 1 else order[:, 0]
        rows = np.arange(len(flat))
        regret = flat[rows, second] - flat[rows, best]

        total = len(flat)
        cap = int(np.ceil(self.capacity_factor * total / ctx.n_servers))
        assigned = best.copy()
        for server in range(ctx.n_servers):
            members = np.flatnonzero(assigned == server)
            if len(members) <= cap:
                continue
            # Shed the cheapest-to-move attachments beyond capacity.
            shed_order = members[np.argsort(regret[members], kind="stable")]
            to_move = shed_order[:len(members) - cap]
            assigned[to_move] = second[to_move]
        return assigned.reshape(ctx.sessions.shape)


#: The policy registry, keyed by policy name.
POLICY_REGISTRY: Dict[str, ServerSelectionPolicy] = {}


def register_policy(policy: ServerSelectionPolicy,
                    replace: bool = False) -> ServerSelectionPolicy:
    """Add a policy to the registry (``replace=True`` to override)."""
    if not policy.name:
        raise ValueError("policy needs a non-empty name")
    if policy.name in POLICY_REGISTRY and not replace:
        raise ValueError(f"policy {policy.name!r} already registered")
    POLICY_REGISTRY[policy.name] = policy
    return policy


def get_policy(name: str) -> ServerSelectionPolicy:
    """Look up a registered policy by name."""
    try:
        return POLICY_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r} (registered: {policy_names()})"
        ) from None


def policy_names() -> Tuple[str, ...]:
    """All registered policy names, registration order."""
    return tuple(POLICY_REGISTRY)


for _policy in (InitiatorNearest(), ClientNearest(), LatencyBudget(),
                LoadAware()):
    register_policy(_policy)


def session_worst_one_way_ms(
    ctx: AssignmentContext,
    assignment: np.ndarray,
    backbone_speedup: float = 1.0,
) -> np.ndarray:
    """Worst pairwise one-way media delay per session, in ms.

    Media from participant ``a`` to ``b`` travels
    ``a -> S_a -> S_b -> b``: half the access RTT on each client leg and
    half the (propagation-only) backbone RTT between the two relays,
    divided by ``backbone_speedup`` — the "high-speed private network"
    remedy of Sec. 4.1.  With a shared relay the backbone leg is zero and
    this reduces to the initiator-nearest geometry of Table 1.
    """
    at_least(backbone_speedup, 1.0, "backbone_speedup")
    if assignment.shape != ctx.sessions.shape:
        raise ValueError("assignment shape must match sessions")
    n_sessions, party = ctx.sessions.shape
    rtts = ctx.rtt_user_server
    # Client legs: participant i to its own relay (one way).
    leg = rtts[ctx.sessions, assignment] / 2.0      # (s, m)
    worst = np.zeros(n_sessions)
    for i in range(party):
        for j in range(party):
            if i == j:
                continue
            backbone = (ctx.server_backbone_ms[assignment[:, i],
                                               assignment[:, j]]
                        / backbone_speedup / 2.0)
            one_way = leg[:, i] + backbone + leg[:, j]
            np.maximum(worst, one_way, out=worst)
    return worst
