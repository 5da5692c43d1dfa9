"""Active latency measurement: TCP pings to VCA servers.

The paper measures network latency with TCP pings from the WiFi APs to the
providers' servers, because Apple blocks ICMP (Sec. 3.2).  The probes here
run through the full simulated path — AP queues, shapers, wide-area core —
so the measured RTT is an emergent quantity, not a lookup.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import SummaryStats, summarize_samples
from repro.checks import at_least
from repro.geo.coords import GeoPoint
from repro.geo.latency import PathModel, DEFAULT_PATH_MODEL
from repro.geo.servers import Server
from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.transport.probing import TcpPingResponder, tcp_ping


def measure_server_rtts(
    client_location: GeoPoint,
    servers: Sequence[Server],
    repeats: int = 5,
    path_model: Optional[PathModel] = None,
    seed: int = 0,
) -> Dict[str, SummaryStats]:
    """TCP-ping every server from one client location.

    Returns a map from ``"<vca>/<label>"`` to the RTT summary in ms.

    Each (client, server) pair gets a fresh simulated testbed so probe
    traffic never interferes across measurements, matching how the paper
    measures servers independently.
    """
    at_least(repeats, 1, "repeats")
    results: Dict[str, SummaryStats] = {}
    for index, server in enumerate(servers):
        model = (path_model or DEFAULT_PATH_MODEL).spawn(seed * 1000 + index)
        sim = Simulator()
        network = Network(sim, model)
        client = Host("10.9.0.2", client_location, name="probe-client")
        server_host = Host(server.address, server.location,
                           name=f"{server.vca}-{server.label}")
        network.attach(client)
        network.attach(server_host)
        TcpPingResponder(server_host)
        # Jitter the core path per probe by perturbing via the model's
        # sampled delay: the network uses the deterministic one-way delay,
        # so per-probe jitter is added as measured noise here.
        rtts = tcp_ping(sim, client, server.address, count=repeats)
        if len(rtts) != repeats:
            raise RuntimeError(
                f"lost probes to {server.vca}/{server.label}: "
                f"{len(rtts)}/{repeats} answered"
            )
        noise = model.sample_rtt_ms(client_location, server.location, repeats)
        base = model.base_rtt_ms(client_location, server.location)
        samples = list(np.asarray(rtts) + (noise - base))
        results[f"{server.vca}/{server.label}"] = summarize_samples(samples)
    return results
