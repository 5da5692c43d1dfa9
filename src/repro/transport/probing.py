"""TCP-SYN probing ("TCP ping").

Apple's servers drop ICMP, so the paper measures network latency by running
TCP pings between the WiFi APs and the servers (Sec. 3.2).  Here a
:class:`TcpPingResponder` answers SYNs with SYN-ACKs like a listening
socket, and :func:`tcp_ping` measures the SYN → SYN-ACK round trip through
the full simulated path (shapers, AP queues, wide-area core).
"""

from __future__ import annotations

from typing import List

from repro.checks import at_least
from repro.netsim.engine import Simulator
from repro.netsim.node import Host
from repro.netsim.packet import IPPROTO_TCP, Packet

#: TCP flag bytes carried in the probe payloads (symbolic, not a full TCP
#: implementation — only the handshake's timing matters here).
SYN = b"SYN"
SYNACK = b"SYN-ACK"

#: Port the responders listen on; the paper probes the HTTPS-ish service
#: ports the VCA servers expose.
PROBE_PORT = 443


class TcpPingResponder:
    """Attach to a host to make it answer TCP pings on ``port``."""

    def __init__(self, host: Host, port: int = PROBE_PORT) -> None:
        self.host = host
        self.port = port
        self.probes_answered = 0
        host.bind(port, self._on_syn)

    def _on_syn(self, packet: Packet) -> None:
        if packet.payload != SYN:
            return  # not a probe; ignore like a half-open filter would
        reply = packet.reply_shell(payload=SYNACK)
        reply.meta["probe_id"] = packet.meta.get("probe_id")
        self.probes_answered += 1
        self.host.send(reply)


def tcp_ping(
    sim: Simulator,
    client: Host,
    server_address: str,
    count: int = 5,
    interval_s: float = 0.2,
    client_port: int = 52000,
    server_port: int = PROBE_PORT,
    timeout_s: float = 5.0,
) -> List[float]:
    """Measure SYN → SYN-ACK RTTs from ``client`` to ``server_address``.

    Schedules ``count`` probes, runs the simulator until they have all been
    answered (or timed out), and returns the RTTs in milliseconds.

    The caller must not have bound ``client_port`` on the client already.
    """
    at_least(count, 1, "count")
    send_times = {}
    rtts_ms: List[float] = []

    def on_reply(packet: Packet) -> None:
        probe_id = packet.meta.get("probe_id")
        if packet.payload == SYNACK and probe_id in send_times:
            rtts_ms.append((sim.now - send_times.pop(probe_id)) * 1000.0)

    client.bind(client_port, on_reply)

    def send_probe(probe_id: int) -> None:
        probe = Packet(
            src=client.address,
            dst=server_address,
            src_port=client_port,
            dst_port=server_port,
            protocol=IPPROTO_TCP,
            payload=SYN,
            meta={"probe_id": probe_id},
        )
        send_times[probe_id] = sim.now
        client.send(probe)

    start = sim.now
    for i in range(count):
        sim.schedule(i * interval_s, lambda probe_id=i: send_probe(probe_id))
    sim.run(until=start + count * interval_s + timeout_s)
    client.unbind(client_port)
    return rtts_ms
