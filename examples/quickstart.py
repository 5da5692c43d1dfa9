#!/usr/bin/env python3
"""Quickstart: run one immersive FaceTime session and inspect it.

Builds the paper's Fig. 3 testbed (two Vision Pro users behind their own
WiFi APs), places a FaceTime call, and prints what the paper's tooling
would observe: negotiated protocol, persona kind, selected relay server,
uplink/downlink throughput at U1's AP, and the receiver-side persona
availability.
"""

from repro.analysis import classify_capture, throughput_summary
from repro.core import default_two_user_testbed
from repro.netsim import Direction
from repro.vca import FACETIME


def main() -> None:
    testbed = default_two_user_testbed()  # U1 in San Jose, U2 in Dallas
    session = testbed.session(FACETIME, seed=0, captures=("U1",))
    print(f"persona kind : {session.persona_kind.value}")
    print(f"protocol     : {session.protocol.value}")
    print(f"p2p          : {session.p2p}")
    print(f"relay server : {session.server.location.name} "
          f"({session.server.vca}/{session.server.label})")

    result = session.run(duration_s=30.0)

    capture = result.capture_of("U1")
    up = throughput_summary(capture, Direction.UPLINK)
    down = throughput_summary(capture, Direction.DOWNLINK)
    print(f"\nU1 uplink    : {up.mean:.2f} Mbps "
          f"(p5 {up.p5:.2f} / p95 {up.p95:.2f})")
    print(f"U1 downlink  : {down.mean:.2f} Mbps")

    report = classify_capture(capture)
    print(f"classifier   : {report.dominant} "
          f"({report.quic_packets} QUIC / {report.rtp_packets} RTP packets)")

    receiver = result.receiver_of("U2")
    u1_address = result.addresses["U1"]
    stats = receiver.stats[u1_address]
    print(f"\nU2 sees U1's persona at {stats.delivered_fps():.1f} FPS "
          f"(availability {stats.availability():.1%}, "
          f"poor connection: {stats.poor_connection()})")


if __name__ == "__main__":
    main()
