#!/usr/bin/env python3
"""Infer what an encrypted telepresence stream carries — without decrypting.

Sec. 5 of the paper: the spatial persona is end-to-end encrypted, so
content decryption is impractical; "analyzing IP headers and packet
transmission patterns may help better understand the delivered content".
This example does exactly that.  It captures three kinds of session at the
AP, splits flows by 5-tuple, and classifies each stream purely from sizes
and timing — then cross-checks the RTP sessions' loss via cleartext
sequence numbers.
"""

from repro.analysis.patterns import (
    classify_content,
    estimate_rtp_loss,
    largest_flow,
    profile_records,
)
from repro.core.testbed import default_two_user_testbed
from repro.geo.regions import city
from repro.netsim.capture import Direction
from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.shaper import TrafficShaper
from repro.vca.media import MeshSource
from repro.vca.profiles import FACETIME, WEBEX, ZOOM


def show(label: str, records) -> None:
    profile = profile_records(largest_flow(records))
    verdict = classify_content(profile)
    print(f"{label:28s} {profile.estimated_fps:5.1f} fps  "
          f"{profile.mean_frame_bytes:8.0f} B/frame  "
          f"cv={profile.frame_size_cv:.2f}  "
          f"{profile.mean_packets_per_frame:5.1f} pkt/frame  "
          f"-> {verdict.value}")


def main() -> None:
    print("pattern-level classification (no payload bytes inspected):\n")

    spatial = default_two_user_testbed().session(
        FACETIME, seed=0, captures=("U1",)).run(8.0)
    show("FaceTime spatial (QUIC)",
         spatial.capture_of("U1").filter(direction=Direction.UPLINK))

    video = default_two_user_testbed().session(
        WEBEX, seed=0, captures=("U1",)).run(8.0)
    show("Webex 2D video (RTP)",
         video.capture_of("U1").filter(direction=Direction.UPLINK))

    sim = Simulator()
    network = Network(sim)
    sender = Host("10.0.0.2", city("san jose"))
    sink = Host("10.0.1.2", city("dallas"))
    network.attach(sender)
    network.attach(sink)
    sink.bind(40000, lambda p: None)
    capture = network.start_capture(sender.address)
    MeshSource(seed=0).attach(sim, sender, sink.address)
    sim.run(until=1.0)
    show("hypothetical Draco mesh",
         capture.filter(direction=Direction.UPLINK))

    print("\nRTP loss inference from cleartext sequence numbers:")
    session = default_two_user_testbed().session(ZOOM, seed=1,
                                                  captures=("U1",))
    session.shape_uplink("U2", TrafficShaper(loss=0.06, seed=7))
    result = session.run(8.0)
    estimate = estimate_rtp_loss(
        result.capture_of("U1").filter(direction=Direction.DOWNLINK)
    )
    print(f"  injected loss 6.0% -> inferred {estimate.loss_rate:.1%} "
          f"({estimate.received}/{estimate.expected} packets seen)")


if __name__ == "__main__":
    main()
