"""repro — simulation-based reproduction of "A First Look at Immersive
Telepresence on Apple Vision Pro" (IMC 2024).

The package builds every substrate the paper's measurement study rests on
— a discrete-event network, RTP/QUIC transports, a geographic RTT model,
3D mesh and semantic keypoint codecs, a calibrated Vision Pro rendering
pipeline, and behavioural models of FaceTime/Zoom/Webex/Teams — and then
re-runs every table and figure of the paper on top of them.

Quick start::

    from repro.core import default_two_user_testbed
    from repro.vca import FACETIME
    from repro.analysis import throughput_summary
    from repro.netsim import Direction

    testbed = default_two_user_testbed()        # U1 + U2, both Vision Pro
    session = testbed.session(FACETIME, seed=0, captures=("U1",))
    result = session.run(duration_s=30)
    print(result.protocol)                      # Protocol.QUIC
    print(throughput_summary(result.capture_of("U1"), Direction.UPLINK))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every experiment.
"""

from repro import calibration

__version__ = "1.0.0"

__all__ = ["calibration", "__version__"]
