"""Coverage for behaviours the focused suites leave untested."""

import numpy as np
import pytest

from repro.core.testbed import default_two_user_testbed
from repro.geo.regions import city
from repro.netsim.capture import Direction
from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.shaper import TrafficShaper
from repro.vca.media import LayeredSemanticSource, MEDIA_PORT
from repro.vca.profiles import FACETIME, WEBEX


class TestSessionDeterminism:
    def test_same_seed_same_traffic(self):
        def run(seed):
            result = default_two_user_testbed().session(
                FACETIME, seed=seed, captures=("U1",)
            ).run(4.0)
            cap = result.capture_of("U1")
            return (
                len(cap.records),
                cap.total_bytes(Direction.UPLINK),
            )

        assert run(7) == run(7)

    def test_different_seed_different_payload_sizes(self):
        def sizes(seed):
            result = default_two_user_testbed().session(
                WEBEX, seed=seed, captures=("U1",)
            ).run(3.0)
            return [
                r.wire_bytes
                for r in result.capture_of("U1").filter(
                    direction=Direction.UPLINK
                )
            ][:50]

        assert sizes(1) != sizes(2)


class TestLayeredSource:
    def _run(self, layer, duration=2.0):
        from repro.keypoints.layered import Layer

        sim = Simulator()
        network = Network(sim)
        a = Host("10.0.0.2", city("san jose"))
        b = Host("10.0.1.2", city("dallas"))
        network.attach(a)
        network.attach(b)
        b.bind(MEDIA_PORT, lambda p: None)
        capture = network.start_capture(a.address)
        source = LayeredSemanticSource(b"k" * 32, layer, seed=0, pool_size=32)
        source.attach(sim, a, b.address)
        sim.run(until=duration)
        return capture.total_bytes(Direction.UPLINK) * 8 / duration / 1e6

    def test_layer_rates_ordered_on_the_wire(self):
        from repro.keypoints.layered import Layer

        base = self._run(Layer.BASE)
        standard = self._run(Layer.STANDARD)
        full = self._run(Layer.FULL)
        assert base < standard < full
        assert base < 0.3
        assert full < 0.8

    def test_pool_validation(self):
        from repro.keypoints.layered import Layer

        with pytest.raises(ValueError):
            LayeredSemanticSource(b"k", Layer.BASE, pool_size=0)


class TestShaperCombinations:
    def test_delay_plus_rate_limit(self):
        sim = Simulator()
        network = Network(sim)
        a = Host("10.0.0.2", city("san jose"))
        b = Host("10.0.1.2", city("dallas"))
        network.attach(a)
        network.attach(b)
        arrivals = []
        b.bind(5000, lambda p: arrivals.append(sim.now))
        shaper = TrafficShaper(rate_bps=1e6, delay_ms=100.0)
        network.set_uplink_shaper(a.address, shaper)
        from repro.netsim.packet import IPPROTO_UDP, Packet

        a.send(Packet(a.address, b.address, 4000, 5000, IPPROTO_UDP,
                      b"x" * 500))
        sim.run()
        base = network.one_way_delay_s(a.address, b.address)
        # serialization at 1 Mbps (~4.2 ms) + 100 ms netem + core path.
        assert arrivals[0] == pytest.approx(base + 0.1 + 0.0042, abs=0.01)

    def test_shaper_queue_preserves_order(self):
        sim = Simulator()
        network = Network(sim)
        a = Host("10.0.0.2", city("san jose"))
        b = Host("10.0.1.2", city("dallas"))
        network.attach(a)
        network.attach(b)
        seen = []
        b.bind(5000, lambda p: seen.append(p.meta["n"]))
        network.set_uplink_shaper(a.address, TrafficShaper(rate_bps=2e5))
        from repro.netsim.packet import IPPROTO_UDP, Packet

        for n in range(10):
            a.send(Packet(a.address, b.address, 4000, 5000, IPPROTO_UDP,
                          b"x" * 200, meta={"n": n}))
        sim.run()
        assert seen == sorted(seen)


class TestExperimentFormatting:
    def test_rate_adaptation_table_columns(self):
        from repro.experiments import rate_adaptation

        result = rate_adaptation.run(limits_kbps=(1000.0, 500.0),
                                     duration_s=4.0)
        table = result.format_table()
        assert "offered_mbps" in table
        assert table.count("\n") == 2

    def test_fig6_tables_render(self):
        from repro.experiments import fig6

        rendering = fig6.run_rendering(duration_s=5.0, repeats=1)
        assert "users" in rendering.format_table()
        network = fig6.run_network(duration_s=4.0, repeats=1)
        assert "downlink" in network.format_table()

    def test_layered_table_shows_missing_layer(self):
        from repro.experiments import ablations

        result = ablations.run_layered_codec(
            limits_kbps=(100.0,), duration_s=2.0
        )
        assert "-" in result.format_table()

    def test_fec_table_shows_overhead(self):
        from repro.experiments import ablations

        result = ablations.run_fec_resilience(
            loss_rates=(0.02,), duration_s=2.0
        )
        assert "overhead 25%" in result.format_table()

    def test_framerate_table(self):
        from repro.experiments import framerate

        result = framerate.run(duration_s=3.0, include_over_cap=False)
        table = result.format_table()
        assert "effective_fps" in table
        assert not result.cap_is_justified()  # no 6-user row measured

    def test_qoe_table(self):
        from repro.experiments import qoe_study

        table = qoe_study.format_table(qoe_study.run())
        assert "one-way" in table


class TestGeoEdgeCases:
    def test_geodb_register_servers_iterable(self):
        from repro.geo.geolocate import GeoDatabase
        from repro.geo.servers import ALL_FLEETS

        db = GeoDatabase()
        db.register_servers(ALL_FLEETS["Zoom"].servers)
        for server in ALL_FLEETS["Zoom"].servers:
            assert db.lookup(server.address) is not None

    def test_traceroute_format_marks_final_hop(self):
        from repro.geo.traceroute import TcpTraceroute

        tracer = TcpTraceroute(drop_prob=0.0)
        hops = tracer.run(city("dallas"), city("chicago"), seed=0)
        output = tracer.format_output(hops)
        assert "dst-access-2" in output

    def test_link_utilization_grows_with_traffic(self):
        from repro.netsim.link import Link
        from repro.netsim.packet import IPPROTO_UDP, Packet

        sim = Simulator()
        link = Link(rate_bps=8e6)
        for _ in range(5):
            link.transmit(sim, Packet("a", "b", 1, 2, IPPROTO_UDP,
                                      b"x" * 972), lambda p: None)
        sim.run()
        assert link.utilization(sim.now) == pytest.approx(1.0, abs=0.05)


class TestCliRateAndReportPaths:
    def test_rate_cli_runs_quickly(self, capsys):
        from repro.cli import main

        assert main(["rate", "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "cutoff" in out

    def test_report_writes_file(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "r.md"
        assert main(["report", "--quick", "--output", str(out_file)]) == 0
        text = out_file.read_text()
        assert "# Reproduction report" in text
        assert "Table 1" in text
        assert "Ablations" in text
