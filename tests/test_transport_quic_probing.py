"""Simplified QUIC and TCP-ping probing."""

import pytest
from hypothesis import given, strategies as st

from repro.geo.regions import city
from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.transport.probing import TcpPingResponder, tcp_ping
from repro.transport.quic import (
    CONNECTION_ID_BYTES,
    QUIC_MAX_PAYLOAD,
    QuicConnection,
    _keystream,
    is_quic_datagram,
    parse_header,
)


def make_conn(secret=b"s" * 16):
    return QuicConnection(b"conn0001", secret)


class TestQuicFraming:
    def test_short_header_recognized(self):
        conn = make_conn()
        datagram = conn.protect_frame(b"payload")[0]
        assert is_quic_datagram(datagram)
        header = parse_header(datagram)
        assert not header.long_form
        assert header.dcid == b"conn0001"

    def test_long_header_recognized(self):
        conn = make_conn()
        initial = conn.initial_packet()
        header = parse_header(initial)
        assert header.long_form
        assert header.packet_type == 0  # Initial

    def test_handshake_completes_connection(self):
        conn = make_conn()
        assert not conn.handshake_complete
        conn.handshake_packet()
        assert conn.handshake_complete

    def test_packet_numbers_increase(self):
        conn = make_conn()
        a = parse_header(conn.protect_frame(b"x")[0]).packet_number
        b = parse_header(conn.protect_frame(b"y")[0]).packet_number
        assert b == a + 1

    def test_bad_dcid_length_rejected(self):
        with pytest.raises(ValueError):
            QuicConnection(b"short", b"secret")

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError):
            make_conn().protect_frame(b"")

    def test_large_frame_fragments(self):
        conn = make_conn()
        frame = b"z" * (QUIC_MAX_PAYLOAD + 100)
        datagrams = conn.protect_frame(frame)
        assert len(datagrams) == 2

    def test_non_quic_bytes_rejected(self):
        with pytest.raises(ValueError):
            parse_header(b"\x80" + b"\x00" * 20)  # RTP-looking


class TestQuicProtection:
    def test_roundtrip(self):
        sender = make_conn()
        receiver = make_conn()
        datagram = sender.protect_frame(b"secret payload")[0]
        assert receiver.unprotect(datagram) == b"secret payload"

    def test_ciphertext_differs_from_plaintext(self):
        conn = make_conn()
        datagram = conn.protect_frame(b"secret payload!!")[0]
        assert b"secret" not in datagram

    def test_wrong_secret_garbles(self):
        sender = make_conn(secret=b"a" * 16)
        eavesdropper = make_conn(secret=b"b" * 16)
        datagram = sender.protect_frame(b"secret payload")[0]
        assert eavesdropper.unprotect(datagram) != b"secret payload"

    def test_wrong_dcid_rejected(self):
        sender = make_conn()
        other = QuicConnection(b"conn0002", b"s" * 16)
        datagram = sender.protect_frame(b"x")[0]
        with pytest.raises(ValueError):
            other.unprotect(datagram)

    @given(st.binary(min_size=1, max_size=3000),
           st.integers(min_value=0, max_value=2**64 - 1))
    def test_xor_matches_bytewise_reference(self, data, nonce):
        """The big-int XOR gives the per-byte loop's bytes, leading zero
        bytes and all."""
        conn = make_conn()
        stream = _keystream(conn._secret, nonce, len(data))
        reference = bytes(a ^ b for a, b in zip(data, stream))
        assert conn._xor(nonce, data) == reference
        assert conn._xor(nonce, stream) == bytes(len(data))

    @given(st.binary(min_size=1, max_size=3000))
    def test_roundtrip_property(self, frame):
        sender = make_conn()
        receiver = make_conn()
        rebuilt = b"".join(
            receiver.unprotect(d) for d in sender.protect_frame(frame)
        )
        assert rebuilt == frame


class TestTcpPing:
    def _testbed(self):
        sim = Simulator()
        network = Network(sim)
        client = Host("10.0.0.2", city("san jose"), name="client")
        server = Host("17.100.0.1", city("washington"), name="server")
        network.attach(client)
        network.attach(server)
        TcpPingResponder(server)
        return sim, network, client, server

    def test_rtt_matches_path_model(self):
        sim, network, client, server = self._testbed()
        rtts = tcp_ping(sim, client, server.address, count=3)
        expected = 2 * network.one_way_delay_s(
            client.address, server.address
        ) * 1000
        assert len(rtts) == 3
        for rtt in rtts:
            assert rtt == pytest.approx(expected, rel=0.1)

    def test_responder_counts_probes(self):
        sim, network, client, server = self._testbed()
        responder = TcpPingResponder(server, port=8443)
        tcp_ping(sim, client, server.address, count=4, server_port=8443,
                 client_port=52001)
        assert responder.probes_answered == 4

    def test_invalid_count_rejected(self):
        sim, network, client, server = self._testbed()
        with pytest.raises(ValueError):
            tcp_ping(sim, client, server.address, count=0)

    def test_non_probe_payload_ignored(self):
        sim, network, client, server = self._testbed()
        from repro.netsim.packet import IPPROTO_TCP, Packet

        client.bind(52000, lambda p: None)
        client.send(Packet(client.address, server.address, 52000, 443,
                           IPPROTO_TCP, b"GET / HTTP/1.1"))
        sim.run()
        # No SYN-ACK generated for non-SYN payloads.
        assert client.inbox == []
        client.unbind(52000)
