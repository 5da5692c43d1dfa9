"""Columnar captures, the one window kernel, and the trace file format.

A :class:`~repro.netsim.capture.PacketCapture` stores typed columns and
builds :class:`~repro.netsim.capture.CapturedPacket` records only on
request; every throughput window comes from
:func:`~repro.netsim.capture.window_mbps`.  These tests hold both to a
per-record reference kept here, pin the binary trace format to a digest,
and check that bad window parameters fail at the kernel with the
parameter's name, whichever caller passed them.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.patterns import segment_bursts
from repro.analysis.throughput import (
    cohort_throughput_windows_mbps,
    mean_throughput_mbps,
    throughput_windows_mbps,
)
from repro.netsim.capture import (
    CapturedPacket,
    Direction,
    PacketCapture,
    window_mbps,
)
from repro.netsim.packet import IPPROTO_TCP, IPPROTO_UDP
from repro.netsim.trace import load_trace, save_trace
from repro.vca.cohort import sfu_cohort_downlink

HOST = "10.0.0.2"
PEERS = ("10.0.1.2", "10.0.2.2", "17.253.4.125")


def capture_of(records, host=HOST):
    capture = PacketCapture(host)
    for record in records:
        capture.append(record)
    return capture


def reference_windows(records, direction, window_s, peer, skip_head_s):
    """The per-record loop every window computation must equal."""
    selected = []
    for rec in records:
        if rec.direction is not direction:
            continue
        other = rec.dst if rec.direction is Direction.UPLINK else rec.src
        if peer is not None and other != peer:
            continue
        selected.append(rec)
    if not selected:
        return []
    start = selected[0].timestamp + skip_head_s
    end = selected[-1].timestamp
    if end <= start:
        return []
    n_windows = int((end - start) / window_s)
    if n_windows < 1:
        return []
    sums = np.zeros(n_windows)
    for rec in selected:
        if rec.timestamp < start:
            continue  # int() truncates toward zero; guard the head
        index = int((rec.timestamp - start) / window_s)
        if index < n_windows:
            sums[index] += rec.wire_bytes
    return list(sums * 8.0 / window_s / 1e6)


def record(timestamp, up, remote, wire, protocol=IPPROTO_UDP, snap=b""):
    if up:
        return CapturedPacket(timestamp, Direction.UPLINK, wire, HOST, remote,
                              50000, 443, protocol, snap)
    return CapturedPacket(timestamp, Direction.DOWNLINK, wire, remote, HOST,
                          443, 50000, protocol, snap)


_streams = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        st.booleans(),
        st.sampled_from(PEERS),
        st.integers(min_value=1, max_value=65535),
    ),
    max_size=300,
).map(lambda rows: [record(t, up, remote, wire)
                    for t, up, remote, wire in sorted(rows)])


class TestWindowKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        records=_streams,
        direction=st.sampled_from(list(Direction)),
        peer=st.sampled_from((None,) + PEERS),
        window_s=st.floats(min_value=0.01, max_value=5.0),
        skip_head_s=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_kernel_matches_per_record_loop(self, records, direction, peer,
                                            window_s, skip_head_s):
        capture = capture_of(records)
        want = reference_windows(records, direction, window_s, peer,
                                 skip_head_s)
        got = throughput_windows_mbps(capture, direction, window_s, peer,
                                      skip_head_s)
        assert got == want
        timestamps, wire = capture.series(direction, peer)
        assert window_mbps(timestamps, wire, window_s, skip_head_s) == want
        assert cohort_throughput_windows_mbps(
            [capture, capture_of(records[::2])], direction, window_s, peer,
            skip_head_s) == [want, reference_windows(
                records[::2], direction, window_s, peer, skip_head_s)]

    def test_whole_windows_only(self):
        # 0.0 .. 3.5 s at 1 kB per 0.25 s: head ends at 1.0, 2 whole windows.
        timestamps = np.arange(15) * 0.25
        wire = np.full(15, 1000)
        assert window_mbps(timestamps, wire, 1.0, 1.0) == [0.032, 0.032]
        assert window_mbps(timestamps[:8], wire[:8], 1.0, 1.0) == []
        assert window_mbps(np.empty(0), np.empty(0), 1.0, 1.0) == []


class TestWindowParameters:
    """Bad window parameters fail at the kernel, naming the parameter."""

    CAPTURE = capture_of(record(0.01 * i, True, PEERS[0], 1200)
                         for i in range(500))

    @pytest.mark.parametrize("window_s", [math.nan, 0.0, -1.0, math.inf])
    def test_window_rejected_by_every_caller(self, window_s):
        with pytest.raises(ValueError, match="window_s"):
            throughput_windows_mbps(self.CAPTURE, Direction.UPLINK, window_s)
        with pytest.raises(ValueError, match="window_s"):
            cohort_throughput_windows_mbps([self.CAPTURE], Direction.UPLINK,
                                           window_s)
        with pytest.raises(ValueError, match="window_s"):
            sfu_cohort_downlink(2, 3.0, pool_library=1, window_s=window_s)

    @pytest.mark.parametrize("skip_head_s", [math.nan, -5.0, math.inf])
    def test_head_skip_rejected_by_every_caller(self, skip_head_s):
        with pytest.raises(ValueError, match="skip_head_s"):
            throughput_windows_mbps(self.CAPTURE, Direction.UPLINK,
                                    skip_head_s=skip_head_s)
        with pytest.raises(ValueError, match="skip_head_s"):
            cohort_throughput_windows_mbps([self.CAPTURE], Direction.UPLINK,
                                           skip_head_s=skip_head_s)
        with pytest.raises(ValueError, match="skip_head_s"):
            sfu_cohort_downlink(2, 3.0, pool_library=1,
                                skip_head_s=skip_head_s)

    def test_empty_capture_still_checks(self):
        with pytest.raises(ValueError, match="window_s"):
            throughput_windows_mbps(PacketCapture(HOST), Direction.UPLINK,
                                    math.nan)

    def test_mean_throughput_rejects_nan_duration(self):
        with pytest.raises(ValueError, match="duration_s"):
            mean_throughput_mbps(self.CAPTURE, Direction.UPLINK, math.nan)

    def test_burst_segmentation_rejects_nan_gap(self):
        frames = [record(i / 90 + j * 1e-4, True, PEERS[0], 1200)
                  for i in range(90) for j in range(3)]
        assert len(segment_bursts(frames)) == 90
        with pytest.raises(ValueError, match="gap_s"):
            segment_bursts(frames, gap_s=math.nan)


class TestColumns:
    def test_records_is_a_tuple(self):
        capture = capture_of([record(0.0, True, PEERS[0], 100)])
        with pytest.raises(AttributeError):
            capture.records.append(record(1.0, True, PEERS[0], 100))
        assert len(capture.records) == 1

    def test_append_round_trips(self):
        records = tuple(TRACE_RECORDS)
        capture = capture_of(records)
        assert capture.records == records
        for got, want in zip(capture.records, records):
            assert type(got.timestamp) is float
            assert type(got.wire_bytes) is int
            assert got.direction is want.direction
        assert capture.filter(direction=Direction.UPLINK) == [
            r for r in records if r.direction is Direction.UPLINK]
        assert capture.filter(peer=SERVER) == [
            r for r in records if SERVER in (r.src, r.dst)]
        assert capture.filter(protocol=IPPROTO_TCP) == [
            r for r in records if r.protocol == IPPROTO_TCP]
        assert capture.total_bytes() == sum(r.wire_bytes for r in records)
        assert capture.total_bytes(Direction.DOWNLINK) == sum(
            r.wire_bytes for r in records if r.direction is Direction.DOWNLINK)
        assert capture.duration() == records[-1].timestamp
        capture.clear()
        assert capture.records == ()
        assert capture.duration() == 0.0

    def test_series_is_a_copy(self):
        capture = capture_of([record(0.0, True, PEERS[0], 100)])
        timestamps, wire = capture.series(Direction.UPLINK)
        capture.append(record(1.0, True, PEERS[0], 200))
        assert timestamps.tolist() == [0.0] and wire.tolist() == [100]
        assert capture.series(Direction.UPLINK)[1].tolist() == [100, 200]
        assert capture.series(Direction.UPLINK, PEERS[1])[0].size == 0


# ----------------------------------------------------------------------
# The binary trace format
# ----------------------------------------------------------------------

SERVER = "17.253.4.125"
PEER = "192.168.7.9"
_UP = (HOST, SERVER, 50123, 443, IPPROTO_UDP)
_DOWN = (SERVER, HOST, 443, 50123, IPPROTO_UDP)
_TCP = (PEER, HOST, 8080, 40000, IPPROTO_TCP)

#: Both directions, three flows, snaps of 0, 7 and 64 bytes.
TRACE_RECORDS = [
    CapturedPacket(t, d, wire, *flow, snap) for t, d, wire, flow, snap in (
        (0.0, Direction.UPLINK, 1228, _UP, bytes(range(64))),
        (1.0 / 3.0, Direction.DOWNLINK, 35, _DOWN,
         b"\x40\x01\x02\x03\x04\x05\x06"),
        (0.5, Direction.DOWNLINK, 60, _TCP, b""),
        (2.0 / 3.0, Direction.UPLINK, 92, _UP,
         b"\xc0\x00\x00\x00\x01\x08\x00"),
        (1.25, Direction.DOWNLINK, 1500, _DOWN,
         bytes(range(200, 256)) + bytes(8)),
        (1e6 + 0.1, Direction.DOWNLINK, 40, _TCP, b"\x17" * 7),
    )
]

#: sha256 of the file ``save_trace`` writes for TRACE_RECORDS (325 bytes),
#: recorded with the record-list capture that preceded the columns.
TRACE_SHA256 = (
    "bcc87eec759bb5b96259bdd2e7e1cd08e35004135c760bf1c16ba739e5b7ade9")


class TestTraceFormat:
    def test_saved_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "pinned.rptr"
        save_trace(capture_of(TRACE_RECORDS), path)
        data = path.read_bytes()
        assert len(data) == 325
        assert hashlib.sha256(data).hexdigest() == TRACE_SHA256

    def test_load_then_save_gives_the_same_bytes(self, tmp_path):
        first, second = tmp_path / "a.rptr", tmp_path / "b.rptr"
        save_trace(capture_of(TRACE_RECORDS), first)
        loaded = load_trace(first)
        save_trace(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    def test_loaded_records_equal_the_originals(self, tmp_path):
        path = tmp_path / "t.rptr"
        save_trace(capture_of(TRACE_RECORDS), path)
        loaded = load_trace(path)
        assert loaded.host_address == HOST
        assert loaded.records == tuple(TRACE_RECORDS)
