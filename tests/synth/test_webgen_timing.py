"""Timing-semantics tests for the Web generator's TCP model."""

import pytest

from repro.flows.assembler import assemble_flows
from repro.flows.model import Direction
from repro.synth.webgen import WebTrafficConfig, WebTrafficGenerator


def single_simple_flow(seed=1):
    config = WebTrafficConfig(
        duration=0.5, flow_rate=4.0, seed=seed,
        aborted_prob=0.0, persistent_prob=0.0,
    )
    trace = WebTrafficGenerator(config).generate()
    flows = assemble_flows(trace.packets)
    assert flows, "expected at least one flow in 0.5s at 4 flows/s"
    return flows[0]


class TestHandshakeTiming:
    def test_syn_synack_gap_is_rtt(self):
        flow = single_simple_flow()
        rtt = flow.packets[1].timestamp - flow.packets[0].timestamp
        ack_gap = flow.packets[2].timestamp - flow.packets[1].timestamp
        # SYN->SYN+ACK and SYN+ACK->ACK both take one RTT.
        assert rtt == pytest.approx(ack_gap, rel=1e-6)
        assert rtt >= 0.002

    def test_request_rides_behind_handshake(self):
        flow = single_simple_flow()
        gap = flow.packets[3].timestamp - flow.packets[2].timestamp
        assert gap == pytest.approx(0.0002, abs=1e-9)


class TestSlowStart:
    def test_bursts_double(self):
        flow = single_simple_flow(seed=11)
        # Collect the server-side data bursts: runs of s2c data packets.
        burst_sizes = []
        current = 0
        for flow_packet in flow.packets:
            is_data = (
                flow_packet.direction is Direction.SERVER_TO_CLIENT
                and flow_packet.payload_len > 1000
            )
            if is_data:
                current += 1
            elif current:
                burst_sizes.append(current)
                current = 0
        if current:
            burst_sizes.append(current)
        if len(burst_sizes) >= 3:
            # cwnd doubles: 2, 4, 8 ... until remaining or cap.
            assert burst_sizes[0] == 2
            assert burst_sizes[1] in (3, 4)

    def test_acks_follow_one_rtt_after_burst(self):
        flow = single_simple_flow(seed=11)
        packets = flow.packets
        rtt = packets[1].timestamp - packets[0].timestamp
        # First data packet is packets[4]; the client ACK that answers
        # the first burst must trail its burst start by >= one RTT.
        first_data_index = next(
            i for i, fp in enumerate(packets)
            if fp.direction is Direction.SERVER_TO_CLIENT and fp.payload_len > 1000
        )
        following_ack_index = next(
            i for i, fp in enumerate(packets[first_data_index:], first_data_index)
            if fp.direction is Direction.CLIENT_TO_SERVER and fp.payload_len == 0
        )
        delay = (
            packets[following_ack_index].timestamp
            - packets[first_data_index].timestamp
        )
        assert delay == pytest.approx(rtt, rel=0.2)


class TestFlowDurationModel:
    def test_decompression_timing_within_factor(self, small_web_trace):
        """The paper's RTT model stretches flows; the stretch must stay
        bounded (the slow-start generator keeps it ~2x)."""
        from repro.api import roundtrip
        from repro.flows.assembler import assemble_flows as assemble

        decompressed, _ = roundtrip(small_web_trace)
        original_flows = assemble(small_web_trace.packets)
        decompressed_flows = assemble(decompressed.packets)
        original_mean = sum(f.duration() for f in original_flows) / len(
            original_flows
        )
        decompressed_mean = sum(f.duration() for f in decompressed_flows) / len(
            decompressed_flows
        )
        assert decompressed_mean < 3.0 * original_mean
