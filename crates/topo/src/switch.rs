//! The store-and-forward switch shape: every host on one `Switch` node
//! with a dedicated full-duplex port, the form the protocol stack's
//! switched counterfactual (DESIGN.md §8) compiles to. These tests pin
//! the switch discipline on the compiled fabric: two serialized
//! transmissions plus forwarding latency per frame, no shared medium,
//! FIFO output and input ports.

mod tests {
    use crate::{CompositeFabric, NodeKind, TopologySpec};
    use fxnet_sim::{EtherConfig, Frame, FrameKind, HostId, NicId, SimTime, RATE_10M};

    fn data(src: u32, dst: u32, payload: u32, token: u64) -> Frame {
        Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, payload, token)
    }

    fn fabric(n: u32) -> CompositeFabric {
        let spec = TopologySpec::one_node("switch", "sw0", NodeKind::Switch, n, RATE_10M);
        CompositeFabric::new(spec, &EtherConfig::default(), 1)
    }

    fn send(f: &mut CompositeFabric, frame: Frame, now: SimTime) {
        f.enqueue(NicId(frame.src.0), frame, now);
    }

    #[test]
    fn single_frame_latency_is_two_transmissions() {
        let mut f = fabric(2);
        send(&mut f, data(0, 1, 1460, 1), SimTime::ZERO);
        let out = f.run_to_idle();
        assert_eq!(out.len(), 1);
        // Store-and-forward: 2 × 1.2208 ms + 10 µs forwarding.
        assert_eq!(out[0].time, SimTime::from_nanos(2 * 1_220_800 + 10_000));
        // The forwarding latency is charged to queueing, so the meta
        // still sums to the elapsed time exactly.
        assert_eq!(out[0].meta.tx_ns, 2 * 1_220_800);
        assert_eq!(out[0].meta.queue_ns, 10_000);
    }

    #[test]
    fn disjoint_pairs_transfer_in_parallel() {
        let mut f = fabric(4);
        send(&mut f, data(0, 1, 1460, 1), SimTime::ZERO);
        send(&mut f, data(2, 3, 1460, 2), SimTime::ZERO);
        let out = f.run_to_idle();
        assert_eq!(out.len(), 2);
        // Both complete at the same instant: no shared-medium serialization.
        assert_eq!(out[0].time, out[1].time);
        assert_eq!(f.stats().collisions, 0);
    }

    #[test]
    fn output_port_contention_serializes() {
        let mut f = fabric(3);
        send(&mut f, data(0, 2, 1460, 1), SimTime::ZERO);
        send(&mut f, data(1, 2, 1460, 2), SimTime::ZERO);
        let out = f.run_to_idle();
        assert_eq!(out.len(), 2);
        let gap = out[1].time - out[0].time;
        // Second frame waits exactly one downlink transmission.
        assert_eq!(gap, data(0, 2, 1460, 0).tx_time(RATE_10M));
    }

    #[test]
    fn uplink_serializes_one_senders_frames() {
        let mut f = fabric(3);
        send(&mut f, data(0, 1, 1460, 1), SimTime::ZERO);
        send(&mut f, data(0, 2, 1460, 2), SimTime::ZERO);
        let out = f.run_to_idle();
        // Different destinations, same source: staggered by one uplink tx.
        let gap = out[1].time - out[0].time;
        assert_eq!(gap, data(0, 1, 1460, 0).tx_time(RATE_10M));
    }

    #[test]
    fn aggregate_throughput_exceeds_bus_line_rate() {
        // Two disjoint saturated pairs → ~2× the shared bus's capacity.
        let mut f = fabric(4);
        for i in 0..100u64 {
            send(&mut f, data(0, 1, 1460, i + 1), SimTime::ZERO);
            send(&mut f, data(2, 3, 1460, 101 + i), SimTime::ZERO);
        }
        let out = f.run_to_idle();
        let span = out.last().unwrap().time.as_secs_f64();
        let bytes: u64 = out.iter().map(|d| u64::from(d.frame.wire_len())).sum();
        let rate = bytes as f64 / span;
        assert!(rate > 2_000_000.0, "aggregate {rate:.0} B/s");
    }

    #[test]
    fn trace_captured_in_delivery_order() {
        let mut f = fabric(4);
        f.set_promiscuous(true);
        for i in 0..20u64 {
            send(
                &mut f,
                data((i % 3) as u32, 3, 500, i + 1),
                SimTime::from_micros(i * 37),
            );
        }
        f.run_to_idle();
        assert_eq!(f.trace().len(), 20);
        assert!(f.trace().windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(f.stats().frames_delivered, 20);
    }
}
