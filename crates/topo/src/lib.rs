//! fxnet-topo: declarative LAN topologies, the only fabric the protocol
//! stack drives.
//!
//! The measured testbed in the source paper is a single shared 10 Mb/s
//! Ethernet; its analysis, though, is parameterized on *provided
//! bandwidth*, and the natural next instrument is a LAN whose provided
//! bandwidth varies by where you stand: hosts behind different switches
//! see full port rate locally but contend on an oversubscribed trunk.
//! This crate describes such fabrics declaratively — hosts, shared-bus
//! collision domains, store-and-forward switches, routers, and
//! trunk/uplink links at 10/100/1000 Mb/s with per-link propagation
//! delay — and compiles the description into a [`CompositeFabric`] that
//! drives the existing `fxnet-sim` elements behind the same pull
//! interface the protocol stack already speaks. The paper's shared bus
//! and the switched counterfactual are one-node specs
//! ([`TopologySpec::one_node`]) compiled the same way.
//!
//! - [`spec`] — the topology graph ([`TopologySpec`]), validation, and
//!   BFS-derived forwarding tables, plus the canonical shapes the
//!   fabric bandwidth sweep exercises.
//! - [`fabric`] — the compiled [`CompositeFabric`]: per-segment
//!   [`EtherBus`](fxnet_sim::EtherBus) instances, per-trunk output
//!   queues on the calendar event queue, exact per-hop
//!   [`FrameMeta`](fxnet_sim::FrameMeta) accounting, and deterministic
//!   event ordering so traces are byte-identical at every shard count.
//! - [`partition`] — the shard [`Partition`]: contiguous host-balanced
//!   node blocks (one shard per switch subtree by default) and the cut
//!   trunks between them.
//! - [`shard`] — the [`ShardedFabric`]: a partition's scoped fabrics
//!   under one cooperative driver, byte-identical to the unscoped
//!   fabric at every shard count.

pub mod fabric;
pub mod partition;
pub mod shard;
pub mod spec;

#[cfg(test)]
mod switch;

pub use fabric::{CompositeFabric, NodeFlow};
pub use partition::Partition;
pub use shard::ShardedFabric;
pub use spec::{Node, NodeKind, TopologySpec, Trunk};

/// Cross-module equivalences: the sharded driver against its oracle, the
/// unscoped [`CompositeFabric`].
#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::{EtherConfig, Frame, FrameKind, FrameTap, HostId, NicId, SimTime, RATE_10M};
    use proptest::prelude::*;

    fn tcp(src: u32, dst: u32, payload: u32, token: u64) -> Frame {
        Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, payload, token)
    }

    fn specs() -> Vec<TopologySpec> {
        vec![
            TopologySpec::single_segment(4, RATE_10M),
            TopologySpec::two_switches_trunk(4, RATE_10M),
            TopologySpec::two_level_tree(4, RATE_10M),
            TopologySpec::routed_two_subnets(4, RATE_10M),
        ]
    }

    /// Drive an all-pairs burst load through whatever `enqueue` is given.
    fn offer(mut enqueue: impl FnMut(NicId, Frame, SimTime), hosts: u32, frames: u32) {
        for i in 0..frames {
            let src = i % hosts;
            let dst = (i + 1 + (i / hosts)) % hosts;
            let dst = if dst == src { (dst + 1) % hosts } else { dst };
            let f = tcp(src, dst, 120 + (i * 97) % 900, u64::from(i) + 1);
            let t = SimTime::from_micros(u64::from(i / hosts) * 450);
            enqueue(NicId(src), f, t);
        }
    }

    /// The headline invariant: the sharded pull loop reproduces the
    /// sequential fabric byte for byte — deliveries, promiscuous trace,
    /// MAC statistics, and per-node flows — at shard counts 1..4, on
    /// every sweep topology.
    #[test]
    fn pull_mode_matches_sequential_exactly() {
        let ether = EtherConfig::default();
        for spec in specs() {
            let mut seq = CompositeFabric::new(spec.clone(), &ether, 11);
            seq.set_promiscuous(true);
            offer(|nic, f, t| seq.enqueue(nic, f, t), 4, 32);
            let want = seq.run_to_idle();
            for shards in 1..=4usize {
                let mut fab = ShardedFabric::new(spec.clone(), &ether, 11, shards);
                fab.set_promiscuous(true);
                offer(|nic, f, t| fab.enqueue(nic, f, t), 4, 32);
                let got = fab.run_to_idle();
                let label = format!("{} @ {shards} shards", spec.label());
                assert_eq!(got, want, "{label}");
                assert_eq!(fab.trace(), seq.trace(), "{label}");
                assert_eq!(fab.stats(), seq.stats(), "{label}");
                assert_eq!(fab.flows(), seq.flows(), "{label}");
                assert_eq!(fab.violations(), 0, "{label}");
                assert!(fab.idle(), "{label}");
            }
        }
    }

    /// Merged link-sample series equal the sequential fabric's, label
    /// for label and bin for bin.
    #[test]
    fn link_stats_merge_matches_sequential() {
        let ether = EtherConfig::default();
        let spec = TopologySpec::two_switches_trunk(4, RATE_10M);
        let mut seq = CompositeFabric::new(spec.clone(), &ether, 9);
        seq.set_link_sampling(Some(1_000_000));
        offer(|nic, f, t| seq.enqueue(nic, f, t), 4, 36);
        seq.run_to_idle();
        let want = seq.take_link_stats().expect("sampling enabled");
        for shards in [1usize, 2] {
            let mut fab = ShardedFabric::new(spec.clone(), &ether, 9, shards);
            fab.set_link_sampling(Some(1_000_000));
            offer(|nic, f, t| fab.enqueue(nic, f, t), 4, 36);
            fab.run_to_idle();
            let got = fab.take_link_stats().expect("sampling enabled");
            assert_eq!(got.bin_ns, want.bin_ns);
            assert_eq!(got.links.len(), want.links.len());
            for ((gl, gs), (wl, ws)) in got.links.iter().zip(&want.links) {
                assert_eq!(gl, wl);
                assert_eq!(gs, ws, "{gl} @ {shards} shards");
            }
        }
    }

    /// A tap on the sharded fabric observes the same records, in the
    /// same order, as a tap on the sequential fabric.
    #[test]
    fn tap_order_matches_sequential() {
        use std::sync::{Arc, Mutex};
        let ether = EtherConfig::default();
        let spec = TopologySpec::two_level_tree(4, RATE_10M);
        let capture = |shards: Option<usize>| {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&seen);
            let tap: FrameTap = Box::new(move |r| sink.lock().unwrap().push(*r));
            match shards {
                None => {
                    let mut fab = CompositeFabric::new(spec.clone(), &ether, 3);
                    fab.set_tap(Some(tap));
                    offer(|nic, f, t| fab.enqueue(nic, f, t), 4, 24);
                    fab.run_to_idle();
                }
                Some(n) => {
                    let mut fab = ShardedFabric::new(spec.clone(), &ether, 3, n);
                    fab.set_tap(Some(tap));
                    offer(|nic, f, t| fab.enqueue(nic, f, t), 4, 24);
                    fab.run_to_idle();
                    assert!(fab.trace().is_empty(), "a tap alone captures nothing");
                }
            }
            let records = seen.lock().unwrap().clone();
            records
        };
        let want = capture(None);
        assert!(!want.is_empty());
        for n in [1usize, 2, 3] {
            assert_eq!(capture(Some(n)), want, "{n} shards");
        }
    }

    proptest! {
        /// Every cut-trunk crossing lands in the receiving shard's
        /// future — trunk wire time, propagation, and store-and-forward
        /// latency are all positive — so the cooperative driver never
        /// admits a late frame: zero violations for random offered loads
        /// on every multi-node topology.
        #[test]
        fn lookahead_never_violates_causality(
            seed in 0u64..1_000,
            frames in 1u32..48,
            shards in 1usize..5,
        ) {
            let ether = EtherConfig::default();
            for spec in [
                TopologySpec::two_switches_trunk(4, RATE_10M),
                TopologySpec::two_level_tree(4, RATE_10M),
                TopologySpec::routed_two_subnets(4, RATE_10M),
            ] {
                let mut fab = ShardedFabric::new(spec, &ether, seed, shards);
                offer(|nic, f, t| fab.enqueue(nic, f, t), 4, frames);
                fab.run_to_idle();
                prop_assert_eq!(fab.violations(), 0);
                prop_assert!(fab.idle());
            }
        }
    }
}
