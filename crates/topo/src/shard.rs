//! The sharded fabric: one [`TopologySpec`] split by a [`Partition`]
//! into scoped [`CompositeFabric`] shards, each owning the segments,
//! switch ports, and calendar queue of its node block, exchanging frames
//! that cross cut trunks as `CrossFrame`s.
//!
//! The driver is cooperative and single-threaded: one event per
//! [`ShardedFabric::advance`], always on the shard whose next
//! [`EventKey`] is globally minimal, with crossings routed immediately.
//! Because every shard orders events by the explicit key, the merged
//! stream (deliveries, trace, taps, errors) is byte-identical at any
//! shard count, including one — which is the fabric the protocol stack
//! drives for every link shape.

use crate::fabric::{CompositeFabric, CrossFrame, NodeFlow};
use crate::partition::Partition;
use crate::spec::{NodeKind, TopologySpec};
use fxnet_sim::ethernet::Delivery;
use fxnet_sim::{
    EtherConfig, EtherStats, EventKey, Frame, FrameRecord, FrameTap, LinkStats, NicId, SimTime,
    TxError,
};

/// A [`CompositeFabric`] partitioned into scoped shards, behind the
/// same pull interface.
pub struct ShardedFabric {
    spec: TopologySpec,
    partition: Partition,
    shards: Vec<CompositeFabric>,
    /// Global fabric-entry stamp counter — one sequence across all
    /// shards, in driver enqueue order, exactly as the sequential fabric
    /// would assign.
    next_stamp: u64,
    promiscuous: bool,
    tap: Option<FrameTap>,
    trace: Vec<FrameRecord>,
    errors: Vec<(SimTime, Frame, TxError)>,
    errors_seen: Vec<usize>,
    crossings: Vec<CrossFrame>,
    violations: u64,
}

impl ShardedFabric {
    /// Compile `spec` into at most `shards` scoped shards (clamped by
    /// the partitioner). Every shard holds the full compiled topology —
    /// identical NIC layout and per-segment RNG streams — but only
    /// *owns* (and ever drives) the nodes of its block, so per-bus
    /// behavior is bit-identical to the sequential fabric's. A single
    /// shard owns everything and runs unscoped.
    ///
    /// # Panics
    /// If the spec fails [`TopologySpec::validate`].
    pub fn new(spec: TopologySpec, ether: &EtherConfig, seed: u64, shards: usize) -> ShardedFabric {
        let partition = Partition::new(&spec, shards);
        let built: Vec<CompositeFabric> = (0..partition.shards)
            .map(|s| {
                let mut fab = CompositeFabric::new(spec.clone(), ether, seed);
                if partition.shards > 1 {
                    fab.set_scope(partition.owned_mask(s));
                }
                fab
            })
            .collect();
        let n = built.len();
        ShardedFabric {
            spec,
            partition,
            shards: built,
            next_stamp: 0,
            promiscuous: false,
            tap: None,
            trace: Vec::new(),
            errors: Vec::new(),
            errors_seen: vec![0; n],
            crossings: Vec::new(),
            violations: 0,
        }
    }

    /// The node/host/trunk partition in effect.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Actual shard count after clamping.
    pub fn shard_count(&self) -> usize {
        self.partition.shards
    }

    /// Number of hosts on the LAN.
    pub fn host_count(&self) -> usize {
        self.spec.host_count()
    }

    /// Causality violations observed so far: crossings that arrived
    /// before the receiving shard's clock. Always zero — every cut-trunk
    /// hop lands strictly in the receiving shard's future.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    fn set_shard_promiscuous(&mut self) {
        let on = self.promiscuous || self.tap.is_some();
        for s in &mut self.shards {
            s.set_promiscuous(on);
        }
    }

    /// Enable the merged promiscuous capture.
    pub fn set_promiscuous(&mut self, on: bool) {
        self.promiscuous = on;
        self.set_shard_promiscuous();
    }

    /// Install (or remove) a live frame tap at the merged capture point.
    /// The tap observes records in global event order, exactly as the
    /// sequential fabric's tap would.
    pub fn set_tap(&mut self, tap: Option<FrameTap>) {
        self.tap = tap;
        self.set_shard_promiscuous();
    }

    /// Merged captured trace so far.
    pub fn trace(&self) -> &[FrameRecord] {
        &self.trace
    }

    /// Take ownership of the merged captured trace.
    pub fn take_trace(&mut self) -> Vec<FrameRecord> {
        std::mem::take(&mut self.trace)
    }

    /// Merged surfaced errors, in global event order, original tokens
    /// restored.
    pub fn errors(&self) -> &[(SimTime, Frame, TxError)] {
        &self.errors
    }

    /// Aggregate MAC statistics summed across shards (non-owned elements
    /// stay idle, so the sum equals the sequential fabric's).
    pub fn stats(&self) -> EtherStats {
        let mut total = EtherStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.frames_delivered += st.frames_delivered;
            total.bytes_delivered += st.bytes_delivered;
            total.collisions += st.collisions;
            total.backoffs += st.backoffs;
            total.frames_dropped += st.frames_dropped;
            total.busy_ns += st.busy_ns;
        }
        total
    }

    /// Per-node flow counters, summed across shards (each node's counts
    /// accumulate only on its owner).
    pub fn flows(&self) -> Vec<NodeFlow> {
        let mut merged = vec![NodeFlow::default(); self.spec.nodes.len()];
        for s in &self.shards {
            for (m, f) in merged.iter_mut().zip(s.flows()) {
                m.frames_in += f.frames_in;
                m.bytes_in += f.bytes_in;
                m.frames_out += f.frames_out;
                m.bytes_out += f.bytes_out;
            }
        }
        merged
    }

    /// Enable or disable passive per-link sampling on every shard.
    pub fn set_link_sampling(&mut self, bin_ns: Option<u64>) {
        for s in &mut self.shards {
            s.set_link_sampling(bin_ns);
        }
    }

    /// Merged per-link sample series: every label is taken from the
    /// shard responsible for it (the owner of the sending end of a trunk
    /// direction, of a segment, of a host's attachment node), so the
    /// merged stats equal the sequential fabric's.
    pub fn take_link_stats(&mut self) -> Option<LinkStats> {
        let per_shard: Vec<LinkStats> = self
            .shards
            .iter_mut()
            .map(CompositeFabric::take_link_stats)
            .collect::<Option<Vec<_>>>()?;
        // Responsibility list, in the fixed label order of
        // `CompositeFabric::take_link_stats`: trunk fwd/rev pairs, then
        // segments, then switch/router host ports (up and down).
        let mut resp = Vec::new();
        for t in &self.spec.trunks {
            resp.push(self.partition.node_shard[t.a]);
            resp.push(self.partition.node_shard[t.b]);
        }
        for (i, node) in self.spec.nodes.iter().enumerate() {
            if node.kind == NodeKind::Segment {
                resp.push(self.partition.node_shard[i]);
            }
        }
        for &node in &self.spec.attachments {
            if self.spec.nodes[node].kind != NodeKind::Segment {
                resp.push(self.partition.node_shard[node]);
                resp.push(self.partition.node_shard[node]);
            }
        }
        let bin_ns = per_shard[0].bin_ns;
        let mut columns: Vec<Vec<Option<(String, fxnet_sim::LinkSeries)>>> = per_shard
            .into_iter()
            .map(|s| s.links.into_iter().map(Some).collect())
            .collect();
        debug_assert!(columns.iter().all(|c| c.len() == resp.len()));
        let links = resp
            .iter()
            .enumerate()
            .map(|(j, &owner)| columns[owner][j].take().expect("label present"))
            .collect();
        Some(LinkStats { bin_ns, links })
    }

    /// Queue a frame from host `nic.0` at time `now`, assigning the next
    /// global fabric-entry stamp and routing to the owner shard.
    pub fn enqueue(&mut self, nic: NicId, frame: Frame, now: SimTime) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let s = self.partition.host_shard[nic.0 as usize];
        self.shards[s].enqueue_stamped(nic, frame, now, stamp);
    }

    /// Whether nothing is pending on any shard.
    pub fn idle(&self) -> bool {
        self.shards.iter().all(CompositeFabric::idle)
    }

    /// Time of the next fabric event across all shards.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.next_shard().map(|(k, _)| k.time)
    }

    fn next_shard(&self) -> Option<(EventKey, usize)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.next_key().map(|k| (k, i)))
            .min()
    }

    /// Process exactly one fabric event — the globally minimal key across
    /// shards — then route any crossings, harvest new trace records
    /// through the merged tap/trace, and harvest surfaced errors. The
    /// resulting streams are byte-identical at every shard count.
    pub fn advance(&mut self, out: &mut Vec<Delivery>) -> Option<SimTime> {
        let (key, s) = self.next_shard()?;
        let shard = &mut self.shards[s];
        shard.advance_keyed(out);
        // Crossings: inject into their target shards right away, before
        // any later event can be processed there.
        shard.drain_outbox(&mut self.crossings);
        // Trace/tap: the advanced shard captured any deliveries locally;
        // replay them through the merged capture point in event order.
        match &mut self.tap {
            Some(tap) => {
                for r in shard.trace_mut().drain(..) {
                    tap(&r);
                    if self.promiscuous {
                        self.trace.push(r);
                    }
                }
            }
            None => self.trace.append(shard.trace_mut()),
        }
        // Errors: harvest what this shard surfaced during the event.
        let errs = &shard.errors()[self.errors_seen[s]..];
        if !errs.is_empty() {
            self.errors.extend_from_slice(errs);
            self.errors_seen[s] += errs.len();
        }
        for cf in self.crossings.drain(..) {
            let target = &mut self.shards[self.partition.node_shard[cf.node]];
            if cf.arrival < target.clock() {
                self.violations += 1;
            }
            target.inject(cf);
        }
        Some(key.time)
    }

    /// Drain every pending event, returning the deliveries in order.
    pub fn run_to_idle(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while self.advance(&mut out).is_some() {}
        out
    }
}
