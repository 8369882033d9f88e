//! Topology partitioning for the sharded parallel DES core.
//!
//! A [`Partition`] splits the nodes of a [`TopologySpec`] into contiguous
//! node-index blocks balanced by attached host count. Builders number
//! nodes in subtree order (leaf segments/switches first, parents after),
//! so contiguous blocks honor the "one shard per switch subtree" default:
//! `trunk2` splits into its two switches, `tree2` into `{leaf0}` and
//! `{leaf1, root}` at two shards and one node per shard at three.
//!
//! Every trunk whose endpoints land on different shards is a *cut
//! trunk*: a frame crossing it leaves the sending shard's fabric as a
//! `CrossFrame` and resumes on the far node's shard. Its arrival lies
//! strictly in the future — trunk wire time, propagation delay and the
//! far node's store-and-forward latency are all positive — so the
//! cooperative driver in [`crate::ShardedFabric`] can inject it before
//! the receiving shard's clock reaches it.

use crate::spec::TopologySpec;

/// A shard assignment of a topology's nodes, hosts, and trunks.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Actual shard count after clamping to `[1, node count]`.
    pub shards: usize,
    /// Node index → shard.
    pub node_shard: Vec<usize>,
    /// Host index → shard (the shard of its attachment node).
    pub host_shard: Vec<usize>,
    /// Trunks whose endpoints live on different shards.
    pub cut_trunks: Vec<usize>,
}

impl Partition {
    /// Partition `spec` into at most `requested` shards (clamped to the
    /// node count; 0 means 1). The assignment is deterministic: identical
    /// specs and counts always produce identical partitions.
    pub fn new(spec: &TopologySpec, requested: usize) -> Partition {
        let n = spec.nodes.len();
        let shards = requested.clamp(1, n);
        let mut node_hosts = vec![0usize; n];
        for &a in &spec.attachments {
            node_hosts[a] += 1;
        }
        let total: usize = spec.attachments.len();
        // Contiguous blocks, closed when the cumulative host quota for
        // the block is met — or when only one node per remaining block is
        // left, so every shard owns at least one node.
        let mut node_shard = vec![0usize; n];
        let mut s = 0usize;
        let mut assigned_hosts = 0usize;
        for (i, &h) in node_hosts.iter().enumerate() {
            node_shard[i] = s;
            assigned_hosts += h;
            let blocks_left = shards - s - 1;
            let nodes_left = n - i - 1;
            if blocks_left > 0 {
                let quota = (s + 1) * total / shards;
                if assigned_hosts >= quota || nodes_left == blocks_left {
                    s += 1;
                }
            }
        }
        let host_shard: Vec<usize> = spec
            .attachments
            .iter()
            .map(|&node| node_shard[node])
            .collect();
        let cut_trunks = spec
            .trunks
            .iter()
            .enumerate()
            .filter(|(_, t)| node_shard[t.a] != node_shard[t.b])
            .map(|(ti, _)| ti)
            .collect();
        Partition {
            shards,
            node_shard,
            host_shard,
            cut_trunks,
        }
    }

    /// Owned-node mask for `shard`.
    pub fn owned_mask(&self, shard: usize) -> Vec<bool> {
        self.node_shard.iter().map(|&s| s == shard).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::RATE_10M;

    #[test]
    fn single_segment_never_splits() {
        let spec = TopologySpec::single_segment(9, RATE_10M);
        for req in [0, 1, 2, 4, 16] {
            let p = Partition::new(&spec, req);
            assert_eq!(p.shards, 1);
            assert!(p.cut_trunks.is_empty());
            assert!(p.host_shard.iter().all(|&s| s == 0));
        }
    }

    #[test]
    fn trunk2_splits_per_switch_subtree() {
        let spec = TopologySpec::two_switches_trunk(9, RATE_10M);
        let p = Partition::new(&spec, 4);
        assert_eq!(p.shards, 2, "two nodes clamp four shards to two");
        assert_eq!(p.node_shard, vec![0, 1]);
        assert_eq!(p.cut_trunks, vec![0]);
        // Hosts follow their switch.
        for (h, &node) in spec.attachments.iter().enumerate() {
            assert_eq!(p.host_shard[h], p.node_shard[node]);
        }
    }

    #[test]
    fn tree2_balances_leaves_then_isolates_root() {
        let spec = TopologySpec::two_level_tree(9, RATE_10M);
        let p2 = Partition::new(&spec, 2);
        assert_eq!(p2.node_shard, vec![0, 1, 1], "leaf0 | leaf1+root");
        assert_eq!(p2.cut_trunks, vec![0], "only leaf0-root is cut");
        let p3 = Partition::new(&spec, 4);
        assert_eq!(p3.shards, 3);
        assert_eq!(p3.node_shard, vec![0, 1, 2]);
        assert_eq!(p3.cut_trunks, vec![0, 1], "both uplinks are cut");
    }

    #[test]
    fn channel_endpoints_are_consistent() {
        let spec = TopologySpec::two_level_tree(6, RATE_10M);
        let p = Partition::new(&spec, 3);
        for (ti, t) in spec.trunks.iter().enumerate() {
            let cut = p.node_shard[t.a] != p.node_shard[t.b];
            assert_eq!(p.cut_trunks.contains(&ti), cut, "trunk {ti}");
        }
        for (s, mask) in (0..p.shards).map(|s| (s, p.owned_mask(s))) {
            for (n, &owned) in mask.iter().enumerate() {
                assert_eq!(owned, p.node_shard[n] == s);
            }
        }
    }
}
