//! Hypersparse per-window traffic matrices, Kepner style.
//!
//! Each sample window gets a src×dst traffic matrix stored
//! doubly-compressed: the host-pair id space is a single sorted vector
//! of the `(src, dst)` pairs that *ever* carried traffic (exactly the
//! sorted pair order `fxnet_trace::TraceStore`'s connection index
//! builds), and a window's matrix is the ascending list of pair ids
//! active in it with packet and byte counts. Hosts and pairs that are
//! silent in a window cost nothing — the common case at millisecond
//! resolution, where a 9-host LAN has 72 possible pairs and a window
//! typically touches one or two.
//!
//! Matrices are kept at the same resolution ladder as the link rings,
//! each coarse window the exact merge of its fine windows, and the
//! per-scale [`ScalingRelation`] summaries report how packets per
//! window, distinct pairs and the max-degree host grow with window
//! width — the scaling relations hypersparse traffic analysis plots.

use fxnet_sim::{FrameRecord, SimTime};
use fxnet_trace::TraceStore;
use std::collections::BTreeMap;

/// The sorted host-pair id space: pair id = index into the sorted,
/// deduplicated `(src, dst)` vector. Matches the pair ordering of
/// [`TraceStore::host_pairs`] so matrix rows and connection-index rows
/// agree on numbering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairSpace {
    pairs: Vec<(u32, u32)>,
}

impl PairSpace {
    /// Build from any pair list (sorted and deduplicated here).
    pub fn from_pairs(mut pairs: Vec<(u32, u32)>) -> PairSpace {
        pairs.sort_unstable();
        pairs.dedup();
        PairSpace { pairs }
    }

    /// The pair space of a stored trace, read straight off its
    /// connection index.
    pub fn from_store(store: &TraceStore) -> PairSpace {
        // host_pairs() iterates the connection index ascending, so the
        // vector arrives sorted and deduplicated already.
        PairSpace {
            pairs: store
                .host_pairs()
                .iter()
                .map(|&((s, d), _)| (s.0, d.0))
                .collect(),
        }
    }

    /// Number of pairs in the space.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The id of `(src, dst)`, if it carried traffic.
    pub fn id(&self, src: u32, dst: u32) -> Option<u32> {
        self.pairs.binary_search(&(src, dst)).ok().map(|i| i as u32)
    }

    /// The `(src, dst)` pair of id `id`.
    pub fn pair(&self, id: u32) -> (u32, u32) {
        self.pairs[id as usize]
    }

    /// Sorted iteration over the pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.pairs.iter().copied()
    }
}

/// One window's hypersparse matrix: ascending active pair ids with
/// packet/byte counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WindowMatrix {
    /// Active pair ids, ascending.
    pub pair_ids: Vec<u32>,
    /// Packets per active pair.
    pub packets: Vec<u64>,
    /// Wire bytes per active pair.
    pub bytes: Vec<u64>,
}

impl WindowMatrix {
    /// Number of active pairs (stored nonzeros).
    pub fn nnz(&self) -> usize {
        self.pair_ids.len()
    }

    /// Total packets in the window.
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    /// Total wire bytes in the window.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Merge another window's matrix in (sorted-merge; counts add).
    pub fn fold(&mut self, o: &WindowMatrix) {
        let (mut ids, mut pk, mut by) = (Vec::new(), Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        while i < self.pair_ids.len() || j < o.pair_ids.len() {
            let a = self.pair_ids.get(i).copied().unwrap_or(u32::MAX);
            let b = o.pair_ids.get(j).copied().unwrap_or(u32::MAX);
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    ids.push(a);
                    pk.push(self.packets[i]);
                    by.push(self.bytes[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    ids.push(b);
                    pk.push(o.packets[j]);
                    by.push(o.bytes[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    ids.push(a);
                    pk.push(self.packets[i] + o.packets[j]);
                    by.push(self.bytes[i] + o.bytes[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        self.pair_ids = ids;
        self.packets = pk;
        self.bytes = by;
    }

    /// The host with the most distinct partners (in-degree plus
    /// out-degree over active pairs) in this window, with its degree;
    /// smallest host id wins ties. `None` when the window is empty.
    pub fn max_degree(&self, space: &PairSpace) -> Option<(u32, u32)> {
        let mut deg: BTreeMap<u32, u32> = BTreeMap::new();
        for &id in &self.pair_ids {
            let (s, d) = space.pair(id);
            *deg.entry(s).or_default() += 1;
            *deg.entry(d).or_default() += 1;
        }
        top_degree(None, deg)
    }
}

/// The matrices of one resolution: window index (at this scale) →
/// matrix, sparse and sorted.
#[derive(Debug, Clone, Default)]
pub struct ScaleMatrices {
    /// Width multiple of the base window.
    pub scale: u64,
    /// Touched windows only, ascending.
    pub windows: BTreeMap<u64, WindowMatrix>,
}

/// Per-scale summary: how traffic concentrates as the window widens —
/// the numbers a scaling-relation plot needs.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScalingRelation {
    /// Width multiple of the base window.
    pub scale: u64,
    /// Window width, ns.
    pub window_ns: u64,
    /// Nonempty windows at this scale.
    pub windows: u64,
    /// Total packets (identical at every scale — conservation).
    pub total_packets: u64,
    /// Largest packets-per-window.
    pub max_packets: u64,
    /// Mean packets over nonempty windows.
    pub mean_packets: f64,
    /// Largest distinct-pair count in one window.
    pub max_distinct_pairs: u64,
    /// Mean distinct pairs over nonempty windows.
    pub mean_distinct_pairs: f64,
    /// Largest host degree (distinct partners, in+out) in one window.
    pub max_degree: u32,
    /// The host that reached `max_degree` (smallest id on ties).
    pub max_degree_host: u32,
}

/// The complete multi-temporal matrix set of one run.
#[derive(Debug, Clone, Default)]
pub struct TrafficMatrices {
    /// Base window width, ns.
    pub bin_ns: u64,
    /// The global sorted host-pair id space.
    pub space: PairSpace,
    /// Matrices per resolution, finest first.
    pub scales: Vec<ScaleMatrices>,
}

impl TrafficMatrices {
    /// The per-scale scaling-relation summaries, finest first.
    pub fn summaries(&self) -> Vec<ScalingRelation> {
        self.scales
            .iter()
            .map(|sm| {
                let n = sm.windows.len() as u64;
                let total: u64 = sm.windows.values().map(WindowMatrix::total_packets).sum();
                let max_packets = sm
                    .windows
                    .values()
                    .map(WindowMatrix::total_packets)
                    .max()
                    .unwrap_or(0);
                let max_nnz = sm
                    .windows
                    .values()
                    .map(WindowMatrix::nnz)
                    .max()
                    .unwrap_or(0);
                let sum_nnz: usize = sm.windows.values().map(WindowMatrix::nnz).sum();
                let (max_degree_host, max_degree) = top_degree(
                    None,
                    sm.windows
                        .values()
                        .filter_map(|w| w.max_degree(&self.space)),
                )
                .unwrap_or((0, 0));
                ScalingRelation {
                    scale: sm.scale,
                    window_ns: self.bin_ns * sm.scale,
                    windows: n,
                    total_packets: total,
                    max_packets,
                    mean_packets: if n == 0 { 0.0 } else { total as f64 / n as f64 },
                    max_distinct_pairs: max_nnz as u64,
                    mean_distinct_pairs: if n == 0 {
                        0.0
                    } else {
                        sum_nnz as f64 / n as f64
                    },
                    max_degree,
                    max_degree_host,
                }
            })
            .collect()
    }

    /// The matrices of the finest scale.
    pub fn base(&self) -> &ScaleMatrices {
        &self.scales[0]
    }
}

/// Per-pair packet and byte counts of one accumulating window.
type PairCounts = BTreeMap<(u32, u32), (u64, u64)>;

/// Streaming accumulator fed one frame at a time (the frame-tap path);
/// [`MatrixAccum::finalize`] builds the pair space and the full ladder.
#[derive(Debug, Default)]
pub struct MatrixAccum {
    bin_ns: u64,
    windows: BTreeMap<u64, PairCounts>,
}

impl MatrixAccum {
    /// An empty accumulator over base windows of `bin_ns`.
    pub fn new(bin_ns: u64) -> MatrixAccum {
        MatrixAccum {
            bin_ns: bin_ns.max(1),
            windows: BTreeMap::new(),
        }
    }

    /// Count one delivered frame.
    pub fn record(&mut self, time: SimTime, src: u32, dst: u32, wire: u64) {
        let w = time.as_nanos() / self.bin_ns;
        let cell = self
            .windows
            .entry(w)
            .or_default()
            .entry((src, dst))
            .or_default();
        cell.0 += 1;
        cell.1 += wire;
    }

    /// Count a whole trace.
    pub fn record_trace(&mut self, trace: &[FrameRecord]) {
        for r in trace {
            self.record(r.time, r.src.0, r.dst.0, u64::from(r.wire_len));
        }
    }

    /// Total frames recorded so far.
    pub fn frames(&self) -> u64 {
        self.windows
            .values()
            .flat_map(|m| m.values())
            .map(|&(p, _)| p)
            .sum()
    }

    /// Build the pair space and the matrix ladder. `scales` must be
    /// strictly increasing starting at 1, like the ring ladder.
    pub fn finalize(self, scales: &[u64]) -> TrafficMatrices {
        let space = PairSpace::from_pairs(
            self.windows
                .values()
                .flat_map(|m| m.keys().copied())
                .collect(),
        );
        let mut out: Vec<ScaleMatrices> = scales
            .iter()
            .map(|&scale| ScaleMatrices {
                scale,
                windows: BTreeMap::new(),
            })
            .collect();
        for (w, cells) in &self.windows {
            // Cells arrive in sorted pair order from the BTreeMap, so
            // the per-window vectors are ascending by construction.
            let mut m = WindowMatrix::default();
            for (&(s, d), &(pk, by)) in cells {
                m.pair_ids.push(space.id(s, d).expect("pair in space"));
                m.packets.push(pk);
                m.bytes.push(by);
            }
            for sm in &mut out {
                sm.windows.entry(w / sm.scale).or_default().fold(&m);
            }
        }
        TrafficMatrices {
            bin_ns: self.bin_ns,
            space,
            scales: out,
        }
    }
}

/// Spill-free scaling-relation fold for the out-of-core scan.
///
/// [`MatrixAccum`] keeps every touched base window until `finalize` —
/// O(span) memory, which at ten million frames over minutes of
/// simulated time is the store all over again. This accumulator
/// produces the **same** [`ScalingRelation`] vector (bitwise — the
/// means divide the same integers) while holding only the *open*
/// window of each scale: frames must arrive in non-decreasing time
/// order (the capture invariant), so when a window's index moves on,
/// the window is folded into its scale's running summary and retired.
/// Counts are additive, so feeding every scale directly from frames
/// equals the coarse-from-fine merge `MatrixAccum::finalize` performs.
///
/// A window needs only its packet total, its distinct pairs and its
/// top-degree host, so no per-pair count is kept. Each `(src, dst)` is
/// interned once into a dense pair id, and each host into a dense host
/// id, both in first-seen order. Each scale keeps the open window's
/// first frame number (its packet total is the frame count since), the
/// ids of the pairs active in it, and a sequence number; each pair
/// keeps, per scale, the sequence number of the last window it was seen
/// in. A frame therefore costs one intern lookup and, per scale, one
/// stamp compare — a push onto the active list on a pair's first frame
/// in the window. Closing a window counts degrees over the active pairs
/// in a reused dense per-host array, zeroing it again while picking the
/// top host by the original host id, under the same order
/// [`TrafficMatrices::summaries`] maximizes; a window with too few
/// pairs to reach the best degree so far skips the count.
///
/// Memory is O(distinct pairs × scales + pairs active in the open
/// windows) — bounded by the host-pair space, independent of trace
/// length.
#[derive(Debug)]
pub struct ScalingAccum {
    bin_ns: u64,
    scales: Vec<ScaleAccum>,
    /// Earliest end of any scale's open window: a frame before it
    /// opens no window.
    next_edge_ns: u64,
    last_ns: u64,
    frames: u64,
    pair_ids: IdTable,
    host_ids: IdTable,
    /// Dense host ids of each pair's source and destination.
    pair_hosts: Vec<[u32; 2]>,
    /// Original host id of each dense host id.
    hosts: Vec<u32>,
    /// Per pair, per scale: sequence number of the last window the pair
    /// was seen in (0: never). Row-major, one row of `scales.len()` per
    /// pair.
    stamps: Vec<u64>,
    /// Per dense host: degree in the window being closed; all zero
    /// between closes.
    deg: Vec<u32>,
}

/// One scale's open window and running summary.
#[derive(Debug, Default)]
struct ScaleAccum {
    scale: u64,
    /// Index of the open window, at this scale.
    open_w: u64,
    /// First nanosecond after the open window (saturating); 0 until a
    /// window opens.
    end_ns: u64,
    /// Sequence number of the open window, counting from 1; 0 until a
    /// window opens.
    seq: u64,
    /// Frames recorded before the open window's first frame.
    opened_at: u64,
    /// Ids of the pairs seen in the open window.
    active: Vec<u32>,
    windows: u64,
    total_packets: u64,
    max_packets: u64,
    sum_nnz: u64,
    max_nnz: u64,
    /// Best (host, degree) so far, under [`top_degree`]'s order.
    best: Option<(u32, u32)>,
}

impl ScaleAccum {
    /// Fold the open window into the summary; `frames` is the number of
    /// frames recorded up to its end.
    fn close_open(&mut self, frames: u64, pair_hosts: &[[u32; 2]], hosts: &[u32], deg: &mut [u32]) {
        if self.seq == 0 {
            return;
        }
        let packets = frames - self.opened_at;
        let nnz = self.active.len() as u64;
        self.windows += 1;
        self.total_packets += packets;
        self.max_packets = self.max_packets.max(packets);
        self.sum_nnz += nnz;
        self.max_nnz = self.max_nnz.max(nnz);
        // No host's degree exceeds nnz + 1 (a self pair counts twice),
        // so a window under the best degree so far cannot replace it.
        if self.best.is_some_and(|(_, bd)| nnz + 1 < u64::from(bd)) {
            self.active.clear();
            return;
        }
        for &p in &self.active {
            for h in pair_hosts[p as usize] {
                deg[h as usize] += 1;
            }
        }
        // Windows close in ascending order, so folding each one's hosts
        // into the best so far replicates max_by_key over the windows.
        self.best = top_degree(
            self.best,
            self.active
                .iter()
                .flat_map(|&p| pair_hosts[p as usize])
                .filter_map(|h| {
                    let d = std::mem::take(&mut deg[h as usize]);
                    (d > 0).then(|| (hosts[h as usize], d))
                }),
        );
        self.active.clear();
    }

    /// Open window `w`, whose first frame is frame number `frames`.
    fn open(&mut self, w: u64, frames: u64, bin_ns: u64) {
        self.open_w = w;
        self.end_ns = w
            .checked_add(1)
            .and_then(|n| n.checked_mul(self.scale))
            .and_then(|n| n.checked_mul(bin_ns))
            .unwrap_or(u64::MAX);
        self.seq += 1;
        self.opened_at = frames;
    }
}

/// Open-addressing map from a 64-bit key to a dense `u32` id handed
/// out in first-seen order: linear probing in a power-of-two table
/// kept at most half full, multiply-shift hashed. The multiplier is a
/// random odd number drawn per table, so keys read from a trace cannot
/// be crafted to collide; ids, and with them every result, do not
/// depend on it.
#[derive(Debug)]
struct IdTable {
    mul: u64,
    /// 64 − log2(table size).
    shift: u32,
    /// `(key, id)`; id [`IdTable::EMPTY`] marks a free slot.
    slots: Vec<(u64, u32)>,
    len: u32,
}

impl IdTable {
    const EMPTY: u32 = u32::MAX;
    const MIN_SLOTS: usize = 16;

    fn new() -> IdTable {
        use std::hash::BuildHasher;
        IdTable {
            mul: std::collections::hash_map::RandomState::new().hash_one(0u64) | 1,
            shift: 64 - Self::MIN_SLOTS.trailing_zeros(),
            slots: vec![(0, Self::EMPTY); Self::MIN_SLOTS],
            len: 0,
        }
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(self.mul) >> self.shift) as usize
    }

    /// The id of `key` and whether it was new, interning it if so.
    fn id(&mut self, key: u64) -> (u32, bool) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let (k, id) = self.slots[i];
            if id == Self::EMPTY {
                break;
            }
            if k == key {
                return (id, false);
            }
            i = (i + 1) & mask;
        }
        let id = self.len;
        assert!(id < Self::EMPTY, "more distinct keys than u32 ids");
        self.slots[i] = (key, id);
        self.len += 1;
        if 2 * self.len as usize > self.slots.len() {
            self.grow();
        }
        (id, true)
    }

    fn grow(&mut self) {
        let size = 2 * self.slots.len();
        let old = std::mem::replace(&mut self.slots, vec![(0, Self::EMPTY); size]);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (key, id) in old.into_iter().filter(|&(_, id)| id != Self::EMPTY) {
            let mut i = self.home(key);
            while self.slots[i].1 != Self::EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (key, id);
        }
    }
}

impl ScalingAccum {
    /// An empty accumulator over base windows of `bin_ns` at the given
    /// width-multiple ladder (strictly increasing, starting at 1).
    pub fn new(bin_ns: u64, scales: &[u64]) -> ScalingAccum {
        assert!(!scales.is_empty(), "at least one scale");
        assert!(
            scales.windows(2).all(|w| w[0] < w[1]),
            "scales must be strictly increasing"
        );
        ScalingAccum {
            bin_ns: bin_ns.max(1),
            scales: scales
                .iter()
                .map(|&scale| ScaleAccum {
                    scale,
                    ..ScaleAccum::default()
                })
                .collect(),
            next_edge_ns: 0,
            last_ns: 0,
            frames: 0,
            pair_ids: IdTable::new(),
            host_ids: IdTable::new(),
            pair_hosts: Vec::new(),
            hosts: Vec::new(),
            stamps: Vec::new(),
            deg: Vec::new(),
        }
    }

    /// Count one delivered frame. Frames must arrive in non-decreasing
    /// time order — the spill-free window retirement depends on it.
    pub fn record(&mut self, time_ns: u64, src: u32, dst: u32) {
        self.check_order(&[time_ns]);
        self.push(time_ns, src, dst);
    }

    /// Count one decoded chunk of columns.
    pub fn record_columns(&mut self, time_ns: &[u64], src: &[u32], dst: &[u32]) {
        assert!(time_ns.len() == src.len() && time_ns.len() == dst.len());
        self.check_order(time_ns);
        for ((&t, &s), &d) in time_ns.iter().zip(src).zip(dst) {
            self.push(t, s, d);
        }
    }

    /// Total frames recorded so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Close the open windows and emit the per-scale summaries, finest
    /// first — equal to `MatrixAccum::finalize(scales).summaries()` on
    /// the same frames.
    pub fn finalize(mut self) -> Vec<ScalingRelation> {
        self.scales
            .iter_mut()
            .map(|sa| {
                sa.close_open(self.frames, &self.pair_hosts, &self.hosts, &mut self.deg);
                let (max_degree_host, max_degree) = sa.best.unwrap_or((0, 0));
                ScalingRelation {
                    scale: sa.scale,
                    window_ns: self.bin_ns * sa.scale,
                    windows: sa.windows,
                    total_packets: sa.total_packets,
                    max_packets: sa.max_packets,
                    mean_packets: if sa.windows == 0 {
                        0.0
                    } else {
                        sa.total_packets as f64 / sa.windows as f64
                    },
                    max_distinct_pairs: sa.max_nnz,
                    mean_distinct_pairs: if sa.windows == 0 {
                        0.0
                    } else {
                        sa.sum_nnz as f64 / sa.windows as f64
                    },
                    max_degree,
                    max_degree_host,
                }
            })
            .collect()
    }

    /// Panic unless `time_ns` continues the recorded frames in
    /// non-decreasing order.
    fn check_order(&mut self, time_ns: &[u64]) {
        let mut prev = self.last_ns;
        for &t in time_ns {
            assert!(
                t >= prev,
                "ScalingAccum requires time-ordered frames ({t} after {prev})"
            );
            prev = t;
        }
        self.last_ns = prev;
    }

    /// Count one frame already checked to be in time order.
    fn push(&mut self, time_ns: u64, src: u32, dst: u32) {
        if time_ns >= self.next_edge_ns {
            self.advance(time_ns);
        }
        let n = self.scales.len();
        let p = self.pair_id(src, dst);
        let stamps = &mut self.stamps[p as usize * n..][..n];
        for (sa, stamp) in self.scales.iter_mut().zip(stamps) {
            if *stamp != sa.seq {
                *stamp = sa.seq;
                sa.active.push(p);
            }
        }
        self.frames += 1;
    }

    /// Retire every open window `time_ns` lies past and open the one it
    /// falls in.
    fn advance(&mut self, time_ns: u64) {
        let w = time_ns / self.bin_ns;
        for sa in &mut self.scales {
            if time_ns < sa.end_ns {
                continue;
            }
            let ws = w / sa.scale;
            // An open window ending at u64::MAX (saturated) still holds
            // a frame at u64::MAX.
            if sa.seq == 0 || ws != sa.open_w {
                sa.close_open(self.frames, &self.pair_hosts, &self.hosts, &mut self.deg);
                sa.open(ws, self.frames, self.bin_ns);
            }
        }
        self.next_edge_ns = self.scales.iter().map(|sa| sa.end_ns).min().unwrap_or(0);
    }

    /// The dense id of `(src, dst)`, interning the pair and its hosts on
    /// first sight.
    fn pair_id(&mut self, src: u32, dst: u32) -> u32 {
        let (p, fresh) = self.pair_ids.id(u64::from(src) << 32 | u64::from(dst));
        if fresh {
            let hosts = [src, dst].map(|h| {
                let (id, fresh) = self.host_ids.id(u64::from(h));
                if fresh {
                    self.hosts.push(h);
                    self.deg.push(0);
                }
                id
            });
            self.pair_hosts.push(hosts);
            self.stamps.resize(self.stamps.len() + self.scales.len(), 0);
        }
        p
    }
}

/// The max-degree rule every ladder summary shares: the candidate
/// `(host, degree)` with the highest degree wins, the smallest host id
/// on equal degrees, and of equal keys the later one — what
/// `max_by_key(|&(h, d)| (d, Reverse(h)))` picks. Folds `candidates`
/// into `best`.
fn top_degree(
    best: Option<(u32, u32)>,
    candidates: impl IntoIterator<Item = (u32, u32)>,
) -> Option<(u32, u32)> {
    let key = |&(h, d): &(u32, u32)| (d, std::cmp::Reverse(h));
    candidates.into_iter().fold(best, |best, c| match best {
        Some(b) if key(&c) < key(&b) => Some(b),
        _ => Some(c),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::{FrameKind, HostId, Proto};
    use proptest::prelude::*;

    fn rec(ms: u64, src: u32, dst: u32, len: u32) -> FrameRecord {
        FrameRecord {
            time: SimTime::from_millis(ms),
            wire_len: len,
            proto: Proto::Tcp,
            kind: FrameKind::Data,
            src: HostId(src),
            dst: HostId(dst),
        }
    }

    #[test]
    fn pair_space_matches_trace_store_index() {
        let trace = vec![
            rec(0, 3, 1, 100),
            rec(1, 0, 2, 200),
            rec(2, 3, 1, 100),
            rec(3, 2, 0, 60),
        ];
        let mut acc = MatrixAccum::new(1_000_000);
        acc.record_trace(&trace);
        let m = acc.finalize(&[1]);
        let store = TraceStore::from_records(&trace);
        assert_eq!(m.space, PairSpace::from_store(&store));
        assert_eq!(m.space.len(), 3);
        assert_eq!(m.space.id(0, 2), Some(0));
        assert_eq!(m.space.pair(2), (3, 1));
    }

    #[test]
    fn window_matrices_are_hypersparse_and_fold_exactly() {
        let mut acc = MatrixAccum::new(1_000_000);
        // Windows 0 and 1 (1 ms), then a lone frame at 15 ms.
        acc.record_trace(&[
            rec(0, 0, 1, 100),
            rec(0, 1, 0, 60),
            rec(1, 0, 1, 100),
            rec(15, 2, 3, 500),
        ]);
        let m = acc.finalize(&[1, 10]);
        assert_eq!(m.base().windows.len(), 3);
        assert_eq!(m.scales[1].windows.len(), 2);
        // The 10 ms bucket 0 merges base windows 0 and 1.
        let coarse = &m.scales[1].windows[&0];
        assert_eq!(coarse.nnz(), 2);
        assert_eq!(coarse.total_packets(), 3);
        assert_eq!(coarse.total_bytes(), 260);
        // Degree: host 0 and 1 both have 2 partnerships; smallest wins.
        assert_eq!(coarse.max_degree(&m.space), Some((0, 2)));
    }

    #[test]
    fn scaling_relations_conserve_and_widen() {
        let mut acc = MatrixAccum::new(1_000_000);
        for ms in 0..50 {
            acc.record_trace(&[rec(ms, ms as u32 % 4, (ms as u32 + 1) % 4, 100)]);
        }
        let m = acc.finalize(&[1, 10]);
        let s = m.summaries();
        assert_eq!(s[0].total_packets, 50);
        assert_eq!(s[1].total_packets, 50, "packets conserved across scales");
        assert!(s[1].mean_packets > s[0].mean_packets);
        assert!(s[1].mean_distinct_pairs >= s[0].mean_distinct_pairs);
        assert_eq!(s[0].window_ns, 1_000_000);
        assert_eq!(s[1].window_ns, 10_000_000);
    }

    /// Equal summaries, means compared to the bit.
    fn assert_same_relations(got: &[ScalingRelation], want: &[ScalingRelation]) {
        assert_eq!(got, want);
        for (a, b) in got.iter().zip(want) {
            assert_eq!(a.mean_packets.to_bits(), b.mean_packets.to_bits());
            assert_eq!(
                a.mean_distinct_pairs.to_bits(),
                b.mean_distinct_pairs.to_bits()
            );
        }
    }

    #[test]
    fn scaling_accum_matches_materialized_summaries() {
        let scales = [1u64, 10, 100, 1000];
        let mut acc = MatrixAccum::new(1_000_000);
        let mut stream = ScalingAccum::new(1_000_000, &scales);
        for ms in 0..500u64 {
            let (s, d) = ((ms % 5) as u32, ((ms % 5 + 1 + ms % 3) % 5) as u32);
            let t = SimTime::from_millis(ms) + SimTime::from_micros(ms % 900);
            acc.record(t, s, d, 100 + ms);
            stream.record(t.as_nanos(), s, d);
        }
        assert_eq!(stream.frames(), 500);
        assert_same_relations(&stream.finalize(), &acc.finalize(&scales).summaries());
    }

    /// `(time_ns, src, dst)` frames shaped like the trace-scan benchmark
    /// trace: 32 hosts, all-to-all bursts inside groups of 8 every
    /// 479 ms, each pair sending three data frames with an ACK back
    /// after the second. Host ids are sparse and their order differs
    /// from first-seen order.
    fn paper_shaped_frames() -> Vec<(u64, u32, u32)> {
        let host = |i: u32| match i % 4 {
            0 => u32::MAX - i,
            1 => (32 - i) << 20,
            2 => i,
            _ => u32::MAX - (i << 20),
        };
        let mut out = Vec::new();
        let mut t = 0u64;
        for burst in 0..6u64 {
            t = t.max(burst * 479_157_000 + burst * 313_000);
            let base = (burst * 3 % 4) as u32 * 8;
            for (i, j) in (0..8u32).flat_map(|i| (0..8u32).map(move |j| (i, j))) {
                if i == j {
                    continue;
                }
                for seg in 0..3u64 {
                    out.push((t, host(base + i), host(base + j)));
                    t += 120_000 + seg * 7_000;
                    if seg == 1 {
                        out.push((t, host(base + j), host(base + i)));
                        t += 50_000;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn scaling_accum_matches_materialized_at_trace_scan_shape() {
        let scales = [1u64, 10, 100, 1000];
        let frames = paper_shaped_frames();
        let mut oracle = MatrixAccum::new(1_000_000);
        for &(t, s, d) in &frames {
            oracle.record(SimTime::from_nanos(t), s, d, 60);
        }
        let want = oracle.finalize(&scales).summaries();
        assert!(want[3].windows >= 3, "{:?}", want[3]);
        // Degree ties go to the smallest host id, which is not the
        // first host seen (dense id 0).
        assert_ne!(want[3].max_degree_host, frames[0].1);

        let mut per_frame = ScalingAccum::new(1_000_000, &scales);
        for &(t, s, d) in &frames {
            per_frame.record(t, s, d);
        }
        assert_same_relations(&per_frame.finalize(), &want);
        let time_ns: Vec<u64> = frames.iter().map(|f| f.0).collect();
        let src: Vec<u32> = frames.iter().map(|f| f.1).collect();
        let dst: Vec<u32> = frames.iter().map(|f| f.2).collect();
        for chunk in [1, 37, frames.len()] {
            let mut acc = ScalingAccum::new(1_000_000, &scales);
            for at in (0..frames.len()).step_by(chunk) {
                let end = (at + chunk).min(frames.len());
                acc.record_columns(&time_ns[at..end], &src[at..end], &dst[at..end]);
            }
            assert_eq!(acc.frames(), frames.len() as u64);
            assert_same_relations(&acc.finalize(), &want);
        }
    }

    #[test]
    fn scaling_accum_column_feed_matches_per_frame_feed() {
        let times: Vec<u64> = (0..300u64).map(|i| i * 777_000).collect();
        let src: Vec<u32> = (0..300u32).map(|i| i % 4).collect();
        let dst: Vec<u32> = (0..300u32).map(|i| (i + 1 + i % 2) % 4).collect();
        let mut whole = ScalingAccum::new(1_000_000, &[1, 10]);
        whole.record_columns(&times, &src, &dst);
        let mut chunked = ScalingAccum::new(1_000_000, &[1, 10]);
        for at in (0..300).step_by(37) {
            let end = (at + 37).min(300);
            chunked.record_columns(&times[at..end], &src[at..end], &dst[at..end]);
        }
        assert_eq!(whole.finalize(), chunked.finalize());
    }

    #[test]
    fn empty_scaling_accum_matches_empty_materialized() {
        let want = MatrixAccum::new(1_000_000).finalize(&[1, 10]).summaries();
        assert_eq!(ScalingAccum::new(1_000_000, &[1, 10]).finalize(), want);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn scaling_accum_rejects_time_travel() {
        let mut s = ScalingAccum::new(1_000_000, &[1]);
        s.record(5_000_000, 0, 1);
        s.record(4_999_999, 0, 1);
    }

    /// Host ids spread over the whole u32 range, so first-seen order
    /// and id order disagree.
    fn sparse_host() -> impl Strategy<Value = u32> {
        prop::sample::select(vec![0, 1, 7, 1 << 20, u32::MAX - 1, u32::MAX])
    }

    proptest! {
        /// The streaming scaling fold equals the materialized ladder's
        /// summaries on arbitrary time-ordered traffic between sparse
        /// host ids.
        #[test]
        fn scaling_accum_equals_materialized_on_arbitrary_traffic(
            frames in prop::collection::vec(
                (0u64..2_000_000, sparse_host(), sparse_host()),
                0..150,
            ),
        ) {
            let mut times: Vec<u64> = frames.iter().map(|&(us, _, _)| us * 1000).collect();
            times.sort_unstable();
            let scales = [1u64, 10, 100, 1000];
            let mut acc = MatrixAccum::new(1_000_000);
            let mut stream = ScalingAccum::new(1_000_000, &scales);
            for (&t, &(_, s, d)) in times.iter().zip(&frames) {
                acc.record(SimTime::from_nanos(t), s, d, 60);
                stream.record(t, s, d);
            }
            assert_same_relations(&stream.finalize(), &acc.finalize(&scales).summaries());
        }

        /// Window indices at the top of the u64 range (1 ns base
        /// windows, the last frame at u64::MAX) neither overflow a
        /// window's end nor alias a fresh window.
        #[test]
        fn scaling_accum_equals_materialized_at_extreme_window_indices(
            frames in prop::collection::vec(
                (0u64..3_000, sparse_host(), sparse_host()),
                1..150,
            ),
        ) {
            let mut times: Vec<u64> = frames.iter().map(|&(back, _, _)| u64::MAX - back).collect();
            times.sort_unstable();
            *times.last_mut().expect("at least one frame") = u64::MAX;
            let scales = [1u64, 10, 100, 1000];
            let mut acc = MatrixAccum::new(1);
            let mut stream = ScalingAccum::new(1, &scales);
            for (&t, &(_, s, d)) in times.iter().zip(&frames) {
                acc.record(SimTime::from_nanos(t), s, d, 60);
                stream.record(t, s, d);
            }
            assert_same_relations(&stream.finalize(), &acc.finalize(&scales).summaries());
        }

        /// Conservation across the ladder on arbitrary traffic: every
        /// scale carries exactly the recorded packets and bytes, and
        /// every coarse window is the merge of its fine windows.
        #[test]
        fn ladder_conserves_arbitrary_traffic(
            frames in prop::collection::vec((0u64..200, 0u32..6, 0u32..6, 60u32..1500), 1..120),
        ) {
            let mut acc = MatrixAccum::new(1_000_000);
            let mut packets = 0u64;
            let mut bytes = 0u64;
            for &(ms, s, d, len) in &frames {
                if s == d { continue; }
                acc.record(SimTime::from_millis(ms), s, d, u64::from(len));
                packets += 1;
                bytes += u64::from(len);
            }
            let m = acc.finalize(&[1, 10, 100]);
            for sm in &m.scales {
                let p: u64 = sm.windows.values().map(WindowMatrix::total_packets).sum();
                let b: u64 = sm.windows.values().map(WindowMatrix::total_bytes).sum();
                prop_assert_eq!(p, packets);
                prop_assert_eq!(b, bytes);
            }
            // Coarse = exact merge of fine.
            for lvl in 1..m.scales.len() {
                let ratio = m.scales[lvl].scale / m.scales[lvl - 1].scale;
                for (&cw, coarse) in &m.scales[lvl].windows {
                    let mut fold = WindowMatrix::default();
                    for (_, fine) in m.scales[lvl - 1].windows.range(cw * ratio..(cw + 1) * ratio) {
                        fold.fold(fine);
                    }
                    prop_assert_eq!(&fold, coarse);
                }
            }
        }
    }
}
