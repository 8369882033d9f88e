//! The fabric sampler: glue between a run and the weather map.
//!
//! [`FabricSampler`] consumes the three passive observation channels a
//! run offers and never touches the simulation itself:
//!
//! * a [`fxnet_sim::FrameTap`] ([`FabricSampler::tap`]) counting every
//!   delivered frame into the hypersparse traffic matrices — the tap
//!   runs outside the MAC state machine, so attaching it cannot perturb
//!   timing, RNG draws, or the captured trace;
//! * the per-link sample series ([`FabricSampler::ingest_links`]) the
//!   engine collects when `RunOptions::sample_links` is set, folded
//!   into one multi-resolution ring per link direction;
//! * the causal capture ([`FabricSampler::ingest_causal`]), used purely
//!   *post-run* to attribute retransmitted wire bytes to the link
//!   windows they crossed.
//!
//! [`FabricSampler::finalize`] folds everything into a
//! [`WeatherReport`]: rings, matrices, scaling relations, and the
//! topology rollup with latched hotspots.

use crate::matrix::{MatrixAccum, ScalingRelation, TrafficMatrices};
use crate::rings::{MultiResRing, DEFAULT_SCALES};
use crate::rollup::{rollup, FabricRollup, HotspotConfig};
use fxnet_sim::{CausalEvent, FrameTap, LinkStats};
use fxnet_topo::TopologySpec;
use parking_lot::Mutex;
use std::sync::Arc;

/// Sampler parameters.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Base sample window, ns (1 ms by default — the paper's traffic
    /// features live between 1 ms bursts and 1 s heartbeat periods).
    pub bin_ns: u64,
    /// The resolution ladder, multiples of the base window.
    pub scales: Vec<u64>,
    /// Hotspot detection parameters.
    pub hotspot: HotspotConfig,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            bin_ns: 1_000_000,
            scales: DEFAULT_SCALES.to_vec(),
            hotspot: HotspotConfig::default(),
        }
    }
}

/// The finished weather map of one run.
#[derive(Debug, Clone)]
pub struct WeatherReport {
    /// Base sample window, ns.
    pub bin_ns: u64,
    /// The resolution ladder.
    pub scales: Vec<u64>,
    /// One multi-resolution ring per link direction, in sampler order.
    pub rings: Vec<(String, MultiResRing)>,
    /// The hypersparse traffic matrices.
    pub matrices: TrafficMatrices,
    /// Per-scale scaling-relation summaries.
    pub scaling: Vec<ScalingRelation>,
    /// Link → node → fabric rollup with latched hotspots.
    pub rollup: FabricRollup,
}

impl WeatherReport {
    /// The hotspot flagged for `link` (direction-stripped), if any.
    pub fn hotspot(&self, link: &str) -> Option<&crate::rollup::Hotspot> {
        self.rollup.hotspots.iter().find(|h| h.link == link)
    }
}

/// Accumulates one run's passive observations into a weather report.
pub struct FabricSampler {
    cfg: SamplerConfig,
    matrices: Arc<Mutex<MatrixAccum>>,
    rings: Vec<(String, MultiResRing)>,
}

impl FabricSampler {
    /// A sampler with the default 1 ms base and ladder.
    pub fn new() -> FabricSampler {
        FabricSampler::with_config(SamplerConfig::default())
    }

    /// A sampler with explicit parameters.
    pub fn with_config(cfg: SamplerConfig) -> FabricSampler {
        let accum = MatrixAccum::new(cfg.bin_ns);
        FabricSampler {
            cfg,
            matrices: Arc::new(Mutex::new(accum)),
            rings: Vec::new(),
        }
    }

    /// The base sample window, ns — pass this as
    /// `RunOptions::sample_links` so rings and matrices share bins.
    pub fn bin_ns(&self) -> u64 {
        self.cfg.bin_ns
    }

    /// A frame tap feeding the traffic matrices. Any number of taps can
    /// be handed out; they share the accumulator. Detaching (dropping)
    /// a tap is always safe — the report just sees fewer frames.
    pub fn tap(&self) -> FrameTap {
        let shared = Arc::clone(&self.matrices);
        Box::new(move |r| {
            shared
                .lock()
                .record(r.time, r.src.0, r.dst.0, u64::from(r.wire_len));
        })
    }

    /// Fold a run's per-link sample series into the rings. Labels keep
    /// the engine's deterministic order; repeated ingestion folds.
    pub fn ingest_links(&mut self, stats: &LinkStats) {
        for (label, series) in &stats.links {
            let idx = match self.rings.iter().position(|(l, _)| l == label) {
                Some(i) => i,
                None => {
                    self.rings.push((
                        label.clone(),
                        MultiResRing::with_scales(self.cfg.bin_ns, &self.cfg.scales),
                    ));
                    self.rings.len() - 1
                }
            };
            self.rings[idx].1.ingest(series);
        }
    }

    /// Attribute retransmitted wire bytes to link windows, post-run,
    /// from the causal capture. A retransmitted frame charges the
    /// window its delivery lands in on:
    ///
    /// * the recorded bottleneck trunk's crossing direction (resolved
    ///   through the topology's host attachments; `:fwd` when the spec
    ///   is unknown),
    /// * else the sender's uplink port, if sampled,
    /// * else the sender's segment (`seg:{node name}` from the
    ///   topology's attachments; `seg:bus` when the spec is unknown),
    ///   if sampled.
    ///
    /// Frames on unsampled links are skipped — attribution only ever
    /// annotates windows the link sampler saw.
    pub fn ingest_causal(&mut self, events: &[CausalEvent], spec: Option<&TopologySpec>) {
        for e in events.iter().filter(|e| e.retx) {
            let w = e.record.time.as_nanos() / self.cfg.bin_ns;
            let label = match e.meta.trunk_label() {
                Some(base) => {
                    let dir = match (fxnet_sim::FrameMeta::trunk_nodes(e.meta.trunk), spec) {
                        (Some((a, _)), Some(spec)) => {
                            let src_node = spec.attachments.get(e.record.src.0 as usize).copied();
                            if src_node == Some(a as usize) {
                                ":fwd"
                            } else {
                                ":rev"
                            }
                        }
                        _ => ":fwd",
                    };
                    format!("{base}{dir}")
                }
                None => {
                    let up = format!("host:h{}:up", e.record.src.0);
                    if self.rings.iter().any(|(l, _)| l == &up) {
                        up
                    } else {
                        let node = spec.and_then(|spec| {
                            let n = *spec.attachments.get(e.record.src.0 as usize)?;
                            spec.nodes.get(n)
                        });
                        match node {
                            Some(node) => format!("seg:{}", node.name),
                            None => "seg:bus".to_string(),
                        }
                    }
                }
            };
            if let Some((_, ring)) = self.rings.iter_mut().find(|(l, _)| l == &label) {
                let win = fxnet_sim::LinkWindow {
                    retx_bytes: u64::from(e.record.wire_len),
                    ..fxnet_sim::LinkWindow::default()
                };
                ring.push(w, &win);
            }
        }
    }

    /// Fold everything observed into the finished weather report.
    pub fn finalize(self, spec: Option<&TopologySpec>) -> WeatherReport {
        let accum = std::mem::replace(&mut *self.matrices.lock(), MatrixAccum::new(1));
        let matrices = accum.finalize(&self.cfg.scales);
        let scaling = matrices.summaries();
        let roll = rollup(&self.rings, spec, &self.cfg.hotspot);
        WeatherReport {
            bin_ns: self.cfg.bin_ns,
            scales: self.cfg.scales.clone(),
            rings: self.rings,
            matrices,
            scaling,
            rollup: roll,
        }
    }
}

impl Default for FabricSampler {
    fn default() -> FabricSampler {
        FabricSampler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::{FrameKind, FrameMeta, FrameRecord, HostId, LinkSeries, Proto, SimTime};

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
    fn tap_feeds_matrices_and_links_feed_rings() {
        let mut sampler = FabricSampler::new();
        let mut tap = sampler.tap();
        tap(&rec(0, 0, 1, 100));
        tap(&rec(0, 1, 0, 60));
        tap(&rec(12, 0, 1, 100));
        drop(tap);

        let mut series = LinkSeries::new();
        series.window_mut(0).bytes = 160;
        series.window_mut(0).frames = 2;
        series.window_mut(12).bytes = 100;
        series.window_mut(12).frames = 1;
        sampler.ingest_links(&LinkStats {
            bin_ns: 1_000_000,
            links: vec![("seg:bus".to_string(), series)],
        });

        let report = sampler.finalize(None);
        assert_eq!(report.matrices.space.len(), 2);
        assert_eq!(report.scaling[0].total_packets, 3);
        assert_eq!(report.rings.len(), 1);
        assert_eq!(report.rings[0].1.total().bytes, 260);
        report.rings[0].1.check_consistency().unwrap();
    }

    #[test]
    fn retx_attribution_lands_in_the_right_trunk_window() {
        use fxnet_sim::RATE_10M;
        let spec = TopologySpec::two_switches_trunk(4, RATE_10M);
        let mut sampler = FabricSampler::new();
        let mut series = LinkSeries::new();
        series.window_mut(3).bytes = 1000;
        sampler.ingest_links(&LinkStats {
            bin_ns: 1_000_000,
            links: vec![
                ("trunk:n0-n1:fwd".to_string(), series.clone()),
                ("trunk:n0-n1:rev".to_string(), series),
            ],
        });
        // h2 lives on node 1, so its retransmit crossed the trunk rev.
        let ev = CausalEvent {
            record: rec(3, 2, 0, 700),
            cause: fxnet_sim::CauseId::NONE,
            retx: true,
            conn: 1,
            dir: 0,
            seq: 0,
            meta: FrameMeta {
                queue_ns: 0,
                backoff_ns: 0,
                tx_ns: 0,
                attempts: 1,
                trunk: FrameMeta::trunk_code(0, 1),
            },
        };
        sampler.ingest_causal(&[ev], Some(&spec));
        let report = sampler.finalize(Some(&spec));
        let rev = report
            .rings
            .iter()
            .find(|(l, _)| l == "trunk:n0-n1:rev")
            .unwrap();
        assert_eq!(rev.1.total().retx_bytes, 700);
        let fwd = report
            .rings
            .iter()
            .find(|(l, _)| l == "trunk:n0-n1:fwd")
            .unwrap();
        assert_eq!(fwd.1.total().retx_bytes, 0);
        assert_eq!(rev.1.bucket(0, 3).unwrap().retx_bytes, 700);
    }
}
