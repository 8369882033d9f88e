//! The report fold: the one implementation of [`TraceReport`].
//!
//! [`StreamingReport`] accepts `(time_ns, wire_len)` columns in capture
//! order — whole chunks from a [`crate::ChunkCursor`], a whole store's
//! columns as one chunk, or single frames — and folds every quantity of
//! the paper's per-program row in one pass: Welford size/interarrival
//! statistics, the lifetime byte/span totals, inline burst segmentation,
//! and the anchored static binning that feeds the periodogram (through
//! the same [`StreamBinner`] the live watcher bins with).
//! [`TraceReport::analyze_view`] is this fold over a view, so an
//! out-of-core scan and an in-memory analysis run the same code, and
//! any chunking of a trace folds to the same bits — the property the
//! `analysis-scale` bench leg asserts at ten million frames.
//!
//! Peak state is O(output), not O(trace): the accumulator holds the
//! running scalars, one value per bandwidth bin, and one entry per
//! detected burst. No per-frame data survives the push.

use crate::bursts::{Burst, BurstProfile};
use crate::report::{ReportOptions, TraceReport};
use crate::spectrum::Periodogram;
use crate::stats::Welford;
use crate::stream::{SlidingBandwidth, StreamBinner};
use fxnet_sim::SimTime;

/// One-pass fold of a time-ordered trace into a [`TraceReport`].
#[derive(Debug, Clone)]
pub struct StreamingReport {
    label: String,
    opts: ReportOptions,
    n: usize,
    sizes: Welford,
    inter: Welford,
    bursts: Vec<Burst>,
    bytes: u64,
    first: u64,
    prev: Option<u64>,
    binner: StreamBinner,
}

impl StreamingReport {
    /// Start an empty fold for a trace labelled `label`.
    pub fn new(label: impl Into<String>, opts: &ReportOptions) -> StreamingReport {
        StreamingReport {
            label: label.into(),
            opts: opts.clone(),
            n: 0,
            sizes: Welford::new(),
            inter: Welford::new(),
            bursts: Vec::new(),
            bytes: 0,
            first: 0,
            prev: None,
            binner: StreamBinner::new(opts.bin),
        }
    }

    /// Frames folded so far.
    pub fn frames(&self) -> usize {
        self.n
    }

    /// Fold one frame. Frames must arrive in non-decreasing time order
    /// (the capture invariant every simulator trace satisfies); a frame
    /// earlier than its predecessor panics with "time-ordered".
    pub fn push(&mut self, time_ns: u64, wire_len: u32) {
        let t = time_ns;
        match self.prev {
            None => self.first = t,
            Some(p) => {
                assert!(
                    t >= p,
                    "StreamingReport requires time-ordered frames ({t} after {p})"
                );
                self.inter
                    .push((SimTime::from_nanos(t) - SimTime::from_nanos(p)).as_millis_f64());
            }
        }
        self.prev = Some(t);
        self.bytes += u64::from(wire_len);
        self.sizes.push(f64::from(wire_len));
        let time = SimTime::from_nanos(t);
        match self.bursts.last_mut() {
            Some(b) if time.saturating_sub(b.end) <= self.opts.burst_gap => {
                b.end = time;
                b.bytes += u64::from(wire_len);
                b.packets += 1;
            }
            _ => self.bursts.push(Burst {
                start: time,
                end: time,
                bytes: u64::from(wire_len),
                packets: 1,
            }),
        }
        self.binner.push(time, wire_len);
        self.n += 1;
    }

    /// Fold one chunk of columns.
    pub fn push_chunk(&mut self, time_ns: &[u64], wire_len: &[u32]) {
        assert_eq!(time_ns.len(), wire_len.len());
        for (&t, &len) in time_ns.iter().zip(wire_len) {
            self.push(t, len);
        }
    }

    /// Finish the fold, returning the report and the `opts.bin`-binned
    /// bandwidth series its periodogram was computed from (bytes/second
    /// per bin) — identical to `view.binned_bandwidth(opts.bin)` on the
    /// same frames, so downstream spectral consumers need no second pass.
    pub fn finish_with_series(mut self) -> (TraceReport, Vec<f64>) {
        let series = std::mem::replace(&mut self.binner, StreamBinner::new(self.opts.bin)).finish();
        let spec = (self.n != 0).then(|| Periodogram::compute(&series, self.opts.bin));
        (self.finish_with_spectrum(spec.as_ref()), series)
    }

    /// Finish the fold, returning just the report.
    pub fn finish(self) -> TraceReport {
        self.finish_with_series().0
    }

    /// Finish the fold with a caller-supplied spectrum of the trace's
    /// binned bandwidth (`None` for an empty trace) instead of
    /// computing one.
    pub(crate) fn finish_with_spectrum(self, spec: Option<&Periodogram>) -> TraceReport {
        let n = self.n;
        // Time order makes the first and last frames the trace's
        // earliest and latest.
        let span_s = match self.prev {
            None => 0.0,
            Some(last) => {
                (SimTime::from_nanos(last) - SimTime::from_nanos(self.first)).as_secs_f64()
            }
        };
        let avg_bandwidth = (span_s > 0.0).then(|| self.bytes as f64 / span_s);
        let (dominant_hz, flatness) = match spec {
            None => (None, None),
            Some(spec) => (
                spec.dominant_frequency(self.opts.min_hz),
                Some(spec.flatness()),
            ),
        };
        TraceReport {
            label: self.label,
            frames: n,
            span_s,
            sizes: self.sizes.finish(),
            interarrivals_ms: if n < 2 { None } else { self.inter.finish() },
            avg_bandwidth,
            bursts: BurstProfile::of_bursts(self.bursts),
            dominant_hz,
            flatness,
        }
    }
}

/// Running peak of the sliding-window bandwidth: the O(window) fold of
/// the quantity `sliding_window_bandwidth` materializes as a full
/// per-packet vector. Both the streamed and materialized `analysis-scale`
/// paths push the same frames through the same
/// [`SlidingBandwidth`] ring, so the peaks agree bitwise.
#[derive(Debug, Clone)]
pub struct SlidingPeak {
    ring: SlidingBandwidth,
    peak: f64,
    n: usize,
}

impl SlidingPeak {
    pub fn new(window: SimTime) -> SlidingPeak {
        SlidingPeak {
            ring: SlidingBandwidth::new(window),
            peak: f64::NEG_INFINITY,
            n: 0,
        }
    }

    /// Fold one frame; returns the instantaneous window bandwidth.
    pub fn push(&mut self, time: SimTime, wire_len: u32) -> f64 {
        let bw = self.ring.push(time, wire_len);
        self.peak = self.peak.max(bw);
        self.n += 1;
        bw
    }

    /// Highest window bandwidth seen, `None` before any frame.
    pub fn peak(&self) -> Option<f64> {
        (self.n > 0).then_some(self.peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::{binned_bandwidth, sliding_window_bandwidth};
    use crate::report::markdown_table_views;
    use crate::report::tests::{assert_reports_bitwise_equal, oracle_report};
    use crate::store::TraceStore;
    use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId, Proto};
    use proptest::prelude::*;

    fn burst_trace(n: usize) -> Vec<FrameRecord> {
        let mut t_us = 0u64;
        (0..n)
            .map(|i| {
                t_us += if i % 20 == 0 { 400_000 } else { 900 };
                FrameRecord::capture(
                    SimTime::from_micros(t_us),
                    &Frame::tcp(
                        HostId((i % 4) as u32),
                        HostId(((i + 1) % 4) as u32),
                        if i % 3 == 0 {
                            FrameKind::Ack
                        } else {
                            FrameKind::Data
                        },
                        if i % 3 == 0 { 0 } else { 1460 },
                        i as u64,
                    ),
                )
            })
            .collect()
    }

    /// Fold `tr` cut at `bounds` (ascending, from 0 to `tr.len()`).
    fn fold_chunks(label: &str, tr: &[FrameRecord], bounds: &[usize]) -> StreamingReport {
        let mut s = StreamingReport::new(label, &ReportOptions::default());
        for w in bounds.windows(2) {
            let slice = &tr[w[0]..w[1]];
            let t: Vec<u64> = slice.iter().map(|r| r.time.as_nanos()).collect();
            let wl: Vec<u32> = slice.iter().map(|r| r.wire_len).collect();
            s.push_chunk(&t, &wl);
        }
        s
    }

    fn assert_series_bitwise_equal(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn streamed_report_matches_materialized_exactly() {
        let tr = burst_trace(500);
        let store = TraceStore::from_records(&tr);
        let opts = ReportOptions::default();
        let oracle = oracle_report("demo", &tr, &opts);

        for chunk in [1usize, 7, 100, 500, 1000] {
            let bounds: Vec<usize> = (0..tr.len()).step_by(chunk).chain([tr.len()]).collect();
            let s = fold_chunks("demo", &tr, &bounds);
            assert_eq!(s.frames(), 500);
            let (streamed, series) = s.finish_with_series();
            assert_reports_bitwise_equal(&streamed, &oracle);
            assert_series_bitwise_equal(&series, &binned_bandwidth(&tr, opts.bin));
            // The rendered table row is what the bench artifacts diff.
            assert_eq!(
                format!(
                    "{}\n{}",
                    TraceReport::markdown_header(),
                    streamed.markdown_row()
                ),
                markdown_table_views([("demo", store.view())], &opts)
            );
        }
    }

    #[test]
    fn empty_stream_matches_empty_view() {
        let opts = ReportOptions::default();
        let empty = TraceStore::from_records(&[]);
        let (streamed, series) = StreamingReport::new("e", &opts).finish_with_series();
        assert_reports_bitwise_equal(
            &streamed,
            &TraceReport::analyze_view("e", empty.view(), &opts),
        );
        assert_reports_bitwise_equal(&streamed, &oracle_report("e", &[], &opts));
        assert!(series.is_empty());
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_frames_are_rejected() {
        let mut s = StreamingReport::new("x", &ReportOptions::default());
        s.push(1_000_000, 100);
        s.push(999_999, 100);
    }

    #[test]
    fn sliding_peak_matches_materialized_max() {
        let tr = burst_trace(400);
        let window = SimTime::from_millis(10);
        let mut peak = SlidingPeak::new(window);
        assert_eq!(peak.peak(), None);
        for r in &tr {
            peak.push(r.time, r.wire_len);
        }
        let full = sliding_window_bandwidth(&tr, window);
        let want = full.iter().fold(f64::NEG_INFINITY, |m, &(_, v)| m.max(v));
        assert_eq!(peak.peak().unwrap().to_bits(), want.to_bits());
    }

    proptest! {
        /// Any chunking — 1-frame chunks, one whole-trace chunk,
        /// anything between — folds to the exact bits of the slice
        /// oracle, and so does the whole-store view.
        #[test]
        fn any_chunking_is_bitwise_identical(
            times in prop::collection::vec(0u64..5_000_000_000u64, 0..120),
            sizes in prop::collection::vec(58u32..1519, 1..120),
            cuts in prop::collection::vec(0usize..120, 0..12),
        ) {
            let mut ts = times;
            ts.sort_unstable();
            let tr: Vec<FrameRecord> = ts
                .iter()
                .zip(sizes.iter().cycle())
                .map(|(&t, &sz)| FrameRecord {
                    time: SimTime::from_nanos(t),
                    wire_len: sz,
                    proto: if t % 2 == 0 { Proto::Tcp } else { Proto::Udp },
                    kind: FrameKind::Data,
                    src: HostId((t % 5) as u32),
                    dst: HostId((t % 3) as u32),
                })
                .collect();
            let opts = ReportOptions::default();
            let oracle = oracle_report("p", &tr, &opts);
            let store = TraceStore::from_records(&tr);
            assert_reports_bitwise_equal(
                &TraceReport::analyze_view("p", store.view(), &opts),
                &oracle,
            );

            let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (tr.len() + 1)).collect();
            bounds.push(0);
            bounds.push(tr.len());
            bounds.sort_unstable();
            bounds.dedup();
            let (streamed, series) = fold_chunks("p", &tr, &bounds).finish_with_series();
            assert_reports_bitwise_equal(&streamed, &oracle);
            assert_series_bitwise_equal(&series, &binned_bandwidth(&tr, opts.bin));
        }
    }
}
