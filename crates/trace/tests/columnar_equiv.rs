//! Columnar-vs-slice equivalence: every analysis kernel must produce
//! identical results on a [`TraceStore`] view and on the
//! `Vec<FrameRecord>` slice kernels — bitwise for the `f64` outputs,
//! since both share one arithmetic core — and the report fold must
//! equal the report composed from the slice kernels, on whole-store,
//! connection and tenant views alike. Covers unsorted and single-frame
//! traces, and the text↔binary round trip.

use fxnet_sim::{FrameKind, FrameRecord, HostId, Proto, SimTime};
use fxnet_trace::io::{read_store_binary, read_trace, write_store_binary, write_trace};
use fxnet_trace::{
    average_bandwidth, binned_bandwidth, connection, demux, demux_store, detect_bursts,
    dominant_modes, host_pairs, markdown_table_views, size_population, sliding_window_bandwidth,
    BurstProfile, Periodogram, ReportOptions, Stats, TraceReport, TraceStore, TraceView,
};
use proptest::prelude::*;

const BIN: SimTime = SimTime::from_millis(10);
const GAP: SimTime = SimTime::from_millis(5);

/// Build a trace from raw (time_us, size, src, dst) tuples; proto and
/// kind cycle through every combination.
fn trace_from(parts: &[(u64, u32, u32, u32)]) -> Vec<FrameRecord> {
    parts
        .iter()
        .enumerate()
        .map(|(i, &(t, sz, s, d))| FrameRecord {
            time: SimTime::from_micros(t),
            wire_len: sz,
            proto: if i % 2 == 0 { Proto::Tcp } else { Proto::Udp },
            kind: match i % 4 {
                0 => FrameKind::Data,
                1 => FrameKind::Ack,
                2 => FrameKind::Syn,
                _ => FrameKind::Datagram,
            },
            src: HostId(s),
            dst: HostId(d),
        })
        .collect()
}

fn stats_bits(s: Option<Stats>) -> Option<(u64, u64, u64, u64, usize)> {
    s.map(|s| {
        (
            s.min.to_bits(),
            s.max.to_bits(),
            s.avg.to_bits(),
            s.sd.to_bits(),
            s.count,
        )
    })
}

/// The report composed from the per-quantity slice kernels: the oracle
/// [`TraceReport::analyze_view`] must match bit for bit.
fn oracle_report(label: &str, tr: &[FrameRecord], opts: &ReportOptions) -> TraceReport {
    let spec =
        (!tr.is_empty()).then(|| Periodogram::compute(&binned_bandwidth(tr, opts.bin), opts.bin));
    TraceReport {
        label: label.to_string(),
        frames: tr.len(),
        span_s: match (tr.first(), tr.last()) {
            (Some(a), Some(b)) => (b.time - a.time).as_secs_f64(),
            _ => 0.0,
        },
        sizes: Stats::packet_sizes(tr),
        interarrivals_ms: Stats::interarrivals_ms(tr),
        avg_bandwidth: average_bandwidth(tr),
        bursts: BurstProfile::of(tr, opts.burst_gap),
        dominant_hz: spec
            .as_ref()
            .and_then(|p| p.dominant_frequency(opts.min_hz)),
        flatness: spec.as_ref().map(Periodogram::flatness),
    }
}

/// Assert the fold over `view` equals the oracle over its copied frames,
/// field by field and bit for bit.
fn assert_report_matches_oracle(view: TraceView<'_>) {
    let opts = ReportOptions::default();
    let a = TraceReport::analyze_view("t", view, &opts);
    let b = oracle_report("t", &view.to_records(), &opts);
    assert_eq!(a.frames, b.frames);
    assert_eq!(a.span_s.to_bits(), b.span_s.to_bits());
    assert_eq!(stats_bits(a.sizes), stats_bits(b.sizes));
    assert_eq!(
        stats_bits(a.interarrivals_ms),
        stats_bits(b.interarrivals_ms)
    );
    assert_eq!(
        a.avg_bandwidth.map(f64::to_bits),
        b.avg_bandwidth.map(f64::to_bits)
    );
    assert_eq!(
        a.bursts
            .as_ref()
            .map(|p| (stats_bits(Some(p.sizes)), stats_bits(p.intervals), p.count)),
        b.bursts
            .as_ref()
            .map(|p| (stats_bits(Some(p.sizes)), stats_bits(p.intervals), p.count))
    );
    assert_eq!(
        a.dominant_hz.map(f64::to_bits),
        b.dominant_hz.map(f64::to_bits)
    );
    assert_eq!(a.flatness.map(f64::to_bits), b.flatness.map(f64::to_bits));
    assert_eq!(a.markdown_row(), b.markdown_row());
}

/// Assert every kernel agrees between the slice kernels and the
/// columnar view, bit for bit. `sorted` gates the kernels that assume
/// capture order (the sliding window's ring and the report fold assert
/// monotone time).
fn assert_kernels_agree(tr: &[FrameRecord], sorted: bool) {
    let store = TraceStore::from_records(tr);
    let v = store.view();

    assert_eq!(store.to_records(), tr, "record round trip");
    assert_eq!(
        stats_bits(v.packet_sizes()),
        stats_bits(Stats::packet_sizes(tr))
    );
    assert_eq!(
        v.average_bandwidth().map(f64::to_bits),
        average_bandwidth(tr).map(f64::to_bits)
    );
    let (vb, lb) = (v.binned_bandwidth(BIN), binned_bandwidth(tr, BIN));
    assert_eq!(
        vb.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        lb.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "binned series"
    );
    // The spectrum input series being identical makes the periodogram
    // identical; spot-check the total power anyway.
    if !vb.is_empty() {
        assert_eq!(
            Periodogram::compute(&vb, BIN).total_power().to_bits(),
            Periodogram::compute(&lb, BIN).total_power().to_bits()
        );
    }
    assert_eq!(v.detect_bursts(GAP), detect_bursts(tr, GAP));
    if sorted {
        // Burst intervals subtract consecutive start times, which (like
        // the legacy path) assumes capture order.
        let (vp, lp) = (v.burst_profile(GAP), BurstProfile::of(tr, GAP));
        assert_eq!(
            vp.as_ref().map(|p| (stats_bits(Some(p.sizes)), p.count)),
            lp.as_ref().map(|p| (stats_bits(Some(p.sizes)), p.count))
        );
    }
    assert_eq!(v.size_population(), size_population(tr));
    assert_eq!(v.dominant_modes(0.1), dominant_modes(tr, 0.1));
    assert_eq!(v.host_pairs(), host_pairs(tr));
    assert_eq!(store.host_pairs(), host_pairs(tr));
    for &((s, d), n) in &store.host_pairs() {
        let legacy = connection(tr, s, d);
        let view = store.connection(s, d);
        assert_eq!(view.len(), n);
        assert_eq!(view.to_records(), legacy);
        assert_eq!(
            stats_bits(view.packet_sizes()),
            stats_bits(Stats::packet_sizes(&legacy))
        );
    }
    if sorted {
        assert_eq!(
            stats_bits(v.interarrivals_ms()),
            stats_bits(Stats::interarrivals_ms(tr))
        );
        assert_eq!(
            v.sliding_window_bandwidth(BIN),
            sliding_window_bandwidth(tr, BIN)
        );
        assert_report_matches_oracle(v);
        for &((s, d), _) in &store.host_pairs() {
            assert_report_matches_oracle(store.connection(s, d));
        }
        let map = fxnet_pvm::TenantMap::pack([("A".to_string(), 3), ("B".to_string(), 3)]);
        let tenants = demux_store(&store, &map);
        for i in 0..tenants.tenants() {
            assert_report_matches_oracle(tenants.tenant(i));
        }
        assert_report_matches_oracle(tenants.background_view());
        let opts = ReportOptions::default();
        assert_eq!(
            markdown_table_views([("t", v)], &opts),
            format!(
                "{}\n{}",
                TraceReport::markdown_header(),
                oracle_report("t", tr, &opts).markdown_row()
            )
        );
    }
}

#[test]
fn single_frame_trace_agrees() {
    assert_kernels_agree(&trace_from(&[(5, 1518, 0, 1)]), true);
}

#[test]
fn empty_trace_agrees() {
    assert_kernels_agree(&[], true);
}

#[test]
fn two_identical_timestamps_agree() {
    assert_kernels_agree(&trace_from(&[(7, 100, 0, 1), (7, 200, 1, 0)]), true);
}

#[test]
fn deterministic_unsorted_trace_agrees() {
    assert_kernels_agree(
        &trace_from(&[
            (900, 1518, 0, 1),
            (100, 58, 1, 0),
            (500, 700, 0, 1),
            (100, 1518, 2, 3),
            (0, 58, 0, 1),
        ]),
        false,
    );
}

#[test]
fn demux_agrees_with_legacy_on_interleaved_tenants() {
    let map = fxnet_pvm::TenantMap::pack([("A".to_string(), 2), ("B".to_string(), 2)]);
    let mut parts = Vec::new();
    for i in 0..60u64 {
        parts.push((4 * i, 1518, 0, 1));
        parts.push((4 * i + 1, 700, 2, 3));
        parts.push((4 * i + 2, 58, 1, 0));
        parts.push((4 * i + 3, 58, 4, 0)); // cross-boundary: background
    }
    let tr = trace_from(&parts);
    let store = TraceStore::from_records(&tr);
    let legacy = demux(&tr, &map);
    let cols = demux_store(&store, &map);
    assert_eq!(cols.check_conservation(), legacy.check_conservation());
    for i in 0..2 {
        assert_eq!(cols.tenant(i).to_records(), legacy.tenant(i));
        assert_eq!(
            stats_bits(cols.tenant(i).packet_sizes()),
            stats_bits(Stats::packet_sizes(legacy.tenant(i)))
        );
    }
    assert_eq!(cols.background_view().to_records(), legacy.background);
    for i in 0..2 {
        assert_report_matches_oracle(cols.tenant(i));
    }
    assert_report_matches_oracle(cols.background_view());
}

proptest! {
    #[test]
    fn kernels_agree_on_arbitrary_sorted_traces(
        times in prop::collection::vec(0u64..2_000_000u64, 1..150),
        sizes in prop::collection::vec(58u32..1519, 1..150),
        hosts in prop::collection::vec((0u32..6, 0u32..6), 1..150),
    ) {
        let mut ts = times;
        ts.sort_unstable();
        let parts: Vec<(u64, u32, u32, u32)> = ts
            .iter()
            .zip(sizes.iter().cycle())
            .zip(hosts.iter().cycle())
            .map(|((&t, &sz), &(s, d))| (t, sz, s, d))
            .collect();
        assert_kernels_agree(&trace_from(&parts), true);
    }

    #[test]
    fn kernels_agree_on_arbitrary_unsorted_traces(
        times in prop::collection::vec(0u64..2_000_000u64, 1..150),
        sizes in prop::collection::vec(58u32..1519, 1..150),
        hosts in prop::collection::vec((0u32..6, 0u32..6), 1..150),
    ) {
        let parts: Vec<(u64, u32, u32, u32)> = times
            .iter()
            .zip(sizes.iter().cycle())
            .zip(hosts.iter().cycle())
            .map(|((&t, &sz), &(s, d))| (t, sz, s, d))
            .collect();
        assert_kernels_agree(&trace_from(&parts), false);
    }

    #[test]
    fn demux_store_agrees_on_arbitrary_traces(
        times in prop::collection::vec(0u64..1_000_000u64, 1..120),
        hosts in prop::collection::vec((0u32..8, 0u32..8), 1..120),
    ) {
        let map = fxnet_pvm::TenantMap::pack([("A".to_string(), 3), ("B".to_string(), 3)]);
        let parts: Vec<(u64, u32, u32, u32)> = times
            .iter()
            .zip(hosts.iter().cycle())
            .map(|(&t, &(s, d))| (t, 400, s, d))
            .collect();
        let tr = trace_from(&parts);
        let store = TraceStore::from_records(&tr);
        let legacy = demux(&tr, &map);
        let cols = demux_store(&store, &map);
        prop_assert_eq!(cols.check_conservation(), legacy.check_conservation());
        for i in 0..legacy.per_tenant.len() {
            prop_assert_eq!(cols.tenant(i).to_records(), legacy.tenant(i).to_vec());
        }
        prop_assert_eq!(cols.background_view().to_records(), legacy.background);
    }

    #[test]
    fn binary_text_round_trip_agrees(
        times in prop::collection::vec(0u64..u64::MAX / 2, 1..80),
        sizes in prop::collection::vec(58u32..1519, 1..80),
        hosts in prop::collection::vec((0u32..16, 0u32..16), 1..80),
    ) {
        let parts: Vec<(u64, u32, u32, u32)> = times
            .iter()
            .zip(sizes.iter().cycle())
            .zip(hosts.iter().cycle())
            .map(|((&t, &sz), &(s, d))| (t / 1000, sz, s, d))
            .collect();
        let tr = trace_from(&parts);
        let store = TraceStore::from_records(&tr);
        let mut bin = Vec::new();
        write_store_binary(&mut bin, &store).unwrap();
        let mut txt = Vec::new();
        write_trace(&mut txt, &tr).unwrap();
        let from_bin = read_store_binary(&mut &bin[..]).unwrap();
        let from_txt = read_trace(&mut &txt[..]).unwrap();
        prop_assert_eq!(&from_bin, &store);
        prop_assert_eq!(&from_txt, &tr);
        prop_assert_eq!(from_bin.to_records(), from_txt);
    }
}
