//! `trace-scan`: the analysis half without the simulator. Setup
//! synthesizes a seeded trace with the paper's shape; each pass writes
//! it as chunked FXTC v2, scans the file once streamed
//! (`StreamingReport` + `SlidingPeak` + `ScalingAccum` + Goertzel
//! harmonics), then loads it materialized and analyzes it
//! (`load_store` + `analyze_view`). The two reports must agree bit for
//! bit.

use crate::checks::{ensure, report_totals, same_report, store_totals, trace_bytes, Tally};
use crate::layers::{LayerPasses, Layers};
use crate::ledger::{median, process_cpu_s, Ledger};
use crate::{repeat, timed_setup, Args, Outcome, Pass, Scale, MIN_PASSES};
use fxnet::metrics::{ScalingAccum, ScalingRelation};
use fxnet::sim::{Frame, FrameKind};
use fxnet::spectral::harmonic_powers;
use fxnet::trace::{
    load_store, ChunkCursor, ChunkedWriter, Periodogram, ReportOptions, SlidingPeak,
    StreamingReport, TraceIoError, TraceReport,
};
use fxnet::{FrameRecord, HostId, SimTime};
use serde::Value;
use std::path::{Path, PathBuf};

/// Hosts on the synthetic LAN.
const HOSTS: u32 = 32;
/// Hosts per all-to-all group; each burst is one group's exchange.
const GROUP: u32 = 8;
/// Burst period: a 2.087 Hz fundamental, like the paper's kernels.
const PERIOD_NS: u64 = 479_157_000;
/// Synthetic link rate the frames are paced at (100 Mb/s).
const NS_PER_BYTE: u64 = 80;
/// Frames per FXTC v2 chunk.
const CHUNK_FRAMES: usize = 65_536;
/// Harmonics of the burst fundamental probed with Goertzel.
const HARMONICS: [u32; 4] = [1, 2, 3, 4];
/// The host-pair matrix ladder: 1 ms → 10 ms → 100 ms → 1 s.
const MATRIX_BASE_NS: u64 = 1_000_000;
const MATRIX_SCALES: [u64; 4] = [1, 10, 100, 1000];
const LABEL: &str = "trace-scan";
/// Frames of the warm-up trace setup runs a pass over.
const WARM_FRAMES: usize = 60_000;

/// SplitMix64: a tiny seeded generator, so the inputs depend on the
/// seed alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A trace of exactly `frames` frames with the paper's shape: periodic
/// bursts, each an all-to-all exchange inside one group of hosts;
/// trimodal frame sizes (58-byte ACKs, full 1518-byte segments, and one
/// message-tail size per run); many host pairs. Time-ordered.
pub fn synthesize(seed: u64, frames: usize) -> Vec<FrameRecord> {
    let mut rng = SplitMix(seed ^ 0xF0E1_D2C3_B4A5_9687);
    let tail = 100 + rng.below(1_200) as u32;
    let mut out = Vec::with_capacity(frames);
    let mut t = 0u64;
    let push = |out: &mut Vec<FrameRecord>, t: &mut u64, frame: Frame, gap: u64| {
        out.push(FrameRecord::capture(SimTime::from_nanos(*t), &frame));
        *t += u64::from(frame.wire_len()) * NS_PER_BYTE + gap;
    };
    for burst in 0u64.. {
        t = t.max(burst * PERIOD_NS + rng.below(2_000_000));
        let base = rng.below(u64::from(HOSTS / GROUP)) as u32 * GROUP;
        let full = 4 + rng.below(8);
        for (i, j) in (0..GROUP).flat_map(|i| (0..GROUP).map(move |j| (i, j))) {
            if i == j {
                continue;
            }
            let (src, dst) = (HostId(base + i), HostId(base + j));
            for seg in 0..=full {
                let payload = if seg < full { 1_460 } else { tail };
                let data = Frame::tcp(src, dst, FrameKind::Data, payload, 0);
                push(&mut out, &mut t, data, rng.below(3_000));
                if seg % 2 == 1 || seg == full {
                    let ack = Frame::tcp(dst, src, FrameKind::Ack, 0, 0);
                    push(&mut out, &mut t, ack, rng.below(3_000));
                }
                if out.len() >= frames {
                    out.truncate(frames);
                    return out;
                }
            }
        }
    }
    unreachable!("the burst loop only ends by returning")
}

/// A per-process scratch directory inside the benchmark's own
/// directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes `.work` itself only once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn write(path: &Path, records: &[FrameRecord]) -> std::io::Result<u64> {
    let mut w = ChunkedWriter::create(path)?;
    for chunk in records.chunks(CHUNK_FRAMES) {
        w.append_records(chunk)?;
    }
    let dir = w.finish()?;
    Ok(dir.frames())
}

/// The streamed scan's results and per-layer times.
struct Streamed {
    report: TraceReport,
    harmonics: Vec<(f64, f64)>,
    sliding_peak: Option<f64>,
    relations: Vec<ScalingRelation>,
    decode_s: f64,
    fold_s: f64,
    scaling_s: f64,
    goertzel_s: f64,
}

fn stream(path: &Path, ledger: &mut Ledger) -> Result<Streamed, TraceIoError> {
    let opts = ReportOptions::default();
    let mut cursor = ChunkCursor::open(path)?;
    let mut report = StreamingReport::new(LABEL, &opts);
    let mut sliding = SlidingPeak::new(opts.bin);
    let mut matrices = ScalingAccum::new(MATRIX_BASE_NS, &MATRIX_SCALES);
    let (mut decode_s, mut fold_s, mut scaling_s) = (0.0, 0.0, 0.0);
    loop {
        let open = ledger.enter("io.decode");
        let next = cursor.next_chunk();
        decode_s += ledger.exit(open);
        let Some((_, buf)) = next? else {
            break;
        };
        let open = ledger.enter("streaming.fold");
        report.push_chunk(&buf.time_ns, &buf.wire_len);
        for (&t, &len) in buf.time_ns.iter().zip(&buf.wire_len) {
            sliding.push(SimTime::from_nanos(t), len);
        }
        fold_s += ledger.exit(open);
        let open = ledger.enter("metrics.scaling");
        matrices.record_columns(&buf.time_ns, &buf.src, &buf.dst);
        scaling_s += ledger.exit(open);
    }
    let ((report, series), s) = ledger.time("streaming.fold", || report.finish_with_series());
    fold_s += s;
    let base_hz = 1e9 / PERIOD_NS as f64;
    let (harmonics, goertzel_s) = ledger.time("spectral.goertzel", || {
        harmonic_powers(&series, opts.bin, base_hz, &HARMONICS)
    });
    let (relations, s) = ledger.time("metrics.scaling", || matrices.finalize());
    scaling_s += s;
    Ok(Streamed {
        report,
        harmonics,
        sliding_peak: sliding.peak(),
        relations,
        decode_s,
        fold_s,
        scaling_s,
        goertzel_s,
    })
}

/// Every invariant of a streamed scan over `frames` frames of `bytes`.
fn check_streamed(s: &Streamed, frames: u64, bytes: u64) -> Result<(), String> {
    report_totals(&s.report, frames, bytes)?;
    if let Some(r) = s.relations.iter().find(|r| r.total_packets != frames) {
        return Err(format!(
            "scaling ladder counts {} of {frames} frames at scale {}",
            r.total_packets, r.scale
        ));
    }
    ensure(
        s.relations.len() == MATRIX_SCALES.len()
            && s.harmonics.len() == HARMONICS.len()
            && s.harmonics
                .iter()
                .all(|(f, p)| f.is_finite() && p.is_finite()),
        || "scaling ladder or harmonic probe incomplete".into(),
    )?;
    ensure(s.sliding_peak.is_some_and(|p| p > 0.0), || {
        "no sliding-window peak".into()
    })
}

/// One pass: write, streamed scan, materialized load and analysis.
fn pass(
    path: &Path,
    records: &[FrameRecord],
    bytes: u64,
    ledger: &mut Ledger,
    tally: &mut Tally,
    layers: Option<&mut Layers>,
) -> Pass {
    let frames = records.len() as u64;
    let cpu = process_cpu_s();
    let open_pass = ledger.enter("scan.pass");

    let (written, write_s) = ledger.time("io.write", || write(path, records));
    tally.record(
        "write",
        written
            .map_err(|e| e.to_string())
            .and_then(|n| ensure(n == frames, || format!("wrote {n} of {frames} frames"))),
    );

    let open_analysis = ledger.enter("analyze");
    let open = ledger.enter("scan.streamed");
    let streamed = stream(path, ledger).map_err(|e| e.to_string());
    ledger.exit(open);
    tally.record(
        "streamed scan",
        streamed
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|s| check_streamed(s, frames, bytes)),
    );

    let open = ledger.enter("scan.materialized");
    let (loaded, load_s) = ledger.time("io.load", || load_store(path));
    let (mut spectrum_s, mut report_s, mut resident) = (0.0, 0.0, 0.0);
    let materialized = loaded.map_err(|e| e.to_string()).map(|store| {
        let opts = ReportOptions::default();
        resident = store.column_bytes() as f64;
        let spec = if layers.is_some() {
            let (spec, s) = ledger.time("spectral.periodogram", || {
                (!store.is_empty()).then(|| {
                    Periodogram::compute(&store.view().binned_bandwidth(opts.bin), opts.bin)
                })
            });
            spectrum_s = s;
            spec
        } else {
            None
        };
        let (report, s) = ledger.time("trace.report", || match &spec {
            Some(spec) => {
                TraceReport::analyze_view_with_spectrum(LABEL, store.view(), &opts, Some(spec))
            }
            None => TraceReport::analyze_view(LABEL, store.view(), &opts),
        });
        report_s = s;
        (store, report)
    });
    ledger.exit(open);
    let analyze_s = ledger.exit(open_analysis);
    tally.record(
        "materialized scan",
        materialized.and_then(|(store, report)| {
            store_totals(&store, frames, bytes)?;
            report_totals(&report, frames, bytes)?;
            match &streamed {
                Ok(s) => same_report(&s.report, &report),
                Err(_) => Err("no streamed report to agree with".into()),
            }
        }),
    );

    if let Some(layers) = layers {
        let file_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        layers.set("io.write_s", write_s);
        layers.set(
            "io.bytes_per_frame",
            file_bytes as f64 / frames.max(1) as f64,
        );
        if let Ok(s) = &streamed {
            layers.set("io.decode_s", s.decode_s);
            layers.set("streaming.fold_s", s.fold_s);
            layers.set("metrics.scaling_s", s.scaling_s);
            layers.set("spectral.goertzel_s", s.goertzel_s);
        }
        layers.set("io.load_s", load_s);
        layers.set("spectral.periodogram_s", spectrum_s);
        layers.set("trace.report_s", report_s);
        layers.set("trace.resident_bytes", resident);
    }
    Pass {
        wall_s: ledger.exit(open_pass),
        cpu_s: process_cpu_s() - cpu,
        frames,
        produce_s: write_s,
        analyzed_frames: 2 * frames,
        analyze_s,
    }
}

pub fn run(args: &Args, ledger: &mut Ledger) -> std::io::Result<Outcome> {
    let frames = match args.scale {
        Scale::Full => 3_000_000,
        Scale::Tiny => WARM_FRAMES,
    };
    let work = WorkDir::create()?;
    let path = work.0.join("trace.fxb");
    let mut tally = Tally::default();

    // Setup: synthesize the input, and warm the write and both scans up
    // on a small trace of the same shape.
    let (records, setup_s) = timed_setup(7, || {
        let warm = synthesize(args.seed, WARM_FRAMES);
        let mut quiet = Ledger::new(false);
        pass(
            &path,
            &warm,
            trace_bytes(&warm),
            &mut quiet,
            &mut tally,
            None,
        );
        synthesize(args.seed, frames)
    });
    let bytes = trace_bytes(&records);

    let mut passes = Vec::new();
    let mut layer_passes = LayerPasses::default();
    let mut traced_walls = Vec::new();
    repeat(args.seconds, MIN_PASSES, || {
        ledger.set_tracing(false);
        passes.push(pass(&path, &records, bytes, ledger, &mut tally, None));
        if args.trace {
            ledger.set_tracing(true);
            let mut layers = Layers::default();
            let p = pass(
                &path,
                &records,
                bytes,
                ledger,
                &mut tally,
                Some(&mut layers),
            );
            traced_walls.push(p.wall_s);
            layer_passes.push(layers);
        }
    });

    let layers = args.trace.then(|| {
        let mut layers = layer_passes.median();
        let untraced: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        layers.set(
            "trace.overhead_s",
            median(&traced_walls) - median(&untraced),
        );
        layers
    });

    Ok(Outcome {
        tally,
        setup_s,
        passes,
        layers,
        detail: Vec::new(),
        sizes: vec![
            ("frames".into(), Value::U64(frames as u64)),
            ("bytes".into(), Value::U64(bytes)),
            ("chunk_frames".into(), Value::U64(CHUNK_FRAMES as u64)),
            ("hosts".into(), Value::U64(u64::from(HOSTS))),
            ("group".into(), Value::U64(u64::from(GROUP))),
        ],
        shards: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet::trace::TraceStore;

    #[test]
    fn synthetic_trace_has_the_paper_shape() {
        let recs = synthesize(5, 20_000);
        assert_eq!(recs.len(), 20_000);
        assert!(recs.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(recs, synthesize(5, 20_000), "same seed, same trace");
        assert_ne!(recs, synthesize(6, 20_000), "seed changes the trace");
        let store = TraceStore::from_records(&recs);
        let modes = store.view().dominant_modes(0.05);
        assert!(modes.contains(&58) && modes.contains(&1518), "{modes:?}");
        assert!(store.host_pairs().len() >= 56);
    }
}
