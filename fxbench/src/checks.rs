//! Output checks. Each timed operation is checked against invariants
//! that hold for every seed; an operation whose call fails or whose
//! check fails is counted in `failed`.

use fxnet::trace::{TraceReport, TraceStore};
use fxnet::FrameRecord;

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` marks it failed.
    pub fn record(&mut self, op: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{op}: {e}"));
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `Err(msg)` unless `cond`.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Total wire bytes of a captured trace.
pub fn trace_bytes(trace: &[FrameRecord]) -> u64 {
    trace.iter().map(|r| u64::from(r.wire_len)).sum()
}

/// FNV-1a digest of a trace, for cheap repeat-run equality checks.
pub fn trace_digest(trace: &[FrameRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in trace {
        eat(r.time.as_nanos());
        eat(u64::from(r.wire_len));
        eat(u64::from(r.src.0) << 32 | u64::from(r.dst.0));
        eat((r.proto as u64) << 8 | r.kind as u64);
    }
    h
}

/// A report's frame and byte totals equal the trace's.
pub fn report_totals(report: &TraceReport, frames: u64, bytes: u64) -> Result<(), String> {
    ensure(report.frames as u64 == frames, || {
        format!("report has {} frames, trace {frames}", report.frames)
    })?;
    if frames == 0 {
        return Ok(());
    }
    let sizes = report
        .sizes
        .as_ref()
        .ok_or_else(|| "report lacks packet sizes".to_string())?;
    ensure(sizes.count as u64 == frames, || {
        format!("size stats count {} frames, trace {frames}", sizes.count)
    })?;
    let report_bytes = sizes.avg * sizes.count as f64;
    ensure(
        (report_bytes - bytes as f64).abs() <= 1e-9 * bytes as f64 + 1e-6,
        || format!("report carries {report_bytes} bytes, trace {bytes}"),
    )
}

/// A columnar store holds exactly the trace's frames and bytes.
pub fn store_totals(store: &TraceStore, frames: u64, bytes: u64) -> Result<(), String> {
    ensure(store.len() as u64 == frames, || {
        format!("store has {} frames, trace {frames}", store.len())
    })?;
    let got = store.view().bytes();
    ensure(got == bytes, || {
        format!("store has {got} bytes, trace {bytes}")
    })
}

/// Two reports agree bit for bit (`{:?}` prints floats in shortest
/// round-trip form, so equal text means equal bits).
pub fn same_report(a: &TraceReport, b: &TraceReport) -> Result<(), String> {
    let (a, b) = (format!("{a:?}"), format!("{b:?}"));
    ensure(a == b, || format!("reports differ:\n  {a}\n  {b}"))
}

/// An observed run's trace is byte-identical to the bare run's.
pub fn same_trace(bare: &[FrameRecord], observed: &[FrameRecord]) -> Result<(), String> {
    ensure(bare == observed, || {
        let at = bare
            .iter()
            .zip(observed)
            .position(|(a, b)| a != b)
            .unwrap_or(bare.len().min(observed.len()));
        format!(
            "traces differ at frame {at} ({} vs {} frames)",
            bare.len(),
            observed.len()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet::trace::ReportOptions;
    use fxnet::{KernelKind, TestbedBuilder};

    fn capture() -> Vec<FrameRecord> {
        TestbedBuilder::quiet(4)
            .seed(3)
            .build()
            .run_kernel(KernelKind::Hist, 200)
            .expect("tiny HIST run")
            .trace
    }

    /// The same check sequence the bus workload applies to each run.
    fn check_capture(
        trace: &[FrameRecord],
        store: &TraceStore,
        report: &TraceReport,
    ) -> Result<(), String> {
        let (frames, bytes) = (trace.len() as u64, trace_bytes(trace));
        store_totals(store, frames, bytes)?;
        report_totals(report, frames, bytes)
    }

    #[test]
    fn intact_output_passes() {
        let trace = capture();
        let store = TraceStore::from_records(&trace);
        let report = TraceReport::analyze_view("HIST", store.view(), &ReportOptions::default());
        let mut tally = Tally::default();
        tally.record("HIST", check_capture(&trace, &store, &report));
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "{:?}",
            tally.errors
        );
    }

    #[test]
    fn corrupted_output_is_counted_as_failed() {
        let trace = capture();
        let store = TraceStore::from_records(&trace);
        let opts = ReportOptions::default();
        let report = TraceReport::analyze_view("HIST", store.view(), &opts);
        let mut tally = Tally::default();

        // A frame lost between capture and analysis.
        let short = TraceStore::from_records(&trace[1..]);
        let short_report = TraceReport::analyze_view("HIST", short.view(), &opts);
        tally.record(
            "dropped frame",
            check_capture(&trace, &short, &short_report),
        );

        // One frame's length corrupted in the analyzed copy.
        let mut bent = trace.clone();
        bent[0].wire_len += 1;
        let bent_store = TraceStore::from_records(&bent);
        let bent_report = TraceReport::analyze_view("HIST", bent_store.view(), &opts);
        tally.record(
            "bent length",
            check_capture(&trace, &bent_store, &bent_report),
        );

        // Streamed and materialized results that disagree.
        tally.record("disagreement", same_report(&report, &bent_report));

        // An observer that perturbed the trace.
        tally.record("perturbed", same_trace(&trace, &bent));

        assert_eq!(tally.attempted, 4);
        assert_eq!(
            tally.failed, 4,
            "every corruption must fail: {:?}",
            tally.errors
        );
        assert_eq!(tally.failed_frac(), 1.0);
        assert_ne!(trace_digest(&trace), trace_digest(&bent));
    }
}
