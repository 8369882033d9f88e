//! `bus-paper`: the six programs on the paper's testbed — P=4, direct
//! TCP, the shared 10 Mb/s CSMA/CD bus — each run followed by the
//! columnar store and `analyze_view`. No observers, telemetry off
//! (except in the traced passes, which read the engine's ledger).

use crate::checks::{ensure, report_totals, store_totals, trace_bytes, trace_digest, Tally};
use crate::layers::{finish_telemetry, fold_telemetry, profile_split, LayerPasses, Layers};
use crate::ledger::{median, process_cpu_s, Ledger};
use crate::{repeat, timed_setup, Args, Outcome, Pass, Scale, MIN_PASSES};
use fxnet::apps::airshed::AirshedParams;
use fxnet::telemetry::RunTelemetry;
use fxnet::trace::{Periodogram, ReportOptions, TraceReport, TraceStore};
use fxnet::{FxnetResult, KernelKind, RunResult, Testbed, TestbedBuilder};
use serde::Value;

#[derive(Debug, Clone, Copy)]
enum Program {
    Kernel(KernelKind),
    Airshed,
}

const PROGRAMS: [Program; 6] = [
    Program::Kernel(KernelKind::Sor),
    Program::Kernel(KernelKind::Fft2d),
    Program::Kernel(KernelKind::T2dfft),
    Program::Kernel(KernelKind::Seq),
    Program::Kernel(KernelKind::Hist),
    Program::Airshed,
];

/// Program scale: kernels run their outer iterations divided by `div`,
/// AIRSHED simulates `hours` hours.
#[derive(Debug, Clone, Copy)]
struct Size {
    div: usize,
    hours: usize,
}

impl Size {
    fn of(scale: Scale) -> Size {
        match scale {
            // One pass is about 1.1 s on one core of a 2.0 GHz Xeon.
            Scale::Full => Size { div: 8, hours: 12 },
            Scale::Tiny => Size { div: 200, hours: 1 },
        }
    }
}

impl Program {
    fn name(self) -> &'static str {
        match self {
            Program::Kernel(k) => k.name(),
            Program::Airshed => "AIRSHED",
        }
    }

    fn run(self, tb: &Testbed, size: Size) -> FxnetResult<RunResult<u64>> {
        match self {
            Program::Kernel(k) => tb.run_kernel(k, size.div),
            Program::Airshed => tb.run_airshed(AirshedParams {
                hours: size.hours,
                ..AirshedParams::paper()
            }),
        }
    }
}

/// One program's simulation and analysis.
struct ProgramRun {
    frames: u64,
    sim_s: f64,
    analyze_s: f64,
    store_s: f64,
    spectrum_s: f64,
    report_s: f64,
    digest: u64,
    /// `{:?}` of the report, for the cross-pass agreement check.
    report: String,
    telemetry: Option<RunTelemetry>,
    check: Result<(), String>,
}

/// Simulate `prog`, then build its store and report. With `split`
/// (traced passes) the spectrum and the fused report are timed as
/// separate spans; the report must come out the same either way.
fn run_program(
    tb: &Testbed,
    prog: Program,
    size: Size,
    ledger: &mut Ledger,
    split: bool,
) -> ProgramRun {
    let opts = ReportOptions::default();
    let (result, sim_s) = ledger.time("sim", || prog.run(tb, size));
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            return ProgramRun {
                frames: 0,
                sim_s,
                analyze_s: 0.0,
                store_s: 0.0,
                spectrum_s: 0.0,
                report_s: 0.0,
                digest: 0,
                report: String::new(),
                telemetry: None,
                check: Err(format!("run failed: {e}")),
            }
        }
    };
    let trace = &run.trace;
    let (frames, bytes) = (trace.len() as u64, trace_bytes(trace));

    let open = ledger.enter("analyze");
    let (store, store_s) = ledger.time("trace.store", || TraceStore::from_records(trace));
    let (spec, spectrum_s) = if split {
        ledger.time("spectral.periodogram", || {
            (!store.is_empty())
                .then(|| Periodogram::compute(&store.view().binned_bandwidth(opts.bin), opts.bin))
        })
    } else {
        (None, 0.0)
    };
    let (report, report_s) = ledger.time("trace.report", || match &spec {
        Some(spec) => {
            TraceReport::analyze_view_with_spectrum(prog.name(), store.view(), &opts, Some(spec))
        }
        None => TraceReport::analyze_view(prog.name(), store.view(), &opts),
    });
    let analyze_s = ledger.exit(open);

    let check = ensure(run.ether.frames_delivered == frames, || {
        format!(
            "MAC delivered {} frames, tracer captured {frames}",
            run.ether.frames_delivered
        )
    })
    .and_then(|()| store_totals(&store, frames, bytes))
    .and_then(|()| report_totals(&report, frames, bytes));
    ProgramRun {
        frames,
        sim_s,
        analyze_s,
        store_s,
        spectrum_s,
        report_s,
        digest: trace_digest(trace),
        report: format!("{report:?}"),
        telemetry: run.telemetry,
        check,
    }
}

/// What the first run of each program produced (trace digest and
/// report); every later run with the same seed must reproduce it,
/// traced or not.
struct Reference([Option<(u64, String)>; PROGRAMS.len()]);

impl Reference {
    fn check(&mut self, i: usize, run: &ProgramRun) -> Result<(), String> {
        match &self.0[i] {
            None => {
                self.0[i] = Some((run.digest, run.report.clone()));
                Ok(())
            }
            Some((digest, report)) => {
                ensure(*digest == run.digest, || {
                    "trace differs from the first run with this seed".to_string()
                })?;
                ensure(*report == run.report, || {
                    format!(
                        "report differs from the first run:\n  {report}\n  {}",
                        run.report
                    )
                })
            }
        }
    }
}

/// The state passes share: the two testbeds, the reference outputs,
/// the tally, and the last traced pass's rank-wait share per program.
struct Bus {
    plain: Testbed,
    traced: Testbed,
    size: Size,
    reference: Reference,
    tally: Tally,
    wait_shares: Vec<(String, Value)>,
}

impl Bus {
    /// One pass over the six programs. With `layers`, the pass runs on
    /// the telemetry testbed, folds its telemetry into `layers` and
    /// checks each profile against the call's own timing.
    fn pass(&mut self, ledger: &mut Ledger, mut layers: Option<&mut Layers>) -> Pass {
        let tb = if layers.is_some() {
            &self.traced
        } else {
            &self.plain
        };
        let cpu = process_cpu_s();
        let open = ledger.enter("bus.pass");
        let mut p = Pass::default();
        for (i, &prog) in PROGRAMS.iter().enumerate() {
            let run = run_program(tb, prog, self.size, ledger, layers.is_some());
            p.frames += run.frames;
            p.analyzed_frames += run.frames;
            p.produce_s += run.sim_s;
            p.analyze_s += run.analyze_s;
            let mut check = run
                .check
                .clone()
                .and_then(|()| self.reference.check(i, &run));
            if let Some(layers) = layers.as_deref_mut() {
                layers.add("trace.store_s", run.store_s);
                layers.add("spectral.periodogram_s", run.spectrum_s);
                layers.add("trace.report_s", run.report_s);
                check = check.and_then(|()| match &run.telemetry {
                    Some(tel) => fold_telemetry(layers, tel, Some(run.sim_s)),
                    None => Err("telemetry missing from a traced run".into()),
                });
                if let Some(profile) = run.telemetry.as_ref().and_then(|t| t.profile.as_ref()) {
                    let (wall, event_s, advance_s) = profile_split(profile);
                    let share = (wall - event_s - advance_s) / wall;
                    self.wait_shares.retain(|(name, _)| name != prog.name());
                    self.wait_shares
                        .push((prog.name().into(), Value::F64(share)));
                }
            }
            self.tally.record(prog.name(), check);
        }
        p.wall_s = ledger.exit(open);
        p.cpu_s = process_cpu_s() - cpu;
        p
    }
}

pub fn run(args: &Args, ledger: &mut Ledger) -> Outcome {
    let size = Size::of(args.scale);
    let warm = Size::of(Scale::Tiny);
    let mut tally = Tally::default();

    // Setup: build the testbeds and warm every program up at tiny scale.
    let ((plain, traced), setup_s) = timed_setup(7, || {
        let plain = TestbedBuilder::paper().seed(args.seed).shards(1).build();
        let traced = TestbedBuilder::paper()
            .seed(args.seed)
            .shards(1)
            .telemetry()
            .build();
        for prog in PROGRAMS {
            tally.record(
                "warm-up",
                prog.run(&plain, warm)
                    .map(|_| ())
                    .map_err(|e| format!("{}: {e}", prog.name())),
            );
        }
        (plain, traced)
    });
    let mut bus = Bus {
        plain,
        traced,
        size,
        reference: Reference(Default::default()),
        tally,
        wait_shares: Vec::new(),
    };

    let mut passes = Vec::new();
    let mut layer_passes = LayerPasses::default();
    let mut traced_passes = Vec::new();
    repeat(args.seconds, MIN_PASSES, || {
        ledger.set_tracing(false);
        passes.push(bus.pass(ledger, None));
        if args.trace {
            ledger.set_tracing(true);
            let mut layers = Layers::default();
            traced_passes.push(bus.pass(ledger, Some(&mut layers)));
            finish_telemetry(&mut layers);
            layer_passes.push(layers);
        }
    });

    let layers = args.trace.then(|| {
        let mut layers = layer_passes.median();
        let med = |ps: &[Pass], f: fn(&Pass) -> f64| median(&ps.iter().map(f).collect::<Vec<_>>());
        layers.set(
            "observer.telemetry_s",
            med(&traced_passes, |p| p.produce_s) - med(&passes, |p| p.produce_s),
        );
        layers.set(
            "trace.overhead_s",
            med(&traced_passes, |p| p.wall_s) - med(&passes, |p| p.wall_s),
        );
        layers
    });

    Outcome {
        sizes: vec![
            ("programs".into(), Value::U64(PROGRAMS.len() as u64)),
            ("iter_div".into(), Value::U64(size.div as u64)),
            ("airshed_hours".into(), Value::U64(size.hours as u64)),
            ("p".into(), Value::U64(u64::from(bus.plain.config().p))),
            (
                "hosts".into(),
                Value::U64(u64::from(bus.plain.config().hosts)),
            ),
        ],
        detail: if bus.wait_shares.is_empty() {
            Vec::new()
        } else {
            vec![("rank_wait_share".into(), Value::Object(bus.wait_shares))]
        },
        tally: bus.tally,
        setup_s,
        passes,
        layers,
        shards: vec![1],
    }
}
