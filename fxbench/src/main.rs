//! `fxbench`: the end-to-end and per-layer benchmark of the fxnet
//! reproduction.
//!
//! ```text
//! fxbench --workload <bus-paper|fabric-observed|trace-scan> --seed <n>
//!         --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! One process runs one workload: it sets up (several times, reporting
//! the median), then repeats passes of the workload's operations for
//! `--seconds`, checking every output. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. A manifest line (seed, git rev, cores, rustc, sizes,
//! shards) precedes it. See `fxbench/README.md`.
//!
//! Before any work the process pins itself to one CPU. The Fx engine
//! runs one thread per rank and hands off to them over channels; spread
//! over the cores of a shared host, each hand-off waits on the host's
//! scheduler to wake an idle virtual CPU, which made the wall time of the
//! same pass vary by half from run to run. On one CPU a hand-off is a
//! plain context switch, and a pass measures the program's work.

mod bus;
mod checks;
mod fabric;
mod layers;
mod ledger;
mod scan;

use checks::Tally;
use layers::Layers;
use ledger::{median, peak_rss_mb, Ledger, Metrics};
use serde::Value;
use std::time::Instant;

/// The workloads, by the names later changes refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BusPaper,
    FabricObserved,
    TraceScan,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::BusPaper,
        Workload::FabricObserved,
        Workload::TraceScan,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::BusPaper => "bus-paper",
            Workload::FabricObserved => "fabric-observed",
            Workload::TraceScan => "trace-scan",
        }
    }
}

/// Input size: `Full` is the measured benchmark, `Tiny` the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

const USAGE: &str = "usage: fxbench --workload <bus-paper|fabric-observed|trace-scan> \
--seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut scale = Scale::Full;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("unknown scale {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
    })
}

/// End-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("produce_frames_per_s", "1/s"),
    ("analyze_frames_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// One pass of a workload's timed operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Process CPU time of the whole pass.
    pub cpu_s: f64,
    /// Frames the producing calls emitted.
    pub frames: u64,
    /// Wall time of the producing calls (simulation, or the FXTC write).
    pub produce_s: f64,
    /// Frames the analysis calls consumed.
    pub analyzed_frames: u64,
    /// Wall time of the analysis calls.
    pub analyze_s: f64,
}

/// What one workload run hands back for printing.
pub struct Outcome {
    pub tally: Tally,
    /// Setup durations, one per repetition.
    pub setup_s: Vec<f64>,
    /// Untraced passes (end-to-end metrics).
    pub passes: Vec<Pass>,
    /// The per-layer ledger (traced runs only).
    pub layers: Option<Layers>,
    /// Workload sizes for the manifest.
    pub sizes: Vec<(String, Value)>,
    /// Further measurements for the manifest (traced runs).
    pub detail: Vec<(String, Value)>,
    /// Shard counts the run used.
    pub shards: Vec<u64>,
}

/// Passes every run makes at least, so each median has company.
const MIN_PASSES: usize = 3;

/// Call `pass` until `seconds` have elapsed and it ran at least `min`
/// times.
pub fn repeat(seconds: f64, min: usize, mut pass: impl FnMut()) {
    let start = Instant::now();
    let mut ran = 0;
    while ran < min || start.elapsed().as_secs_f64() < seconds {
        pass();
        ran += 1;
    }
}

/// Run `setup` `reps` times, keeping the last result and every duration.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), times)
}

fn end_to_end(out: &Outcome) -> Metrics {
    let passes = &out.passes;
    let rate = |frames: u64, s: f64| if s > 0.0 { frames as f64 / s } else { 0.0 };
    let mut m = Metrics::default();
    let values = [
        median(&out.setup_s),
        median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
        median(
            &passes
                .iter()
                .map(|p| rate(p.frames, p.produce_s))
                .collect::<Vec<_>>(),
        ),
        median(
            &passes
                .iter()
                .map(|p| rate(p.analyzed_frames, p.analyze_s))
                .collect::<Vec<_>>(),
        ),
        peak_rss_mb().unwrap_or(0.0),
    ];
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        m.push(name, v, unit);
    }
    m
}

/// Run `cmd args` and return its trimmed standard output, waiting for
/// it to exit.
fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of the working directory, when it is the root of a git
/// checkout ("unknown" otherwise — e.g. in an exported source tree).
fn git_rev() -> String {
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top = command_output("git", &["rev-parse", "--show-toplevel"])
        .and_then(|t| std::path::PathBuf::from(t).canonicalize().ok());
    match (here, top) {
        (Some(h), Some(t)) if h == t => {
            command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".into(),
    }
}

/// The CPUs the process may run on and the one it was pinned to.
#[derive(Debug, Clone, Copy)]
struct Placement {
    cores: u64,
    cpu: Option<u64>,
}

/// Pin this process, and every thread it spawns afterwards, to the CPU
/// it is running on. Returns that CPU, or `None` where pinning is not
/// available (the run then goes on unpinned).
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<u64> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t` of 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu as u64)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<u64> {
    None
}

fn manifest(args: &Args, out: &Outcome, overhead_s: Option<f64>, place: Placement) -> Value {
    let cores = place.cores;
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let mut fields = vec![
        ("workload".into(), Value::Str(args.workload.name().into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        (
            "scale".into(),
            Value::Str(
                if args.scale == Scale::Full {
                    "full"
                } else {
                    "tiny"
                }
                .into(),
            ),
        ),
        ("git_rev".into(), Value::Str(git_rev())),
        ("nproc".into(), Value::U64(cores)),
        (
            "pinned_cpu".into(),
            place.cpu.map_or(Value::Null, Value::U64),
        ),
        (
            "rustc".into(),
            Value::Str(command_output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("sizes".into(), Value::Object(out.sizes.clone())),
        (
            "shards".into(),
            Value::Array(out.shards.iter().map(|&s| Value::U64(s)).collect()),
        ),
        ("setup_reps".into(), Value::U64(out.setup_s.len() as u64)),
        ("passes".into(), Value::U64(out.passes.len() as u64)),
        (
            "pass_wall_s".into(),
            Value::Array(out.passes.iter().map(|p| Value::F64(p.wall_s)).collect()),
        ),
        (
            "pass_cpu_s".into(),
            Value::Array(out.passes.iter().map(|p| Value::F64(p.cpu_s)).collect()),
        ),
        ("attempted".into(), Value::U64(out.tally.attempted)),
        ("failed".into(), Value::U64(out.tally.failed)),
        ("failed_frac".into(), Value::F64(out.tally.failed_frac())),
        (
            "errors".into(),
            Value::Array(out.tally.errors.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    if let Some(s) = overhead_s {
        fields.push(("tracing_overhead_s".into(), Value::F64(s)));
    }
    fields.extend(out.detail.iter().cloned());
    Value::Object(vec![("manifest".into(), Value::Object(fields))])
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fxbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let place = Placement {
        cores: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        cpu: pin_to_one_cpu(),
    };
    let mut ledger = Ledger::new(args.trace);
    let out = match args.workload {
        Workload::BusPaper => bus::run(&args, &mut ledger),
        Workload::FabricObserved => fabric::run(&args, &mut ledger),
        Workload::TraceScan => match scan::run(&args, &mut ledger) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("fxbench: trace-scan cannot use its work directory: {e}");
                std::process::exit(1);
            }
        },
    };
    for e in &out.tally.errors {
        eprintln!("fxbench: check failed: {e}");
    }

    let (metrics, overhead) = match out.layers.clone() {
        Some(mut layers) => {
            layers.set("failed_frac", out.tally.failed_frac());
            let overhead = layers.get("trace.overhead_s");
            (layers.into_metrics(), Some(overhead))
        }
        None => (end_to_end(&out), None),
    };
    println!(
        "{}",
        serde::json::to_string(&manifest(&args, &out, overhead, place))
    );
    if args.trace {
        let spans = Value::Object(vec![("spans".into(), ledger.summary())]);
        println!("{}", serde::json::to_string(&spans));
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(out.tally.failed == 0)),
        ("attempted".into(), Value::U64(out.tally.attempted)),
        ("failed".into(), Value::U64(out.tally.failed)),
        ("metrics".into(), metrics.to_value()),
    ]);
    println!("{}", serde::json::to_string(&result));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload trace-scan --seed 9 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::TraceScan);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 20.0, true));
        assert_eq!(a.scale, Scale::Full);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload bus-paper --trace 2").is_err());
        assert!(parse("--workload bus-paper --seconds").is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(layers::PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
