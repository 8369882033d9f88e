//! `fabric-observed`: each kernel plus the §7.3 shift program, alone as
//! one mix tenant on two compiled fabrics — the oversubscribed trunk2
//! (100 Mb/s edges, 10 Mb/s trunk, ranks alternated across the
//! switches) and tree2 at 100 Mb/s — with every observer attached:
//! the `FabricSampler` tap and link sampling, causal capture, and the
//! contract watcher. Each run is followed by the weather report and the
//! collective critical paths.

use crate::checks::{ensure, same_trace, trace_digest, Tally};
use crate::layers::{finish_telemetry, fold_telemetry, LayerPasses, Layers};
use crate::ledger::{median, process_cpu_s, Ledger};
use crate::{repeat, timed_setup, Args, Outcome, Pass, Scale, MIN_PASSES};
use fxnet::causal::collective_paths;
use fxnet::metrics::{FabricSampler, HotspotConfig, SamplerConfig};
use fxnet::mix::{MixOutcome, MixTenant};
use fxnet::qos::QosNetwork;
use fxnet::sim::{RATE_100M, RATE_10M};
use fxnet::watch::WatchConfig;
use fxnet::{KernelKind, SimTime, Testbed, TestbedBuilder, TopologySpec};
use serde::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Program {
    Kernel(KernelKind),
    /// 500 ms of computation between 100 KB shift exchanges, 6 rounds.
    Shift,
}

const PROGRAMS: [Program; 6] = [
    Program::Kernel(KernelKind::Sor),
    Program::Kernel(KernelKind::Fft2d),
    Program::Kernel(KernelKind::T2dfft),
    Program::Kernel(KernelKind::Seq),
    Program::Kernel(KernelKind::Hist),
    Program::Shift,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fabric {
    /// Two switches, 100 Mb/s edges, the trunk throttled to 10 Mb/s,
    /// ranks alternated so every exchange crosses it.
    Trunk2,
    /// A two-level switch tree at 100 Mb/s.
    Tree2,
}

const FABRICS: [Fabric; 2] = [Fabric::Trunk2, Fabric::Tree2];

/// The cell whose observers and shard counts are switched on and off
/// in the traced run: an all-to-all on the contended trunk.
const PAIR_CELL: (Program, Fabric) = (Program::Kernel(KernelKind::Fft2d), Fabric::Trunk2);

impl Program {
    fn name(self) -> &'static str {
        match self {
            Program::Kernel(k) => k.name(),
            Program::Shift => "SHIFT",
        }
    }

    /// Hosts on the program's LAN: the paper's 9 for kernels, 4 for
    /// the shift program.
    fn hosts(self) -> u32 {
        match self {
            Program::Kernel(_) => 9,
            Program::Shift => 4,
        }
    }

    fn tenant(self, div: usize) -> MixTenant {
        match self {
            Program::Kernel(k) => MixTenant::kernel(k.name(), k, div, 4, SimTime::ZERO),
            Program::Shift => MixTenant::shift("SHIFT", 0.5, 100_000, 6, 4),
        }
    }
}

impl Fabric {
    fn spec(self, hosts: u32) -> TopologySpec {
        match self {
            Fabric::Trunk2 => {
                let mut spec = TopologySpec::two_switches_trunk(hosts, RATE_100M);
                spec.trunks[0].rate_bps = RATE_10M;
                spec.attachments = (0..hosts as usize).map(|h| h % 2).collect();
                spec
            }
            Fabric::Tree2 => TopologySpec::two_level_tree(hosts, RATE_100M),
        }
    }
}

/// Which observers a run attaches.
#[derive(Debug, Clone, Copy, Default)]
struct Observers {
    tap: bool,
    links: bool,
    causal: bool,
    watch: bool,
}

const ALL_OBSERVERS: Observers = Observers {
    tap: true,
    links: true,
    causal: true,
    watch: true,
};

/// One (program, fabric) cell, built once in setup.
struct Cell {
    prog: Program,
    fabric: Fabric,
    spec: TopologySpec,
    testbed: Testbed,
}

impl Cell {
    fn new(prog: Program, fabric: Fabric, seed: u64, shards: usize) -> Cell {
        let spec = fabric.spec(prog.hosts());
        let builder = match prog {
            Program::Kernel(_) => TestbedBuilder::paper(),
            Program::Shift => TestbedBuilder::quiet(4),
        };
        let testbed = builder
            .seed(seed)
            .topology(spec.clone())
            .shards(shards)
            .build();
        Cell {
            prog,
            fabric,
            spec,
            testbed,
        }
    }

    fn label(&self) -> String {
        format!("{}@{:?}", self.prog.name(), self.fabric)
    }

    /// Run the cell's program as a single tenant with `obs` attached,
    /// feeding `sampler` when the tap is on. A panic inside the mixer is
    /// a failed run.
    fn simulate(
        &self,
        div: usize,
        obs: Observers,
        sampler: &FabricSampler,
    ) -> Result<MixOutcome, String> {
        let mut mix = self
            .testbed
            .mix()
            .network(QosNetwork::of_rate(RATE_100M))
            .solo_baselines(false)
            .causal(obs.causal)
            .tenant(self.prog.tenant(div));
        if obs.watch {
            mix = mix.watch(WatchConfig::default());
        }
        if obs.tap {
            mix = mix.tap(sampler.tap());
        }
        if obs.links {
            mix = mix.sample_links(Some(sampler.bin_ns()));
        }
        catch_unwind(AssertUnwindSafe(|| mix.run())).map_err(|p| {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            format!("mixed run panicked: {msg}")
        })
    }
}

/// The sampler `fabric-health` uses: hotspots latch after 8 hot
/// 10 ms windows.
fn sampler() -> FabricSampler {
    FabricSampler::with_config(SamplerConfig {
        hotspot: HotspotConfig {
            k: 8,
            ..HotspotConfig::default()
        },
        ..SamplerConfig::default()
    })
}

/// Every invariant of one observed run.
fn check_observed(out: &MixOutcome) -> Result<(), String> {
    let frames = out.trace.len();
    ensure(out.tenants.len() == 1 && out.rejected.is_empty(), || {
        format!(
            "{} tenants admitted, {} rejected",
            out.tenants.len(),
            out.rejected.len()
        )
    })?;
    let attributed =
        out.tenants.iter().map(|t| t.frames.len()).sum::<usize>() + out.background.len();
    ensure(attributed == frames, || {
        format!("demux attributes {attributed} of {frames} frames")
    })?;
    let watched = out.watch.as_ref().map_or(0, |w| w.frames);
    ensure(watched == frames as u64, || {
        format!("watcher saw {watched} of {frames} frames")
    })?;
    let tagged = out.causal.as_ref().map_or(0, |c| c.events.len());
    ensure(tagged == frames, || {
        format!("causal capture tagged {tagged} of {frames} frames")
    })
}

struct CellRun {
    frames: u64,
    sim_s: f64,
    analyze_s: f64,
    check: Result<(), String>,
}

/// One observed run of `cell` and its analysis.
fn run_cell(
    cell: &Cell,
    div: usize,
    ledger: &mut Ledger,
    layers: Option<&mut Layers>,
) -> (CellRun, u64) {
    let mut sampler = sampler();
    let (out, sim_s) = ledger.time("sim", || cell.simulate(div, ALL_OBSERVERS, &sampler));
    let mut run = CellRun {
        frames: 0,
        sim_s,
        analyze_s: 0.0,
        check: Ok(()),
    };
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            run.check = Err(e);
            return (run, 0);
        }
    };
    run.frames = out.trace.len() as u64;
    let (Some(links), Some(causal), Some(tel)) = (&out.link_stats, &out.causal, &out.telemetry)
    else {
        run.check = Err("observed run lacks link stats, causal capture or telemetry".into());
        return (run, 0);
    };

    let open = ledger.enter("analyze");
    let (report, finalize_s) = ledger.time("metrics.finalize", || {
        sampler.ingest_links(links);
        sampler.ingest_causal(&causal.events, Some(&cell.spec));
        sampler.finalize(Some(&cell.spec))
    });
    let (paths, paths_s) = ledger.time("causal.paths", || {
        collective_paths(causal, &tel.spans, &out.map)
    });
    run.analyze_s = ledger.exit(open);

    let mut check = check_observed(&out)
        .and_then(|()| {
            let frames = run.frames;
            match report.scaling.iter().find(|s| s.total_packets != frames) {
                Some(s) => Err(format!(
                    "weather matrices count {} of {frames} frames at scale {}",
                    s.total_packets, s.scale
                )),
                None => Ok(()),
            }
        })
        .and_then(|()| ensure(!paths.is_empty(), || "no collective critical paths".into()));
    if let Some(layers) = layers {
        check = check.and_then(|()| fold_telemetry(layers, tel, None));
        layers.add("metrics.finalize_s", finalize_s);
        layers.add("causal.paths_s", paths_s);
    }
    run.check = check;
    (run, trace_digest(&out.trace))
}

/// One pass over every cell.
fn pass(
    cells: &[Cell],
    div: usize,
    ledger: &mut Ledger,
    tally: &mut Tally,
    digests: &mut Vec<u64>,
    mut layers: Option<&mut Layers>,
) -> Pass {
    let cpu = process_cpu_s();
    let open = ledger.enter("fabric.pass");
    let mut p = Pass::default();
    for (i, cell) in cells.iter().enumerate() {
        let (run, digest) = run_cell(cell, div, ledger, layers.as_deref_mut());
        p.frames += run.frames;
        p.analyzed_frames += run.frames;
        p.produce_s += run.sim_s;
        p.analyze_s += run.analyze_s;
        let repeat = match digests.get(i) {
            None => {
                digests.push(digest);
                Ok(())
            }
            Some(&d) => ensure(d == digest, || {
                "trace differs from the first run with this seed".into()
            }),
        };
        tally.record(&cell.label(), run.check.and(repeat));
    }
    p.wall_s = ledger.exit(open);
    p.cpu_s = process_cpu_s() - cpu;
    p
}

/// The traced on/off pairs on [`PAIR_CELL`]: each observer alone
/// against the bare run, and the bare run at 2 shards against 1. Every
/// variant must reproduce the bare trace exactly.
fn pairs(
    seed: u64,
    div: usize,
    reps: usize,
    ledger: &mut Ledger,
    tally: &mut Tally,
    layers: &mut Layers,
) {
    let (prog, fabric) = PAIR_CELL;
    let one = Cell::new(prog, fabric, seed, 1);
    let two = Cell::new(prog, fabric, seed, 2);
    let only = |f: fn(&mut Observers)| {
        let mut o = Observers::default();
        f(&mut o);
        o
    };
    let variants: [(&'static str, &Cell, Observers); 6] = [
        ("bare", &one, Observers::default()),
        ("observer.tap_s", &one, only(|o| o.tap = true)),
        ("observer.sample_links_s", &one, only(|o| o.links = true)),
        ("observer.causal_s", &one, only(|o| o.causal = true)),
        ("observer.watch_s", &one, only(|o| o.watch = true)),
        ("shards2", &two, Observers::default()),
    ];
    // Each repetition runs every variant back to back, so comparing a
    // variant with the bare run of the same repetition cancels the
    // host's slower drift; the ledger takes the median over repetitions.
    let mut deltas = vec![Vec::new(); variants.len()];
    let mut ratios = Vec::new();
    let mut bare_trace = None;
    for _ in 0..reps {
        let mut times = [0.0; 6];
        for (i, (name, cell, obs)) in variants.iter().enumerate() {
            let sampler = sampler();
            let (out, s) = ledger.time("pair", || cell.simulate(div, *obs, &sampler));
            times[i] = s;
            let check = out.and_then(|out| match &bare_trace {
                None => {
                    bare_trace = Some(out.trace);
                    Ok(())
                }
                Some(bare) => same_trace(bare, &out.trace),
            });
            tally.record(&format!("pair {name}"), check);
        }
        for (d, t) in deltas.iter_mut().zip(times) {
            d.push(t - times[0]);
        }
        ratios.push(times[5] / times[0]);
    }
    for (i, (name, _, _)) in variants.iter().enumerate() {
        if name.starts_with("observer.") {
            layers.set(name, median(&deltas[i]));
        }
    }
    layers.set("shard.pull_ratio", median(&ratios));
}

pub fn run(args: &Args, ledger: &mut Ledger) -> Outcome {
    // Kernel scale of the passes, and of the traced on/off pairs with
    // their repetitions: pairs run a larger cell so an observer's cost
    // stands out of the noise.
    let (div, pair_div, reps) = match args.scale {
        Scale::Full => (20, 8, 5),
        Scale::Tiny => (200, 200, 1),
    };
    let mut tally = Tally::default();

    // Setup: compile every cell's testbed and warm each program up,
    // observed, at tiny scale on the trunk.
    let (cells, setup_s) = timed_setup(7, || {
        let cells: Vec<Cell> = PROGRAMS
            .iter()
            .flat_map(|&p| FABRICS.iter().map(move |&f| (p, f)))
            .map(|(p, f)| Cell::new(p, f, args.seed, 1))
            .collect();
        for cell in cells.iter().filter(|c| c.fabric == Fabric::Trunk2) {
            let out = cell.simulate(200, ALL_OBSERVERS, &sampler());
            tally.record("warm-up", out.and_then(|o| check_observed(&o)));
        }
        cells
    });

    let mut layers = args.trace.then(Layers::default);
    if let Some(layers) = layers.as_mut() {
        pairs(args.seed, pair_div, reps, ledger, &mut tally, layers);
    }

    let mut digests = Vec::new();
    let mut passes = Vec::new();
    let mut layer_passes = LayerPasses::default();
    let mut traced_walls = Vec::new();
    repeat(args.seconds, MIN_PASSES, || {
        ledger.set_tracing(false);
        passes.push(pass(&cells, div, ledger, &mut tally, &mut digests, None));
        if args.trace {
            ledger.set_tracing(true);
            let mut l = Layers::default();
            let p = pass(&cells, div, ledger, &mut tally, &mut digests, Some(&mut l));
            finish_telemetry(&mut l);
            traced_walls.push(p.wall_s);
            layer_passes.push(l);
        }
    });

    let layers = layers.map(|pairs| {
        let mut l = layer_passes.median();
        for name in [
            "observer.tap_s",
            "observer.sample_links_s",
            "observer.causal_s",
            "observer.watch_s",
            "shard.pull_ratio",
        ] {
            l.set(name, pairs.get(name));
        }
        let untraced: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        l.set(
            "trace.overhead_s",
            median(&traced_walls) - median(&untraced),
        );
        l
    });

    Outcome {
        tally,
        setup_s,
        passes,
        layers,
        detail: Vec::new(),
        sizes: vec![
            ("cells".into(), Value::U64(cells.len() as u64)),
            ("iter_div".into(), Value::U64(div as u64)),
            ("pair_iter_div".into(), Value::U64(pair_div as u64)),
            ("pair_reps".into(), Value::U64(reps as u64)),
            (
                "fabrics".into(),
                Value::Array(
                    FABRICS
                        .iter()
                        .map(|f| Value::Str(f.spec(9).label()))
                        .collect(),
                ),
            ),
        ],
        shards: if args.trace { vec![1, 2] } else { vec![1] },
    }
}
