//! Cross-crate integration for the topology subsystem (`fxnet-topo`):
//! the shared bus — compiled to a one-segment topology, or spelled as
//! one — reproduces the goldens of the standalone shared-bus fabric for
//! all six measured programs, multi-segment fabrics carry every program
//! to completion without losing frames, full-stack runs on a fabric are
//! a pure function of the seed, and the weather map charges segment
//! retransmits to their segment.

use fxnet::metrics::FabricSampler;
use fxnet::{KernelKind, RunOptions, RunResult, SimTime, TestbedBuilder, TopologySpec};

/// A measured program as a function of the fabric it runs on (`None` =
/// the legacy shared bus).
type Program = Box<dyn Fn(Option<TopologySpec>) -> RunResult<u64>>;

/// The six measured programs (§5) at reduced scale: the five Fx kernels
/// plus the §7.3 shift pattern, parameterized by the fabric.
fn programs() -> Vec<(&'static str, Program)> {
    let kernel = |k: KernelKind, div: usize| {
        Box::new(move |spec: Option<TopologySpec>| {
            let mut b = TestbedBuilder::paper().seed(7);
            if let Some(spec) = spec {
                b = b.topology(spec);
            }
            b.build().run_kernel(k, div).unwrap()
        }) as Program
    };
    vec![
        ("SOR", kernel(KernelKind::Sor, 20)),
        ("2DFFT", kernel(KernelKind::Fft2d, 20)),
        ("T2DFFT", kernel(KernelKind::T2dfft, 20)),
        ("SEQ", kernel(KernelKind::Seq, 5)),
        ("HIST", kernel(KernelKind::Hist, 20)),
        (
            "SHIFT",
            Box::new(|spec: Option<TopologySpec>| {
                let mut b = TestbedBuilder::quiet(4).seed(7);
                if let Some(spec) = spec {
                    b = b.topology(spec);
                }
                b.build().run(move |ctx| {
                    let payload = vec![1u8; 40_000];
                    for round in 0..4i32 {
                        ctx.compute_time(SimTime::from_millis(30));
                        let _ = fxnet::fx::shift(ctx, round, 1, &payload);
                    }
                    0u64
                })
            }),
        ),
    ]
}

/// Host count each program's testbed presents (the paper LAN for the
/// kernels, the quiet 4-host LAN for SHIFT).
fn hosts_of(name: &str) -> u32 {
    if name == "SHIFT" {
        4
    } else {
        9
    }
}

/// A run pinned by its trace digest, finish time (ns), and MAC counters
/// `[frames_delivered, bytes_delivered, collisions, backoffs,
/// frames_dropped, busy_ns]`; the trace holds one record per delivery.
type Golden = (u64, u64, [u64; 6]);

/// The six programs at seed 7, in `programs()` order (SOR, 2DFFT,
/// T2DFFT, SEQ, HIST, SHIFT), on the standalone shared-bus fabric the
/// protocol stack drove before every link shape compiled to a topology.
/// They keep that retired reference path alive as data.
#[rustfmt::skip]
const BUS_GOLDENS: [Golden; 6] = [
    (0x60988bf96dc1edfc, 17_111_104_823, [159, 132_822, 27, 55, 0, 107_469_600]),
    (0x0bcf82c9872ca735, 10_381_233_443, [8434, 8_354_932, 2734, 5768, 0, 6_757_608_000]),
    (0xf343eac5a354e1d5, 13_417_935_664, [11_776, 11_344_448, 3294, 6905, 0, 9_174_641_600]),
    (0x017a8eb040252d6d, 12_182_922_678, [10_377, 823_050, 494, 994, 0, 728_409_600]),
    (0x6fe928aee38aef03, 916_151_276, [102, 68_076, 9, 18, 0, 55_178_400]),
    (0x0529e5d63c207eb6, 604_500_121, [708, 681_448, 221, 466, 0, 551_280_800]),
];

fn assert_golden(label: &str, run: &RunResult<u64>, (digest, finished, mac): Golden) {
    let e = run.ether;
    let got = [
        e.frames_delivered,
        e.bytes_delivered,
        e.collisions,
        e.backoffs,
        e.frames_dropped,
        e.busy_ns,
    ];
    assert_eq!(got, mac, "{label}: MAC statistics");
    assert_eq!(run.trace.len() as u64, mac[0], "{label}: trace length");
    assert_eq!(
        fxnet::sim::trace_digest(&run.trace),
        digest,
        "{label}: trace"
    );
    assert_eq!(
        run.finished_at.as_nanos(),
        finished,
        "{label}: program timing"
    );
}

#[test]
fn single_segment_topology_is_bit_identical_to_the_bus_for_all_six_programs() {
    for ((name, run), golden) in programs().into_iter().zip(BUS_GOLDENS) {
        assert_golden(&format!("{name} on the shared bus"), &run(None), golden);
        let single = TopologySpec::single_segment(hosts_of(name), fxnet::sim::RATE_10M);
        assert_golden(
            &format!("{name} on one segment"),
            &run(Some(single)),
            golden,
        );
    }
}

#[test]
fn lossy_segments_charge_retransmits_to_their_segment() {
    // routed2: two shared segments behind a router. A retransmitted
    // frame whose worst wait was on its own segment (no bottleneck
    // trunk) must land in that segment's `seg:{name}` window.
    let spec = TopologySpec::routed_two_subnets(9, fxnet::sim::RATE_10M);
    let sampler = FabricSampler::new();
    let opts = RunOptions {
        causal: true,
        sample_links: Some(sampler.bin_ns()),
        ..RunOptions::default()
    };
    let run = TestbedBuilder::paper()
        .seed(7)
        .topology(spec.clone())
        .loss(0.02)
        .build()
        .run_kernel_opts(KernelKind::Fft2d, 50, opts)
        .unwrap();
    let events = &run.causal.as_ref().expect("causal capture on").events;
    let want: u64 = events
        .iter()
        .filter(|e| e.retx && e.meta.trunk == 0)
        .map(|e| u64::from(e.record.wire_len))
        .sum();
    assert!(want > 0, "the lossy run must retransmit on a segment");
    let mut sampler = sampler;
    sampler.ingest_links(run.link_stats.as_ref().expect("link sampling on"));
    sampler.ingest_causal(events, Some(&spec));
    let report = sampler.finalize(Some(&spec));
    let retx = |label: &str| {
        report
            .rings
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, ring)| ring.total().retx_bytes)
    };
    assert_eq!(retx("seg:seg0") + retx("seg:seg1"), want);
}

#[test]
fn every_program_completes_on_every_sweep_topology() {
    // The promiscuous trace records each delivered frame exactly once, so
    // trace length equaling the fabric's end-to-end delivery counter is
    // frame conservation seen from the top of the stack.
    for (name, run) in programs() {
        for spec in TopologySpec::sweep_set(hosts_of(name), fxnet::sim::RATE_10M) {
            let label = format!("{name} on {}", spec.label());
            let out = run(Some(spec));
            assert!(!out.trace.is_empty(), "{label}: must produce traffic");
            assert_eq!(
                out.ether.frames_delivered,
                out.trace.len() as u64,
                "{label}: every delivered frame traced exactly once"
            );
            for w in out.trace.windows(2) {
                assert!(w[0].time <= w[1].time, "{label}: trace is time-ordered");
            }
        }
    }
}

#[test]
fn full_stack_runs_on_a_fabric_are_a_pure_function_of_the_seed() {
    let run = |seed: u64| {
        TestbedBuilder::paper()
            .seed(seed)
            .topology(TopologySpec::two_level_tree(9, fxnet::sim::RATE_100M))
            .build()
            .run_kernel(KernelKind::Hist, 50)
            .unwrap()
    };
    let (a, b) = (run(3), run(3));
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.finished_at, b.finished_at);
}
