//! The per-layer ledger of a traced run: every per-layer metric the
//! benchmark defines, and the fold that reads the engine's telemetry
//! (counter registry and `SimProfile`) into it.

use crate::checks::ensure;
use crate::ledger::{median, Metrics};
use fxnet::telemetry::{EventClass, RunTelemetry, SimProfile};

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
/// Every workload reports all of them; a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("fx.events", "count"),
    ("fx.event_s", "s"),
    ("fx.rank_wait_s", "s"),
    ("fx.rank_wait_share", "ratio"),
    ("fx.profile_gap_s", "s"),
    ("fx.timer_queue_high_water", "count"),
    ("fx.mailbox_high_water", "count"),
    ("pvm.messages", "count"),
    ("pvm.fragments", "count"),
    ("pvm.pack_bytes", "bytes"),
    ("net.advance_s", "s"),
    ("net.advance_events", "count"),
    ("net.advance_ns_mean", "ns"),
    ("tcp.data_segments", "count"),
    ("tcp.acks", "count"),
    ("tcp.retransmits", "count"),
    ("mac.frames", "count"),
    ("mac.collisions", "count"),
    ("mac.backoffs", "count"),
    ("shard.pull_ratio", "ratio"),
    ("observer.tap_s", "s"),
    ("observer.sample_links_s", "s"),
    ("observer.causal_s", "s"),
    ("observer.watch_s", "s"),
    ("observer.telemetry_s", "s"),
    ("metrics.finalize_s", "s"),
    ("causal.paths_s", "s"),
    ("trace.store_s", "s"),
    ("trace.report_s", "s"),
    ("spectral.periodogram_s", "s"),
    ("io.write_s", "s"),
    ("io.bytes_per_frame", "B/frame"),
    ("io.decode_s", "s"),
    ("streaming.fold_s", "s"),
    ("metrics.scaling_s", "s"),
    ("spectral.goertzel_s", "s"),
    ("io.load_s", "s"),
    ("trace.resident_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("failed_frac", "ratio"),
];

/// The per-layer ledger of one traced run: every [`PER_LAYER`] metric,
/// 0 until a workload sets it.
#[derive(Debug, Clone)]
pub struct Layers(Vec<f64>);

impl Default for Layers {
    fn default() -> Layers {
        Layers(vec![0.0; PER_LAYER.len()])
    }
}

impl Layers {
    fn slot(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.0[Layers::slot(name)] = value;
    }

    pub fn add(&mut self, name: &str, value: f64) {
        self.0[Layers::slot(name)] += value;
    }

    pub fn max(&mut self, name: &str, value: f64) {
        let i = Layers::slot(name);
        self.0[i] = self.0[i].max(value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[Layers::slot(name)]
    }

    pub fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for ((name, unit), v) in PER_LAYER.iter().zip(self.0) {
            m.push(name, v, unit);
        }
        m
    }
}

/// Per-layer values measured once per traced pass; the ledger reports
/// the median of each across passes.
#[derive(Debug, Default)]
pub struct LayerPasses(Vec<Layers>);

impl LayerPasses {
    pub fn push(&mut self, pass: Layers) {
        self.0.push(pass);
    }

    pub fn median(&self) -> Layers {
        let mut out = Layers::default();
        for (i, slot) in out.0.iter_mut().enumerate() {
            let xs: Vec<f64> = self.0.iter().map(|l| l.0[i]).collect();
            *slot = median(&xs);
        }
        out
    }
}

/// Largest share of a simulation call that may fall outside the
/// engine's own profile (thread spawn before the profile starts, result
/// assembly after it ends): 10% of the call or 20 ms, whichever is
/// larger. Within it, the profile's wall time and the benchmark's span
/// around the call agree.
pub const PROFILE_GAP_TOLERANCE: (f64, f64) = (0.10, 0.020);

/// Fold one simulation's telemetry into `layers`. `call_s`, when given,
/// is the benchmark's own timing of the engine call that produced it;
/// the profile must fit inside it within [`PROFILE_GAP_TOLERANCE`].
pub fn fold_telemetry(
    layers: &mut Layers,
    tel: &RunTelemetry,
    call_s: Option<f64>,
) -> Result<(), String> {
    let reg = &tel.registry;
    let counter = |name: &str| reg.counter(name) as f64;
    for (layer, counter_name) in [
        ("pvm.messages", "pvm.messages_sent"),
        ("pvm.fragments", "pvm.fragments_sent"),
        ("pvm.pack_bytes", "pvm.pack_bytes"),
        ("tcp.data_segments", "tcp.data_segments"),
        ("tcp.acks", "tcp.acks_sent"),
        ("tcp.retransmits", "tcp.retransmits"),
        ("mac.frames", "mac.frames_delivered"),
        ("mac.collisions", "mac.collisions"),
        ("mac.backoffs", "mac.backoffs"),
    ] {
        layers.add(layer, counter(counter_name));
    }
    layers.max(
        "fx.timer_queue_high_water",
        counter("engine.timer_queue_high_water"),
    );
    layers.max(
        "fx.mailbox_high_water",
        counter("engine.mailbox_high_water"),
    );

    let profile = tel
        .profile
        .as_ref()
        .ok_or_else(|| "telemetry carries no SimProfile".to_string())?;
    let (wall, event_s, advance_s) = profile_split(profile);
    layers.add("fx.events", profile.events as f64);
    layers.add("fx.event_s", event_s);
    layers.add("net.advance_s", advance_s);
    layers.add(
        "net.advance_events",
        profile.histograms[class_index(EventClass::NetAdvance)].count as f64,
    );
    layers.add("fx.rank_wait_s", wall - event_s - advance_s);
    let Some(call_s) = call_s else {
        return Ok(());
    };
    let gap = call_s - wall;
    layers.max("fx.profile_gap_s", gap);
    let (share, floor) = PROFILE_GAP_TOLERANCE;
    ensure(gap >= 0.0 && gap <= (share * call_s).max(floor), || {
        format!("SimProfile wall {wall:.6} s disagrees with the call's {call_s:.6} s")
    })
}

fn class_index(c: EventClass) -> usize {
    EventClass::ALL
        .iter()
        .position(|&x| x == c)
        .expect("class listed in ALL")
}

/// A profile's wall time, the time its engine event classes account
/// for (compute, send, recv, span, barrier), and the network-advance
/// time, in seconds. The rest of the wall time is spent waiting on rank
/// threads.
pub fn profile_split(profile: &SimProfile) -> (f64, f64, f64) {
    let secs = |c: EventClass| profile.histograms[class_index(c)].total_ns as f64 / 1e9;
    let event_s = [
        EventClass::Compute,
        EventClass::Send,
        EventClass::Recv,
        EventClass::Span,
        EventClass::Barrier,
    ]
    .into_iter()
    .map(secs)
    .sum();
    (
        profile.wall.as_secs_f64(),
        event_s,
        secs(EventClass::NetAdvance),
    )
}

/// Derive the ratios of the telemetry fold once a pass is summed.
pub fn finish_telemetry(layers: &mut Layers) {
    let accounted = layers.get("fx.event_s") + layers.get("net.advance_s");
    let wait = layers.get("fx.rank_wait_s");
    if accounted + wait > 0.0 {
        layers.set("fx.rank_wait_share", wait / (accounted + wait));
    }
    let events = layers.get("net.advance_events");
    if events > 0.0 {
        layers.set(
            "net.advance_ns_mean",
            layers.get("net.advance_s") * 1e9 / events,
        );
    }
}
