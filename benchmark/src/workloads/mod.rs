//! The six workloads and the one sequence every run follows: set-up,
//! warm-up (discarded), the measured window — in a traced run an
//! untraced half followed by a traced half — the end-of-run correctness
//! checks, then repeated restarts and the remaining repeated set-ups.

use std::time::{Duration, Instant};

use crate::catalogue::{Load, Workload};
use crate::counters::{layer_ratios, DriverCharges, Snap};
use crate::host::{self, ThreadCpu};
use crate::stats;
use crate::trace::Tracer;

pub mod chat;
pub mod churn;
mod client;
pub mod pingpong;
pub mod pos_kv;

/// A deliberate corruption, for the self-tests that prove the
/// correctness checks bite. Never set by a measuring run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    #[default]
    None,
    /// Corrupt one echo in flight (pingpong: PONG flips a byte; chat:
    /// the driver expects a body the service never saw).
    CorruptEcho,
    /// `pos_kv`: lose one acknowledged key from the shadow map's view.
    DropKey,
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub window: Duration,
    pub warmup: Duration,
    pub trace: bool,
    /// Set-ups and restarts each repeat at least this often ...
    pub min_reps: usize,
    /// ... and until they have taken this long together (at most
    /// [`MAX_REPS`] times), so a cheap set-up, whose timing is mostly
    /// thread-spawn jitter, is repeated far more often than a dear one.
    pub rep_budget: Duration,
    pub fault: Fault,
}

impl Params {
    pub fn new(seed: u64, seconds: f64) -> Params {
        Params {
            seed,
            window: Duration::from_secs_f64(seconds),
            warmup: Duration::from_secs(1),
            trace: false,
            min_reps: 9,
            rep_budget: Duration::from_secs(1),
            fault: Fault::None,
        }
    }
}

/// Most repetitions of a set-up or restart in one run.
const MAX_REPS: usize = 200;

/// Spans a traced half-window may record before further ones are
/// counted as dropped (preallocated: about 40 MiB).
const SPAN_CAPACITY: usize = 1 << 20;

/// Everything the driver records while a workload runs.
#[derive(Debug)]
pub struct Recorder {
    pub origin: Instant,
    /// `(completed_ns, latency_ns)` per verified op (pingpong: per
    /// sampled op), in completion order.
    pub samples: Vec<(u64, u64)>,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run exit non-zero.
    pub violations: Vec<String>,
    /// Open loop: how late each op was sent, `sent - due`.
    pub lag_ns: Vec<u64>,
    /// Driver-side spans that feed named per-layer metrics, as
    /// `(metric, nanoseconds)` pairs.
    pub timed: Vec<(&'static str, u64)>,
    pub tracer: Tracer,
    pub charges: DriverCharges,
}

impl Recorder {
    fn new(trace: bool) -> Recorder {
        let origin = Instant::now();
        Recorder {
            origin,
            samples: Vec::with_capacity(1 << 20),
            attempted: 0,
            completed: 0,
            failed: 0,
            violations: Vec::new(),
            lag_ns: Vec::with_capacity(1 << 18),
            timed: Vec::with_capacity(1 << 18),
            tracer: Tracer::new(origin, if trace { SPAN_CAPACITY } else { 0 }),
            charges: DriverCharges::default(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn violation(&mut self, what: String) {
        // Keep the first few; a broken run repeats itself.
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// What a stopped runtime says about its channels: a frame that
    /// failed authentication or decoding anywhere is a violation.
    pub fn check_report(&mut self, report: &eactors::RuntimeReport) {
        for w in &report.workers {
            if w.tampered_frames + w.corrupt_frames > 0 {
                self.violation(format!(
                    "worker {} saw {} tampered and {} corrupt frames",
                    w.worker, w.tampered_frames, w.corrupt_frames
                ));
            }
        }
    }

    /// Forget what warm-up recorded (violations stay).
    fn discard(&mut self) {
        self.samples.clear();
        self.lag_ns.clear();
        self.timed.clear();
        self.attempted = 0;
        self.completed = 0;
        self.failed = 0;
        self.charges = DriverCharges::default();
    }

    fn timed_values(&self, metric: &str) -> Vec<f64> {
        self.timed
            .iter()
            .filter(|(m, _)| *m == metric)
            .map(|&(_, ns)| ns as f64)
            .collect()
    }
}

/// Named values: metrics by catalogue name, notes by free-form key.
pub type Metrics = Vec<(&'static str, f64)>;
pub type Notes = Vec<(String, String)>;

/// One workload, as the run sequence sees it.
pub trait Bench {
    type Sys;

    /// Build the system and take it to its first verified op. `full`
    /// is a set-up: residents, pre-fill and all. `!full` is a restart
    /// over whatever state survives a stop (for `pos_kv`, the files).
    fn start(&mut self, full: bool, rec: &mut Recorder) -> Self::Sys;

    /// Offer load for `dur` and record every op issued in it, waiting
    /// for (or failing) the ops still in flight when `dur` ends. Returns
    /// the stretch the issued ops are spread over: `dur` on an open
    /// loop, the measured elapsed time on a closed one.
    fn drive(&mut self, sys: &mut Self::Sys, dur: Duration, rec: &mut Recorder) -> Duration;

    /// The program's public counters right now.
    fn snap(&self, sys: &Self::Sys) -> Snap;

    /// End-of-run correctness checks on the live system.
    fn verify(&mut self, sys: &mut Self::Sys, rec: &mut Recorder);

    /// Stop the system and check what it reports on the way out.
    fn stop(&mut self, sys: Self::Sys, rec: &mut Recorder);

    /// The percentile reported as `latency_p99_us`.
    fn tail_percentile(&self) -> f64 {
        0.99
    }

    /// Workload-specific per-layer metrics (driver-side spans and the
    /// like) and free-form notes for the host record.
    fn extras(&self, _rec: &Recorder) -> (Metrics, Notes) {
        (Vec::new(), Vec::new())
    }
}

/// One measured stretch of load.
#[derive(Debug, Clone)]
struct Phase {
    seconds: f64,
    attempted: u64,
    completed: u64,
    failed: u64,
    samples: std::ops::Range<usize>,
    lag: std::ops::Range<usize>,
    cpu: Vec<ThreadCpu>,
}

fn phase<B: Bench>(b: &mut B, sys: &mut B::Sys, dur: Duration, rec: &mut Recorder) -> Phase {
    let (a0, c0, f0) = (rec.attempted, rec.completed, rec.failed);
    let (s0, l0) = (rec.samples.len(), rec.lag_ns.len());
    let cpu0 = host::thread_cpu();
    let spread = b.drive(sys, dur, rec);
    let cpu1 = host::thread_cpu();
    Phase {
        seconds: spread.as_secs_f64(),
        attempted: rec.attempted - a0,
        completed: rec.completed - c0,
        failed: rec.failed - f0,
        samples: s0..rec.samples.len(),
        lag: l0..rec.lag_ns.len(),
        cpu: host::cpu_between(&cpu0, &cpu1),
    }
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Sample counts, the latency ladder, backend and the like.
    pub notes: Notes,
    /// A percentile the sample count could not support.
    pub refused: Vec<&'static str>,
    /// The traced half-window's p50, for the layer-budget ratio.
    pub traced_p50_us: Option<f64>,
}

/// Every latency sample of the phase in nanoseconds, ascending.
fn latencies(rec: &Recorder, ph: &Phase) -> Vec<u64> {
    let mut all: Vec<u64> = rec.samples[ph.samples.clone()]
        .iter()
        .map(|s| s.1)
        .collect();
    all.sort_unstable();
    all
}

/// The traced half-window and what was read at its two ends.
struct Traced {
    phase: Phase,
    before: Snap,
    after: Snap,
    /// Allocations by threads other than the driver's.
    allocs: u64,
    /// What the driver itself charged between the two snapshots.
    charges: DriverCharges,
}

/// Which threads' CPU counts as the program's. `pos_kv` runs the store
/// on the driver's own thread; everywhere else the driver's CPU is the
/// load generator's.
fn counts(w: Workload, driver_tid: u64, t: &ThreadCpu) -> bool {
    w == Workload::PosKv || t.tid != driver_tid
}

fn note(key: &str, value: String) -> (String, String) {
    (key.to_owned(), value)
}

fn rounded(values: &[f64], places: i32) -> String {
    let scale = 10f64.powi(places);
    let v: Vec<f64> = values.iter().map(|v| (v * scale).round() / scale).collect();
    format!("{v:?}")
}

/// Run `b` through the whole sequence.
pub fn execute<B: Bench>(b: &mut B, w: Workload, p: &Params) -> Outcome {
    let driver_tid = host::current_tid();
    crate::alloc::exempt_this_thread();
    let mut rec = Recorder::new(p.trace);
    // How often to repeat a set-up or restart: one is enough for a traced
    // run, which reports neither.
    let again = |done: usize, since: Instant| {
        !p.trace && done < MAX_REPS && (done < p.min_reps || since.elapsed() < p.rep_budget)
    };

    // The first set-up is the one that gets measured; the others follow
    // the window, so `peak_rss_mib` never sees their leftovers.
    let mut setup_s = Vec::new();
    let t = Instant::now();
    let mut sys = b.start(true, &mut rec);
    setup_s.push(t.elapsed().as_secs_f64());

    b.drive(&mut sys, p.warmup, &mut rec);
    rec.discard();

    let measured;
    let mut traced = None;
    if p.trace {
        measured = phase(b, &mut sys, p.window / 2, &mut rec);
        let before = b.snap(&sys);
        let charged = rec.charges;
        rec.tracer.set_on(true);
        let allocs0 = crate::alloc::arm();
        let phase = phase(b, &mut sys, p.window / 2, &mut rec);
        let allocs = crate::alloc::disarm() - allocs0;
        rec.tracer.set_on(false);
        traced = Some(Traced {
            phase,
            before,
            after: b.snap(&sys),
            allocs,
            charges: DriverCharges {
                syscalls: rec.charges.syscalls - charged.syscalls,
                cycles: rec.charges.cycles - charged.cycles,
            },
        });
    } else {
        measured = phase(b, &mut sys, p.window, &mut rec);
    }
    let peak_rss = host::peak_rss_mib();

    b.verify(&mut sys, &mut rec);
    b.stop(sys, &mut rec);

    let mut recover_ms = Vec::new();
    let started = Instant::now();
    let mut sys = b.start(false, &mut rec);
    loop {
        let t = Instant::now();
        b.stop(sys, &mut rec);
        sys = b.start(false, &mut rec);
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !again(recover_ms.len(), started) {
            break;
        }
    }
    b.stop(sys, &mut rec);

    let started = Instant::now();
    while again(setup_s.len(), started) {
        let t = Instant::now();
        let sys = b.start(true, &mut rec);
        setup_s.push(t.elapsed().as_secs_f64());
        b.stop(sys, &mut rec);
    }

    // End to end, from the untraced phase.
    let cpu_s: f64 = measured
        .cpu
        .iter()
        .filter(|t| counts(w, driver_tid, t))
        .map(|t| t.cpu_s)
        .sum();
    let sorted = latencies(&rec, &measured);
    let p50 = stats::percentile(&sorted, 0.50);
    let p99 = stats::percentile(&sorted, b.tail_percentile());
    let us = |ns: Option<f64>| ns.map_or(0.0, |ns| ns / 1e3);
    let mut out = Outcome {
        attempted: measured.attempted,
        failed: measured.failed,
        end_to_end: vec![
            ("setup_s", stats::midmean(&setup_s)),
            (
                "throughput_ops_s",
                measured.completed as f64 / measured.seconds,
            ),
            ("latency_p50_us", us(p50)),
            ("latency_p99_us", us(p99)),
            (
                "cpu_us_per_op",
                cpu_s * 1e6 / measured.completed.max(1) as f64,
            ),
            ("peak_rss_mib", peak_rss),
            ("recover_ms", stats::midmean(&recover_ms)),
        ],
        ..Outcome::default()
    };
    for (name, value) in [("latency_p50_us", p50), ("latency_p99_us", p99)] {
        if value.is_none() {
            out.refused.push(name);
        }
    }
    out.notes = window_notes(w, &measured, &sorted);
    out.notes.extend([
        note("setup_reps", setup_s.len().to_string()),
        note("restart_reps", recover_ms.len().to_string()),
        note("setup_s_all", rounded(&setup_s, 4)),
        note("recover_ms_all", rounded(&recover_ms, 2)),
    ]);

    // Per layer, from the traced phase.
    let (extra_layers, extra_notes) = b.extras(&rec);
    if let Some(traced) = traced {
        out.attempted += traced.phase.attempted;
        out.failed += traced.phase.failed;
        let (mut layers, notes) = per_layer(w, &rec, &traced, driver_tid, p50);
        layers.extend(extra_layers);
        out.per_layer = layers;
        out.notes.extend(notes);
        out.traced_p50_us =
            stats::percentile(&latencies(&rec, &traced.phase), 0.50).map(|ns| ns / 1e3);
        let path = crate::runner::out_dir().join(format!("trace-{}.json", w.name()));
        match rec.tracer.write_chrome(&path, w.name()) {
            Ok(()) => out
                .notes
                .push(note("trace_file", path.display().to_string())),
            Err(e) => rec.violation(format!("trace file {}: {e}", path.display())),
        }
    }
    out.notes.extend(extra_notes);
    out.violations = rec.violations;
    out
}

/// What the notes say about the measured window: the sample count, the
/// latency ladder around the two reported percentiles, and how much of
/// the offered load was delivered.
fn window_notes(w: Workload, measured: &Phase, sorted: &[u64]) -> Notes {
    let mut notes = vec![note("latency_samples", sorted.len().to_string())];
    let ladder: Vec<String> = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
        .iter()
        .filter_map(|&q| {
            let us = stats::percentile(sorted, q)? / 1e3;
            Some(format!("p{}={us:.1}", q * 100.0))
        })
        .collect();
    notes.push(note("latency_ladder_us", ladder.join(" ")));
    if let Load::Open { rate } = w.load() {
        // The schedule is Poisson, so what fell due in the window is
        // itself within a percent or so of rate x window.
        notes.push(note(
            "offered_ops",
            format!(
                "{} ({:.4} of rate x window)",
                measured.attempted,
                measured.attempted as f64 / (rate * measured.seconds)
            ),
        ));
        notes.push(note(
            "delivered_share",
            format!(
                "{:.4}",
                measured.completed as f64 / measured.attempted.max(1) as f64
            ),
        ));
    }
    notes
}

/// The per-layer metrics the run sequence itself can compute from the
/// traced half-window (the workload adds its own), and the trace's
/// per-span self times as notes.
fn per_layer(
    w: Workload,
    rec: &Recorder,
    traced: &Traced,
    driver_tid: u64,
    untraced_p50: Option<f64>,
) -> (Metrics, Notes) {
    let ph = &traced.phase;
    let ops = ph.completed.max(1);
    let mut layers = layer_ratios(&traced.before, &traced.after, ops, traced.charges);
    let program: Vec<&ThreadCpu> = ph.cpu.iter().filter(|t| counts(w, driver_tid, t)).collect();
    let all: f64 = program.iter().map(|t| t.cpu_s).sum();
    let busiest = program
        .iter()
        .filter(|t| t.name.starts_with("eactors-worker"))
        .map(|t| t.cpu_s)
        .fold(0.0, f64::max);
    layers.push((
        "core.worker_cpu_max_share",
        if all > 0.0 { busiest / all } else { 0.0 },
    ));
    layers.push(("core.allocs_per_op", traced.allocs as f64 / ops as f64));
    let mut lag: Vec<u64> = rec.lag_ns[ph.lag.clone()].to_vec();
    lag.sort_unstable();
    layers.push((
        "driver.sched_lag_p99_us",
        stats::percentile(&lag, 0.99).map_or(0.0, |v| v / 1e3),
    ));
    if let Some(limit_us) = w.latency_limit_us() {
        let over = rec.samples[ph.samples.clone()]
            .iter()
            .filter(|s| s.1 as f64 / 1e3 > limit_us)
            .count() as u64
            + ph.failed;
        layers.push((
            "driver.over_limit_share",
            over as f64 / ph.attempted.max(1) as f64,
        ));
    }
    let mut notes = Vec::new();
    let traced_p50 = stats::percentile(&latencies(rec, ph), 0.50);
    if let (Some(t), Some(u)) = (traced_p50, untraced_p50) {
        layers.push(("driver.trace_overhead_pct", (t - u) / u * 100.0));
        notes.push(note("traced_latency_p50_us", format!("{:.3}", t / 1e3)));
    }
    notes.push(note("spans", rec.tracer.spans().len().to_string()));
    notes.push(note("spans_dropped", rec.tracer.dropped().to_string()));
    for t in rec.tracer.self_times() {
        notes.push(note(
            &format!("span.{}.{}", t.layer, t.name),
            format!(
                "n={} total_us={:.1} self_us={:.1}",
                t.count,
                t.total_ns as f64 / 1e3,
                t.self_ns as f64 / 1e3
            ),
        ));
    }
    (layers, notes)
}

/// Run one workload in this process.
pub fn run(w: Workload, p: &Params) -> Outcome {
    match w {
        Workload::PingpongLocal => execute(&mut pingpong::PingPong::new(false, p), w, p),
        Workload::PingpongXenclave => execute(&mut pingpong::PingPong::new(true, p), w, p),
        Workload::ChatIdle | Workload::ChatBusy => execute(&mut chat::Chat::new(w, p), w, p),
        Workload::Churn => execute(&mut churn::Churn::new(w, p), w, p),
        Workload::PosKv => execute(&mut pos_kv::PosKv::new(p), w, p),
    }
}
