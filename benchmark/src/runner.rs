//! Process orchestration. Every workload runs in a child process of its
//! own — clean RSS and CPU accounting, a fresh cost-model calibration —
//! guarded by a calibration check: a child whose `CostHandle::charge`
//! is off nominal by more than 10 % is thrown away and re-run (at most
//! twice, counted).

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use obs::json::Value;
use sgx_sim::Platform;

use crate::catalogue::Workload;
use crate::probe::{self, NOMINAL_NS_PER_KCYCLE};
use crate::report::{self, num, obj, text};
use crate::workloads::{self, Fault, Params};

/// Exit code of a child that found its calibration off.
pub const EXIT_CALIBRATION: i32 = 75;
/// Exit code of a run whose outputs failed a correctness check.
pub const EXIT_VIOLATION: i32 = 2;
/// Re-runs a miscalibrated child may cost.
pub const MAX_RETRIES: u32 = 2;
/// How far `charge` may be off nominal.
const CALIBRATION_TOLERANCE: f64 = 0.10;

/// The benchmark's own directory (`benchmark/`): cargo names it at run
/// time; a binary started by hand finds it below the repo root or is
/// already inside it.
pub fn benchmark_dir() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir),
        None if std::path::Path::new("benchmark/Cargo.toml").exists() => PathBuf::from("benchmark"),
        None => PathBuf::from("."),
    }
}

/// Where traces, scratch stores and recorded sets go (`benchmark/out/`).
pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

/// What one child is asked to do, as it travels on the command line.
#[derive(Debug, Clone)]
pub struct Job {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Self-tests only: `child --fault ...` is never forwarded by a run.
    pub fault: Fault,
}

impl Job {
    fn params(&self) -> Params {
        let mut p = Params::new(self.seed, self.seconds);
        p.trace = self.trace;
        p.fault = self.fault;
        if self.quick {
            p.warmup = Duration::from_millis(200);
            p.min_reps = 2;
            p.rep_budget = Duration::ZERO;
        }
        p
    }
}

/// Child entry: check calibration, run the probe pass if tracing, run
/// the workload, print its document as one line. Returns the exit code.
pub fn child(job: &Job, attempt: u32) -> i32 {
    let ns = probe::charge_ns_per_kcycle(&Platform::builder().build().costs());
    let off = (ns / NOMINAL_NS_PER_KCYCLE - 1.0).abs();
    if off > CALIBRATION_TOLERANCE && attempt < MAX_RETRIES {
        eprintln!(
            "calibration: charge costs {ns:.1} ns per 1000 cycles, nominal {NOMINAL_NS_PER_KCYCLE:.1}; re-running in a fresh process"
        );
        return EXIT_CALIBRATION;
    }
    let probes = if job.trace {
        probe::run_all()
    } else {
        Vec::new()
    };
    let mut outcome = workloads::run(job.workload, &job.params());
    if job.trace {
        let on_stanza_path = matches!(job.workload, Workload::ChatIdle | Workload::ChatBusy);
        if let (true, Some(p50)) = (on_stanza_path, outcome.traced_p50_us) {
            outcome.per_layer.push((
                "driver.budget_coverage",
                probe::stanza_path_us(&probes) / p50,
            ));
        }
        outcome
            .per_layer
            .push(("driver.calibration_retries", attempt as f64));
        let mut all = probes;
        all.append(&mut outcome.per_layer);
        outcome.per_layer = all;
    }
    outcome
        .notes
        .push(("charge_ns_per_kcycle".into(), format!("{ns:.2}")));
    outcome
        .notes
        .push(("calibration_retries".into(), attempt.to_string()));
    println!("{}", report::workload_doc(job.workload, job.seed, &outcome));
    if outcome.violations.is_empty() {
        0
    } else {
        for v in &outcome.violations {
            eprintln!("violation: {v}");
        }
        EXIT_VIOLATION
    }
}

/// How long one child may take before it is killed: twice its window
/// plus half a minute for set-ups, probes and checks. Two such children
/// still end inside the driver's 180 s.
fn child_deadline(job: &Job) -> Duration {
    Duration::from_secs_f64(job.seconds * 2.0 + 30.0)
}

/// Run one child to its end, or kill it at `deadline`. Returns its exit
/// code and standard output; `None` for a child that had to be killed.
fn run_child(job: &Job, attempt: u32) -> Result<Option<(i32, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = Command::new(exe)
        .arg("child")
        .args(["--workload", job.workload.name()])
        .args(["--seed", &job.seed.to_string()])
        .args(["--seconds", &job.seconds.to_string()])
        .args(["--trace", if job.trace { "1" } else { "0" }])
        .args(["--quick", if job.quick { "1" } else { "0" }])
        .args(["--attempt", &attempt.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    // The child prints one line at its very end, far smaller than a
    // pipe buffer, so it can be read after the exit.
    let deadline = Instant::now() + child_deadline(job);
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("wait for child: {e}"))?
        {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Ok(None);
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)
            .map_err(|e| format!("read child output: {e}"))?;
    }
    Ok(Some((status.code().unwrap_or(-1), stdout)))
}

/// Run one job in child processes until one is calibrated (a child that
/// hangs is killed and counts as an attempt). `Ok` carries the child's
/// document and whether its outputs were correct.
pub fn run_job(job: &Job) -> Result<(Value, bool), String> {
    let name = job.workload.name();
    let mut hung = 0;
    for attempt in 0..=MAX_RETRIES {
        let Some((code, stdout)) = run_child(job, attempt)? else {
            eprintln!(
                "{name}: child still running after {:?}; killed",
                child_deadline(job)
            );
            hung += 1;
            if hung == 2 {
                return Err(format!("{name} hung twice"));
            }
            continue;
        };
        if code == EXIT_CALIBRATION {
            continue;
        }
        let doc = stdout
            .lines()
            .last()
            .and_then(|line| obs::json::parse(line).ok())
            .ok_or_else(|| format!("{name} child exited {code} without a result"))?;
        return match code {
            0 => Ok((doc, true)),
            EXIT_VIOLATION => Ok((doc, false)),
            _ => Err(format!("{name} child exited {code}")),
        };
    }
    Err(format!("{name}: no attempt produced a result"))
}

/// Which host produced a set of results.
pub fn host_record(seed: u64, seconds: f64, quick: bool) -> Value {
    let (_, backend, reason) = enet::auto_backend(Platform::builder().build().costs());
    // The repo root is the benchmark directory's parent.
    let root = benchmark_dir().join("..");
    obj(vec![
        ("nproc", num(crate::host::nproc() as f64)),
        ("kernel", text(&crate::host::kernel_release())),
        ("backend", text(backend)),
        ("backend_reason", text(&reason)),
        ("git_commit", text(&crate::host::git_commit(&root))),
        ("seed", num(seed as f64)),
        ("window_s", num(seconds)),
        ("warmup_s", num(if quick { 0.2 } else { 1.0 })),
    ])
}

/// Refuse to record on a host where the program's workers and the
/// driver cannot run side by side.
pub fn require_two_cores() -> Result<(), String> {
    match crate::host::nproc() {
        n if n >= 2 => Ok(()),
        n => Err(format!(
            "refusing to record: nproc = {n}, the benchmark needs at least 2"
        )),
    }
}

/// Run a full set: each selected workload untraced and, with `trace`,
/// once more traced. Returns the set document and whether every run's
/// outputs were correct.
pub fn run_set(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<(Value, bool), String> {
    let mut members = Vec::new();
    let mut all_correct = true;
    for &workload in workloads {
        let job = Job {
            workload,
            seed,
            seconds,
            trace: false,
            quick,
            fault: Fault::None,
        };
        eprintln!("running {} ...", workload.name());
        let (mut doc, correct) = run_job(&job)?;
        all_correct &= correct;
        if trace {
            eprintln!("running {} (traced) ...", workload.name());
            let (traced, correct) = run_job(&Job { trace: true, ..job })?;
            all_correct &= correct;
            if let Value::Object(m) = &mut doc {
                m.retain(|(k, _)| k != "per_layer");
                m.push((
                    "per_layer".into(),
                    traced.get("per_layer").cloned().unwrap_or_default(),
                ));
                m.push((
                    "traced_notes".into(),
                    traced.get("notes").cloned().unwrap_or_default(),
                ));
            }
        }
        members.push((workload.name().to_owned(), doc));
    }
    let set = obj(vec![
        ("host", host_record(seed, seconds, quick)),
        ("workloads", Value::Object(members)),
    ]);
    Ok((set, all_correct))
}

/// Several untraced runs of each workload, seeds `seed..seed + runs`: per
/// workload and end-to-end metric the median, the inter-quartile spread
/// and every value. This is what `compare` compares. The workloads take
/// turns under each seed, so one workload's runs are minutes apart and
/// their spread includes how the host drifts over the set, not only how
/// two runs in a row differ (a pingpong restart read 0.235 ms in ten
/// runs in a row and 0.265 ms in the next ten).
pub fn run_repeated(
    workloads: &[Workload],
    seed: u64,
    runs: u64,
    seconds: f64,
    quick: bool,
) -> Result<Value, String> {
    let mut docs = vec![Vec::new(); workloads.len()];
    for seed in seed..seed + runs {
        for (docs, &workload) in docs.iter_mut().zip(workloads) {
            eprintln!("running {} seed {seed} ...", workload.name());
            let job = Job {
                workload,
                seed,
                seconds,
                trace: false,
                quick,
                fault: Fault::None,
            };
            let (doc, correct) = run_job(&job)?;
            if !correct {
                return Err(format!(
                    "{} seed {seed} failed a correctness check",
                    workload.name()
                ));
            }
            docs.push(doc);
        }
    }
    let members = workloads
        .iter()
        .zip(&docs)
        .map(|(w, docs)| (w.name().to_owned(), report::spreads(docs)))
        .collect();
    Ok(obj(vec![
        ("host", host_record(seed, seconds, quick)),
        ("runs", num(runs as f64)),
        ("workloads", Value::Object(members)),
    ]))
}
