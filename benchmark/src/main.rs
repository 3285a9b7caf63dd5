//! `benchmark` — one command for every number.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's form)
//! benchmark run [--seed N] [--workload W] [--trace] [--quick] [--seconds S]
//! benchmark repeat [--seed N] [--workload W] [--quick] [--seconds S]
//! benchmark compare <a.json> <b.json>
//! benchmark record
//! ```

use std::process::ExitCode;

use benchmark::catalogue::{Workload, BENCHMARK_JSON};
use benchmark::report::{self, Verdict};
use benchmark::runner::{self, Job, EXIT_VIOLATION};
use benchmark::workloads::Fault;
use obs::json::Value;

/// Runs per workload in each of `repeat`'s two sets: a single run can be
/// off by more than a bound on noise alone, a median of three is not.
const REPEAT_RUNS: u64 = 3;
/// Runs per workload `record` takes; the bounds rest on their spread.
const RECORD_RUNS: u64 = 10;

/// `--name value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for {name}: {v:?}"))
            })
            .transpose()
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.value("--workload") {
            None => Ok(Workload::ALL.to_vec()),
            Some(name) => Workload::parse(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload {name:?}")),
        }
    }

    /// The window: `--seconds`, else 1 s with `--quick`, else
    /// `BENCHMARK.json`'s `run_seconds`.
    fn seconds(&self) -> Result<f64, String> {
        if let Some(s) = self.parsed::<f64>("--seconds")? {
            return if s > 0.0 {
                Ok(s)
            } else {
                Err("--seconds must be positive".into())
            };
        }
        if self.flag("--quick") {
            return Ok(1.0);
        }
        run_seconds()
    }
}

fn run_seconds() -> Result<f64, String> {
    obs::json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|d| d.get("run_seconds")?.as_f64())
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_owned())
}

/// `0|1` (the driver's form) or a bare flag.
fn trace_of(args: &Args) -> Result<bool, String> {
    match args.value("--trace") {
        Some("1") => Ok(true),
        Some("0") => Ok(false),
        Some(other) if !other.starts_with("--") => {
            Err(format!("--trace takes 0 or 1, got {other:?}"))
        }
        _ => Ok(args.flag("--trace")),
    }
}

fn job_of(args: &Args) -> Result<Job, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    Ok(Job {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: args.parsed("--seed")?.unwrap_or(1),
        seconds: args.seconds()?,
        trace: trace_of(args)?,
        quick: args.value("--quick") == Some("1"),
        fault: match args.value("--fault") {
            None | Some("none") => Fault::None,
            Some("corrupt_echo") => Fault::CorruptEcho,
            Some("drop_key") => Fault::DropKey,
            Some(other) => return Err(format!("unknown fault {other:?}")),
        },
    })
}

fn code(n: i32) -> ExitCode {
    ExitCode::from(n as u8)
}

/// One workload, one JSON line: what the driver runs.
fn contract(args: &Args) -> Result<ExitCode, String> {
    runner::require_two_cores()?;
    let job = job_of(args)?;
    let (doc, correct) = runner::run_job(&job)?;
    let refused = doc
        .get("refused")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    if refused > 0 && !job.trace {
        return Err(format!(
            "{}: too few latency samples to report {:?}",
            job.workload.name(),
            doc.get("refused")
        ));
    }
    println!("{}", report::contract_line(&doc, job.trace));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        code(EXIT_VIOLATION)
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    runner::require_two_cores()?;
    let (set, correct) = runner::run_set(
        &args.workloads()?,
        args.parsed("--seed")?.unwrap_or(1),
        args.seconds()?,
        trace_of(args)?,
        args.flag("--quick"),
    )?;
    println!("{}", set.pretty());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        code(EXIT_VIOLATION)
    })
}

fn load(path: &str) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    obs::json::parse(&body).map_err(|e| format!("{path}: {e}"))
}

fn compare_sets(a: &Value, b: &Value) -> Result<ExitCode, String> {
    let rows = report::compare(a, b);
    if rows.is_empty() {
        return Err(
            "nothing to compare: both files must be sets written by repeat or record".into(),
        );
    }
    print!("{}", report::render(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let regressed = count(Verdict::Regressed);
    println!(
        "{} cells, {regressed} regressed, {} unresolved",
        rows.len(),
        count(Verdict::Unresolved)
    );
    Ok(if regressed > 0 {
        code(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.0.as_slice() else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    compare_sets(&load(a)?, &load(b)?)
}

/// Two sets of the same commit back to back, the second in reverse
/// order, then `compare`.
fn repeat(args: &Args) -> Result<ExitCode, String> {
    runner::require_two_cores()?;
    let workloads = args.workloads()?;
    let seed = args.parsed("--seed")?.unwrap_or(1);
    let (seconds, quick) = (args.seconds()?, args.flag("--quick"));
    let out = runner::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut sets = Vec::new();
    for (label, order) in [
        ("a", workloads.clone()),
        ("b", workloads.iter().rev().copied().collect()),
    ] {
        let set = runner::run_repeated(&order, seed, REPEAT_RUNS, seconds, quick)?;
        let path = out.join(format!("repeat-{label}.json"));
        std::fs::write(&path, set.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        sets.push(set);
    }
    compare_sets(&sets[0], &sets[1])
}

/// Run every workload under ten seeds at `run_seconds` and write each
/// end-to-end metric's median and inter-quartile spread to
/// `recorded.json`.
fn record() -> Result<ExitCode, String> {
    runner::require_two_cores()?;
    let doc = runner::run_repeated(&Workload::ALL, 1, RECORD_RUNS, run_seconds()?, false)?;
    let path = runner::benchmark_dir().join("recorded.json");
    std::fs::write(&path, doc.pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", doc.pretty());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    let result = match command.as_str() {
        "" => contract(&args),
        "child" => job_of(&args).and_then(|job| {
            let attempt = args.parsed("--attempt")?.unwrap_or(runner::MAX_RETRIES);
            Ok(code(runner::child(&job, attempt)))
        }),
        "run" => run(&args),
        "repeat" => repeat(&args),
        "compare" => compare(&args),
        "record" => record(),
        other => Err(format!(
            "unknown command {other:?} (run, repeat, compare, record)"
        )),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        code(1)
    })
}
