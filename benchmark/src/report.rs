//! Result documents and their comparison. Everything is printed as
//! JSON through `obs::json`, every metric by name with its unit.

use obs::json::Value;

use crate::catalogue::{unit_of, Better, Workload, BENCHMARK_JSON, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::Outcome;

/// Spreads and medians of the recording runs (`benchmark record`), per
/// workload and end-to-end metric; `compare` derives each cell's
/// threshold from them and tells a metric that moved from one that
/// cannot be resolved on this host.
pub const RECORDED_JSON: &str = include_str!("../recorded.json");

pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

pub fn num(v: f64) -> Value {
    Value::Number(if v.is_finite() { v } else { 0.0 })
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_owned())
}

fn metric(value: f64, unit: &str) -> Value {
    obj(vec![("value", num(value)), ("unit", text(unit))])
}

fn metrics(values: &[(&'static str, f64)]) -> Value {
    Value::Object(
        values
            .iter()
            .map(|&(name, v)| (name.to_owned(), metric(v, unit_of(name).unwrap_or(""))))
            .collect(),
    )
}

/// One workload's result: what a child process prints.
pub fn workload_doc(w: Workload, seed: u64, o: &Outcome) -> Value {
    obj(vec![
        ("workload", text(w.name())),
        ("seed", num(seed as f64)),
        ("correct", Value::Bool(o.violations.is_empty())),
        ("attempted", num(o.attempted as f64)),
        ("failed", num(o.failed as f64)),
        (
            "violations",
            Value::Array(o.violations.iter().map(|v| text(v)).collect()),
        ),
        (
            "refused",
            Value::Array(o.refused.iter().map(|v| text(v)).collect()),
        ),
        ("end_to_end", metrics(&o.end_to_end)),
        ("per_layer", metrics(&o.per_layer)),
        (
            "notes",
            Value::Object(o.notes.iter().map(|(k, v)| (k.clone(), text(v))).collect()),
        ),
    ])
}

/// The driver contract's last line: `correct`, `attempted`, `failed`
/// and `metrics` — every end-to-end metric, or with `trace` every
/// per-layer one (a metric the workload does not exercise reads 0).
pub fn contract_line(doc: &Value, trace: bool) -> Value {
    let (section, specs): (&str, &[_]) = if trace {
        ("per_layer", &PER_LAYER)
    } else {
        ("end_to_end", &END_TO_END)
    };
    let found = doc.get(section);
    let metrics = specs
        .iter()
        .map(|spec| {
            let value = found
                .and_then(|m| m.get(spec.name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            (spec.name.to_owned(), metric(value, spec.unit))
        })
        .collect();
    obj(vec![
        (
            "correct",
            doc.get("correct").cloned().unwrap_or(Value::Bool(false)),
        ),
        (
            "attempted",
            doc.get("attempted").cloned().unwrap_or(num(0.0)),
        ),
        ("failed", doc.get("failed").cloned().unwrap_or(num(0.0))),
        ("metrics", Value::Object(metrics)),
    ])
}

/// The bound of an end-to-end metric in the parsed `BENCHMARK.json`.
fn bound_of(benchmark: &Value, name: &str) -> Option<f64> {
    benchmark
        .get("end_to_end")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))?
        .get("bound")?
        .as_f64()
}

fn recorded_spread(recorded: &Value, workload: &str, name: &str) -> Option<f64> {
    recorded
        .get("workloads")?
        .get(workload)?
        .get(name)?
        .get("spread")?
        .as_f64()
}

/// A cell of a set written by `repeat` or `record`: the median over
/// the set's runs.
fn median_of(set: &Value, workload: &str, name: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(name)?
        .get("median")?
        .as_f64()
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    InsideBound,
    Improved,
    Regressed,
    /// The recorded run-to-run spread on this workload is wider than the
    /// threshold, so a move of this size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::InsideBound => "inside bound",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base`
/// (negative when it is better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base != 0.0 {
        delta / base.abs()
    } else {
        0.0
    }
}

/// What one cell is judged against: max(3 %, 2 x the spread recorded on
/// that workload), and never more than the metric's bound in
/// `BENCHMARK.json`, which the noisiest workload sets.
pub fn threshold(bound: f64, spread: Option<f64>) -> f64 {
    spread.map_or(bound, |s| (2.0 * s).max(0.03).min(bound))
}

pub fn verdict(worse: f64, threshold: f64, spread: Option<f64>) -> Verdict {
    if spread.is_some_and(|s| s > threshold) {
        Verdict::Unresolved
    } else if worse > threshold {
        Verdict::Regressed
    } else if worse < -threshold {
        Verdict::Improved
    } else {
        Verdict::InsideBound
    }
}

/// One compared cell.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    pub threshold: f64,
    pub verdict: Verdict,
}

/// Compare two sets of runs, median against median: one row per workload
/// and end-to-end metric.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let benchmark = obs::json::parse(BENCHMARK_JSON).unwrap_or_default();
    let recorded = obs::json::parse(RECORDED_JSON).unwrap_or_default();
    let mut rows = Vec::new();
    for w in Workload::ALL {
        for spec in END_TO_END {
            let (Some(base), Some(new)) = (
                median_of(a, w.name(), spec.name),
                median_of(b, w.name(), spec.name),
            ) else {
                continue;
            };
            let spread = recorded_spread(&recorded, w.name(), spec.name);
            let threshold = threshold(bound_of(&benchmark, spec.name).unwrap_or(0.0), spread);
            rows.push(Row {
                workload: w.name().to_owned(),
                metric: spec.name,
                base,
                new,
                threshold,
                verdict: verdict(worse_by(spec.better, base, new), threshold, spread),
            });
        }
    }
    rows
}

/// The comparison as a table: every ratio with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<17} {:>14} {:>14} {:>8} {:>6}  {}\n",
        "workload", "metric", "base", "new", "new/base", "within", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:<17} {:>14.4} {:>14.4} {:>8.4} {:>6.3}  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            if r.base != 0.0 { r.new / r.base } else { 0.0 },
            r.threshold,
            r.verdict.as_str()
        ));
    }
    out
}

/// Median and inter-quartile spread of each end-to-end metric over
/// several runs of one workload — what `record` writes down.
pub fn spreads(docs: &[Value]) -> Value {
    Value::Object(
        END_TO_END
            .iter()
            .map(|spec| {
                let values: Vec<f64> = docs
                    .iter()
                    .filter_map(|d| d.get("end_to_end")?.get(spec.name)?.get("value")?.as_f64())
                    .collect();
                (
                    spec.name.to_owned(),
                    obj(vec![
                        ("median", num(stats::median(&values))),
                        ("spread", num(stats::iqr_share(&values).unwrap_or(0.0))),
                        ("unit", text(spec.unit)),
                        (
                            "values",
                            Value::Array(values.iter().map(|&v| num(v)).collect()),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Latency (lower is better) 10 % up against a 5 % bound.
        let w = worse_by(Better::Lower, 100.0, 110.0);
        assert_eq!(verdict(w, 0.05, Some(0.01)), Verdict::Regressed);
        // Throughput (higher is better) 10 % up is an improvement.
        let w = worse_by(Better::Higher, 100.0, 110.0);
        assert_eq!(verdict(w, 0.05, None), Verdict::Improved);
        assert_eq!(verdict(0.03, 0.05, None), Verdict::InsideBound);
        // A recorded spread wider than the threshold resolves nothing.
        assert_eq!(verdict(0.20, 0.05, Some(0.08)), Verdict::Unresolved);
    }

    #[test]
    fn a_quiet_cell_is_held_tighter_than_the_metric_bound() {
        // 0.4 % recorded spread: the 3 % floor, not the 20 % bound.
        assert_eq!(threshold(0.20, Some(0.004)), 0.03);
        assert_eq!(
            verdict(0.19, threshold(0.20, Some(0.004)), Some(0.004)),
            Verdict::Regressed
        );
        assert_eq!(threshold(0.20, Some(0.04)), 0.08);
        // A noisy cell stops at the bound, and past it is unresolved.
        assert_eq!(threshold(0.25, Some(0.20)), 0.25);
        assert_eq!(
            verdict(0.30, threshold(0.25, Some(0.30)), Some(0.30)),
            Verdict::Unresolved
        );
        assert_eq!(threshold(0.10, None), 0.10);
    }

    #[test]
    fn compare_reports_one_row_per_workload_and_metric() {
        let set = |p50: f64| {
            obj(vec![(
                "workloads",
                obj(vec![(
                    "chat_busy",
                    obj(vec![("latency_p50_us", obj(vec![("median", num(p50))]))]),
                )]),
            )])
        };
        let rows = compare(&set(200.0), &set(400.0));
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].base, rows[0].new), (200.0, 400.0));
        assert!(matches!(
            rows[0].verdict,
            Verdict::Regressed | Verdict::Unresolved
        ));
        assert!(render(&rows).contains("chat_busy"));
    }

    #[test]
    fn contract_line_has_exactly_the_catalogued_metrics() {
        let doc = obj(vec![
            ("correct", Value::Bool(true)),
            ("attempted", num(10.0)),
            ("failed", num(0.0)),
            ("end_to_end", metrics(&[("setup_s", 0.5)])),
        ]);
        let line = contract_line(&doc, false);
        let m = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.5)
        );
        let traced = contract_line(&doc, true);
        assert_eq!(
            traced.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
        assert!(!line.to_string().contains('\n'));
    }
}
