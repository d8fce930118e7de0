//! One workload, one process: repeat fresh reps until the run's seconds
//! are used, reduce them to the named metrics, and print the result.
//!
//! The last line of standard output is the driver's contract: one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The line
//! before it (`detail …`) carries what the suite adds on top: min–max
//! over the reps, sample counts and the correctness findings.

use std::path::PathBuf;
use std::rc::Rc;

use crate::calls::SharedTrace;
use crate::host;
use crate::json::{obj, Value};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::{self, Rep, Scale};

/// What one direct invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Per-layer metrics from traced reps instead of end-to-end ones.
    pub trace: bool,
    pub smoke: bool,
}

/// One reported metric: the median over its samples, with their range.
/// Names are owned because the suite also builds rows from what a child
/// printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// Reps (or single readings) behind the value.
    pub n: usize,
}

impl Row {
    fn of(name: &str, unit: &str, samples: &[f64]) -> Option<Row> {
        let (min, max) = stats::min_max(samples)?;
        Some(Row {
            name: name.to_string(),
            unit: unit.to_string(),
            value: stats::median(samples)?,
            min,
            max,
            n: samples.len(),
        })
    }
}

/// The reduced result of one run.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub reps: usize,
    /// End-to-end rows on an untraced run, per-layer rows on a traced
    /// one: the set the contract asks for in each mode.
    pub rows: Vec<Row>,
    /// The recorder's aggregate table (traced runs).
    pub trace_table: Option<Value>,
}

/// Where the traced run writes its span file.
pub fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{}.json", workload.name()))
}

fn end_to_end_rows(untraced: &[Rep]) -> Vec<Row> {
    let per_rep = |f: fn(&Rep) -> Option<f64>| untraced.iter().filter_map(f).collect::<Vec<_>>();
    END_TO_END
        .iter()
        .filter_map(|m| {
            let samples = match m.name {
                "setup_s" => per_rep(|r| Some(r.setup_s)),
                "ops_per_s" => per_rep(|r| Some(r.ops as f64 / r.timed_s)),
                "cpu_ns_per_op" => per_rep(|r| Some(r.cpu_ns? as f64 / r.ops.max(1) as f64)),
                // Off Linux the host readers are absent and the metric
                // is omitted, not faked.
                "peak_rss_mb" => host::peak_rss_mb().into_iter().collect(),
                other => unreachable!("end-to-end metric {other} has no reader"),
            };
            Row::of(m.name, m.unit, &samples)
        })
        .collect()
}

/// Per-layer rows in registry order. A rep-measured value is the median
/// over the untraced reps (the traced reps where only they measure it);
/// recorder-derived values come once per run. A layer the workload
/// bypasses reads 0: the contract wants every name on every workload.
fn per_layer_rows(untraced: &[Rep], traced: &[Rep], derived: &[(&'static str, f64)]) -> Vec<Row> {
    let from = |reps: &[Rep], name: &str| -> Vec<f64> {
        reps.iter()
            .flat_map(|r| &r.layer)
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    };
    PER_LAYER
        .iter()
        .map(|m| {
            let mut samples = from(untraced, m.name);
            if samples.is_empty() {
                samples = from(traced, m.name);
            }
            if samples.is_empty() {
                samples = derived
                    .iter()
                    .filter(|(n, _)| *n == m.name)
                    .map(|(_, v)| *v)
                    .collect();
            }
            Row::of(m.name, m.unit, &samples).unwrap_or(Row {
                name: m.name.to_string(),
                unit: m.unit.to_string(),
                value: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            })
        })
        .collect()
}

/// Runs the workload and reduces it. Prints one progress line per rep.
pub fn measure(opts: &Options) -> Outcome {
    let scale = if opts.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let trace: SharedTrace = Rc::default();
    let (mut untraced, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    // At least two reps, so the determinism check always has a pair.
    loop {
        let n = untraced.len() + traced.len();
        let measured: f64 = untraced.iter().chain(&traced).map(|r| r.timed_s).sum();
        if n >= 2 && measured >= opts.seconds {
            break;
        }
        let with_trace = opts.trace && untraced.len() > traced.len();
        let rep = workloads::rep(
            opts.workload,
            &scale,
            opts.seed,
            with_trace.then_some(&trace),
        );
        println!(
            "rep {n}{}: setup_s={:.4} timed_s={:.4} ops={} attempted={} failed={} {}",
            if with_trace { " (traced)" } else { "" },
            rep.setup_s,
            rep.timed_s,
            rep.ops,
            rep.attempted,
            rep.failed,
            rep.note
        );
        if with_trace {
            traced.push(rep);
        } else {
            untraced.push(rep);
        }
    }

    let mut errors: Vec<String> = untraced
        .iter()
        .chain(&traced)
        .flat_map(|r| r.errors.iter().cloned())
        .collect();
    let bits = untraced[0].sim_bits;
    if untraced.iter().any(|r| r.sim_bits != bits) {
        errors.push("simulated results differ between reps of one seed".to_string());
    }
    if traced.iter().any(|r| r.sim_bits != bits) {
        errors.push("traced simulated results differ from the untraced ones".to_string());
    }

    let (rows, trace_table) = if opts.trace {
        let t = trace.borrow();
        let derived = workloads::traced_layers(opts.workload, &t, &traced, &untraced, opts.seed);
        let timed_ns = traced.iter().map(|r| r.timed_s).sum::<f64>() * 1e9;
        let doc = t.tracer.document(vec![
            ("workload".into(), Value::Str(opts.workload.name().into())),
            ("seed".into(), Value::Num(opts.seed as f64)),
            ("traced_reps".into(), Value::Num(traced.len() as f64)),
            ("timed_wall_ns".into(), Value::Num(timed_ns.round())),
            ("clock_origin".into(), Value::Str("process start".into())),
        ]);
        let path = trace_path(opts.workload);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, doc.render() + "\n"));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => errors.push(format!("cannot write {}: {e}", path.display())),
        }
        (
            per_layer_rows(&untraced, &traced, &derived),
            Some(t.tracer.table()),
        )
    } else {
        (end_to_end_rows(&untraced), None)
    };
    for row in &rows {
        if !row.value.is_finite() {
            errors.push(format!("metric {} is not finite", row.name));
        }
    }
    Outcome {
        correct: errors.is_empty(),
        attempted: untraced.iter().chain(&traced).map(|r| r.attempted).sum(),
        failed: untraced.iter().chain(&traced).map(|r| r.failed).sum(),
        errors,
        reps: untraced.len() + traced.len(),
        rows,
        trace_table,
    }
}

/// The contract line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, each metric exactly `value` and `unit`.
pub fn result_line(outcome: &Outcome) -> String {
    obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "metrics",
            obj(outcome.rows.iter().map(|r| {
                (
                    r.name.clone(),
                    obj([
                        ("value", Value::Num(r.value)),
                        ("unit", Value::Str(r.unit.clone())),
                    ]),
                )
            })),
        ),
    ])
    .render()
}

/// The suite's side channel, printed just above the contract line.
pub fn detail_line(outcome: &Outcome) -> String {
    let mut members = vec![
        ("reps".to_string(), Value::Num(outcome.reps as f64)),
        (
            "errors".to_string(),
            Value::Arr(outcome.errors.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "spread".to_string(),
            obj(outcome.rows.iter().map(|r| {
                (
                    r.name.clone(),
                    obj([
                        ("min", Value::Num(r.min)),
                        ("max", Value::Num(r.max)),
                        ("n", Value::Num(r.n as f64)),
                    ]),
                )
            })),
        ),
    ];
    if let Some(table) = &outcome.trace_table {
        members.push(("trace_table".to_string(), table.clone()));
    }
    format!("detail {}", Value::Obj(members).render())
}

/// Prints the human-readable rows, then the detail and contract lines.
pub fn print(opts: &Options, outcome: &Outcome) {
    println!(
        "{} seed={} trace={} reps={}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        outcome.reps
    );
    for r in outcome.rows.iter().filter(|r| r.n > 0) {
        println!(
            "  {:<34} {:>16.4} {:<6} min={:.4} max={:.4} n={}",
            r.name, r.value, r.unit, r.min, r.max, r.n
        );
    }
    let bypassed: Vec<&str> = outcome
        .rows
        .iter()
        .filter(|r| r.n == 0)
        .map(|r| r.name.as_str())
        .collect();
    if !bypassed.is_empty() {
        println!(
            "  layers this workload bypasses read 0: {}",
            bypassed.join(" ")
        );
    }
    for e in &outcome.errors {
        println!("  INCORRECT: {e}");
    }
    println!("{}", detail_line(outcome));
    println!("{}", result_line(outcome));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn rep(setup_s: f64, timed_s: f64, ops: u64) -> Rep {
        Rep {
            setup_s,
            timed_s,
            cpu_ns: Some(ops * 1_000),
            ops,
            attempted: ops,
            ..Rep::default()
        }
    }

    #[test]
    fn end_to_end_rows_are_medians_over_reps() {
        let reps = [rep(1.0, 2.0, 100), rep(3.0, 1.0, 100), rep(2.0, 4.0, 100)];
        let rows = end_to_end_rows(&reps);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        let setup = by_name("setup_s");
        assert_eq!(
            (setup.value, setup.min, setup.max, setup.n),
            (2.0, 1.0, 3.0, 3)
        );
        assert_eq!(by_name("ops_per_s").value, 50.0);
        assert_eq!(by_name("cpu_ns_per_op").value, 1_000.0);
        assert_eq!(rows.len(), if cfg!(target_os = "linux") { 4 } else { 3 });
    }

    #[test]
    fn contract_line_has_exactly_the_agreed_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            errors: Vec::new(),
            reps: 2,
            rows: end_to_end_rows(&[rep(1.0, 2.0, 5), rep(1.5, 2.5, 5)]),
            trace_table: None,
        };
        let doc = json::parse(&result_line(&outcome)).unwrap();
        let keys: Vec<_> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        for (_, m) in doc.get("metrics").unwrap().members().unwrap() {
            let keys: Vec<_> = m
                .members()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
        }
        let detail = detail_line(&outcome);
        let detail = json::parse(detail.strip_prefix("detail ").unwrap()).unwrap();
        let spread = detail.get("spread").unwrap().get("setup_s").unwrap();
        assert_eq!(spread.get("max").unwrap().as_f64(), Some(1.5));
    }
}
