//! Every workload, one fresh child process each, one at a time (the box
//! has two cores): the table a person reads, `--self-check`, and
//! `--record`. A child is this same executable in direct mode, read
//! back through the contract line the driver reads.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::host::Fingerprint;
use crate::json::{self, obj, Value};
use crate::run::Row;
use crate::spec::{Workload, END_TO_END};
use crate::stats;

#[derive(Debug, Clone, Copy)]
pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    /// One extra traced child per workload for the per-layer numbers.
    pub traced: bool,
    pub smoke: bool,
}

/// One child's result.
#[derive(Debug, Clone)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub reps: u64,
    pub errors: Vec<String>,
    pub rows: Vec<Row>,
    pub trace_table: Option<Value>,
}

/// One workload's untraced child, plus the traced one if asked for.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: Workload,
    pub end_to_end: ChildResult,
    pub per_layer: Option<ChildResult>,
}

fn parse_child(stdout: &str) -> Result<ChildResult, String> {
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = json::parse(lines.next().ok_or("child printed nothing")?)?;
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("detail "))
        .ok_or("child printed no detail line")?;
    let detail = json::parse(detail)?;
    let num = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("child result lacks number '{key}'"))
    };
    let metrics = result
        .get("metrics")
        .and_then(Value::members)
        .ok_or("child result lacks 'metrics'")?;
    let mut rows = Vec::with_capacity(metrics.len());
    for (name, m) in metrics {
        let spread = detail
            .get("spread")
            .and_then(|s| s.get(name))
            .ok_or(format!("no spread for metric '{name}'"))?;
        rows.push(Row {
            name: name.clone(),
            unit: m
                .get("unit")
                .and_then(Value::as_str)
                .ok_or(format!("metric '{name}' lacks a unit"))?
                .to_string(),
            value: num(m, "value")?,
            min: num(spread, "min")?,
            max: num(spread, "max")?,
            n: num(spread, "n")? as usize,
        });
    }
    Ok(ChildResult {
        correct: result
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("child result lacks 'correct'")?,
        attempted: num(&result, "attempted")? as u64,
        failed: num(&result, "failed")? as u64,
        reps: num(&detail, "reps")? as u64,
        errors: detail
            .get("errors")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|e| e.as_str().map(str::to_string))
            .collect(),
        rows,
        trace_table: detail.get("trace_table").cloned(),
    })
}

fn run_child(workload: Workload, opts: &SuiteOptions, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives the suite.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        if !line.starts_with("detail ") && !line.starts_with('{') {
            println!("    {line}");
        }
    }
    let parsed = parse_child(&stdout)
        .map_err(|e| format!("{}: {e} (child exit: {})", workload.name(), out.status))?;
    // A child exits non-zero exactly when it reports `correct: false`.
    if out.status.success() != parsed.correct {
        return Err(format!(
            "{}: exit status {} contradicts correct={}",
            workload.name(),
            out.status,
            parsed.correct
        ));
    }
    Ok(parsed)
}

/// Runs every workload once (twice with `traced`). `Err` only when a
/// child could not be run or read; an incorrect child is a result.
pub fn run_suite(opts: &SuiteOptions) -> Result<Vec<WorkloadResult>, String> {
    Workload::ALL
        .into_iter()
        .map(|workload| {
            println!("== {} ==", workload.name());
            let end_to_end = run_child(workload, opts, false)?;
            let per_layer = opts
                .traced
                .then(|| run_child(workload, opts, true))
                .transpose()?;
            Ok(WorkloadResult {
                workload,
                end_to_end,
                per_layer,
            })
        })
        .collect()
}

pub fn all_correct(results: &[WorkloadResult]) -> bool {
    results
        .iter()
        .flat_map(|r| std::iter::once(&r.end_to_end).chain(&r.per_layer))
        .all(|c| c.correct)
}

/// The end-to-end table: one row per workload and metric.
pub fn print_table(results: &[WorkloadResult]) {
    println!(
        "\n{:<16} {:<14} {:>16} {:<5} {:>14} {:>14} {:>4}",
        "workload", "metric", "median", "unit", "min", "max", "n"
    );
    for r in results {
        for row in &r.end_to_end.rows {
            println!(
                "{:<16} {:<14} {:>16.4} {:<5} {:>14.4} {:>14.4} {:>4}",
                r.workload.name(),
                row.name,
                row.value,
                row.unit,
                row.min,
                row.max,
                row.n
            );
        }
        let c = &r.end_to_end;
        println!(
            "{:<16} {:<14} correct={} attempted={} failed={} reps={}",
            r.workload.name(),
            "outputs",
            c.correct,
            c.attempted,
            c.failed,
            c.reps
        );
        for e in c
            .errors
            .iter()
            .chain(r.per_layer.iter().flat_map(|p| &p.errors))
        {
            println!("{:<16} INCORRECT: {e}", r.workload.name());
        }
    }
}

/// How two sets of runs of the same code compare on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians agree within the bound and both spreads are inside it.
    Unchanged,
    /// Medians agree, but the run-to-run spread exceeds the bound, so
    /// agreement proves nothing.
    Unresolved,
    /// Medians differ by more than the bound.
    Differs,
}

pub fn verdict(a: &Row, b: &Row, bound: f64) -> Verdict {
    let spread = |r: &Row| (r.max - r.min) / r.value.abs();
    if !stats::within_bound(a.value, b.value, bound) {
        Verdict::Differs
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Runs the whole suite twice and compares the medians of every
/// end-to-end metric against its bound. Returns whether the check
/// passed: all outputs correct and no metric `Differs`.
pub fn self_check(opts: &SuiteOptions) -> Result<bool, String> {
    println!("self-check: first set of runs");
    let first = run_suite(opts)?;
    println!("self-check: second set of runs");
    let second = run_suite(opts)?;
    let mut pass = all_correct(&first) && all_correct(&second);
    println!(
        "\n{:<16} {:<14} {:>14} {:>14} {:>8} {:>6}  {:<10} first min..max",
        "workload", "metric", "first", "second", "diff", "bound", "verdict"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let find = |c: &ChildResult| c.rows.iter().find(|r| r.name == m.name).cloned();
            let (Some(ra), Some(rb)) = (find(&a.end_to_end), find(&b.end_to_end)) else {
                println!(
                    "{:<16} {:<14} absent on this platform",
                    a.workload.name(),
                    m.name
                );
                continue;
            };
            let v = verdict(&ra, &rb, m.bound);
            pass &= v != Verdict::Differs;
            println!(
                "{:<16} {:<14} {:>14.4} {:>14.4} {:>+8.4} {:>6.2}  {:<10} {:.4}..{:.4}",
                a.workload.name(),
                m.name,
                ra.value,
                rb.value,
                (rb.value - ra.value) / ra.value,
                m.bound,
                match v {
                    Verdict::Unchanged => "unchanged",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Differs => "DIFFERS",
                },
                ra.min,
                ra.max
            );
        }
    }
    println!("self-check: {}", if pass { "passed" } else { "FAILED" });
    Ok(pass)
}

fn rows_value(rows: &[Row]) -> Value {
    obj(rows.iter().map(|r| {
        (
            r.name.clone(),
            obj([
                ("value", Value::Num(r.value)),
                ("unit", Value::Str(r.unit.clone())),
                ("min", Value::Num(r.min)),
                ("max", Value::Num(r.max)),
                ("n", Value::Num(r.n as f64)),
            ]),
        )
    }))
}

/// The ledger entry `--record` writes.
pub fn record_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("BENCH_07.json")
}

/// The recording: machine fingerprint, then every metric of every
/// workload with the traced layer table.
pub fn recording(opts: &SuiteOptions, fp: &Fingerprint, results: &[WorkloadResult]) -> Value {
    let workloads = results
        .iter()
        .map(|r| {
            let e = &r.end_to_end;
            let mut members = vec![
                ("name", Value::Str(r.workload.name().into())),
                ("why", Value::Str(r.workload.why().into())),
                (
                    "correct",
                    Value::Bool(e.correct && r.per_layer.as_ref().is_none_or(|p| p.correct)),
                ),
                ("attempted", Value::Num(e.attempted as f64)),
                ("failed", Value::Num(e.failed as f64)),
                ("reps", Value::Num(e.reps as f64)),
                ("end_to_end", rows_value(&e.rows)),
            ];
            if let Some(p) = &r.per_layer {
                members.push(("per_layer", rows_value(&p.rows)));
                members.push(("trace_table", p.trace_table.clone().unwrap_or(Value::Null)));
            }
            obj(members)
        })
        .collect();
    obj([
        ("schema", Value::Str("prism-perf/1".into())),
        ("entry", Value::Str("BENCH_07".into())),
        ("commit", Value::Str(fp.commit.clone())),
        ("nproc", Value::Num(fp.nproc as f64)),
        ("cpu_model", Value::Str(fp.cpu_model.clone())),
        ("rustc", Value::Str(fp.rustc.clone())),
        ("seed", Value::Num(opts.seed as f64)),
        ("run_seconds", Value::Num(opts.seconds)),
        ("smoke", Value::Bool(opts.smoke)),
        ("workloads", Value::Arr(workloads)),
    ])
}

/// One top-level member per line, so the checked-in file diffs well.
pub fn render_recording(doc: &Value) -> String {
    let mut out = String::from("{\n");
    let members = doc.members().unwrap_or_default();
    for (i, (k, v)) in members.iter().enumerate() {
        let sep = if i + 1 < members.len() { "," } else { "" };
        match (k.as_str(), v) {
            ("workloads", Value::Arr(items)) => {
                out.push_str("  \"workloads\": [\n");
                for (j, w) in items.iter().enumerate() {
                    let sep = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{sep}\n", w.render()));
                }
                out.push_str(&format!("  ]{sep}\n"));
            }
            _ => out.push_str(&format!(
                "  {}: {}{sep}\n",
                Value::Str(k.clone()).render(),
                v.render()
            )),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(value: f64, min: f64, max: f64) -> Row {
        Row {
            name: "ops_per_s".into(),
            unit: "1/s".into(),
            value,
            min,
            max,
            n: 3,
        }
    }

    #[test]
    fn verdicts() {
        let tight = row(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(&tight, &row(105.0, 104.0, 106.0), 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&tight, &row(120.0, 119.0, 121.0), 0.1),
            Verdict::Differs
        );
        // Medians agree, but one side swings by more than the bound.
        assert_eq!(
            verdict(&tight, &row(101.0, 80.0, 120.0), 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn child_output_is_read_back_through_the_contract_line() {
        let stdout = "rep 0: setup_s=1\n  noise\n\
            detail {\"reps\": 2, \"errors\": [\"boom\"], \"spread\": {\"setup_s\": {\"min\": 1, \"max\": 3, \"n\": 2}}}\n\
            {\"correct\": false, \"attempted\": 7, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}\n";
        let c = parse_child(stdout).unwrap();
        assert!(!c.correct);
        assert_eq!((c.attempted, c.failed, c.reps), (7, 1, 2));
        assert_eq!(c.errors, ["boom"]);
        assert_eq!(c.rows.len(), 1);
        assert_eq!(
            (c.rows[0].value, c.rows[0].min, c.rows[0].max),
            (2.0, 1.0, 3.0)
        );
        assert!(parse_child("").is_err());
        assert!(parse_child("{\"correct\": true}\n").is_err());
    }

    #[test]
    fn recording_renders_as_parseable_json() {
        let child = ChildResult {
            correct: true,
            attempted: 5,
            failed: 0,
            reps: 2,
            errors: Vec::new(),
            rows: vec![row(10.0, 9.0, 11.0)],
            trace_table: Some(Value::Arr(Vec::new())),
        };
        let results = [WorkloadResult {
            workload: Workload::SimTxClosed,
            end_to_end: child.clone(),
            per_layer: Some(child),
        }];
        let fp = Fingerprint {
            commit: "abc".into(),
            nproc: 2,
            cpu_model: "cpu \"x\"".into(),
            rustc: "rustc 1".into(),
        };
        let opts = SuiteOptions {
            seed: 42,
            seconds: 10.0,
            traced: true,
            smoke: false,
        };
        let doc = recording(&opts, &fp, &results);
        let text = render_recording(&doc);
        assert_eq!(json::parse(&text).unwrap(), doc);
        assert!(text.lines().count() > 10);
    }
}
