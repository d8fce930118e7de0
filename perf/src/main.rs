//! `prism-perf`: the two-clock end-to-end benchmark of the PRISM
//! reproduction. See `perf/README.md` for the metric glossary.
//!
//! Two modes:
//!
//! * **direct** (`--workload NAME`): one workload in this process — the
//!   form `BENCHMARK.json` names and the driver runs. Measures for
//!   `--seconds`, prints every metric by name with its unit, checks the
//!   outputs, and ends with the one-line JSON result. `--trace 1`
//!   reports the per-layer metrics from traced reps instead of the
//!   end-to-end ones and writes `perf/out/trace_<workload>.json`.
//! * **suite** (no `--workload`): every workload, each in a fresh child
//!   process, one at a time. `--traced` adds a traced child per
//!   workload, `--self-check` runs the suite twice and compares the
//!   medians against the bounds, `--record` writes
//!   `perf/results/BENCH_07.json`.
//!
//! Exits 0 when every output checked correct, 1 on a correctness or
//! self-check failure, 2 on a usage error.

mod calls;
mod host;
mod json;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use spec::{Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS};

const USAGE: &str = "usage: prism-perf [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
                     [--smoke] [--traced] [--self-check] [--record] [--list]";

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    traced: bool,
    self_check: bool,
    record: bool,
    list: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::from_name(&name).ok_or(format!(
                    "unknown workload '{name}' (one of: {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| format!("bad seed '{v}'"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds '{v}'"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("seconds {v} outside 0..=600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => args.smoke = true,
            "--traced" => args.traced = true,
            "--self-check" => args.self_check = true,
            "--record" => args.record = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_some() && (args.traced || args.self_check || args.record) {
        return Err("--traced, --self-check and --record belong to suite mode: \
                    drop --workload, or use --trace 1 for one traced workload"
            .to_string());
    }
    Ok(args)
}

/// The registry, as the README's glossary is generated from it.
fn list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {:<16} {}", w.name(), w.why());
    }
    println!("end-to-end metrics (untraced runs; bound = allowed worsening):");
    for m in &END_TO_END {
        println!(
            "  {:<16} {:<5} better={:<6} bound={:<5} {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound,
            m.meaning
        );
    }
    println!("per-layer metrics (traced runs; -> what each should move):");
    for m in PER_LAYER {
        println!(
            "  {:<34} {:<6} better={:<6} -> {}",
            m.name,
            m.unit,
            m.better.name(),
            m.moves
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("prism-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    // A smoke run is two reps however short; a full run fills the
    // benchmark's own run length unless told otherwise.
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.0 } else { RUN_SECONDS as f64 });

    if let Some(workload) = args.workload {
        let opts = run::Options {
            workload,
            seed,
            seconds,
            trace: args.trace,
            smoke: args.smoke,
        };
        let outcome = run::measure(&opts);
        run::print(&opts, &outcome);
        return if outcome.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let opts = suite::SuiteOptions {
        seed,
        seconds,
        traced: args.traced || args.record,
        smoke: args.smoke,
    };
    let ok = if args.self_check {
        suite::self_check(&opts)
    } else {
        suite::run_suite(&opts).and_then(|results| {
            suite::print_table(&results);
            if args.record {
                let doc = suite::recording(&opts, &host::Fingerprint::read(), &results);
                let path = suite::record_path();
                path.parent()
                    .map_or(Ok(()), std::fs::create_dir_all)
                    .and_then(|()| std::fs::write(&path, suite::render_recording(&doc)))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("recorded {}", path.display());
            }
            Ok(suite::all_correct(&results))
        })
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("prism-perf: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse("--workload sim_tx_closed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::SimTxClosed));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), true));
        assert_eq!(parse("").unwrap(), Args::default());
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for bad in [
            "--workload nope",
            "--workload",
            "--seed x",
            "--seconds -1",
            "--seconds 1e9",
            "--trace 2",
            "--frobnicate",
            "--workload sim_tx_closed --record",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    /// The four workloads at smoke scale, untraced and traced, with
    /// every correctness check on: every named metric must be present,
    /// finite and carry its unit.
    #[test]
    fn smoke_runs_every_workload_with_every_named_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let opts = run::Options {
                    workload,
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                };
                let outcome = run::measure(&opts);
                assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.errors);
                assert_eq!(outcome.failed, 0, "{}", workload.name());
                assert!(outcome.attempted > 0);
                let want: Vec<(&str, &str)> = if trace {
                    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
                } else {
                    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
                };
                let got: Vec<(&str, &str)> = outcome
                    .rows
                    .iter()
                    .map(|r| (r.name.as_str(), r.unit.as_str()))
                    .collect();
                assert_eq!(got, want, "{} trace={trace}", workload.name());
                assert!(outcome.rows.iter().all(|r| r.value.is_finite()));
                if !trace {
                    // CPU time ticks in 10 ms; a smoke rep can end
                    // inside one tick.
                    let may_be_zero = |r: &run::Row| r.name == "cpu_ns_per_op";
                    assert!(outcome.rows.iter().all(|r| r.value > 0.0 || may_be_zero(r)));
                }
                let line = run::result_line(&outcome);
                let doc = json::parse(&line).expect("contract line parses");
                assert_eq!(
                    doc.get("metrics").unwrap().members().unwrap().len(),
                    want.len()
                );
            }
        }
    }
}
