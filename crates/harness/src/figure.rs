//! The one figure driver: every paper figure is a table of rows over one
//! sweep.
//!
//! A `Row` is one system as a figure runs it: a label, where its
//! classic verbs execute, the deployment ([`System`]), client `i`'s
//! adapter at a point, and the point's run seed from its client count
//! and Zipf coefficient. `sweep` runs rows × points through the one
//! closed-loop call, each point on a settled system: a window's end
//! abandons the operations in flight, and what they held (a PRISM-TX
//! prepare, a FaRM or ABDLOCK lock) is released before the next point
//! by two passes of its servers' one lease ([`System::settle`]), and
//! the buffers the last point stranded go back to the pools
//! ([`System::reclaim`]).
//! `curves` prints a sweep as the
//! throughput-latency table with each row's peak. `open_loop` is the
//! open-loop counterpart: one rate sweep, then its latency-under-load
//! table. The `fig_*` binaries read their command line through
//! [`Flags`] and print through [`emit`].

use std::cell::RefCell;
use std::rc::Rc;
use std::str::FromStr;

use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::time::SimDuration;

use crate::cluster::System;
use crate::netsim::{run_closed_loop, ProtoAdapter, RunResult, VerbPath};
use crate::openloop::{sweep_rates, OpenLoopKnobs, OpenLoopResult};
use crate::table::{f2, mops, Table};

/// One point of a sweep: the closed-loop client count and the Zipf
/// coefficient.
pub(crate) type Point = (usize, f64);

/// One system a figure sweeps.
pub(crate) struct Row<'a> {
    label: &'static str,
    path: VerbPath,
    system: &'a dyn System,
    adapter: Box<dyn Fn(usize, f64, u64) -> Box<dyn ProtoAdapter> + 'a>,
    seed: Box<dyn Fn(usize, f64) -> u64 + 'a>,
}

impl<'a> Row<'a> {
    /// A row over `system`: each point `(n, z)` runs under `seed(n, z)`,
    /// and client `i` gets `adapter(i, z, seed(n, z))`.
    pub(crate) fn new(
        label: &'static str,
        path: VerbPath,
        system: &'a dyn System,
        seed: impl Fn(usize, f64) -> u64 + 'a,
        adapter: impl Fn(usize, f64, u64) -> Box<dyn ProtoAdapter> + 'a,
    ) -> Self {
        Row {
            label,
            path,
            system,
            adapter: Box::new(adapter),
            seed: Box::new(seed),
        }
    }

    /// The row's label, its `system` column.
    pub(crate) fn label(&self) -> &'static str {
        self.label
    }
}

/// Releases what the last run left held on `system`
/// ([`System::settle`]) and returns what it stranded to the pools
/// ([`System::reclaim`]), and panics unless nothing stays held and the
/// pools keep their law: how every point of a figure starts.
pub(crate) fn settle(system: &dyn System) {
    system.settle();
    assert_eq!(system.held(), 0, "a settled system holds nothing");
    system.reclaim();
    assert_eq!(system.free_deficit(), 0, "a reclaimed pool keeps its law");
}

/// Runs every row at every point on the testbed model and a pristine
/// fabric; one result per point, grouped by row. Rows run in order and
/// each row's points in order, each on its settled system ([`settle`]):
/// a row's points share its store, so the order is part of every
/// result.
pub(crate) fn sweep(
    rows: &[Row],
    points: &[Point],
    warmup: SimDuration,
    measure: SimDuration,
) -> Vec<Vec<RunResult>> {
    let model = CostModel::testbed();
    let run = |row: &Row, (n, z): Point| {
        settle(row.system);
        let seed = (row.seed)(n, z);
        let mut adapter = |i| (row.adapter)(i, z, seed);
        run_closed_loop(
            &row.system.servers(),
            &model,
            row.path,
            n,
            &mut adapter,
            warmup,
            measure,
            seed,
            &FaultPlan::default(),
        )
    };
    rows.iter()
        .map(|row| points.iter().map(|&p| run(row, p)).collect())
        .collect()
}

/// A curve's points, and what its x column shows of each.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Axis<'a> {
    /// These client counts over uniform keys (`clients`).
    Clients(&'a [usize]),
    /// This many clients at each of these Zipf coefficients (`zipf`).
    Zipf(usize, &'a [f64]),
}

/// A throughput-latency figure: [`sweep`] over `x`'s points as one table
/// row per row and point (throughput in millions of `unit` per second,
/// mean and p99 latency), and each row's peak throughput.
pub(crate) fn curves(
    title: &str,
    unit: &str,
    x: Axis,
    rows: &[Row],
    warmup: SimDuration,
    measure: SimDuration,
) -> (Table, Vec<f64>) {
    let (x_header, points): (_, Vec<Point>) = match x {
        Axis::Clients(ns) => ("clients", ns.iter().map(|&n| (n, 0.0)).collect()),
        Axis::Zipf(n, zs) => ("zipf", zs.iter().map(|&z| (n, z)).collect()),
    };
    let tput = format!("tput_M{unit}");
    let mut t = Table::new(title, &["system", x_header, &tput, "mean_us", "p99_us"]);
    let mut peaks = Vec::with_capacity(rows.len());
    for (row, runs) in rows.iter().zip(sweep(rows, &points, warmup, measure)) {
        for (&(n, z), r) in points.iter().zip(&runs) {
            let x = match x {
                Axis::Clients(_) => n.to_string(),
                Axis::Zipf(..) => format!("{z:.2}"),
            };
            t.row(&[
                row.label.into(),
                x,
                mops(r.tput_ops),
                f2(r.mean_us),
                f2(r.p99_us),
            ]);
        }
        peaks.push(runs.iter().map(|r| r.tput_ops).fold(0.0, f64::max));
    }
    (t, peaks)
}

/// An open-loop figure: [`sweep_rates`] over `system` (which settles it
/// before every rate), client slot `i` getting `adapter(i)`, then its
/// latency-under-load table (rates and throughput in millions of `unit`
/// per second).
pub(crate) fn open_loop(
    title: &str,
    unit: &str,
    system: &dyn System,
    knobs: &OpenLoopKnobs,
    seed: u64,
    adapter: impl FnMut(usize) -> Box<dyn ProtoAdapter> + 'static,
) -> (Table, Vec<(f64, OpenLoopResult)>) {
    let results = sweep_rates(system, knobs, seed, Rc::new(RefCell::new(adapter)));
    (rate_table(title, unit, &results), results)
}

/// The latency-under-load table every open-loop sweep prints: one row
/// per offered rate, throughput and the rate in millions of `unit`
/// (`"ops"`, `"txn"`) per second.
pub fn rate_table(title: &str, unit: &str, results: &[(f64, OpenLoopResult)]) -> Table {
    let (rate, tput) = (format!("rate_M{unit}"), format!("tput_M{unit}"));
    let mut t = Table::new(
        title,
        &[
            &rate,
            &tput,
            "mean_us",
            "p50_us",
            "p99_us",
            "p999_us",
            "backlogged",
        ],
    );
    for (rate, r) in results {
        t.row(&[
            mops(*rate),
            mops(r.tput_ops),
            f2(r.mean_us),
            f2(r.p50_us),
            f2(r.p99_us),
            f2(r.p999_us),
            r.backlogged.to_string(),
        ]);
    }
    t
}

/// The command line of a figure binary: `--quick` (the smoke-scale
/// configs), `--csv` (tables as CSV), and the binary's own flags.
pub struct Flags {
    /// `--quick` was given.
    pub quick: bool,
    /// `--csv` was given.
    pub csv: bool,
    args: Vec<String>,
}

impl Flags {
    /// The process's arguments.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let has = |flag: &str| args.iter().any(|a| a == flag);
        Flags {
            quick: has("--quick"),
            csv: has("--csv"),
            args,
        }
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The argument after `flag`, if `flag` was given and it parses.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        let i = self.args.iter().position(|a| a == flag)?;
        self.args.get(i + 1)?.parse().ok()
    }

    /// `quick()` under `--quick`, else `paper()`.
    pub fn scale<T>(&self, quick: impl FnOnce() -> T, paper: impl FnOnce() -> T) -> T {
        if self.quick {
            quick()
        } else {
            paper()
        }
    }
}

/// Prints `t` to stdout, as CSV or aligned.
pub fn emit(t: &Table, csv: bool) {
    println!("{}", if csv { t.to_csv() } else { t.render() });
}

/// Prints a figure's peak throughputs to stderr, in millions of `unit`
/// per second, one `name value` pair per row.
pub fn eprint_peaks(unit: &str, names: &[&str], peaks: &[f64]) {
    let pairs: Vec<String> = names
        .iter()
        .zip(peaks)
        .map(|(name, p)| format!("{name} {:.3}", p / 1e6))
        .collect();
    eprintln!("peaks (M{unit}): {}", pairs.join("  "));
}
