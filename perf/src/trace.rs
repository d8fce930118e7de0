//! The span recorder of the traced run.
//!
//! Spans are recorded only here, in the benchmark, around calls into
//! the repo's layers: name, start, end, parent and op id. Per-name
//! aggregates (count, total, self) stay in memory; one op in
//! [`SAMPLE_EVERY`] also keeps its raw spans. Everything is written to
//! `out/trace_<workload>.json` when the run ends. A span's *self* time
//! is its duration minus the part its child spans cover, so the self
//! times of a span tree sum exactly to the root's duration.

use std::time::Instant;

use crate::json::{obj, Value};

/// One raw span tree is kept per this many ops.
pub const SAMPLE_EVERY: u64 = 1024;

/// Raw spans kept at most; further ones are counted as dropped.
const MAX_SAMPLES: usize = 1 << 16;

macro_rules! spans {
    ($($variant:ident => $name:literal,)*) => {
        /// Every span the benchmark records, named `<layer>.<what>`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Span {
            $($variant,)*
        }

        impl Span {
            pub const ALL: &'static [Span] = &[$(Span::$variant,)*];

            pub fn name(self) -> &'static str {
                match self {
                    $(Span::$variant => $name,)*
                }
            }
        }
    };
}

spans! {
    // Live workload: one tree per op, rooted at `op.*`.
    OpGet => "op.get",
    OpPut => "op.put",
    WorkloadGen => "workload.gen",
    KvGetBuild => "kv.get_build",
    KvGetOnReply => "kv.get_on_reply",
    KvPutBuild => "kv.put_build",
    KvPutOnReply => "kv.put_on_reply",
    WireReqEncode => "wire.req_encode",
    WireReqDecode => "wire.req_decode",
    CoreExecuteGet => "core.execute_get_req",
    CoreExecutePut => "core.execute_put_req",
    CoreExecuteBackground => "core.execute_background_req",
    WireReplyEncode => "wire.reply_encode",
    WireReplyDecode => "wire.reply_decode",
    BenchCheck => "bench.shadow_check",
    // Sim workloads: `des.run` is the root; its self time is the DES
    // kernel (queue, clock, dispatch), its children are actor callbacks.
    DesRun => "des.run",
    ServerActor => "harness.server_actor",
    ClientActor => "harness.client_actor",
    AdapterCall => "proto.adapter_call",
    AdapterBuild => "proto.adapter_build",
    SimBuild => "harness.sim_build",
    EpisodeBuild => "harness.episode_build",
    CheckHistory => "harness.check_history",
    ResultExtract => "harness.result_extract",
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    span: Span,
    id: u64,
    start_ns: u64,
    children_ns: u64,
}

struct RawSpan {
    id: u64,
    parent: Option<u64>,
    op: u64,
    span: Span,
    start_ns: u64,
    end_ns: u64,
}

/// What the instrumented code paths record into: [`Tracer`] on the
/// traced run, [`Off`] (which reads no clock and compiles away) on the
/// untraced runs that produce the end-to-end numbers.
pub trait Probe {
    /// Whether spans are kept: lets a caller skip work only a traced
    /// run reports.
    const ON: bool;
    /// Nanoseconds since the recorder's origin.
    fn now(&self) -> u64;
    /// Sets the op id stamped on the spans that follow.
    fn set_op(&mut self, op: u64);
    fn open(&mut self, span: Span, t: u64);
    fn close(&mut self, t: u64);
    /// A childless span over `[t0, t1]`.
    fn leaf(&mut self, span: Span, t0: u64, t1: u64) {
        self.open(span, t0);
        self.close(t1);
    }
}

/// The disabled recorder.
pub struct Off;

impl Probe for Off {
    const ON: bool = false;
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn set_op(&mut self, _op: u64) {}
    #[inline(always)]
    fn open(&mut self, _span: Span, _t: u64) {}
    #[inline(always)]
    fn close(&mut self, _t: u64) {}
}

/// The in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    agg: Vec<Agg>,
    stack: Vec<Open>,
    next_id: u64,
    op: u64,
    samples: Vec<RawSpan>,
    samples_dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            agg: vec![Agg::default(); Span::ALL.len()],
            stack: Vec::new(),
            next_id: 0,
            op: 0,
            samples: Vec::new(),
            samples_dropped: 0,
        }
    }
}

impl Probe for Tracer {
    const ON: bool = true;
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn open(&mut self, span: Span, t: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            span,
            id,
            start_ns: t,
            children_ns: 0,
        });
    }

    fn close(&mut self, t: u64) {
        let open = self.stack.pop().expect("close without a matching open");
        let total = t.saturating_sub(open.start_ns);
        let agg = &mut self.agg[open.span as usize];
        agg.count += 1;
        agg.total_ns += total;
        agg.self_ns += total.saturating_sub(open.children_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.children_ns += total;
            p.id
        });
        if self.op.is_multiple_of(SAMPLE_EVERY) {
            if self.samples.len() < MAX_SAMPLES {
                self.samples.push(RawSpan {
                    id: open.id,
                    parent,
                    op: self.op,
                    span: open.span,
                    start_ns: open.start_ns,
                    end_ns: t,
                });
            } else {
                self.samples_dropped += 1;
            }
        }
    }
}

impl Tracer {
    pub fn agg(&self, span: Span) -> Agg {
        self.agg[span as usize]
    }

    /// Sum of every span's self time: by construction the total
    /// duration of all root spans.
    pub fn self_total_ns(&self) -> u64 {
        self.agg.iter().map(|a| a.self_ns).sum()
    }

    /// The aggregate table, spans that never fired omitted.
    pub fn table(&self) -> Value {
        Value::Arr(
            Span::ALL
                .iter()
                .map(|&s| (s, self.agg(s)))
                .filter(|(_, a)| a.count > 0)
                .map(|(s, a)| {
                    obj([
                        ("name", Value::Str(s.name().into())),
                        ("count", Value::Num(a.count as f64)),
                        ("total_ns", Value::Num(a.total_ns as f64)),
                        ("self_ns", Value::Num(a.self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }

    /// The whole trace as one JSON document: `header` members first,
    /// then the aggregate table and the sampled raw spans.
    pub fn document(&self, header: Vec<(String, Value)>) -> Value {
        let samples = self
            .samples
            .iter()
            .map(|s| {
                obj([
                    ("id", Value::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("op", Value::Num(s.op as f64)),
                    ("name", Value::Str(s.span.name().into())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let mut members = header;
        members.extend([
            ("sample_every".to_string(), Value::Num(SAMPLE_EVERY as f64)),
            (
                "samples_dropped".to_string(),
                Value::Num(self.samples_dropped as f64),
            ),
            ("aggregates".to_string(), self.table()),
            ("samples".to_string(), Value::Arr(samples)),
        ]);
        Value::Obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::default();
        t.set_op(0);
        t.open(Span::OpGet, 0);
        t.leaf(Span::KvGetBuild, 10, 30);
        t.open(Span::CoreExecuteGet, 40);
        t.leaf(Span::WireReqEncode, 42, 47);
        t.close(60);
        t.close(100);
        assert_eq!(
            t.agg(Span::OpGet),
            Agg {
                count: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(t.agg(Span::KvGetBuild).self_ns, 20);
        assert_eq!(
            t.agg(Span::CoreExecuteGet),
            Agg {
                count: 1,
                total_ns: 20,
                self_ns: 15
            }
        );
        assert_eq!(t.agg(Span::WireReqEncode).self_ns, 5);
        // Self times of the tree sum to the root's duration.
        assert_eq!(t.self_total_ns(), 100);
    }

    #[test]
    fn only_sampled_ops_keep_raw_spans_with_parents() {
        let mut t = Tracer::default();
        for op in 0..=SAMPLE_EVERY {
            t.set_op(op);
            t.open(Span::OpPut, op * 10);
            t.leaf(Span::KvPutBuild, op * 10 + 1, op * 10 + 2);
            t.close(op * 10 + 5);
        }
        assert_eq!(t.agg(Span::OpPut).count, SAMPLE_EVERY + 1);
        let doc = t.document(vec![("workload".into(), Value::Str("x".into()))]);
        let samples = doc.get("samples").unwrap().as_array().unwrap();
        // Ops 0 and SAMPLE_EVERY, two spans each, child recorded first.
        assert_eq!(samples.len(), 4);
        assert_eq!(
            samples[0].get("name").unwrap().as_str(),
            Some("kv.put_build")
        );
        assert_eq!(samples[0].get("parent"), samples[1].get("id"));
        assert_eq!(samples[1].get("parent"), Some(&Value::Null));
        assert_eq!(
            samples[3].get("op").unwrap().as_f64(),
            Some(SAMPLE_EVERY as f64)
        );
        assert_eq!(doc.get("aggregates").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn span_names_are_unique_and_layer_prefixed() {
        let mut names: Vec<_> = Span::ALL.iter().map(|s| s.name()).collect();
        assert!(names.iter().all(|n| n.contains('.')));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Span::ALL.len());
    }
}
