//! The client contract both commit protocols implement, and the one
//! local driver over it.
//!
//! PRISM-TX and FaRM differ in every request they send but not in how a
//! caller drives them. Every attempt has one shape: [`TxProtocol::begin`]
//! starts it over its read keys; each request is tagged
//! `(shard, phase, index)`, and each reply fed back through
//! [`TxProtocol::on_reply`] yields the next [`TxStep`]; once the reads
//! are in, a step pauses ([`Step::awaiting_writes`]) and
//! [`TxProtocol::supply_writes`] hands the attempt its write set, which
//! starts validation and commit; steps follow until one carries the
//! attempt's [`TxOutcome`]. [`drive`] and [`run_rmw`] run that loop
//! against local shards through `prism_core`'s one delivery loop
//! ([`drive_local`]); the simulator's closed-loop adapter
//! (`prism_harness::adapters::Driver`) runs it over the simulated
//! fabric.

use std::collections::HashMap;

use prism_core::msg::{Reply, Request};
use prism_core::step::{drive_local, Input, Step};
use prism_core::PrismServer;

/// Outcome of a transaction attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOutcome {
    /// Validated and (for non-read-only transactions) installed; carries
    /// the values read during execution.
    Committed(HashMap<u64, Vec<u8>>),
    /// A validation check failed; the caller may retry with fresh reads.
    Aborted,
    /// Infrastructure failure (e.g. buffer pool exhausted mid-commit, or
    /// a lost commit reply: the writes may or may not have landed).
    Failed(&'static str),
}

/// What the driver should do next. An attempt not cut short in execution
/// pauses once ([`Step::awaiting_writes`]), so its writes are computed
/// from the values that same attempt read. That makes a read-modify-write
/// serializable; writes from an earlier transaction's reads would reopen
/// the lost-update window OCC closes.
pub type TxStep = Step<TxOutcome>;

/// The current phase's requests, by request index: the one place either
/// protocol counts a phase's replies. A request is answered at most
/// once, so a reply that matches no pending request of the current
/// phase — another phase's, an index never sent, or a second copy of
/// one already counted — is found here and dropped.
#[derive(Debug, Clone, Default)]
pub(crate) struct Round<P, M> {
    phase: P,
    /// Each request's metadata until its reply is taken.
    pending: Vec<Option<M>>,
    outstanding: usize,
}

impl<P: Copy + Into<u32>, M> Round<P, M> {
    /// The current phase.
    pub(crate) fn phase(&self) -> P {
        self.phase
    }

    /// Starts `phase` with no requests, keeping the storage.
    pub(crate) fn start(&mut self, phase: P) {
        self.phase = phase;
        self.pending.clear();
        self.outstanding = 0;
    }

    /// Adds `req` to `step`, tagged with the current phase and the next
    /// index, and records `meta` as pending.
    pub(crate) fn send(&mut self, step: &mut TxStep, shard: usize, meta: M, req: Request) {
        let idx = self.pending.len() as u32;
        self.pending.push(None);
        self.resend(step, shard, idx, meta, req);
    }

    /// Re-arms index `idx`, which has no pending request (its reply was
    /// just taken): records `meta` as pending again and adds `req` to
    /// `step` under the same tag.
    pub(crate) fn resend(
        &mut self,
        step: &mut TxStep,
        shard: usize,
        idx: u32,
        meta: M,
        req: Request,
    ) {
        self.pending[idx as usize] = Some(meta);
        self.outstanding += 1;
        step.send.push((shard, self.phase.into(), idx, req));
    }

    /// The metadata of request `idx` of `phase`, the first time it is
    /// answered; `None` for another phase, an index never sent, or a
    /// request already answered.
    pub(crate) fn take(&mut self, phase: u32, idx: u32) -> Option<M> {
        if phase != self.phase.into() {
            return None;
        }
        let meta = self.pending.get_mut(idx as usize)?.take()?;
        self.outstanding -= 1;
        Some(meta)
    }

    /// Whether every request of the phase is answered.
    pub(crate) fn settled(&self) -> bool {
        self.outstanding == 0
    }
}

/// A transaction client as a driver sees it.
pub trait TxProtocol {
    /// The deployment whose shards the client's requests address.
    type Cluster;
    /// One transaction attempt in flight.
    type Op: Clone;

    /// Shard `shard`'s host, for a local driver to execute requests on.
    fn server(cluster: &Self::Cluster, shard: usize) -> &PrismServer;

    /// Starts an attempt that reads `read_keys`, then pauses
    /// ([`Step::awaiting_writes`]) for its write set; with no read
    /// keys, the first step is the pause.
    ///
    /// # Panics
    ///
    /// Panics if a key is out of range.
    fn begin(&mut self, read_keys: Vec<u64>) -> (Self::Op, TxStep);

    /// Feeds one reply. A reply that matches no pending request of the
    /// current phase — another phase's, an index the phase never sent,
    /// or a second copy of a reply already counted — is a no-op. A reply
    /// of the wrong kind to a pending request — the fault layer's
    /// synthesized timeout among them — is a lost round trip. Neither
    /// ever panics.
    fn on_reply(&mut self, op: &mut Self::Op, phase: u32, req_idx: u32, reply: Reply) -> TxStep;

    /// Continues a paused attempt into validation and commit with the
    /// write set `writes` (write keys need not have been read: those are
    /// blind writes). Empty `writes` makes the attempt read-only.
    ///
    /// # Panics
    ///
    /// Panics if the attempt is not paused for its writes, if a write
    /// value has the wrong length or if a key is out of range.
    fn supply_writes(&mut self, op: &mut Self::Op, writes: Vec<(u64, Vec<u8>)>) -> TxStep;

    /// Values read during execution (keyed by global key). A commit
    /// moves them into [`TxOutcome::Committed`], so the map is empty
    /// once the attempt is done.
    fn values(op: &Self::Op) -> &HashMap<u64, Vec<u8>>;

    /// Takes the read-key list back out of an attempt that is done, so
    /// that a retry can begin over the same keys without copying them.
    /// An attempt still in flight needs its keys: call this only after
    /// [`Step::done`] was set.
    fn take_read_keys(op: &mut Self::Op) -> Vec<u64>;
}

/// Drives a transaction attempt to completion against local shards (live
/// mode / tests) through [`drive_local`], supplying `writes(values read)`
/// at the pause. Returns the attempt's outcome.
///
/// # Panics
///
/// Panics if the attempt pauses a second time.
pub fn drive<P: TxProtocol>(
    cluster: &P::Cluster,
    client: &mut P,
    mut op: P::Op,
    first: TxStep,
    writes: impl FnOnce(&HashMap<u64, Vec<u8>>) -> Vec<(u64, Vec<u8>)>,
) -> TxOutcome {
    let mut writes = Some(writes);
    let feed = |input| match input {
        Input::Reply(_, phase, index, reply) => client.on_reply(&mut op, phase, index, reply),
        Input::Resume => {
            let writes = writes.take().expect("an attempt pauses once")(P::values(&op));
            client.supply_writes(&mut op, writes)
        }
    };
    let (outcome, _) = drive_local(first, |s| Some(P::server(cluster, s)), feed);
    outcome.unwrap_or(TxOutcome::Failed("drive finished without outcome"))
}

/// Read-modify-write with retries until it commits or the budget is
/// spent: each attempt's writes are computed from the values that same
/// attempt read and then validates (not read-then-write-again). An
/// abort in either phase — a conflict, or a version that failed its
/// checksum — retries with fresh reads. Returns `(outcome, attempts)`.
pub fn run_rmw<P: TxProtocol>(
    cluster: &P::Cluster,
    client: &mut P,
    keys: &[u64],
    mk_value: impl Fn(u64, &HashMap<u64, Vec<u8>>) -> Vec<u8>,
    max_attempts: u32,
) -> (TxOutcome, u32) {
    for attempt in 1..=max_attempts {
        let (op, step) = client.begin(keys.to_vec());
        let writes = |values: &HashMap<u64, Vec<u8>>| {
            keys.iter().map(|&k| (k, mk_value(k, values))).collect()
        };
        let outcome = drive(cluster, client, op, step, writes);
        if outcome != TxOutcome::Aborted {
            return (outcome, attempt);
        }
    }
    (TxOutcome::Aborted, max_attempts)
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::farm::{FarmCluster, FarmConfig};
    use crate::prism_tx::{Phase, TxCluster, TxConfig, KEYS_PER_COMMIT_CHAIN, VER_HDR};
    use prism_testkit::{for_all, gens, Config, Gen};

    impl<P, M> Round<P, M> {
        /// How many requests the phase has sent.
        pub(crate) fn len(&self) -> usize {
            self.pending.len()
        }

        /// The capacity of the request list.
        pub(crate) fn capacity(&self) -> usize {
            self.pending.capacity()
        }
    }

    /// Delivers the sends of `step` through the one local loop (their
    /// background requests too) and feeds the replies back until `stop`
    /// accepts a step the machine returns (which is handed back
    /// undriven: from then on no request executes, and no reply is fed)
    /// or nothing is left to send.
    pub(crate) fn drive_until<P: TxProtocol>(
        cluster: &P::Cluster,
        client: &mut P,
        op: &mut P::Op,
        step: TxStep,
        stop: impl Fn(&TxStep) -> bool,
    ) -> Option<TxStep> {
        let stopped = RefCell::new(None);
        let server = |s| stopped.borrow().is_none().then(|| P::server(cluster, s));
        drive_local(step, server, |input| match input {
            Input::Reply(_, phase, index, reply) if stopped.borrow().is_none() => {
                let s = client.on_reply(op, phase, index, reply);
                if !stop(&s) {
                    return s;
                }
                *stopped.borrow_mut() = Some(s);
                TxStep::default()
            }
            _ => TxStep::default(),
        });
        stopped.into_inner()
    }

    /// Whether `step` sends a request of `phase`.
    pub(crate) fn sends_phase(phase: impl Into<u32>) -> impl Fn(&TxStep) -> bool {
        let phase = phase.into();
        move |s| s.send.iter().any(|(_, p, _, _)| *p == phase)
    }

    /// Whether `step` asks for nothing: no send, no background request,
    /// no pause and no outcome.
    pub(crate) fn is_noop(step: &TxStep) -> bool {
        step.send.is_empty()
            && step.background.is_empty()
            && !step.awaiting_writes
            && step.done.is_none()
    }

    /// Begins an attempt over `reads`, executes it to its pause and
    /// supplies `writes`: returns the attempt and the step that starts
    /// its validation.
    pub(crate) fn supplied<P: TxProtocol>(
        cluster: &P::Cluster,
        client: &mut P,
        reads: Vec<u64>,
        writes: Vec<(u64, Vec<u8>)>,
    ) -> (P::Op, TxStep) {
        let (mut op, step) = client.begin(reads);
        if !step.awaiting_writes {
            drive_until(cluster, client, &mut op, step, |s| s.awaiting_writes)
                .expect("execution never paused for the writes");
        }
        let step = client.supply_writes(&mut op, writes);
        (op, step)
    }

    /// Drives an attempt that already took its writes on to its end.
    pub(crate) fn drive_rest<P: TxProtocol>(
        cluster: &P::Cluster,
        client: &mut P,
        op: P::Op,
        step: TxStep,
    ) -> TxOutcome {
        drive(cluster, client, op, step, |_| {
            panic!("the attempt paused twice")
        })
    }

    /// An execution-phase abort retries like a validation abort: with
    /// the key's committed version failing its checksum, every attempt's
    /// read aborts, so the whole budget is spent.
    #[test]
    fn run_rmw_retries_an_execution_abort_until_the_budget_is_spent() {
        let cluster = TxCluster::new(1, &TxConfig::paper(4, 32));
        let shard = cluster.shard(0);
        let arena = shard.server().arena();
        let version = arena.read_u64(shard.view().slot(0) + 24).unwrap();
        arena.flip_bit(version + VER_HDR, 2).unwrap();
        let mut client = cluster.open_client();
        let (outcome, attempts) = run_rmw(&cluster, &mut client, &[0], |_, v| v[&0].clone(), 5);
        assert_eq!((outcome, attempts), (TxOutcome::Aborted, 5));
        assert_eq!(
            client.integrity().detected(),
            5,
            "one detection per attempt"
        );
    }

    const KEYS_PER_SHARD: u64 = 8;
    const VALUE_LEN: usize = 16;

    /// What one generated transaction does with its keys.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        /// Reads every key, writes none.
        ReadOnly,
        /// Reads every key and writes each one a value computed from
        /// the values read.
        Rmw,
        /// Writes every key (filled with the byte) without reading it.
        Blind(u8),
    }

    /// A shard count (2 or 3) and a sequence of transactions, each over
    /// 1–4 distinct keys of the cluster.
    type Script = (u64, Vec<(Kind, Vec<u64>)>);

    fn script_gen() -> Gen<Script> {
        let kind = gens::one_of(vec![
            gens::constant(Kind::ReadOnly),
            gens::constant(Kind::Rmw),
            gens::u8s().map(Kind::Blind),
        ]);
        let txn = gens::t2(
            kind,
            gens::vec(gens::range_u64(0..3 * KEYS_PER_SHARD), 1..5),
        );
        gens::t2(gens::range_u64(2..4), gens::vec(txn, 1..12)).map(|(shards, txns)| {
            let txns = txns
                .into_iter()
                .map(|(kind, keys)| {
                    let mut distinct = Vec::new();
                    for k in keys.into_iter().map(|k| k % (shards * KEYS_PER_SHARD)) {
                        if !distinct.contains(&k) {
                            distinct.push(k);
                        }
                    }
                    (kind, distinct)
                })
                .collect();
            (shards, txns)
        })
    }

    /// The value an RMW writes to `key` over the value it read.
    fn bumped(key: u64, read: &[u8]) -> Vec<u8> {
        read.iter().map(|b| b.wrapping_add(key as u8 + 1)).collect()
    }

    /// `P` with every reply fed twice, after a reply of the same phase
    /// under an index never sent: the stray and the second copy must
    /// both be no-ops.
    struct Twice<P>(P);

    impl<P: TxProtocol> TxProtocol for Twice<P> {
        type Cluster = P::Cluster;
        type Op = P::Op;

        fn server(cluster: &P::Cluster, shard: usize) -> &PrismServer {
            P::server(cluster, shard)
        }

        fn begin(&mut self, read_keys: Vec<u64>) -> (P::Op, TxStep) {
            self.0.begin(read_keys)
        }

        fn on_reply(&mut self, op: &mut P::Op, phase: u32, req_idx: u32, reply: Reply) -> TxStep {
            let stray = self.0.on_reply(op, phase, u32::MAX, reply.clone());
            assert!(is_noop(&stray), "a stray index: {stray:?}");
            let step = self.0.on_reply(op, phase, req_idx, reply.clone());
            let again = self.0.on_reply(op, phase, req_idx, reply);
            assert!(is_noop(&again), "a second copy: {again:?}");
            step
        }

        fn supply_writes(&mut self, op: &mut P::Op, writes: Vec<(u64, Vec<u8>)>) -> TxStep {
            self.0.supply_writes(op, writes)
        }

        fn values(op: &P::Op) -> &HashMap<u64, Vec<u8>> {
            P::values(op)
        }

        fn take_read_keys(op: &mut P::Op) -> Vec<u64> {
            P::take_read_keys(op)
        }
    }

    /// `P` with the tag of every request it sends and of every reply it
    /// is fed recorded, in order.
    struct Recorded<P> {
        inner: P,
        sent: Vec<(usize, u32, u32)>,
        fed: Vec<(u32, u32)>,
    }

    impl<P> Recorded<P> {
        fn note(&mut self, step: TxStep) -> TxStep {
            self.sent
                .extend(step.send.iter().map(|&(s, p, i, _)| (s, p, i)));
            step
        }
    }

    impl<P: TxProtocol> TxProtocol for Recorded<P> {
        type Cluster = P::Cluster;
        type Op = P::Op;

        fn server(cluster: &P::Cluster, shard: usize) -> &PrismServer {
            P::server(cluster, shard)
        }

        fn begin(&mut self, read_keys: Vec<u64>) -> (P::Op, TxStep) {
            let (op, step) = self.inner.begin(read_keys);
            (op, self.note(step))
        }

        fn on_reply(&mut self, op: &mut P::Op, phase: u32, req_idx: u32, reply: Reply) -> TxStep {
            self.fed.push((phase, req_idx));
            let step = self.inner.on_reply(op, phase, req_idx, reply);
            self.note(step)
        }

        fn supply_writes(&mut self, op: &mut P::Op, writes: Vec<(u64, Vec<u8>)>) -> TxStep {
            let step = self.inner.supply_writes(op, writes);
            self.note(step)
        }

        fn values(op: &P::Op) -> &HashMap<u64, Vec<u8>> {
            P::values(op)
        }

        fn take_read_keys(op: &mut P::Op) -> Vec<u64> {
            P::take_read_keys(op)
        }
    }

    /// A PRISM-TX attempt that writes more keys to one shard than one
    /// commit chain carries sends that shard two commit chains, and
    /// [`drive`] delivers them as a queue pair would: in the order they
    /// were sent. With one shard, every reply is fed in send order.
    #[test]
    fn drive_delivers_one_shards_commit_chains_in_send_order() {
        let cluster = TxCluster::new(1, &TxConfig::paper(KEYS_PER_SHARD, VALUE_LEN as u64));
        let mut client = Recorded {
            inner: cluster.open_client(),
            sent: Vec::new(),
            fed: Vec::new(),
        };
        let keys: Vec<u64> = (0..KEYS_PER_COMMIT_CHAIN as u64 + 2).collect();
        let writes: Vec<_> = keys
            .iter()
            .map(|&k| (k, vec![k as u8; VALUE_LEN]))
            .collect();
        let (op, step) = client.begin(keys);
        let outcome = drive(&cluster, &mut client, op, step, |_| writes);
        assert!(matches!(outcome, TxOutcome::Committed(_)), "{outcome:?}");
        let commit =
            |&(_, phase, idx): &(usize, u32, u32)| (phase == Phase::Commit as u32).then_some(idx);
        let chains: Vec<u32> = client.sent.iter().filter_map(commit).collect();
        assert_eq!(chains, [0, 1], "two commit chains to the one shard");
        let sent: Vec<(u32, u32)> = client.sent.iter().map(|&(_, p, i)| (p, i)).collect();
        assert_eq!(client.fed, sent);
    }

    /// One client runs the script through [`drive`]: with nothing to
    /// conflict with, every transaction commits, and every value read —
    /// at the pause and in the outcome — equals a `HashMap` model that
    /// holds zeroes for keys never written. A fresh cluster then runs
    /// the script again with every reply fed twice ([`Twice`]), which
    /// must change nothing.
    fn matches_the_model<P: TxProtocol>(name: &str, open: fn(u64) -> (P::Cluster, P)) {
        for_all(name, &Config::default(), &script_gen(), |(shards, txns)| {
            let (cluster, client) = open(*shards);
            runs_as_modelled(&cluster, client, *shards, txns);
            let (cluster, client) = open(*shards);
            runs_as_modelled(&cluster, Twice(client), *shards, txns);
        });
    }

    fn runs_as_modelled<P: TxProtocol>(
        cluster: &P::Cluster,
        mut client: P,
        shards: u64,
        txns: &[(Kind, Vec<u64>)],
    ) {
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let value =
            |model: &HashMap<u64, Vec<u8>>, k| model.get(&k).cloned().unwrap_or(vec![0; VALUE_LEN]);
        for (kind, keys) in txns {
            let reads = if matches!(kind, Kind::Blind(_)) {
                vec![]
            } else {
                keys.clone()
            };
            let want: HashMap<u64, Vec<u8>> =
                reads.iter().map(|&k| (k, value(&model, k))).collect();
            let writes: Vec<(u64, Vec<u8>)> = match kind {
                Kind::ReadOnly => vec![],
                Kind::Rmw => keys.iter().map(|&k| (k, bumped(k, &want[&k]))).collect(),
                Kind::Blind(b) => keys.iter().map(|&k| (k, vec![*b; VALUE_LEN])).collect(),
            };
            let (op, step) = client.begin(reads);
            let outcome = drive(cluster, &mut client, op, step, |values| {
                assert_eq!(values, &want, "values at the pause");
                writes.clone()
            });
            assert_eq!(outcome, TxOutcome::Committed(want), "{kind:?} {keys:?}");
            model.extend(writes);
        }
        // An attempt over no keys commits at once; one over every key
        // reads the whole model.
        let (op, step) = client.begin(vec![]);
        let outcome = drive(cluster, &mut client, op, step, |_| vec![]);
        assert_eq!(outcome, TxOutcome::Committed(HashMap::new()));
        let every: Vec<u64> = (0..shards * KEYS_PER_SHARD).collect();
        let (op, step) = client.begin(every.clone());
        let want = every.iter().map(|&k| (k, value(&model, k))).collect();
        let outcome = drive(cluster, &mut client, op, step, |_| vec![]);
        assert_eq!(outcome, TxOutcome::Committed(want));
    }

    #[test]
    fn prism_tx_matches_a_hash_map_model() {
        matches_the_model("prism_tx_matches_a_hash_map_model", |shards| {
            let cluster = TxCluster::new(
                shards as usize,
                &TxConfig::paper(KEYS_PER_SHARD, VALUE_LEN as u64),
            );
            let client = cluster.open_client();
            (cluster, client)
        });
    }

    #[test]
    fn farm_matches_a_hash_map_model() {
        matches_the_model("farm_matches_a_hash_map_model", |shards| {
            let config = FarmConfig {
                keys_per_shard: KEYS_PER_SHARD,
                value_len: VALUE_LEN as u64,
            };
            let cluster = FarmCluster::new(shards as usize, &config);
            let client = cluster.open_client();
            (cluster, client)
        });
    }
}
