//! A sharded bank ledger on PRISM-TX (§8 of the paper).
//!
//! Accounts live on four shards; transfers are serializable multi-key
//! transactions whose execution, validation, and commit are all remote
//! operations — two round trips to commit, no server CPU on the data
//! path. Sixteen threads transfer money concurrently; the total balance
//! is conserved, which only holds if the OCC protocol is correct.
//!
//! Run with: `cargo run -p prism-harness --example bank_ledger`

use std::collections::HashMap;
use std::sync::Arc;

use prism_tx::prism_tx::{TxCluster, TxConfig};
use prism_tx::{drive, run_rmw, TxOutcome, TxProtocol};

const VALUE: u64 = 64;
const ACCOUNTS: u64 = 64;

fn balance_of(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[0..8].try_into().unwrap())
}

fn encode_balance(b: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE as usize];
    v[0..8].copy_from_slice(&b.to_le_bytes());
    v
}

fn read_balances(cluster: &TxCluster, keys: &[u64]) -> HashMap<u64, u64> {
    let mut client = cluster.open_client();
    let (op, step) = client.begin(keys.to_vec());
    match drive(cluster, &mut client, op, step, |_| vec![]) {
        TxOutcome::Committed(vals) => vals.into_iter().map(|(k, v)| (k, balance_of(&v))).collect(),
        o => panic!("read-only txn must commit: {o:?}"),
    }
}

fn main() {
    // Four shards, 16 accounts each; key k lives on shard k % 4.
    let cluster = Arc::new(TxCluster::new(4, &TxConfig::paper(ACCOUNTS / 4, VALUE)));
    println!(
        "ledger: {} accounts over {} shards, serializable transfers",
        ACCOUNTS,
        cluster.n_shards()
    );

    // Seed every account with 1000 credits (blind writes).
    {
        let mut client = cluster.open_client();
        for k in 0..ACCOUNTS {
            let blind = vec![(k, encode_balance(1000))];
            let (op, step) = client.begin(vec![]);
            let outcome = drive(&*cluster, &mut client, op, step, |_| blind);
            assert!(matches!(outcome, TxOutcome::Committed(_)));
        }
    }
    let initial: u64 = read_balances(&cluster, &(0..ACCOUNTS).collect::<Vec<_>>())
        .values()
        .sum();
    println!("initial total = {initial}");

    // 16 threads, each doing 100 random transfers of 1-10 credits.
    let threads: Vec<_> = (0..16)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let mut client = cluster.open_client();
                let mut committed = 0u32;
                let mut attempts = 0u32;
                let mut x = 0x9E37_79B9u64.wrapping_mul(t + 1);
                let mut rand = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                while committed < 100 {
                    let from = rand() % ACCOUNTS;
                    let mut to = rand() % ACCOUNTS;
                    if to == from {
                        to = (to + 1) % ACCOUNTS;
                    }
                    let amount = 1 + rand() % 10;
                    let keys = if from < to { [from, to] } else { [to, from] };
                    let (o, tries) = run_rmw(
                        &*cluster,
                        &mut client,
                        &keys,
                        move |k, vals| {
                            let a = balance_of(&vals[&from]);
                            let b = balance_of(&vals[&to]);
                            let (na, nb) = if a >= amount {
                                (a - amount, b + amount)
                            } else {
                                (a, b) // insufficient funds: no-op write
                            };
                            encode_balance(if k == from { na } else { nb })
                        },
                        10_000,
                    );
                    attempts += tries;
                    if matches!(o, TxOutcome::Committed(_)) {
                        committed += 1;
                    }
                }
                (committed, attempts)
            })
        })
        .collect();

    let mut total_committed = 0;
    let mut total_attempts = 0;
    for t in threads {
        let (c, a) = t.join().unwrap();
        total_committed += c;
        total_attempts += a;
    }
    println!(
        "{total_committed} transfers committed in {total_attempts} attempts \
         ({:.2} attempts/commit under contention)",
        total_attempts as f64 / total_committed as f64
    );

    // The invariant: money is neither created nor destroyed.
    let balances = read_balances(&cluster, &(0..ACCOUNTS).collect::<Vec<_>>());
    let total: u64 = balances.values().sum();
    println!("final total   = {total}");
    assert_eq!(total, initial, "serializability violation: total changed");

    // Spot-check a cross-shard read snapshot.
    let snap = read_balances(&cluster, &[0, 1, 2, 3]);
    println!(
        "accounts 0-3: {:?}",
        (0..4).map(|k| snap[&k]).collect::<Vec<_>>()
    );
    println!("done: the ledger balances.");
}
