//! A session cache built on PRISM-KV (§6 of the paper).
//!
//! Demonstrates the store's full lifecycle: GETs that cost a single
//! bounded indirect READ, PUTs that install out-of-place in two round
//! trips with no server CPU, DELETEs, size classes, and client-driven
//! buffer reclamation — then hammers it from several threads.
//!
//! Run with: `cargo run -p prism-harness --example kv_cache`

use std::sync::Arc;

use prism_kv::hash::HashScheme;
use prism_kv::prism_kv::{PrismKvClient, PrismKvConfig, PrismKvServer, SizeClass};
use prism_kv::{drive, KvOutcome};

fn get(server: &PrismKvServer, client: &PrismKvClient, key: &[u8]) -> (KvOutcome, u32) {
    let (mut op, req) = client.get(key);
    drive(server.server(), req, |r| op.on_reply(client, r))
}

fn put(server: &PrismKvServer, client: &PrismKvClient, key: &[u8], val: &[u8]) -> (KvOutcome, u32) {
    let (mut op, req) = client.put(key, val);
    drive(server.server(), req, |r| op.on_reply(client, r))
}

fn main() {
    // A cache with two size classes: small session tokens and larger
    // profile blobs (powers of two bound the space overhead, §3.2).
    let config = PrismKvConfig {
        capacity: 4096,
        scheme: HashScheme::Fnv,
        max_entry_len: 2048,
        classes: vec![
            SizeClass {
                buf_len: 128,
                count: 4096,
            },
            SizeClass {
                buf_len: 2048,
                count: 512,
            },
        ],
    };
    let server = Arc::new(PrismKvServer::new(&config));
    let client = server.open_client();

    // Store a session and a profile.
    let (o, rtts) = put(&server, &client, b"session:alice", b"token-1234");
    println!("PUT session:alice  -> {o:?} in {rtts} round trips");
    let profile = vec![b'p'; 1500];
    let (o, _) = put(&server, &client, b"profile:alice", &profile);
    println!("PUT profile:alice  -> {o:?} (1500 B -> 2048 B class)");

    // Reads cost one round trip regardless of value size.
    let (o, rtts) = get(&server, &client, b"session:alice");
    match o {
        KvOutcome::Value(Some(v)) => {
            println!(
                "GET session:alice  -> {:?} in {rtts} round trip(s)",
                String::from_utf8_lossy(&v)
            )
        }
        other => panic!("unexpected: {other:?}"),
    }

    // Overwrite: the old buffer is reclaimed via the async free RPC.
    put(&server, &client, b"session:alice", b"token-5678");
    let (o, _) = get(&server, &client, b"session:alice");
    println!("after overwrite    -> {o:?}");

    // Expire the session.
    let (mut op, req) = client.delete(b"session:alice");
    let (o, _) = drive(server.server(), req, |r| op.on_reply(&client, r));
    println!("DELETE             -> {o:?}");
    let (o, _) = get(&server, &client, b"session:alice");
    println!("GET after delete   -> {o:?}");

    // Concurrency: eight threads churn 512 keys; the CAS-install
    // protocol keeps every value internally consistent.
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let client = server.open_client();
                for i in 0..512u32 {
                    let key = format!("user:{}", i % 64);
                    let val = format!("state-{t}-{i}");
                    let (o, _) = put(&server, &client, key.as_bytes(), val.as_bytes());
                    assert_eq!(o, KvOutcome::Written);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let (o, _) = get(&server, &client, b"user:3");
    match o {
        KvOutcome::Value(Some(v)) => {
            let s = String::from_utf8_lossy(&v);
            assert!(s.starts_with("state-"), "torn value: {s}");
            println!("after 4096 racing PUTs, user:3 = {s:?} (consistent)");
        }
        other => panic!("unexpected: {other:?}"),
    }
    println!("done.");
}
