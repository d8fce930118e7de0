//! A fault-tolerant block device built on PRISM-RS (§7 of the paper).
//!
//! Three replicas, multi-writer ABD: every read and write completes in
//! two round trips to a majority, entirely with one-sided PRISM
//! operations. The example writes blocks, kills a replica, keeps
//! going, brings it "back", and shows the read-repair write-back phase
//! healing it.
//!
//! Run with: `cargo run -p prism-harness --example replicated_blocks`

use prism_rs::prism_rs::{RsClient, RsCluster, RsConfig};
use prism_rs::{drive, RsOutcome, RsProtocol, Tag};

const BLOCK: usize = 512;

fn put(
    cl: &RsCluster,
    c: &mut RsClient,
    block: u64,
    value: Vec<u8>,
    crashed: &[bool],
) -> RsOutcome {
    let (op, step) = c.put(block, value);
    drive(cl, c, op, step, crashed)
}

fn get(cl: &RsCluster, c: &mut RsClient, block: u64, crashed: &[bool]) -> RsOutcome {
    let (op, step) = c.get(block);
    drive(cl, c, op, step, crashed)
}

fn block_of(byte: u8) -> Vec<u8> {
    vec![byte; BLOCK]
}

fn tag_at(cl: &RsCluster, replica: usize, block: u64) -> Tag {
    let v = cl.replica(replica).view().clone();
    let meta = cl
        .replica(replica)
        .server()
        .arena()
        .read(v.meta(block), 16)
        .unwrap();
    Tag::from_bytes(&meta[..8])
}

fn main() {
    // n = 3 replicas tolerate f = 1 failure.
    let cluster = RsCluster::new(3, &RsConfig::paper(1024, BLOCK as u64));
    let mut client = cluster.open_client();
    let all_up = [false; 3];
    println!(
        "cluster: {} replicas, {} blocks x {} B, quorum {}",
        cluster.n(),
        1024,
        BLOCK,
        client.quorum()
    );

    // Normal operation.
    assert_eq!(
        put(&cluster, &mut client, 7, block_of(0xAA), &all_up),
        RsOutcome::Written
    );
    match get(&cluster, &mut client, 7, &all_up) {
        RsOutcome::Value(v) => println!("block 7 = 0x{:02X}.. (len {})", v[0], v.len()),
        o => panic!("{o:?}"),
    }

    // Replica 2 crashes. Writes and reads keep succeeding through the
    // remaining majority {0, 1}.
    let r2_down = [false, false, true];
    println!("\n-- replica 2 crashes --");
    assert_eq!(
        put(&cluster, &mut client, 7, block_of(0xBB), &r2_down),
        RsOutcome::Written
    );
    match get(&cluster, &mut client, 7, &r2_down) {
        RsOutcome::Value(v) => println!("block 7 = 0x{:02X}.. (served by majority)", v[0]),
        o => panic!("{o:?}"),
    }
    println!(
        "replica tags: r0={} r1={} r2={} (r2 stale)",
        tag_at(&cluster, 0, 7),
        tag_at(&cluster, 1, 7),
        tag_at(&cluster, 2, 7)
    );

    // Replica 2 comes back. A GET's write-back phase (the second round
    // of ABD) repairs it without any dedicated recovery machinery.
    println!("\n-- replica 2 rejoins --");
    match get(&cluster, &mut client, 7, &all_up) {
        RsOutcome::Value(v) => println!("block 7 = 0x{:02X}.. (read with all replicas)", v[0]),
        o => panic!("{o:?}"),
    }
    println!(
        "replica tags: r0={} r1={} r2={} (r2 repaired by read write-back)",
        tag_at(&cluster, 0, 7),
        tag_at(&cluster, 1, 7),
        tag_at(&cluster, 2, 7)
    );

    // Now even the *other* quorum {1, 2} must serve the latest value:
    // quorum intersection is what makes ABD linearizable.
    let r0_down = [true, false, false];
    match get(&cluster, &mut client, 7, &r0_down) {
        RsOutcome::Value(v) => {
            assert_eq!(v[0], 0xBB);
            println!("block 7 = 0x{:02X}.. via the disjoint quorum {{1,2}}", v[0]);
        }
        o => panic!("{o:?}"),
    }

    // Two failures exceed f: the client cannot make progress — and says
    // so rather than returning stale data.
    let two_down = [true, true, false];
    match put(&cluster, &mut client, 7, block_of(0xCC), &two_down) {
        RsOutcome::Failed(why) => println!("\nwith 2 replicas down: PUT fails safe ({why})"),
        o => panic!("must not succeed: {o:?}"),
    }

    // Concurrent writers: tags order every update; all replicas converge.
    println!("\n-- 4 concurrent writers, 200 writes --");
    let cluster = std::sync::Arc::new(cluster);
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let cl = std::sync::Arc::clone(&cluster);
            std::thread::spawn(move || {
                let mut c = cl.open_client();
                for i in 0..50u8 {
                    assert_eq!(
                        put(&cl, &mut c, 9, block_of(t * 50 + i), &[false; 3]),
                        RsOutcome::Written
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut c = cluster.open_client();
    let a = get(&cluster, &mut c, 9, &[false, false, true]);
    let b = get(&cluster, &mut c, 9, &[true, false, false]);
    assert_eq!(a, b, "disjoint quorums agree");
    println!("disjoint quorums agree on block 9 after the race: linearizable.");
    println!("done.");
}
