//! Quickstart: the four PRISM primitives, straight from Table 1.
//!
//! Sets up a PRISM-capable host, then walks through indirection,
//! allocation, the enhanced CAS, and operation chaining — ending with
//! the paper's signature pattern: an out-of-place update installed in a
//! single round trip (§3.5).
//!
//! Run with: `cargo run -p prism-harness --example quickstart`

use prism_core::builder::ops;
use prism_core::install::{self, Guard, Installed, Word};
use prism_core::op::{field_mask, full_mask, FreeListId, Redirect};
use prism_core::server::PrismServer;
use prism_core::value::CasMode;
use prism_rdma::region::AccessFlags;

fn main() {
    // A host with 1 MiB of registerable memory. In the paper this is a
    // machine with an RDMA NIC; here it is the simulated equivalent.
    let server = PrismServer::new(1 << 20);

    // Register a data region and a free list of 64-byte buffers — the
    // control-plane setup a real server performs once (§3.2).
    let (data, rkey) = server.carve_region(4096, 64, AccessFlags::FULL);
    let freelist = FreeListId(0);
    server.setup_freelist(freelist, 64, 16);
    let conn = server.open_connection();
    println!("host ready: data region at {data:#x}, rkey {}", rkey.0);

    // --- 1. Indirection (§3.1) -----------------------------------------
    // Store a value out of line and a pointer to it; one indirect READ
    // follows the pointer server-side instead of costing a round trip.
    let object = data + 1024;
    server.arena().write(object, b"hello, PRISM").unwrap();
    server.arena().write_u64(data, object).unwrap();

    let results = server.execute_chain(&[ops::read_indirect(data, 12, rkey.0)]);
    println!(
        "indirect READ  -> {:?}",
        String::from_utf8_lossy(results[0].expect_data().unwrap())
    );

    // Bounded pointers clamp variable-length reads: store (ptr, bound).
    server.arena().write_u64(data + 8, 5).unwrap(); // bound = 5
    let results = server.execute_chain(&[ops::read_indirect_bounded(data, 512, rkey.0)]);
    println!(
        "bounded READ   -> {:?} (asked for 512, bound said 5)",
        String::from_utf8_lossy(results[0].expect_data().unwrap())
    );

    // --- 2. Allocation (§3.2) ------------------------------------------
    let results = server.execute_chain(&[ops::allocate(freelist, b"fresh buffer".to_vec())]);
    let buf = u64::from_le_bytes(results[0].expect_data().unwrap().try_into().unwrap());
    println!("ALLOCATE       -> buffer at {buf:#x}");

    // --- 3. Enhanced CAS (§3.3) ----------------------------------------
    // A 16-byte versioned word: [version (BE) | payload]. Compare only
    // the version field with an arithmetic mode, swap the whole word.
    let word = data + 2048;
    let mut v1 = 1u64.to_be_bytes().to_vec();
    v1.extend_from_slice(b"payload1");
    server.arena().write(word, &v1).unwrap();

    let mut v2 = 2u64.to_be_bytes().to_vec();
    v2.extend_from_slice(b"payload2");
    let install_newer = ops::cas(
        CasMode::Lt, // succeed iff current version < new version
        word,
        rkey.0,
        v2.clone(),
        v2.clone(),
        16,
        field_mask(0, 8),
        full_mask(16),
    );
    let r = server.execute_chain(std::slice::from_ref(&install_newer));
    println!("CAS v1 -> v2   -> {:?}", r[0].status);
    let r = server.execute_chain(&[install_newer]);
    println!(
        "CAS v2 -> v2   -> {:?} (stale install rejected)",
        r[0].status
    );

    // --- 4. Chaining (§3.4 / §3.5) --------------------------------------
    // The one-round-trip out-of-place update: stage the new bound in
    // connection scratch, ALLOCATE the new version with its address
    // redirected beside it, conditionally CAS the `[ptr | bound]` slot if
    // it still holds what we last saw, and read the new address back.
    let slot = data + 3072; // starts empty
    let stage = Redirect {
        addr: conn.scratch_addr,
        rkey: conn.scratch_rkey.0,
    };
    let old = [0; 16];
    let guard = Guard::Unchanged { old, bound: 14 };
    let update = |value: &[u8]| {
        let chain = install::chain(slot, rkey.0, stage, freelist, value.to_vec(), guard);
        install::read(&server.execute_chain(&chain), Word::PtrBound)
    };
    assert_eq!(update(b"version-1 data"), Installed::Won { displaced: 0 });
    let installed = server.arena().read_u64(slot).unwrap();
    println!(
        "chained update -> slot now points at {installed:#x}: {:?}",
        String::from_utf8_lossy(&server.arena().read(installed, 14).unwrap())
    );

    // A losing race: the same guard is stale now, so the CAS fails and
    // reports the word it found, the slot is untouched, and the freshly
    // allocated buffer is ours to free.
    let Installed::Lost { orphan, found } = update(b"version-2 data") else {
        panic!("a stale install won");
    };
    assert_eq!(found[..8], installed.to_le_bytes());
    println!("racing update  -> lost; slot unchanged at {installed:#x}, orphan {orphan:#x} freed");
    assert_eq!(server.arena().read_u64(slot).unwrap(), installed);
    server.freelists().free(orphan).unwrap();
    println!("done.");
}
