//! The arena's huge-page advice, seen from the kernel's side: after an
//! 8 MiB arena is written end to end, `/proc/self/smaps` must show its
//! advised mapping (`hg` in `VmFlags`) and, where transparent huge
//! pages are on for advised memory, 2 MiB pages in it (`AnonHugePages`).
//!
//! One test in its own binary: the arena is the only memory this
//! process advises, so the advised mappings are the arena's, and a
//! fresh process's allocator hands an 8 MiB buffer out as a new mapping
//! that nothing has touched.
//!
//! A debug build stores every word once while building the buffer,
//! before the advice, so in `madvise` mode its pages are already 4 KiB
//! ones; only the advice itself is checked there. `cargo test --release
//! -p prism-rdma --test huge_pages` checks the pages.

// Where the arena gives the advice at all.
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use prism_rdma::arena::MemoryArena;

/// One `/proc/self/smaps` entry: its address range, whether it carries
/// the huge-page advice, and its `AnonHugePages` in bytes.
#[derive(Debug, PartialEq)]
struct Mapping {
    range: String,
    advised: bool,
    huge_bytes: u64,
}

fn advised_mappings() -> Vec<Mapping> {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("/proc/self/smaps");
    let mut out: Vec<Mapping> = Vec::new();
    for line in smaps.lines() {
        let mut fields = line.split_whitespace();
        let Some(first) = fields.next() else {
            continue;
        };
        if let Some(kb) = line.strip_prefix("AnonHugePages:") {
            let kb = kb.trim().trim_end_matches("kB").trim();
            out.last_mut().expect("a header first").huge_bytes = kb.parse::<u64>().unwrap() * 1024;
        } else if first == "VmFlags:" {
            out.last_mut().expect("a header first").advised = fields.any(|f| f == "hg");
        } else if !first.ends_with(':') && first.contains('-') {
            out.push(Mapping {
                range: first.to_string(),
                advised: false,
                huge_bytes: 0,
            });
        }
    }
    out.retain(|m| m.advised);
    out
}

/// The bracketed word of the kernel's THP mode, e.g. `madvise`.
fn thp_mode() -> Option<String> {
    let modes = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").ok()?;
    let start = modes.find('[')? + 1;
    let end = start + modes[start..].find(']')?;
    Some(modes[start..end].to_string())
}

#[test]
fn a_written_arena_sits_on_huge_pages() {
    let mode = thp_mode();
    let mode = match mode.as_deref() {
        Some(m @ ("always" | "madvise")) => m,
        other => {
            println!("skipped: THP {}", other.unwrap_or("unreadable"));
            return;
        }
    };
    let before = advised_mappings();
    let a = MemoryArena::new(8 << 20);
    let chunk = vec![0xA5u8; 64 << 10];
    for off in (0..a.len()).step_by(chunk.len()) {
        a.write(MemoryArena::BASE + off, &chunk).unwrap();
    }
    let arena: Vec<Mapping> = advised_mappings()
        .into_iter()
        .filter(|m| !before.contains(m))
        .collect();
    let advised: u64 = arena
        .iter()
        .map(|m| {
            let (lo, hi) = m.range.split_once('-').unwrap();
            u64::from_str_radix(hi, 16).unwrap() - u64::from_str_radix(lo, 16).unwrap()
        })
        .sum();
    let huge: u64 = arena.iter().map(|m| m.huge_bytes).sum();
    println!("THP {mode}: advised {advised} B, AnonHugePages {huge} B in {arena:?}");
    // The 2 MiB-aligned interior of an 8 MiB buffer: three or four
    // whole pages.
    assert!(
        (6 << 20..=8 << 20).contains(&advised),
        "the arena's interior was not advised: {advised} B in {arena:?}"
    );
    if cfg!(debug_assertions) && mode == "madvise" {
        println!(
            "skipped: AnonHugePages in a debug build (its words were stored before the advice)"
        );
        return;
    }
    assert!(
        huge > 0,
        "no huge page backs a written 8 MiB arena: {arena:?}"
    );
}
