//! Differential property test: `FreeLists` answers exactly like a
//! reference model built on a `VecDeque` FIFO plus a `HashSet` of its
//! members per list, and a flat list of pool extents searched in
//! registration order.
//!
//! Random scripts register pools, carve refill extents, pop, post,
//! free, sweep and reset after a restart, over three size classes whose
//! extents are placed out of address order and reused once a restart
//! forgets them. After every step each return value, each list's
//! snapshot (the order ALLOCATE pops in) and its size class must agree.
//! The model keeps the queue that backed every list before the lists
//! kept a free bit per extent buffer, with two intended changes: a post
//! of an address outside the list's extents is refused instead of
//! queued, and a restart that keeps none of a list's extents leaves it
//! empty instead of holding its pre-crash contents.
//! Failures shrink to a minimal script and print a `PRISM_TEST_SEED` for
//! exact replay.

use std::collections::{HashSet, VecDeque};

use prism_core::freelist::{FreeError, FreeLists};
use prism_core::op::FreeListId;
use prism_rdma::hash::IntSet;
use prism_rdma::RdmaError;
use prism_testkit::{for_all, gens, Config, Gen};

/// Size class of list `i`; strides 64, 128 and 576.
const BUF_LEN: [u64; 3] = [64, 100, 540];
/// Extents go in windows of this many bytes, so no two overlap.
const WINDOW: u64 = 0x8000;
const WINDOWS: u64 = 24;
const BASE: u64 = 0x10_0000;

#[derive(Debug, Clone)]
enum Step {
    /// Register list `list` over `count` buffers at window `window`, the
    /// first `in_use` of them held, or extend it so if it is registered
    /// (a refill carve when `in_use` is 0).
    Register {
        list: u32,
        window: u64,
        count: u64,
        in_use: u64,
    },
    Pop {
        list: u32,
    },
    /// Post the address `pick` names to `list` (which may be unregistered).
    Post {
        list: u32,
        pick: Pick,
    },
    Free {
        pick: Pick,
    },
    /// Sweep with every extent buffer whose hash `salt` selects reachable.
    Sweep {
        salt: u64,
    },
    /// Restart: keep the first `keep` extents, buffers whose hash `salt`
    /// selects in use.
    Reset {
        keep: usize,
        salt: u64,
    },
}

/// An address: buffer `j` (up to one past the end) of the `extent`-th
/// extent registered, plus `skew` bytes; or `raw` when there is none.
#[derive(Debug, Clone)]
struct Pick {
    extent: usize,
    j: u64,
    skew: u64,
    raw: u64,
}

fn pick_gen() -> Gen<Pick> {
    let skew = gens::one_of(vec![
        gens::constant(0),
        gens::constant(0),
        gens::range_u64(1..64),
    ]);
    gens::t4(
        gens::range_usize(0..8),
        gens::range_u64(0..41),
        skew,
        gens::u64s(),
    )
    .map(|(extent, j, skew, raw)| Pick {
        extent,
        j,
        skew,
        raw,
    })
}

fn step_gen() -> Gen<Step> {
    let list = || gens::range_u32(0..4);
    let window = || gens::range_u64(0..WINDOWS);
    gens::one_of(vec![
        gens::t4(
            list(),
            window(),
            gens::range_u64(1..40),
            gens::range_u64(0..41),
        )
        .map(|(list, window, count, in_use)| Step::Register {
            list,
            window,
            count,
            in_use: in_use.min(count),
        }),
        gens::t3(list(), window(), gens::range_u64(1..40)).map(|(list, window, count)| {
            Step::Register {
                list,
                window,
                count,
                in_use: 0,
            }
        }),
        list().map(|list| Step::Pop { list }),
        list().map(|list| Step::Pop { list }),
        list().map(|list| Step::Pop { list }),
        gens::t2(list(), pick_gen()).map(|(list, pick)| Step::Post { list, pick }),
        pick_gen().map(|pick| Step::Free { pick }),
        pick_gen().map(|pick| Step::Free { pick }),
        gens::u64s().map(|salt| Step::Sweep { salt }),
        gens::t2(gens::range_usize(0..10), gens::u64s())
            .map(|(keep, salt)| Step::Reset { keep, salt }),
    ])
}

fn selected(salt: u64, addr: u64) -> bool {
    ((addr / 64) ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 == 0
}

/// The queue every list was before its extents kept free bits.
#[derive(Debug, Default, Clone)]
struct OldQueue {
    fifo: VecDeque<u64>,
    members: HashSet<u64>,
}

impl OldQueue {
    fn put(&mut self, addr: u64) {
        if self.members.insert(addr) {
            self.fifo.push_back(addr);
        }
    }

    fn take(&mut self) -> Option<u64> {
        let addr = self.fifo.pop_front()?;
        self.members.remove(&addr);
        Some(addr)
    }
}

/// `(list, base, stride, count)`.
type Extent = (u32, u64, u64, u64);

fn buffers(&(_, base, stride, count): &Extent) -> impl Iterator<Item = u64> {
    (0..count).map(move |j| base + j * stride)
}

fn admits(&(_, base, stride, count): &Extent, addr: u64) -> bool {
    addr >= base && addr < base + stride * count && (addr - base).is_multiple_of(stride)
}

/// The reference registry: lists by id, extents in registration order.
#[derive(Debug, Default)]
struct Model {
    lists: [Option<OldQueue>; 4],
    extents: Vec<Extent>,
}

impl Model {
    fn stride(list: u32) -> u64 {
        BUF_LEN[list as usize % 3].next_multiple_of(64)
    }

    /// The base of window `w`, or of the next one no extent occupies.
    fn free_window(&self, w: u64) -> Option<u64> {
        (0..WINDOWS)
            .map(|k| BASE + (w + k) % WINDOWS * WINDOW)
            .find(|&base| self.extents.iter().all(|e| e.1 != base))
    }

    fn address(&self, p: &Pick) -> u64 {
        match self.extents.len() {
            0 => p.raw,
            n => {
                let (_, base, stride, _) = self.extents[p.extent % n];
                base + p.j * stride + p.skew
            }
        }
    }

    fn post(&mut self, list: u32, addr: u64) -> Result<(), FreeError> {
        let owned = self.extents.iter().any(|e| e.0 == list && admits(e, addr));
        match &mut self.lists[list as usize] {
            Some(q) if owned => {
                q.put(addr);
                Ok(())
            }
            _ => Err(FreeError::OutOfRange(addr)),
        }
    }

    fn free(&mut self, addr: u64) -> Result<(), FreeError> {
        let e = *self
            .extents
            .iter()
            .find(|e| admits(e, addr))
            .ok_or(FreeError::OutOfRange(addr))?;
        let q = self.lists[e.0 as usize].as_mut().unwrap();
        if q.members.contains(&addr) {
            return Err(FreeError::AlreadyFree(addr));
        }
        q.put(addr);
        Ok(())
    }

    fn sweep(&mut self, salt: u64) -> usize {
        let mut order = self.extents.clone();
        order.sort_by_key(|e| e.0);
        let mut reposted = 0;
        for e in &order {
            let q = self.lists[e.0 as usize].as_mut().unwrap();
            for a in buffers(e) {
                if !selected(salt, a) && !q.members.contains(&a) {
                    q.put(a);
                    reposted += 1;
                }
            }
        }
        reposted
    }

    fn reset(&mut self, keep: usize, salt: u64) {
        self.extents.truncate(keep);
        for (id, list) in self.lists.iter_mut().enumerate() {
            if let Some(q) = list {
                *q = OldQueue::default();
                let mine = self.extents.iter().filter(|e| e.0 as usize == id);
                for a in mine.flat_map(buffers).filter(|&a| !selected(salt, a)) {
                    q.put(a);
                }
            }
        }
    }
}

/// Runs `script` on both and asserts they agree after every step.
fn check(script: &[Step]) {
    let (fl, mut model) = (FreeLists::new(), Model::default());
    for (i, step) in script.iter().enumerate() {
        match *step {
            Step::Register {
                list,
                window,
                count,
                in_use,
            } => {
                let Some(base) = model.free_window(window) else {
                    continue;
                };
                let (id, stride) = (FreeListId(list), Model::stride(list));
                let q = match &mut model.lists[list as usize] {
                    Some(q) => {
                        fl.extend(id, base, count, in_use);
                        q
                    }
                    slot => {
                        let class = BUF_LEN[list as usize % 3];
                        let got = fl.register_pool(id, class, base, count, in_use);
                        assert_eq!(got, stride, "step {i}: stride");
                        slot.insert(OldQueue::default())
                    }
                };
                (in_use..count).for_each(|j| q.put(base + j * stride));
                model.extents.push((list, base, stride, count));
            }
            Step::Pop { list } => {
                let want = match &mut model.lists[list as usize] {
                    None => Err(RdmaError::UnknownFreeList(list)),
                    Some(q) => q
                        .take()
                        .map(|a| (a, BUF_LEN[list as usize % 3]))
                        .ok_or(RdmaError::ReceiverNotReady),
                };
                let _gate = fl.gate_read();
                assert_eq!(fl.pop(FreeListId(list)), want, "step {i}: pop");
            }
            Step::Post { list, ref pick } => {
                let addr = model.address(pick);
                let want = model.post(list, addr);
                assert_eq!(
                    fl.post(FreeListId(list), [addr]),
                    want,
                    "step {i}: post {addr:#x}"
                );
            }
            Step::Free { ref pick } => {
                let addr = model.address(pick);
                let want = model.free(addr);
                assert_eq!(fl.free(addr), want, "step {i}: free {addr:#x}");
            }
            Step::Sweep { salt } => {
                let reachable = || -> IntSet<u64> {
                    let all = model.extents.iter().flat_map(buffers);
                    all.filter(|&a| selected(salt, a)).collect()
                };
                let got = fl.gc_sweep(reachable);
                assert_eq!(got, model.sweep(salt), "step {i}: sweep");
            }
            Step::Reset { keep, salt } => {
                fl.reset_to_extents(keep, |a| selected(salt, a));
                model.reset(keep, salt);
            }
        }
        for (id, q) in model.lists.iter().enumerate() {
            let id32 = id as u32;
            let want = q
                .as_ref()
                .map(|q| Vec::from(q.fifo.clone()))
                .unwrap_or_default();
            assert_eq!(fl.snapshot(FreeListId(id32)), want, "step {i}: list {id}");
            assert_eq!(
                fl.available(FreeListId(id32)),
                want.len(),
                "step {i}: list {id}"
            );
            let class = q.as_ref().map(|_| BUF_LEN[id % 3]);
            assert_eq!(fl.buf_len(FreeListId(id32)), class, "step {i}: list {id}");
        }
    }
}

#[test]
fn free_lists_match_the_reference_queue() {
    for_all(
        "free_lists_match_the_reference_queue",
        &Config::with_cases(256),
        &gens::vec(step_gen(), 1..80),
        |script: &Vec<Step>| check(script),
    );
}
