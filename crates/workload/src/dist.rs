//! Key popularity distributions: uniform and Zipfian.
//!
//! The Zipfian generator is the standard YCSB construction (Gray et al.,
//! "Quickly generating billion-record synthetic databases"): rank 0 is
//! the most popular key, and popularity decays as `1/rank^theta`. The
//! paper sweeps the Zipf coefficient from 0 (uniform) to ~1.5 in
//! Figures 7 and 10.

use std::sync::Mutex;

use prism_simnet::rng::SimRng;

/// A distribution over the key space `[0, n)`.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform {
        /// Number of keys.
        n: u64,
    },
    /// Zipfian with the given coefficient.
    Zipf(ZipfGen),
}

impl KeyDist {
    /// Uniform distribution over `n` keys.
    pub fn uniform(n: u64) -> Self {
        KeyDist::Uniform { n }
    }

    /// Zipfian distribution over `n` keys with coefficient `theta`.
    /// `theta == 0` degenerates to uniform.
    pub fn zipf(n: u64, theta: f64) -> Self {
        if theta == 0.0 {
            KeyDist::Uniform { n }
        } else {
            KeyDist::Zipf(ZipfGen::new(n, theta))
        }
    }

    /// Number of keys in the space.
    pub fn n(&self) -> u64 {
        match self {
            KeyDist::Uniform { n } => *n,
            KeyDist::Zipf(z) => z.n,
        }
    }

    /// Samples one key.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match self {
            KeyDist::Uniform { n } => rng.gen_range(*n),
            KeyDist::Zipf(z) => z.sample(rng),
        }
    }
}

/// YCSB-style Zipfian generator with precomputed constants.
#[derive(Debug, Clone)]
pub struct ZipfGen {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

/// The constants a generator derives from `(n, theta)`. `zetan` is a
/// sum of up to a million `powf` terms, and an experiment builds one
/// generator per client over the same pair, so they are computed once
/// per process and looked up afterwards ([`ConstTable`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ZipfConsts {
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl ZipfConsts {
    fn compute(n: u64, theta: f64) -> Self {
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        ZipfConsts {
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            half_pow_theta: 0.5f64.powf(theta),
        }
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Direct sum for small n; Euler–Maclaurin tail approximation for
    // large n keeps construction fast for 8M-key spaces.
    const DIRECT: u64 = 1_000_000;
    if n <= DIRECT {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    } else {
        let head: f64 = (1..=DIRECT).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        // integral_{DIRECT}^{n} x^-theta dx + midpoint correction
        let a = DIRECT as f64;
        let b = n as f64;
        let integral = (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        head + integral + 0.5 * (b.powf(-theta) - a.powf(-theta))
    }
}

/// Computed [`ZipfConsts`] keyed by `(n, theta.to_bits())`, oldest
/// first. An entry is exactly what [`ZipfConsts::compute`] returned for
/// its key — the same function a miss runs — so a hit cannot differ
/// from a miss in any bit, and which of the two a construction was does
/// not reach the sampled keys. Bounded: past [`ConstTable::CAP`] pairs
/// the oldest is dropped (a sweep over a few coefficients fits; a
/// property test drawing random pairs cannot grow it).
struct ConstTable(Mutex<Vec<((u64, u64), ZipfConsts)>>);

/// The process-wide table behind [`ZipfGen::new`].
static CONSTS: ConstTable = ConstTable::new();

impl ConstTable {
    const CAP: usize = 32;

    const fn new() -> Self {
        ConstTable(Mutex::new(Vec::new()))
    }

    fn get(&self, n: u64, theta: f64) -> ZipfConsts {
        let key = (n, theta.to_bits());
        let find = |entries: &[((u64, u64), ZipfConsts)]| {
            entries.iter().find(|(k, _)| *k == key).map(|&(_, c)| c)
        };
        // Nothing panics while the lock is held, so it is never poisoned.
        if let Some(hit) = find(&self.0.lock().expect("zipf table lock")) {
            return hit;
        }
        // Computed outside the lock: two threads missing on one pair
        // both compute it, to the same bits, and the second keeps the
        // first's entry.
        let consts = ZipfConsts::compute(n, theta);
        let mut entries = self.0.lock().expect("zipf table lock");
        if find(&entries).is_none() {
            if entries.len() == Self::CAP {
                entries.remove(0);
            }
            entries.push((key, consts));
        }
        consts
    }
}

impl ZipfGen {
    /// Builds a generator over `[0, n)` with coefficient `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `theta <= 0`, or `theta == 1` (the harmonic
    /// special case; pass 0.99 or 1.01 as YCSB does).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "ZipfGen: empty key space");
        assert!(
            theta > 0.0 && (theta - 1.0).abs() > 1e-9,
            "ZipfGen: theta must be positive and != 1"
        );
        let ZipfConsts {
            alpha,
            zetan,
            eta,
            half_pow_theta,
        } = CONSTS.get(n, theta);
        ZipfGen {
            n,
            theta,
            alpha,
            zetan,
            eta,
            half_pow_theta,
        }
    }

    /// Samples a key rank (0 = most popular).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The Zipf coefficient.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space_evenly() {
        let d = KeyDist::uniform(10);
        let mut rng = SimRng::new(1);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "count {c}");
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let d = KeyDist::zipf(1_000, 0.99);
        let mut rng = SimRng::new(2);
        let mut top = 0u64;
        let total = 100_000;
        for _ in 0..total {
            if d.sample(&mut rng) < 10 {
                top += 1;
            }
        }
        // With theta=0.99 over 1000 keys, the top-10 keys draw a large
        // constant fraction of accesses.
        assert!(
            top as f64 / total as f64 > 0.3,
            "top-10 fraction {}",
            top as f64 / total as f64
        );
    }

    #[test]
    fn zipf_rank_frequencies_decay() {
        let z = ZipfGen::new(100, 0.99);
        let mut rng = SimRng::new(3);
        let mut counts = vec![0u64; 100];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[4] > counts[40]);
        // Ratio of rank-0 to rank-9 should be near 10^0.99 ≈ 9.8.
        let ratio = counts[0] as f64 / counts[9].max(1) as f64;
        assert!((4.0..20.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn zipf_stays_in_range() {
        for theta in [0.5, 0.9, 0.99, 1.2, 1.5] {
            let z = ZipfGen::new(37, theta);
            let mut rng = SimRng::new(4);
            for _ in 0..10_000 {
                assert!(z.sample(&mut rng) < 37);
            }
        }
    }

    #[test]
    fn zeta_tail_approximation_is_accurate() {
        // Compare the approximated zeta against a direct sum just above
        // the crossover.
        let direct: f64 = (1..=1_100_000u64)
            .map(|i| 1.0 / (i as f64).powf(0.99))
            .sum();
        let approx = zeta(1_100_000, 0.99);
        assert!(
            ((direct - approx) / direct).abs() < 1e-6,
            "direct {direct} vs approx {approx}"
        );
    }

    /// The constants summed from scratch, term by term, with no code
    /// shared with `ZipfConsts::compute`.
    fn reference(n: u64, theta: f64) -> ZipfConsts {
        let sum = |terms: u64| {
            let mut z = 0.0f64;
            for i in 1..=terms {
                z += 1.0 / (i as f64).powf(theta);
            }
            z
        };
        let zetan = if n <= 1_000_000 {
            sum(n)
        } else {
            let (a, b) = (1_000_000f64, n as f64);
            sum(1_000_000)
                + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
                + 0.5 * (b.powf(-theta) - a.powf(-theta))
        };
        ZipfConsts {
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - sum(2) / zetan),
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn bits(c: ZipfConsts) -> [u64; 4] {
        [c.alpha, c.zetan, c.eta, c.half_pow_theta].map(f64::to_bits)
    }

    fn consts_of(z: &ZipfGen) -> ZipfConsts {
        ZipfConsts {
            alpha: z.alpha,
            zetan: z.zetan,
            eta: z.eta,
            half_pow_theta: z.half_pow_theta,
        }
    }

    #[test]
    fn table_hit_equals_miss_equals_direct_sum() {
        let table = ConstTable::new();
        for n in [1, 2, 37, 1_000, 999_999, 1_000_000, 1_000_001, 1_100_000] {
            for theta in [0.5, 0.99, 1.5] {
                let want = bits(reference(n, theta));
                let before = table.0.lock().unwrap().len();
                let miss = table.get(n, theta);
                assert_eq!(table.0.lock().unwrap().len(), before + 1, "a miss inserts");
                let hit = table.get(n, theta);
                assert_eq!(table.0.lock().unwrap().len(), before + 1, "a hit does not");
                assert_eq!(bits(miss), want, "miss ({n}, {theta})");
                assert_eq!(bits(hit), want, "hit ({n}, {theta})");
                // And through the process-wide table, whichever of the
                // two this construction happens to be.
                let built = consts_of(&ZipfGen::new(n, theta));
                assert_eq!(bits(built), want, "ZipfGen::new({n}, {theta})");
            }
        }
    }

    #[test]
    fn table_stays_bounded_over_many_pairs() {
        let table = ConstTable::new();
        for i in 0..1_000u64 {
            let (n, theta) = (10 + i % 7, 0.25 + i as f64 * 1e-3);
            if (theta - 1.0).abs() < 1e-9 {
                continue;
            }
            let got = table.get(n, theta);
            assert_eq!(bits(got), bits(reference(n, theta)), "({n}, {theta})");
            assert!(table.0.lock().unwrap().len() <= ConstTable::CAP);
        }
        // Full, and still serving its newest entries without growing.
        assert_eq!(table.0.lock().unwrap().len(), ConstTable::CAP);
        let newest = (10 + 999 % 7, 0.25 + 999.0 * 1e-3);
        assert_eq!(
            bits(table.get(newest.0, newest.1)),
            bits(reference(newest.0, newest.1))
        );
        assert_eq!(table.0.lock().unwrap().len(), ConstTable::CAP);
    }

    #[test]
    fn concurrent_constructions_get_the_single_thread_constants() {
        const THREADS: u64 = 8;
        // One pair every thread builds, one pair per thread; the barrier
        // releases all eight constructions of the shared pair at once.
        let shared = (50_000u64, 0.83);
        let own = |t: u64| (20_000 + t, 0.61);
        let barrier = std::sync::Barrier::new(THREADS as usize);
        let got: Vec<(ZipfConsts, ZipfConsts)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let a = ZipfGen::new(shared.0, shared.1);
                        let b = ZipfGen::new(own(t).0, own(t).1);
                        (consts_of(&a), consts_of(&b))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("constructor thread"))
                .collect()
        });
        for (t, (a, b)) in got.into_iter().enumerate() {
            assert_eq!(bits(a), bits(reference(shared.0, shared.1)), "thread {t}");
            let (n, theta) = own(t as u64);
            assert_eq!(bits(b), bits(reference(n, theta)), "thread {t}");
        }
    }

    #[test]
    fn repeat_constructions_cost_less_than_three_cold_ones() {
        // `sim_tx_closed`'s pair, nudged one ulp so that no other test
        // in this process can have built it first.
        let theta = f64::from_bits(0.8f64.to_bits() + 1);
        let start = std::time::Instant::now();
        let cold = ZipfGen::new(262_144, theta);
        let cold_cost = start.elapsed();
        let start = std::time::Instant::now();
        for _ in 0..64 {
            let z = ZipfGen::new(262_144, theta);
            assert_eq!(bits(consts_of(&z)), bits(consts_of(&cold)));
        }
        let repeat_cost = start.elapsed();
        assert!(
            repeat_cost < 3 * cold_cost,
            "64 repeats took {repeat_cost:?}, one cold construction {cold_cost:?}"
        );
    }

    #[test]
    fn theta_zero_is_uniform() {
        assert!(matches!(KeyDist::zipf(10, 0.0), KeyDist::Uniform { n: 10 }));
    }

    #[test]
    #[should_panic(expected = "theta must be positive and != 1")]
    fn theta_one_rejected() {
        ZipfGen::new(10, 1.0);
    }

    #[test]
    fn large_keyspace_constructs_quickly() {
        // 8M keys (the paper's object count) must not take seconds.
        let start = std::time::Instant::now();
        let z = ZipfGen::new(8_000_000, 0.99);
        assert!(start.elapsed().as_secs() < 2);
        let mut rng = SimRng::new(5);
        assert!(z.sample(&mut rng) < 8_000_000);
    }
}
