//! Golden key streams: the first 10 000 `KeyDist::sample` draws at a
//! fixed `SimRng` seed, folded through FNV-1a, and the `Debug` rendering
//! of the `ZipfGen` that produced them — Rust prints an `f64` as the
//! shortest decimal that round-trips, so the string pins the bit pattern
//! of every derived constant (`alpha`, `zetan`, `eta`,
//! `half_pow_theta`). A change to how those constants are computed,
//! stored or looked up that moves one bit fails here rather than as a
//! drifted fingerprint three layers up. To re-pin after a deliberate
//! change to the generator, run with `--nocapture`: a mismatch prints
//! the whole table.

use prism_simnet::rng::SimRng;
use prism_workload::dist::{KeyDist, ZipfGen};

const DRAWS: usize = 10_000;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fold_keys(n: u64, theta: f64, seed: u64) -> u64 {
    let dist = KeyDist::zipf(n, theta);
    let mut rng = SimRng::new(seed);
    let mut h = FNV_OFFSET;
    for _ in 0..DRAWS {
        fnv1a(&mut h, &dist.sample(&mut rng).to_le_bytes());
    }
    h
}

/// `(n, theta, seed, fold of the draws, Debug of the generator)`.
/// `(262_144, 0.8)` is `sim_tx_closed`'s distribution, `(262_144, 0.99)`
/// `live_kv_ycsb_a`'s; `8_000_000` is past the 1 000 000-term crossover,
/// so its `zetan` comes from the Euler–Maclaurin branch.
#[rustfmt::skip]
const GOLDEN: [(u64, f64, u64, u64, &str); 5] = [
    (262_144, 0.8, 42, 0xA8BC352314A6F385, "ZipfGen { n: 262144, theta: 0.8, alpha: 5.000000000000001, zetan: 56.19114737250843, eta: 0.9313623874590723, half_pow_theta: 0.5743491774985174 }"),
    (262_144, 0.99, 43, 0x876B0EB9D78179B6, "ZipfGen { n: 262144, theta: 0.99, alpha: 99.99999999999991, zetan: 13.864877712655083, eta: 0.12467703013158969, half_pow_theta: 0.5034777750283594 }"),
    (1_000, 0.5, 44, 0x00DC82E7313B6FC7, "ZipfGen { n: 1000, theta: 0.5, alpha: 2.0, zetan: 61.80100876524318, eta: 0.9824155477100374, half_pow_theta: 0.7071067811865476 }"),
    (37, 1.5, 45, 0x7E6362B7DC1DAE1C, "ZipfGen { n: 37, theta: 1.5, alpha: -2.0, zetan: 2.2857839727452487, eta: -8.094289957437146, half_pow_theta: 0.3535533905932738 }"),
    (8_000_000, 0.99, 46, 0x73B26D85CF40524A, "ZipfGen { n: 8000000, theta: 0.99, alpha: 99.99999999999991, zetan: 17.80436406783416, eta: 0.15403457085438832, half_pow_theta: 0.5034777750283594 }"),
];

#[test]
fn key_streams_and_constants_match_the_pinned_values() {
    let got: Vec<(u64, String)> = GOLDEN
        .iter()
        .map(|&(n, theta, seed, _, _)| {
            (
                fold_keys(n, theta, seed),
                format!("{:?}", ZipfGen::new(n, theta)),
            )
        })
        .collect();
    let same = GOLDEN
        .iter()
        .zip(&got)
        .all(|(&(_, _, _, fold, debug), (f, d))| fold == *f && debug == d);
    if !same {
        for (&(n, theta, seed, _, _), (f, d)) in GOLDEN.iter().zip(&got) {
            println!("    ({n}, {theta:?}, {seed}, {f:#018X}, {d:?}),");
        }
        panic!("golden key streams moved (table above is what this build produces)");
    }
}
