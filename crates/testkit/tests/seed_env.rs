//! PRISM_TEST_SEED end-to-end: the env var moves every property's case
//! stream without shortening it, and re-running under the value a
//! failure ran at reproduces it exactly. Kept as its own integration
//! binary because the env var is process-global — this file must stay a
//! single `#[test]` so no parallel test races the variable.

use std::cell::Cell;

use prism_testkit::{for_all_result, gens, runner::SEED_ENV, seed_or, Config, Source};

#[test]
fn env_seed_reproduces_identical_input() {
    let gen = gens::vec(gens::range_u64(0..100_000), 1..32);
    let cfg = Config::with_cases(64);
    let prop = |v: &Vec<u64>| assert!(v.iter().sum::<u64>() < 50_000);

    // Unset and `0` are the same point.
    std::env::remove_var(SEED_ENV);
    let unset = for_all_result("seed_env", &cfg, &gen, prop).expect("property must fail");
    std::env::set_var(SEED_ENV, "0");
    let zero = for_all_result("seed_env", &cfg, &gen, prop).expect("property must fail");
    assert_eq!((zero.case, zero.seed), (unset.case, unset.seed));

    // A value moves the stream; re-running under it, decimal or hex,
    // reaches the same case, input and shrink.
    std::env::set_var(SEED_ENV, "1806242025");
    assert_eq!(seed_or(0), 1_806_242_025);
    let moved = for_all_result("seed_env", &cfg, &gen, prop).expect("property must fail");
    assert_ne!(moved.seed, unset.seed);
    std::env::set_var(SEED_ENV, "0x6BA910E9");
    let replay = for_all_result("seed_env", &cfg, &gen, prop).expect("replay must fail");
    assert_eq!((replay.case, replay.seed), (moved.case, moved.seed));
    assert_eq!(replay.original, moved.original, "identical input bytes");
    assert_eq!(replay.minimal, moved.minimal, "identical shrink result");

    // Every configured case runs under the value.
    let runs = Cell::new(0u32);
    let pass = for_all_result("seed_env_passing", &cfg, &gen, |_| runs.set(runs.get() + 1));
    assert!(pass.is_none());
    assert_eq!(runs.get(), cfg.cases);

    std::env::remove_var(SEED_ENV);

    // Sanity: the case seed alone regenerates the input without the runner.
    let direct = gen.generate(&mut Source::new(moved.seed));
    assert_eq!(direct, moved.original);
}
