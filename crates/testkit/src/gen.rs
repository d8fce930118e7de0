//! Generator combinators.
//!
//! A [`Gen<T>`] is a (shared, cloneable) function from a [`Source`] of
//! choices to a value. Because every value is a pure function of the
//! drawn choice sequence, the runner shrinks *choices*, not values, and
//! every combinator — including [`Gen::map`] and [`gens::one_of`] —
//! shrinks for free: replaying a smaller choice sequence yields a
//! smaller value (choice 0 is always each combinator's minimum).

use std::ops::Range;
use std::rc::Rc;

use crate::source::{GiveUp, Source};

/// How many fresh draws [`Gen::filter`] attempts before abandoning the
/// case. Mirrors proptest's global filter give-up behavior.
const FILTER_RETRIES: usize = 100;

/// A generator of `T` values from a choice [`Source`].
pub struct Gen<T> {
    f: Rc<dyn Fn(&mut Source) -> T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            f: Rc::clone(&self.f),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// Wraps a raw generation function.
    pub fn new(f: impl Fn(&mut Source) -> T + 'static) -> Self {
        Gen { f: Rc::new(f) }
    }

    /// Produces a value from `src`.
    pub fn generate(&self, src: &mut Source) -> T {
        (self.f)(src)
    }

    /// Transforms generated values. Shrinking passes through unchanged:
    /// the underlying choices shrink, and the mapped value follows.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::new(move |src| f(self.generate(src)))
    }

    /// Keeps only values satisfying `pred`, redrawing on rejection. After
    /// `FILTER_RETRIES` consecutive rejections the case is abandoned
    /// (skipped, not failed). Prefer `map`-based constructions where
    /// possible — filters slow generation and fight the shrinker.
    pub fn filter(self, pred: impl Fn(&T) -> bool + 'static) -> Gen<T> {
        Gen::new(move |src| {
            for _ in 0..FILTER_RETRIES {
                let v = self.generate(src);
                if pred(&v) {
                    return v;
                }
            }
            std::panic::panic_any(GiveUp("filter retries exhausted"));
        })
    }
}

/// The built-in generators.
pub mod gens {
    use super::*;

    /// Full-range `u64` (the raw choice).
    pub fn u64s() -> Gen<u64> {
        Gen::new(|src| src.draw())
    }

    /// Full-range `u32`.
    pub fn u32s() -> Gen<u32> {
        Gen::new(|src| src.draw() as u32)
    }

    /// Full-range `u8`.
    pub fn u8s() -> Gen<u8> {
        Gen::new(|src| src.draw() as u8)
    }

    /// `bool`, false at the minimal choice.
    pub fn bools() -> Gen<bool> {
        Gen::new(|src| src.draw() & 1 == 1)
    }

    /// `u64` in `[r.start, r.end)`.
    ///
    /// # Panics
    ///
    /// Panics at generation time if the range is empty.
    pub fn range_u64(r: Range<u64>) -> Gen<u64> {
        Gen::new(move |src| r.start + src.draw_below(r.end - r.start))
    }

    /// `u32` in `[r.start, r.end)`.
    pub fn range_u32(r: Range<u32>) -> Gen<u32> {
        range_u64(r.start as u64..r.end as u64).map(|v| v as u32)
    }

    /// `usize` in `[r.start, r.end)`.
    pub fn range_usize(r: Range<usize>) -> Gen<usize> {
        range_u64(r.start as u64..r.end as u64).map(|v| v as usize)
    }

    /// `f64` uniform in `[lo, hi)`, `lo` at the minimal choice.
    pub fn range_f64(lo: f64, hi: f64) -> Gen<f64> {
        Gen::new(move |src| {
            // 53 mantissa bits, exactly like SimRng::gen_f64.
            let unit = (src.draw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            lo + unit * (hi - lo)
        })
    }

    /// Always `v`.
    pub fn constant<T: Clone + 'static>(v: T) -> Gen<T> {
        Gen::new(move |_| v.clone())
    }

    /// `Vec<T>` with a length drawn from `len` then that many elements.
    /// Shrinking zeroes trailing elements and shortens the length.
    pub fn vec<T: 'static>(elem: Gen<T>, len: Range<usize>) -> Gen<Vec<T>> {
        let len_gen = range_usize(len);
        Gen::new(move |src| {
            let n = len_gen.generate(src);
            (0..n).map(|_| elem.generate(src)).collect()
        })
    }

    /// `Vec<T>` of exactly `n` elements.
    pub fn vec_exact<T: 'static>(elem: Gen<T>, n: usize) -> Gen<Vec<T>> {
        Gen::new(move |src| (0..n).map(|_| elem.generate(src)).collect())
    }

    /// Picks one alternative uniformly; the first is the minimal one
    /// (shrinking steers toward it).
    ///
    /// # Panics
    ///
    /// Panics if `alts` is empty.
    pub fn one_of<T: 'static>(alts: Vec<Gen<T>>) -> Gen<T> {
        assert!(!alts.is_empty(), "one_of: no alternatives");
        Gen::new(move |src| {
            let i = src.draw_below(alts.len() as u64) as usize;
            alts[i].generate(src)
        })
    }

    /// Picks one of the listed values, the first being minimal.
    pub fn choice<T: Clone + 'static>(vals: Vec<T>) -> Gen<T> {
        assert!(!vals.is_empty(), "choice: no alternatives");
        Gen::new(move |src| vals[src.draw_below(vals.len() as u64) as usize].clone())
    }

    /// `Option<T>`: `None` at the minimal choice.
    pub fn option<T: 'static>(inner: Gen<T>) -> Gen<Option<T>> {
        Gen::new(move |src| {
            if src.draw() & 1 == 1 {
                Some(inner.generate(src))
            } else {
                None
            }
        })
    }

    macro_rules! tuple_gen {
        ($name:ident, $($g:ident: $T:ident),+) => {
            /// Tuple of independently generated components.
            #[allow(clippy::too_many_arguments)]
            pub fn $name<$($T: 'static),+>($($g: Gen<$T>),+) -> Gen<($($T),+)> {
                Gen::new(move |src| ($($g.generate(src)),+))
            }
        };
    }

    tuple_gen!(t2, a: A, b: B);
    tuple_gen!(t3, a: A, b: B, c: C);
    tuple_gen!(t4, a: A, b: B, c: C, d: D);
    tuple_gen!(t5, a: A, b: B, c: C, d: D, e: E);
    tuple_gen!(t6, a: A, b: B, c: C, d: D, e: E, f: F);
    tuple_gen!(t7, a: A, b: B, c: C, d: D, e: E, f: F, g: G);
    tuple_gen!(t8, a: A, b: B, c: C, d: D, e: E, f: F, g: G, h: H);
    tuple_gen!(t9, a: A, b: B, c: C, d: D, e: E, f: F, g: G, h: H, i: I);
    tuple_gen!(t10, a: A, b: B, c: C, d: D, e: E, f: F, g: G, h: H, i: I, j: J);
}

#[cfg(test)]
mod tests {
    use super::gens;
    use crate::source::Source;

    #[test]
    fn ranges_respect_bounds() {
        let g = gens::range_u64(10..20);
        let mut src = Source::new(1);
        for _ in 0..1000 {
            let v = g.generate(&mut src);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn zero_choices_give_minimal_values() {
        let mut src = Source::replaying(vec![]);
        assert_eq!(gens::range_u64(5..9).generate(&mut src), 5);
        assert!(!gens::bools().generate(&mut src));
        assert_eq!(gens::vec(gens::u8s(), 0..7).generate(&mut src), vec![]);
        assert_eq!(gens::range_f64(2.5, 9.0).generate(&mut src), 2.5);
    }

    #[test]
    fn map_and_one_of_compose() {
        let g = gens::one_of(vec![
            gens::range_u64(0..10).map(|v| v as i64),
            gens::range_u64(0..10).map(|v| -(v as i64)),
        ]);
        let mut src = Source::new(3);
        for _ in 0..100 {
            assert!(g.generate(&mut src).abs() < 10);
        }
    }

    #[test]
    fn same_seed_same_values() {
        let g = gens::vec(gens::u64s(), 1..50);
        let a = g.generate(&mut Source::new(9));
        let b = g.generate(&mut Source::new(9));
        assert_eq!(a, b);
    }
}
