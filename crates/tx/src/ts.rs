//! Transaction timestamps: `(clock_time, client id)` pairs from loosely
//! synchronized logical clocks (§8.2, following Meerkat \[38\] and
//! TAPIR-style timestamp ordering \[1, 40, 46\]).
//!
//! Like PRISM-RS tags, timestamps pack into a u64 (48-bit clock, 16-bit
//! client id) stored **big-endian**, so the enhanced CAS's arithmetic
//! comparison orders them correctly, including across the concatenated
//! `PW|PR` and `RC|TS` fields of the single-CAS read validation.

/// A transaction timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ts {
    /// Logical clock time (48 bits used).
    pub clock: u64,
    /// Client id (ensures uniqueness, §8.2).
    pub cid: u16,
}

impl Ts {
    /// The zero timestamp (initial version of every key).
    pub const ZERO: Ts = Ts { clock: 0, cid: 0 };

    /// Packs into a u64 whose numeric order equals timestamp order.
    ///
    /// # Panics
    ///
    /// Panics on 48-bit clock overflow.
    pub fn pack(self) -> u64 {
        assert!(self.clock < (1 << 48), "timestamp clock overflow");
        (self.clock << 16) | self.cid as u64
    }

    /// Inverse of [`Ts::pack`].
    pub fn unpack(v: u64) -> Ts {
        Ts {
            clock: v >> 16,
            cid: (v & 0xFFFF) as u16,
        }
    }

    /// Big-endian bytes as stored in server memory.
    pub fn to_bytes(self) -> [u8; 8] {
        self.pack().to_be_bytes()
    }

    /// Reads a timestamp from server-memory bytes.
    ///
    /// # Panics
    ///
    /// Panics if `b` is shorter than 8 bytes.
    pub fn from_bytes(b: &[u8]) -> Ts {
        Ts::unpack(u64::from_be_bytes(b[..8].try_into().expect("8 bytes")))
    }
}

/// A client's loosely synchronized logical clock (§8.2).
///
/// The clock only moves forward; [`TxClock::timestamp_for`] implements
/// Meerkat's rule that a transaction's timestamp must exceed every
/// version it read, and [`TxClock::observe`] pulls the clock forward
/// past timestamps other clients expose (returned in CAS old values),
/// which keeps retries from aborting forever behind a fast peer.
#[derive(Debug, Clone)]
pub struct TxClock {
    clock: u64,
    cid: u16,
}

impl TxClock {
    /// A clock for client `cid` starting at `start` (a real deployment
    /// seeds this from the machine clock; tests and the simulator use
    /// small integers).
    pub fn new(cid: u16, start: u64) -> Self {
        TxClock { clock: start, cid }
    }

    /// The client id.
    pub fn cid(&self) -> u16 {
        self.cid
    }

    /// Picks the commit timestamp for a transaction whose largest read
    /// version is `max_rc`: strictly above both the local clock and
    /// every version read (§8.2: "adjusted such that TS > RC for all
    /// RCs").
    pub fn timestamp_for(&mut self, max_rc: Ts) -> Ts {
        self.clock = self.clock.max(max_rc.clock) + 1;
        Ts {
            clock: self.clock,
            cid: self.cid,
        }
    }

    /// Advances the clock past an observed remote timestamp.
    pub fn observe(&mut self, other: Ts) {
        self.clock = self.clock.max(other.clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_and_orders() {
        let a = Ts { clock: 1, cid: 9 };
        let b = Ts { clock: 2, cid: 0 };
        assert_eq!(Ts::unpack(a.pack()), a);
        assert!(a.pack() < b.pack());
        assert!(a.to_bytes() < b.to_bytes(), "byte order = numeric order");
    }

    #[test]
    fn timestamps_exceed_reads_and_monotone() {
        let mut c = TxClock::new(3, 0);
        let t1 = c.timestamp_for(Ts { clock: 10, cid: 1 });
        assert!(t1 > Ts { clock: 10, cid: 1 });
        let t2 = c.timestamp_for(Ts::ZERO);
        assert!(t2 > t1, "clock must be monotonic");
        assert_eq!(t2.cid, 3);
    }

    #[test]
    fn observe_pulls_clock_forward() {
        let mut c = TxClock::new(1, 0);
        c.observe(Ts { clock: 99, cid: 2 });
        let t = c.timestamp_for(Ts::ZERO);
        assert!(t.clock > 99);
    }

    #[test]
    fn same_clock_differs_by_cid() {
        let a = Ts { clock: 5, cid: 1 };
        let b = Ts { clock: 5, cid: 2 };
        assert_ne!(a.pack(), b.pack());
        assert!(a < b);
    }
}
