//! The three closed-loop workloads, their seeded inputs, and the
//! protected record every critical section touches.

use oll_util::{CachePadded, XorShift64};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One closed-loop workload: each thread issues its next acquisition only
/// when its previous release returns, with no work outside the critical
/// section (the paper's §5.1 loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 thread, 50% reads: the read and write fast paths only.
    Uncontended,
    /// 2 threads, 99% reads: C-SNZI arrivals under reader overlap.
    ReadMostly,
    /// 2 threads, 80% reads: queue hand-off and C-SNZI close/open.
    Mixed,
}

impl Workload {
    /// Parses a workload name as the command line spells it.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "uncontended" => Some(Self::Uncontended),
            "read_mostly" => Some(Self::ReadMostly),
            "mixed" => Some(Self::Mixed),
            _ => None,
        }
    }

    /// Worker threads.
    pub fn threads(self) -> usize {
        match self {
            Self::Uncontended => 1,
            Self::ReadMostly | Self::Mixed => 2,
        }
    }

    /// Percentage of acquisitions that are reads.
    pub fn read_pct(self) -> u32 {
        match self {
            Self::Uncontended => 50,
            Self::ReadMostly => 99,
            Self::Mixed => 80,
        }
    }
}

/// Length of a thread's operation sequence; the thread cycles through it.
const OPS_LEN: usize = 1 << 16;

/// One thread's read/write sequence, drawn from the seed.
pub struct Ops {
    bits: Vec<u64>,
}

impl Ops {
    /// The sequence of thread `tid` for `seed`: bit `i` is set when the
    /// thread's `i`-th operation is a read.
    pub fn new(seed: u64, tid: usize, read_pct: u32) -> Self {
        let mut rng = XorShift64::for_thread(seed, tid);
        let mut bits = vec![0u64; OPS_LEN / 64];
        for i in 0..OPS_LEN {
            if rng.percent(read_pct) {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        Self { bits }
    }

    /// Whether operation `i` is a read.
    #[inline(always)]
    pub fn is_read(&self, i: usize) -> bool {
        let i = i % OPS_LEN;
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }
}

/// The protected two-word record. Writers increment both words; readers
/// check that the words are equal. The words are atomics only so that a
/// broken lock shows up as a failed check rather than undefined
/// behaviour: every access is a plain load or store, ordered by the lock.
#[derive(Default)]
pub struct Record {
    words: CachePadded<[AtomicU64; 2]>,
}

impl Record {
    /// A reader's check: both words equal.
    #[inline(always)]
    pub fn read_ok(&self) -> bool {
        self.words[0].load(Relaxed) == self.words[1].load(Relaxed)
    }

    /// A writer's update: checks the words are equal, then increments
    /// both. Returns the check.
    #[inline(always)]
    pub fn write_ok(&self) -> bool {
        let a = self.words[0].load(Relaxed);
        self.words[0].store(a + 1, Relaxed);
        let b = self.words[1].load(Relaxed);
        self.words[1].store(b + 1, Relaxed);
        a == b
    }

    /// Whether the record counts exactly `writes` writes.
    pub fn holds(&self, writes: u64) -> bool {
        self.words[0].load(Relaxed) == writes && self.words[1].load(Relaxed) == writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = Ops::new(7, 1, 80);
        let b = Ops::new(7, 1, 80);
        let c = Ops::new(8, 1, 80);
        assert_eq!(a.bits, b.bits);
        assert_ne!(a.bits, c.bits);
        let reads = (0..OPS_LEN).filter(|&i| a.is_read(i)).count();
        assert!((reads as f64 / OPS_LEN as f64 - 0.8).abs() < 0.01);
    }

    #[test]
    fn a_record_counts_its_writes() {
        let r = Record::default();
        assert!(r.read_ok());
        assert!(r.write_ok() && r.write_ok());
        assert!(r.holds(2) && !r.holds(3));
    }
}
