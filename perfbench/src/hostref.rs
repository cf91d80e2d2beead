//! A fixed reference computation, timed before every round, that reads how
//! fast the host ran this process during the run.
//!
//! On a shared host every timing of a run moves with the host's speed: a
//! fast run is fast on every leg. The reference work is benchmark code no
//! change to the library can touch, and it allocates nothing, so a change
//! to the allocator or the engines leaves it alone. Timing metrics are
//! scaled by `NOMINAL_NS / measured`, which turns them into figures at the
//! reference host's nominal speed (see `README.md`).

use std::hint::black_box;
use std::time::Instant;

/// The reference work's host time at nominal speed: its typical reading,
/// pinned, on the 2-vCPU VM the benchmark's bounds were set on.
pub const NOMINAL_NS: f64 = 2.1e6;

const WORDS: usize = 1 << 16;

/// Scratch for the reference work, allocated once.
#[derive(Debug)]
pub struct HostRef {
    words: Vec<u64>,
    table: Vec<u64>,
}

impl Default for HostRef {
    fn default() -> Self {
        HostRef {
            words: vec![0; WORDS],
            table: vec![0; WORDS / 4],
        }
    }
}

impl HostRef {
    /// Runs the reference work once and returns its host time in ns:
    /// sort 64k pseudo-random words, chase pointers through them, and
    /// fill an open-addressed table — the branching and cache-missing mix
    /// of the measured engines.
    pub fn time_once(&mut self) -> u64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for w in &mut self.words {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        self.words.sort_unstable();
        let mask = WORDS - 1;
        let (mut idx, mut acc) = (0usize, 0u64);
        for _ in 0..WORDS {
            idx = (self.words[idx] as usize ^ idx) & mask;
            acc = acc.wrapping_add(self.words[idx]);
        }
        self.table.fill(0);
        let tmask = self.table.len() - 1;
        for &w in self.words.iter().step_by(8) {
            let mut slot = (w >> 7) as usize & tmask;
            while self.table[slot] != 0 && self.table[slot] != w {
                slot = (slot + 1) & tmask;
            }
            self.table[slot] = w;
        }
        black_box((acc, &self.table));
        t.elapsed().as_nanos() as u64
    }
}
