//! Host-speed calibration.
//!
//! The reference machine is a VM on a shared host whose speed changes in
//! phases lasting from under a second to over a minute: gates ran up to
//! 1.8 times faster or slower between runs, by CPU time as much as by
//! wall time. A fixed workload of the benchmark's own, which calls no
//! code of the repository, is timed every [`EVERY_S`] between gates. Its
//! time is scaled to [`NOMINAL_US`], its median on the reference machine,
//! and every reported time is scaled with it: a time reads as it would at
//! the reference speed. A change to the program still moves the scaled
//! times, since the calibration workload does not run it.
//!
//! The workload has a compute half and a memory half, because the host
//! slows them apart. Over ten 50 s runs per workload, the spread (IQR
//! over median) of the per-input p95 was 0.20 and 0.16 scaled by the
//! compute half alone, and 0.06 and 0.06 scaled by both; that of the
//! per-input p50 was 0.07 and 0.07 by the compute half alone, and 0.05
//! and 0.08 by both.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::rng::Rng;
use crate::stats::{Histogram, Series};

/// Median time of one [`sample_us`] on the reference machine, µs.
pub const NOMINAL_US: f64 = 650.0;
/// Seconds between two samples during a timed loop.
pub const EVERY_S: f64 = 0.02;
/// Entries in the ring the memory half walks: 4 MB, more than a core's
/// own caches hold, so each step waits on the shared cache or memory.
const RING: usize = 1 << 20;
/// Steps of one walk.
const STEPS: usize = 4000;

/// The compute half: string formatting, heap allocation and a B-tree,
/// the kind of work a gate does.
fn workload() -> u64 {
    let mut map = BTreeMap::new();
    for i in 0..256u64 {
        let key = format!("k{:08}", i.wrapping_mul(2_654_435_761) % 100_000);
        map.insert(key, vec![i; 8]);
    }
    map.iter().fold(0u64, |h, (k, v)| {
        h.wrapping_mul(31).wrapping_add(k.len() as u64 + v[0])
    })
}

/// The memory half's ring: `ring[i]` is the entry after `i` on one
/// cycle through every entry in a fixed shuffled order, so each step is a
/// dependent load the prefetcher cannot guess. Built on first use.
fn ring() -> &'static [u32] {
    static RING_CELL: OnceLock<Vec<u32>> = OnceLock::new();
    RING_CELL.get_or_init(|| {
        let mut order: Vec<u32> = (0..RING as u32).collect();
        Rng::new(1).shuffle(&mut order);
        let mut next = vec![0u32; RING];
        for (k, &at) in order.iter().enumerate() {
            next[at as usize] = order[(k + 1) % RING];
        }
        next
    })
}

/// One sample, µs: the geometric mean of four runs of the compute half
/// and one walk of [`STEPS`] through the ring. Each walk goes on from
/// where the last one stopped, so back-to-back samples do not find the
/// entries they load already cached.
pub fn sample_us() -> f64 {
    static AT: AtomicU32 = AtomicU32::new(0);
    let ring = ring();
    let t = Instant::now();
    for _ in 0..4 {
        black_box(workload());
    }
    let compute = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut at = AT.load(Ordering::Relaxed);
    for _ in 0..STEPS {
        at = ring[black_box(at) as usize];
    }
    AT.store(at, Ordering::Relaxed);
    let memory = t.elapsed().as_secs_f64();
    (compute * memory).sqrt() * 1e6
}

/// The scale of a time measured now: [`NOMINAL_US`] over the median of
/// `n` samples.
pub fn scale_now(n: usize) -> f64 {
    let mut s = Series::default();
    for _ in 0..n {
        s.push(sample_us());
    }
    NOMINAL_US / s.p50()
}

/// Host-speed samples taken during one timed loop.
#[derive(Debug)]
pub struct Clock {
    /// The last [`TRAIL`] samples, µs.
    recent: VecDeque<f64>,
    /// Every sample, µs.
    all: Histogram,
    next_s: f64,
    scale: f64,
}

/// Samples the current scale is the median of: the last 0.2 s. The
/// host's speed changes within a second, and a longer trail follows it
/// less closely (the per-input p95 spread doubled at 50 samples).
pub const TRAIL: usize = 10;

impl Default for Clock {
    fn default() -> Clock {
        Clock {
            recent: VecDeque::with_capacity(TRAIL + 1),
            all: Histogram::default(),
            next_s: 0.0,
            scale: 1.0,
        }
    }
}

impl Clock {
    /// Take a sample if [`EVERY_S`] has passed since the last one.
    pub fn tick(&mut self, now_s: f64) {
        if now_s >= self.next_s {
            self.record(sample_us());
            self.next_s = now_s + EVERY_S;
        }
    }

    pub fn record(&mut self, us: f64) {
        self.all.push(us);
        self.recent.push_back(us);
        if self.recent.len() > TRAIL {
            self.recent.pop_front();
        }
        let mut trail = Series::default();
        for &v in &self.recent {
            trail.push(v);
        }
        self.scale = NOMINAL_US / trail.p50();
    }

    /// The scale of a time measured now: [`NOMINAL_US`] over the median
    /// of the last [`TRAIL`] samples; 1 before the first.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Median sample of the loop, µs; [`NOMINAL_US`] when there is none.
    pub fn median_us(&self) -> f64 {
        if self.all.is_empty() {
            NOMINAL_US
        } else {
            self.all.p50()
        }
    }

    /// A clock that has taken one sample of `us` and takes no more.
    #[cfg(test)]
    pub fn fixed(us: f64) -> Clock {
        let mut c = Clock::default();
        c.record(us);
        c.next_s = f64::INFINITY;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_follows_the_trailing_median() {
        let mut c = Clock::default();
        assert_eq!(c.scale(), 1.0);
        c.record(2.0 * NOMINAL_US);
        assert_eq!(c.scale(), 0.5, "a host twice as slow halves times");
        for _ in 0..TRAIL / 2 + 1 {
            c.record(NOMINAL_US);
        }
        assert_eq!(c.scale(), 1.0, "the median, not the mean");
        for _ in 0..TRAIL {
            c.record(4.0 * NOMINAL_US);
        }
        assert_eq!(c.scale(), 0.25, "only the last TRAIL samples count");
        let median = Clock::fixed(NOMINAL_US).median_us();
        assert!((median / NOMINAL_US - 1.0).abs() < 5e-4, "{median}");
        assert_eq!(Clock::default().median_us(), NOMINAL_US);
    }

    #[test]
    fn the_ring_is_one_cycle_through_every_entry() {
        let ring = ring();
        let mut seen = vec![false; RING];
        let mut at = 0u32;
        for _ in 0..RING {
            assert!(!seen[at as usize], "entry {at} visited twice");
            seen[at as usize] = true;
            at = ring[at as usize];
        }
        assert_eq!(at, 0, "the walk closes after every entry");
    }

    #[test]
    fn samples_are_spaced() {
        let mut c = Clock::default();
        for k in 0..10 {
            c.tick(f64::from(k) * 0.007);
        }
        assert_eq!(c.all.len(), 4, "at 0, 0.021, 0.042 and 0.063 s");
        assert!(c.median_us() > 0.0);
    }
}
