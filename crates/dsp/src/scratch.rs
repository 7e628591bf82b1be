//! Reusable DSP workspace for the steady-state decode loop.
//!
//! The hot path of the receiver — de-chirp, FFT, fold, signal-vector
//! accumulation — runs once or more per symbol per packet. Allocating
//! fresh buffers for every call dominates small-symbol workloads and
//! fragments the heap under sustained load, so every per-symbol buffer
//! lives in a [`DspScratch`] that the caller owns and reuses.
//!
//! A `DspScratch` is deliberately *not* `Sync`: each worker thread of the
//! parallel receiver owns its own scratch, so the hot loop never takes a
//! lock. Construction is cheap (empty vectors, no plans); plans and
//! buffers grow lazily to the largest size seen and are then reused
//! indefinitely.

use crate::complex::Complex32;
use crate::fft::FftPlan;

/// Upper bound on vectors kept in the recycling pool, so a burst of
/// concurrent packets cannot pin an unbounded amount of memory.
const POOL_CAP: usize = 256;

/// Rotator tables kept by a [`RotatorMemo`]. One sync evaluation needs
/// one table, but Thrive interleaves a few packets (one CFO each) per
/// checking point, so a single slot would thrash there.
const ROT_SLOTS: usize = 8;

/// Fills `rot` with the CFO-removal rotator `e^{-j2π·δ·n/L}` for
/// `n in 0..l`, `δ = cfo_cycles` (phase accumulated in `f64`, as
/// everywhere else). Capacity is reused across calls.
pub fn fill_rotator(l: usize, cfo_cycles: f64, rot: &mut Vec<Complex32>) {
    let step = -2.0 * std::f64::consts::PI * cfo_cycles / l as f64;
    rot.clear();
    rot.extend((0..l).map(|n| Complex32::from_phase(step * n as f64)));
}

/// Memo of the last few rotator tables built by [`fill_rotator`], keyed
/// by `(L, δ)` and evicted round-robin.
///
/// A table costs `L` `f64` `sin_cos` calls, and the decode loop asks for
/// the same few over and over: the ten preamble windows of one sync
/// evaluation share a CFO, SigCalc's windows share their packet's CFO,
/// and the detector's downchirp scan always asks for `δ = 0`. The key is
/// the exact bit pattern of `δ`, so a hit returns the very table a fresh
/// fill would build. Slots keep their capacity, so a warm memo never
/// allocates.
#[derive(Debug, Default)]
pub struct RotatorMemo {
    keys: [Option<(usize, u64)>; ROT_SLOTS],
    tables: [Vec<Complex32>; ROT_SLOTS],
    next: usize,
}

impl RotatorMemo {
    /// The rotator of length `len` for `cfo_cycles`, filled on a miss.
    pub fn get(&mut self, len: usize, cfo_cycles: f64) -> &[Complex32] {
        let key = Some((len, cfo_cycles.to_bits()));
        let slot = match self.keys.iter().position(|k| *k == key) {
            Some(i) => i,
            None => {
                let i = self.next;
                self.next = (i + 1) % ROT_SLOTS;
                fill_rotator(len, cfo_cycles, &mut self.tables[i]);
                self.keys[i] = key;
                i
            }
        };
        &self.tables[slot]
    }
}

/// Cache of [`FftPlan`]s keyed by transform size.
///
/// LoRa processing only ever uses a handful of sizes (`2^SF · OSF` for
/// the spreading factors in play), so a linear scan over a small vector
/// beats a hash map here.
#[derive(Debug, Default)]
pub struct FftPlanCache {
    plans: Vec<FftPlan>,
}

impl FftPlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        FftPlanCache::default()
    }

    /// Returns the plan for `size`, building it on first use.
    ///
    /// # Panics
    /// Panics if `size` is zero or not a power of two (see
    /// [`FftPlan::new`]).
    pub fn get(&mut self, size: usize) -> &FftPlan {
        if let Some(i) = self.plans.iter().position(|p| p.size() == size) {
            return &self.plans[i];
        }
        self.plans.push(FftPlan::new(size));
        let last = self.plans.len() - 1;
        &self.plans[last]
    }

    /// Number of distinct sizes planned so far.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plans have been built yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// Reusable buffers and cached FFT plans for one decoding thread.
///
/// The public buffer fields are working storage with no invariants: any
/// routine may clear and refill them. The only contract is temporal —
/// a routine that takes `&mut DspScratch` may clobber every buffer, so
/// callers must not hold data in the scratch across such a call. Within
/// the workspace:
///
/// - `cbuf` holds the current de-chirped window / in-place FFT,
/// - `cacc_a` / `cacc_b` hold coherent *time-domain* sums (the
///   fractional-sync search sums the carried up- and down-chirp windows
///   before one de-chirp and FFT per direction),
/// - `fbuf` holds a folded length-`N` signal vector,
/// - `fsel` holds a reorderable copy of a signal vector (the detector's
///   per-window median selects in place on it),
/// - `rot` memoizes CFO-rotator tables (private keys, so its contents
///   always match them).
#[derive(Debug, Default)]
pub struct DspScratch {
    /// FFT plans keyed by size, built on first use.
    pub plans: FftPlanCache,
    /// Complex working buffer (de-chirped window, in-place FFT).
    pub cbuf: Vec<Complex32>,
    /// Complex accumulator A (e.g. summed up-chirp windows).
    pub cacc_a: Vec<Complex32>,
    /// Complex accumulator B (e.g. summed down-chirp windows).
    pub cacc_b: Vec<Complex32>,
    /// CFO-rotator tables (`e^{-j2πδn/L}`), built once per `(L, δ)`.
    pub rot: RotatorMemo,
    /// Real working buffer (folded signal vector).
    pub fbuf: Vec<f32>,
    /// Real selection buffer (a copy of `fbuf` that a median may reorder).
    pub fsel: Vec<f32>,
    pool: Vec<Vec<f32>>,
    pool_hits: u64,
    pool_misses: u64,
}

impl DspScratch {
    /// Creates an empty scratch; buffers and plans grow on first use.
    pub fn new() -> Self {
        DspScratch::default()
    }

    /// Takes a zeroed `f32` vector of length `len` from the recycling
    /// pool, allocating only when the pool is empty.
    pub fn take_f32(&mut self, len: usize) -> Vec<f32> {
        match self.pool.pop() {
            Some(mut v) => {
                self.pool_hits += 1;
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => {
                self.pool_misses += 1;
                vec![0.0; len]
            }
        }
    }

    /// Returns a vector to the recycling pool for a later
    /// [`take_f32`](Self::take_f32). Vectors beyond the pool cap are
    /// dropped.
    pub fn recycle_f32(&mut self, v: Vec<f32>) {
        if v.capacity() > 0 && self.pool.len() < POOL_CAP {
            self.pool.push(v);
        }
    }

    /// Cumulative `(hits, misses)` of [`take_f32`](Self::take_f32) over
    /// this scratch's lifetime: a hit reused a pooled allocation, a miss
    /// allocated. Observability reads the delta around a decode to report
    /// pool effectiveness.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool_hits, self.pool_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_cache_reuses_plans() {
        let mut c = FftPlanCache::new();
        assert!(c.is_empty());
        let p1 = c.get(256) as *const FftPlan;
        let p2 = c.get(256) as *const FftPlan;
        assert_eq!(p1, p2);
        assert_eq!(c.get(256).size(), 256);
        c.get(1024);
        assert_eq!(c.len(), 2);
        // The original plan is still served for its size.
        assert_eq!(c.get(256).size(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn plan_cache_rejects_bad_size() {
        FftPlanCache::new().get(48);
    }

    #[test]
    fn rotator_memo_hits_reuse_the_cached_table() {
        let mut m = RotatorMemo::default();
        let first = m.get(64, 0.3).as_ptr();
        for i in 1..ROT_SLOTS {
            m.get(64, i as f64);
        }
        // The memo is full; a hit neither refills nor evicts a slot.
        assert_eq!(m.get(64, 0.3).as_ptr(), first);
        assert_eq!(m.next, 0);
    }

    #[test]
    fn pool_recycles_allocations() {
        let mut s = DspScratch::new();
        let v = s.take_f32(64);
        assert_eq!(v.len(), 64);
        let ptr = v.as_ptr();
        s.recycle_f32(v);
        assert_eq!(s.pool.len(), 1);
        // Same (or smaller) length reuses the same allocation.
        let v2 = s.take_f32(32);
        assert_eq!(v2.as_ptr(), ptr);
        assert_eq!(v2.len(), 32);
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(s.pool.len(), 0);
    }

    #[test]
    fn pool_is_bounded() {
        let mut s = DspScratch::new();
        for _ in 0..(POOL_CAP + 10) {
            s.recycle_f32(vec![0.0; 8]);
        }
        assert_eq!(s.pool.len(), POOL_CAP);
        // Zero-capacity vectors are not worth pooling.
        let before = s.pool.len();
        s.recycle_f32(Vec::new());
        assert_eq!(s.pool.len(), before);
    }
}
