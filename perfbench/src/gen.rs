//! Seeded input generation. Every input a workload feeds the program is
//! drawn from a [`Rng`] seeded by `--seed`, so one seed always yields the
//! same inputs and the program never sees anything else.

use std::collections::HashSet;

/// SplitMix64: a small, fast, well-mixed generator. Not cryptographic;
/// it only has to make benchmark inputs reproducible from a seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from its neighbours by
    /// `stream` (each workload part draws from its own stream).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Pruning degrees for cold serving writes: every degree it returns is
/// new to the run and none is a reserved degree (one the warm reads
/// use), so a write can never be answered from a cache entry a read or
/// an earlier write filled. Degrees lie on a [`DEGREE_STEP`] grid, and a
/// reserved degree blocks its whole grid cell.
#[derive(Debug)]
pub struct WriteDegrees {
    rng: Rng,
    used: HashSet<i64>,
}

/// Resolution of generated write degrees: fine enough that a run never
/// runs out of fresh values, coarse enough that the JSON text of a
/// degree parses back to exactly the same `f64`.
const DEGREE_STEP: f64 = 1e-6;

fn cell(degree: f64) -> i64 {
    (degree / DEGREE_STEP).round() as i64
}

impl WriteDegrees {
    /// A generator seeded from the run seed that never returns a degree
    /// in `reserved`.
    pub fn new(seed: u64, reserved: impl IntoIterator<Item = f64>) -> Self {
        Self {
            rng: Rng::new(seed, 0x5752_4954),
            used: reserved.into_iter().map(cell).collect(),
        }
    }

    /// The next never-returned, unreserved degree in `[0.10, 0.90)`.
    pub fn next_degree(&mut self) -> f64 {
        let (lo, hi) = (cell(0.10), cell(0.90));
        loop {
            let k = lo + self.rng.below((hi - lo) as usize) as i64;
            if self.used.insert(k) {
                return k as f64 * DEGREE_STEP;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut r = Rng::new(3, 0);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            Rng::new(seed, 9).shuffle(&mut v);
            v
        };
        let a = shuffled(1);
        assert_eq!(a, shuffled(1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn write_degrees_never_repeat_and_avoid_reserved_degrees() {
        let reserved = [0.125, 0.375, 0.45, 0.625];
        let mut gen = WriteDegrees::new(42, reserved);
        let mut seen = HashSet::new();
        for _ in 0..100_000 {
            let d = gen.next_degree();
            assert!((0.10..0.90).contains(&d));
            assert!(reserved.iter().all(|r| (r - d).abs() > DEGREE_STEP / 2.0));
            // The wire text parses back to the very same key.
            assert_eq!(d.to_string().parse::<f64>().unwrap().to_bits(), d.to_bits());
            assert!(seen.insert(d.to_bits()), "{d} repeated");
        }
        let replay: Vec<f64> = {
            let mut g = WriteDegrees::new(42, reserved);
            (0..100).map(|_| g.next_degree()).collect()
        };
        let mut g = WriteDegrees::new(42, reserved);
        assert!(replay.iter().all(|&d| d == g.next_degree()));
        // With every cell but one reserved, that one is all it returns.
        let lo = cell(0.10);
        let hi = cell(0.90);
        let free = lo + 12_345;
        let mut g = WriteDegrees::new(
            7,
            (lo..hi)
                .filter(|&k| k != free)
                .map(|k| k as f64 * DEGREE_STEP),
        );
        assert_eq!(cell(g.next_degree()), free);
    }
}
