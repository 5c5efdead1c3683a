//! Bit-packed occupancy words.
//!
//! [`check_hss`](crate::gen::check_hss) asks one question over and over:
//! *how many of these `H` consecutive positions are nonzero?* Packing a
//! row's occupancy into `u64` words answers it with masked
//! `count_ones()` popcounts — 64 positions per step — instead of a
//! branch per element. `check_hss` is the only user; the format encoders
//! compact values branch-free without a bitmap.

/// Packs the occupancy of `values` into `occ` (bit `i` set iff
/// `values[i] != 0.0`). Resizes and clears `occ` as needed.
pub fn pack_occupancy(values: &[f32], occ: &mut Vec<u64>) {
    occ.clear();
    occ.resize(values.len().div_ceil(64), 0);
    for (w, chunk) in values.chunks(64).enumerate() {
        let mut bits = 0u64;
        for (i, &v) in chunk.iter().enumerate() {
            bits |= u64::from(v != 0.0) << i;
        }
        occ[w] = bits;
    }
}

/// Popcount of the bit range `bits[start..start + len]` (`len >= 1`).
///
/// # Panics
/// Panics (via slice indexing) if the range exceeds the bitmap.
pub fn popcount_range(bits: &[u64], start: usize, len: usize) -> u32 {
    let end = start + len;
    let (sw, ew) = (start / 64, (end - 1) / 64);
    if sw == ew {
        let mask = if len == 64 {
            u64::MAX
        } else {
            (u64::MAX >> (64 - len)) << (start % 64)
        };
        return (bits[sw] & mask).count_ones();
    }
    let mut n = (bits[sw] >> (start % 64)).count_ones();
    for &w in &bits[sw + 1..ew] {
        n += w.count_ones();
    }
    let rem = end - ew * 64; // in 1..=64 by construction
    n += (bits[ew] << (64 - rem) >> (64 - rem)).count_ones();
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_count(values: &[f32], start: usize, len: usize) -> u32 {
        values[start..start + len]
            .iter()
            .filter(|&&v| v != 0.0)
            .count() as u32
    }

    #[test]
    fn pack_and_popcount_match_naive_on_awkward_spans() {
        // 130 values: crosses two word boundaries.
        let values: Vec<f32> = (0..130)
            .map(|i| if i % 3 == 0 || i % 7 == 0 { 1.0 } else { 0.0 })
            .collect();
        let mut occ = Vec::new();
        pack_occupancy(&values, &mut occ);
        for (start, len) in [
            (0, 130),
            (0, 64),
            (63, 2),
            (60, 70),
            (64, 64),
            (129, 1),
            (5, 59),
        ] {
            assert_eq!(
                popcount_range(&occ, start, len),
                naive_count(&values, start, len),
                "span ({start},{len})"
            );
        }
    }

    #[test]
    fn negative_zero_counts_as_zero() {
        let mut occ = Vec::new();
        pack_occupancy(&[-0.0, 0.0, 1.0], &mut occ);
        assert_eq!(popcount_range(&occ, 0, 3), 1);
    }
}
