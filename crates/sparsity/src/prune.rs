//! DNN sparsification with HSS patterns (paper §4.2).
//!
//! A dense tensor is sparsified **rank-by-rank, lower-to-higher**:
//!
//! - at the lowest rank, the values with the smallest magnitude are pruned
//!   within each block of `H0`;
//! - at an intermediate rank, the coordinates whose fiber payloads have the
//!   smallest *scaled L2 norm* (the magnitude of the payload normalized by
//!   its size) are pruned within each group of `H`.
//!
//! The functions here operate on [`Matrix`] rows, matching how operand A's
//! flattened `K` dimension is blocked by the hardware. Unstructured
//! magnitude pruning is provided for the DSTC-like baseline.

use hl_fibertree::spec::Gh;
use hl_tensor::Matrix;

use crate::hss::HssPattern;

/// Sum of squared magnitudes of a slice, accumulated in slice order.
///
/// This is the raw comparison key the pruning kernels rank blocks by:
/// within one group every block has the same length `n`, and
/// `sqrt(Σv²/n)` (the scaled-L2 score) is strictly monotone in `Σv²` on
/// `[0, ∞]`, so ranking by the raw sum selects exactly the blocks the
/// scaled-L2 ranking selects — while skipping a division and a `sqrt`
/// per block. A NaN sum stays the same NaN through `/n` and `sqrt`
/// (both propagate the payload), so even corrupt-weight ties order
/// identically under `total_cmp`.
pub fn sum_sq(values: &[f32]) -> f64 {
    values.iter().map(|&v| f64::from(v) * f64::from(v)).sum()
}

/// Scaled L2 norm of a payload: `sqrt(Σv² / n)`.
///
/// The paper defines the intermediate-rank score as the payload's average
/// magnitude; the root-mean-square form used here is the L2 realization of
/// that idea and induces the same "keep the strongest fibers" ordering.
/// The kernels below compare blocks by [`sum_sq`] instead (same ordering,
/// cheaper); this form is kept for reporting and external callers.
pub fn scaled_l2(values: &[f32]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (sum_sq(values) / values.len() as f64).sqrt()
}

/// Reusable buffers for the pruning kernels.
///
/// Ranks with `H` in `2..=8` select with fixed-size stack arrays and never
/// touch the key buffer; any other `H` sorts one group's packed keys there.
/// [`top_rank_sums`] keeps its per-block rank counts in the second buffer.
/// One scratch serves every rank of every [`prune_hss`] call on a thread,
/// so sweeps scoring many candidate patterns do not reallocate per group.
#[derive(Debug, Default)]
pub struct PruneScratch {
    keys: Vec<u128>,
    beaten: Vec<u8>,
}

impl PruneScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Maps an `f64` to a `u64` whose unsigned order equals [`f64::total_cmp`]
/// order for **all** values (both NaN sign classes included): flip the
/// low 63 bits for negatives (the same transform `total_cmp` applies),
/// then offset the sign bit into unsigned range.
fn total_cmp_key(x: f64) -> u64 {
    let b = x.to_bits() as i64;
    let flip = ((b >> 63) as u64) >> 1;
    ((b ^ flip as i64) as u64) ^ (1 << 63)
}

/// Prunes the lowest rank: within every aligned block of `gh.h` values in
/// each row, keeps the `gh.g` values of largest magnitude and zeroes the
/// rest.
///
/// # Panics
/// Panics if the column count is not a multiple of `gh.h`.
pub fn prune_lowest_rank(m: &Matrix, gh: Gh) -> Matrix {
    prune_rank(m, gh, 1)
}

/// Prunes one rank at the given granularity (values per child block):
/// within every aligned group of `gh.h` child blocks, keeps the `gh.g`
/// blocks with the largest scaled L2 norm and zeroes the rest.
///
/// `granularity == 1` reduces to magnitude pruning of individual values.
///
/// # Panics
/// Panics if the column count is not a multiple of `gh.h * granularity`.
pub fn prune_rank(m: &Matrix, gh: Gh, granularity: usize) -> Matrix {
    let mut out = m.clone();
    prune_rank_in_place(&mut out, gh, granularity, &mut PruneScratch::new());
    out
}

/// In-place single-rank pruning — the hot loop under [`prune_hss`], which
/// pruning runs once per pattern per sweep cell.
///
/// Within each group, blocks are ranked by (score desc, index asc) and the
/// first `keep` survive — the "top-k with ties to the lower index"
/// selection the paper's procedure prescribes. Scores are [`sum_sq`] of
/// each block (same selection as scaled-L2, see there), mapped through
/// [`total_cmp_key`] so a corrupt weight's NaN score still ranks
/// deterministically.
///
/// For `H` in `2..=8` (every pattern family and co-design candidate) the
/// selection is a rank count monomorphised over `H`: block `b` survives
/// iff fewer than `keep` blocks beat it, which is `H²` integer compares
/// and no data-dependent branch ([`select_values`], [`select_blocks`]).
/// Any other `H` takes the generic sort path ([`select_sorted`]), which
/// selects exactly the same blocks.
///
/// Groups are disjoint and each group is fully scored before any of its
/// blocks is zeroed, so operating in place scores exactly the values the
/// out-of-place version scored.
fn prune_rank_in_place(m: &mut Matrix, gh: Gh, granularity: usize, scratch: &mut PruneScratch) {
    let group = gh.h as usize * granularity;
    assert!(
        m.cols().is_multiple_of(group),
        "cols ({}) must be a multiple of H * granularity ({group})",
        m.cols()
    );
    let h = gh.h as usize;
    let keep = (gh.g as usize).min(h);
    if keep == h {
        // Every block survives: the selection can drop nothing.
        return;
    }
    // Rows are contiguous and a multiple of the group long, so the
    // row-major data splits into whole groups that never straddle rows.
    let data = m.data_mut();
    match (h, granularity) {
        (2, 1) => select_values::<2>(data, keep),
        (3, 1) => select_values::<3>(data, keep),
        (4, 1) => select_values::<4>(data, keep),
        (5, 1) => select_values::<5>(data, keep),
        (6, 1) => select_values::<6>(data, keep),
        (7, 1) => select_values::<7>(data, keep),
        (8, 1) => select_values::<8>(data, keep),
        (2, _) => select_blocks::<2>(data, keep, granularity),
        (3, _) => select_blocks::<3>(data, keep, granularity),
        (4, _) => select_blocks::<4>(data, keep, granularity),
        (5, _) => select_blocks::<5>(data, keep, granularity),
        (6, _) => select_blocks::<6>(data, keep, granularity),
        (7, _) => select_blocks::<7>(data, keep, granularity),
        (8, _) => select_blocks::<8>(data, keep, granularity),
        _ => select_sorted(data, h, keep, granularity, scratch),
    }
}

/// How many blocks of a group with the given score keys beat block `b`
/// under (key desc, index asc). With `H` a constant the loop unrolls and
/// `j < b` folds away, leaving `H` branch-free compares.
#[inline(always)]
fn beaten_by<const H: usize>(keys: &[u64; H], b: usize) -> usize {
    let kb = keys[b];
    let mut beaten = 0;
    for (j, &kj) in keys.iter().enumerate() {
        beaten += usize::from((kj > kb) | ((kj == kb) & (j < b)));
    }
    beaten
}

/// Whether block `b` survives a `keep`-of-`H` selection: fewer than `keep`
/// blocks beat it.
#[inline(always)]
fn survives<const H: usize>(keys: &[u64; H], b: usize, keep: usize) -> bool {
    beaten_by(keys, b) < keep
}

/// Granularity-1 selection: blocks are single values, so a score is the
/// value's square (exactly the one-element [`sum_sq`]) and a dropped value
/// is cleared with a bit mask rather than a branch.
fn select_values<const H: usize>(data: &mut [f32], keep: usize) {
    let (groups, rest) = data.as_chunks_mut::<H>();
    debug_assert!(rest.is_empty());
    for gs in groups {
        let keys: [u64; H] = std::array::from_fn(|b| {
            let v = f64::from(gs[b]);
            total_cmp_key(v * v)
        });
        for (b, v) in gs.iter_mut().enumerate() {
            // All ones keeps the value's bits, zero writes +0.0.
            let mask = 0u32.wrapping_sub(u32::from(survives(&keys, b, keep)));
            *v = f32::from_bits(v.to_bits() & mask);
        }
    }
}

/// Selection over child blocks of `granularity` values each (an
/// intermediate rank): scores are per-block [`sum_sq`], dropped blocks are
/// zero-filled.
fn select_blocks<const H: usize>(data: &mut [f32], keep: usize, granularity: usize) {
    for gs in data.chunks_exact_mut(H * granularity) {
        let keys: [u64; H] = std::array::from_fn(|b| {
            total_cmp_key(sum_sq(&gs[b * granularity..(b + 1) * granularity]))
        });
        for (b, block) in gs.chunks_exact_mut(granularity).enumerate() {
            if !survives(&keys, b, keep) {
                block.fill(0.0);
            }
        }
    }
}

/// Generic selection for any `H`: per group, sorts packed
/// `(!total_cmp_key(score) << 32) | index` keys ascending — one integer
/// sort whose order is (score desc, index asc), the low word breaking ties
/// toward the lower index — and zeroes the blocks after the first `keep`.
fn select_sorted(
    data: &mut [f32],
    h: usize,
    keep: usize,
    granularity: usize,
    scratch: &mut PruneScratch,
) {
    let keys = &mut scratch.keys;
    for gs in data.chunks_exact_mut(h * granularity) {
        keys.clear();
        for b in 0..h {
            let lo = b * granularity;
            let score = sum_sq(&gs[lo..lo + granularity]);
            keys.push((u128::from(!total_cmp_key(score)) << 32) | b as u128);
        }
        keys.sort_unstable();
        for &k in &keys[keep..] {
            let lo = (k as u32) as usize * granularity;
            gs[lo..lo + granularity].fill(0.0);
        }
    }
}

/// The retained energy of every `G:H` selection of one rank:
/// `sums[G - 1] == sum_sq(prune_rank(base, G:H, granularity).data())`
/// for every `G` in `1..=H`, bit for bit.
///
/// Candidates that differ only in their top rank's `G` keep the top `G`
/// blocks of one per-group ordering, so one ranking serves them all. For
/// `H` in `2..=8` a rank pass stores each block's "beaten by" count (how
/// many blocks of its group outrank it, on the same keys the selection
/// kernels use), then a sum pass squares each value once and adds it,
/// masked to `+0.0` where its block is dropped, into `H` independent
/// accumulators. Each accumulator starts at `-0.0` (as `f64::sum` does)
/// and adds in data order, and a dropped value adds exactly the `+0.0`
/// its zeroed copy would, so every sum is the one prune-then-[`sum_sq`]
/// computes. Any other `H` prunes and sums a copy per `G`.
///
/// # Panics
/// Panics if `h == 0` or the column count is not a multiple of
/// `h * granularity`.
pub fn top_rank_sums(
    base: &Matrix,
    h: u32,
    granularity: usize,
    scratch: &mut PruneScratch,
) -> Vec<f64> {
    assert!(h > 0, "H must be positive");
    let group = h as usize * granularity;
    assert!(
        base.cols().is_multiple_of(group),
        "cols ({}) must be a multiple of H * granularity ({group})",
        base.cols()
    );
    let data = base.data();
    let beaten = &mut scratch.beaten;
    match h {
        2 => rank_sums::<2>(data, granularity, beaten).to_vec(),
        3 => rank_sums::<3>(data, granularity, beaten).to_vec(),
        4 => rank_sums::<4>(data, granularity, beaten).to_vec(),
        5 => rank_sums::<5>(data, granularity, beaten).to_vec(),
        6 => rank_sums::<6>(data, granularity, beaten).to_vec(),
        7 => rank_sums::<7>(data, granularity, beaten).to_vec(),
        8 => rank_sums::<8>(data, granularity, beaten).to_vec(),
        _ => (1..=h)
            .map(|g| {
                let mut m = base.clone();
                prune_rank_in_place(&mut m, Gh::new(g, h), granularity, scratch);
                sum_sq(m.data())
            })
            .collect(),
    }
}

/// [`top_rank_sums`] for a constant `H`: `beaten` ends up holding each
/// block's rank count, and entry `G - 1` of the result is the sum over
/// the values whose block's count is below `G`.
fn rank_sums<const H: usize>(data: &[f32], granularity: usize, beaten: &mut Vec<u8>) -> [f64; H] {
    beaten.clear();
    beaten.resize(data.len() / granularity, 0);
    let (counts, _) = beaten.as_chunks_mut::<H>();
    if granularity == 1 {
        let (groups, _) = data.as_chunks::<H>();
        for (gs, cs) in groups.iter().zip(counts) {
            let keys: [u64; H] = std::array::from_fn(|b| {
                let v = f64::from(gs[b]);
                total_cmp_key(v * v)
            });
            for (b, c) in cs.iter_mut().enumerate() {
                *c = beaten_by(&keys, b) as u8;
            }
        }
    } else {
        for (gs, cs) in data.chunks_exact(H * granularity).zip(counts) {
            let keys: [u64; H] = std::array::from_fn(|b| {
                total_cmp_key(sum_sq(&gs[b * granularity..(b + 1) * granularity]))
            });
            for (b, c) in cs.iter_mut().enumerate() {
                *c = beaten_by(&keys, b) as u8;
            }
        }
    }
    // masks[count][G - 1] keeps a square's bits iff count < G.
    let masks: [[u64; H]; H] = std::array::from_fn(|count| {
        std::array::from_fn(|g| 0u64.wrapping_sub(u64::from(count <= g)))
    });
    let mut sums = [-0.0f64; H];
    let mut add = |v: f32, mask: &[u64; H]| {
        let sq = (f64::from(v) * f64::from(v)).to_bits();
        for (sum, &m) in sums.iter_mut().zip(mask) {
            *sum += f64::from_bits(sq & m);
        }
    };
    // One count per value at granularity 1 keeps this loop flat; wider
    // blocks share their count's mask across the block.
    if granularity == 1 {
        for (&v, &count) in data.iter().zip(beaten.iter()) {
            add(v, &masks[usize::from(count)]);
        }
    } else {
        for (block, &count) in data.chunks_exact(granularity).zip(beaten.iter()) {
            let mask = &masks[usize::from(count)];
            for &v in block {
                add(v, mask);
            }
        }
    }
    sums
}

/// Sparsifies a dense matrix to an N-rank HSS pattern, rank-by-rank in
/// lower-to-higher order (paper §4.2).
///
/// Intermediate-rank scores are computed on the already-pruned payloads, so
/// a block that lost its large values at a lower rank is judged by what
/// survives — exactly the chained procedure the paper describes.
///
/// The input is cloned once; every rank then prunes the same buffer in
/// place.
///
/// # Panics
/// Panics if the column count is not a multiple of the pattern group size.
pub fn prune_hss(m: &Matrix, pattern: &HssPattern) -> Matrix {
    let mut out = m.clone();
    prune_hss_ranks_in_place(&mut out, pattern, 0, &mut PruneScratch::new());
    out
}

/// Prunes the ranks of `pattern` above the `skip` lowest ones, in place,
/// lowest-to-highest — the resumable core of [`prune_hss`].
///
/// `skip == 0` is full HSS pruning. With `skip == 1` the caller supplies a
/// matrix already pruned at the lowest rank; because the lowest rank's
/// result depends only on the input and that rank's `G:H` (its granularity
/// is always 1), candidate patterns sharing a lowest rank can prune it once
/// and replay the higher ranks per candidate from that shared prefix.
///
/// # Panics
/// Panics if `skip > pattern.rank_count()` or the column count is not a
/// multiple of the pattern group size.
pub fn prune_hss_ranks_in_place(
    m: &mut Matrix,
    pattern: &HssPattern,
    skip: usize,
    scratch: &mut PruneScratch,
) {
    let n = pattern.rank_count();
    assert!(skip <= n, "skip ({skip}) exceeds rank count ({n})");
    // ranks() is highest-first; iterate lowest-first.
    for (i, gh) in pattern.ranks().iter().rev().enumerate().skip(skip) {
        let granularity: usize = pattern.ranks()[n - i..]
            .iter()
            .map(|r| r.h as usize)
            .product();
        prune_rank_in_place(m, *gh, granularity, scratch);
    }
}

/// Bits per digit of [`magnitude_order`]'s radix sort: three passes cover
/// the 31 magnitude bits.
const RADIX_BITS: u32 = 11;
const RADIX_BUCKETS: usize = 1 << RADIX_BITS;
const RADIX_PASSES: usize = 3;

/// Flat indices of `m` ordered by ascending magnitude (ties keep the lower
/// index) — the pruning order [`prune_unstructured`] consumes.
///
/// The order depends only on the matrix, not on the sparsity degree, so
/// sweeps that prune the same matrix at many degrees can compute it once
/// and replay it through [`prune_unstructured_ordered`].
///
/// It is computed without comparisons: a stable LSD radix sort of the
/// indices on their 31 magnitude bits, three passes of 11 bits over two
/// `u32` index buffers.
///
/// # Panics
/// Panics if the matrix holds `u32::MAX` or more elements (the order is
/// stored as `u32` indices to halve its cache footprint).
pub fn magnitude_order(m: &Matrix) -> Vec<u32> {
    let data = m.data();
    let total = data.len();
    assert!(
        total < u32::MAX as usize,
        "matrix too large for u32 pruning order ({total} elements)"
    );
    // For nonnegative floats (sign bit cleared == abs), `total_cmp` is the
    // unsigned compare of the raw bit patterns — NaNs sit above +∞ exactly
    // as `total_cmp` orders them, so corrupt weights land at the end of
    // the pruning order (pruned last) rather than panicking a comparator.
    // The order starts as the ascending indices, and a stable LSD radix
    // sort on those 31 magnitude bits keeps equal magnitudes in index
    // order, which yields exactly (magnitude asc, index asc).
    let magnitude = |v: f32| v.to_bits() & 0x7FFF_FFFF;
    let digit =
        |k: u32, pass: usize| (k >> (RADIX_BITS * pass as u32)) as usize & (RADIX_BUCKETS - 1);
    // One scan counts every pass's digits.
    let mut counts = [[0u32; RADIX_BUCKETS]; RADIX_PASSES];
    for &v in data {
        let k = magnitude(v);
        for (pass, c) in counts.iter_mut().enumerate() {
            c[digit(k, pass)] += 1;
        }
    }
    let mut order: Vec<u32> = (0..total as u32).collect();
    let mut moved = vec![0u32; total];
    for (pass, c) in counts.iter_mut().enumerate() {
        if c.contains(&(total as u32)) {
            // Every entry shares this digit: the pass would move nothing.
            continue;
        }
        // Counts become each bucket's next output slot.
        let mut next = 0;
        for slot in c.iter_mut() {
            (*slot, next) = (next, next + *slot);
        }
        for &i in &order {
            let slot = &mut c[digit(magnitude(data[i as usize]), pass)];
            moved[*slot as usize] = i;
            *slot += 1;
        }
        std::mem::swap(&mut order, &mut moved);
    }
    order
}

/// [`prune_unstructured`] with a precomputed [`magnitude_order`]: zeroes
/// the `round(sparsity · len)` first entries of `order`.
///
/// # Panics
/// Panics if `sparsity` is outside `[0, 1]` or `order` does not cover `m`.
pub fn prune_unstructured_ordered(m: &Matrix, sparsity: f64, order: &[u32]) -> Matrix {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let total = m.rows() * m.cols();
    assert_eq!(order.len(), total, "order must cover every element");
    let remove = (sparsity * total as f64).round() as usize;
    let mut out = m.clone();
    let data = out.data_mut();
    for &i in &order[..remove] {
        data[i as usize] = 0.0;
    }
    out
}

/// Unstructured magnitude pruning: zeroes the `round(sparsity · len)`
/// smallest-magnitude values globally (ties keep lower index).
///
/// # Panics
/// Panics if `sparsity` is outside `[0, 1]`.
pub fn prune_unstructured(m: &Matrix, sparsity: f64) -> Matrix {
    prune_unstructured_ordered(m, sparsity, &magnitude_order(m))
}

/// Fraction of the squared-magnitude (energy) of `original` retained by
/// `pruned` — the signal the accuracy surrogate consumes.
///
/// Returns 1.0 when `original` is all zeros.
///
/// # Panics
/// Panics if the shapes differ.
pub fn retained_norm_fraction(original: &Matrix, pruned: &Matrix) -> f64 {
    assert_eq!(original.rows(), pruned.rows(), "shape mismatch");
    assert_eq!(original.cols(), pruned.cols(), "shape mismatch");
    let total = total_sq_norm(original);
    if total == 0.0 {
        return 1.0;
    }
    sum_sq(pruned.data()) / total
}

/// Total squared-magnitude (energy) of a matrix, accumulated in data
/// order — the denominator of [`retained_norm_fraction`], exposed so
/// callers scoring many prunings of one matrix compute it once.
pub fn total_sq_norm(m: &Matrix) -> f64 {
    sum_sq(m.data())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_tensor::gen;

    #[test]
    fn lowest_rank_keeps_largest_magnitudes() {
        let m = Matrix::from_rows(&[&[1.0, -4.0, 0.5, 3.0, 2.0, -1.0, 0.1, 0.2]]);
        let p = prune_lowest_rank(&m, Gh::new(2, 4));
        assert_eq!(p.row(0), &[0.0, -4.0, 0.0, 3.0, 2.0, -1.0, 0.0, 0.0]);
    }

    #[test]
    fn prune_produces_conformant_pattern() {
        let m = gen::random_dense(16, 64, 3);
        let pattern = HssPattern::two_rank(Gh::new(3, 4), Gh::new(2, 4));
        let p = prune_hss(&m, &pattern);
        assert_eq!(gen::check_hss(&p, pattern.ranks()), None);
        // Exactly the pattern density (dense input, exact top-k per block).
        assert!((p.density() - pattern.density_f64()).abs() < 1e-12);
    }

    #[test]
    fn prune_three_rank_conformant() {
        let m = gen::random_dense(4, 64, 5);
        let pattern = HssPattern::new(vec![Gh::new(1, 2), Gh::new(3, 4), Gh::new(2, 4)]);
        let p = prune_hss(&m, &pattern);
        assert_eq!(gen::check_hss(&p, pattern.ranks()), None);
    }

    #[test]
    fn lower_to_higher_ordering_uses_pruned_scores() {
        // Block 0 holds one huge value and trash; block 1 holds two medium
        // values. After 1:2 rank0 pruning, block 0 keeps only the huge value;
        // rank1 1:2 must then prefer block 0 by scaled-L2 of survivors.
        let m = Matrix::from_rows(&[&[10.0, 0.1, 3.0, 3.0]]);
        let pattern = HssPattern::two_rank(Gh::new(1, 2), Gh::new(1, 2));
        let p = prune_hss(&m, &pattern);
        assert_eq!(p.row(0), &[10.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn hss_retains_more_norm_than_coarse_pruning_at_equal_sparsity() {
        let m = gen::random_dense(8, 64, 7);
        // 50% sparsity two ways: fine-grained 2:4 vs coarse 1:2 over blocks of 16.
        let fine = prune_hss(&m, &HssPattern::one_rank(Gh::new(2, 4)));
        let coarse = prune_rank(&m, Gh::new(1, 2), 16);
        let rf = retained_norm_fraction(&m, &fine);
        let rc = retained_norm_fraction(&m, &coarse);
        assert!(
            rf > rc,
            "fine-grained pruning must retain more norm ({rf} vs {rc})"
        );
        // Unstructured pruning retains the most.
        let un = prune_unstructured(&m, 0.5);
        assert!(retained_norm_fraction(&m, &un) >= rf);
    }

    #[test]
    fn unstructured_exact_count_and_magnitude_optimality() {
        let m = gen::random_dense(8, 8, 9);
        let p = prune_unstructured(&m, 0.25);
        assert_eq!(p.nonzeros(), 48);
        // Every kept magnitude >= every dropped magnitude.
        let mut kept: Vec<f32> = Vec::new();
        let mut dropped: Vec<f32> = Vec::new();
        for (o, n) in m.data().iter().zip(p.data()) {
            if *n == 0.0 {
                dropped.push(o.abs());
            } else {
                kept.push(o.abs());
            }
        }
        let min_kept = kept.iter().cloned().fold(f32::INFINITY, f32::min);
        let max_dropped = dropped.iter().cloned().fold(0.0, f32::max);
        assert!(min_kept >= max_dropped);
    }

    #[test]
    fn nan_weights_do_not_panic_pruning() {
        // A corrupt (NaN) weight must rank deterministically instead of
        // panicking the sort comparators (NaN-poisoned checkpoints reach
        // the surrogate through served pruning configs).
        let m = Matrix::from_rows(&[&[1.0, f32::NAN, 0.5, 3.0, 2.0, -1.0, 0.1, 0.2]]);
        let p = prune_lowest_rank(&m, Gh::new(2, 4));
        // NaN scores above every finite magnitude: it survives 2:4 along
        // with the largest finite value of its block.
        assert!(p.row(0)[1].is_nan());
        assert_eq!(p.row(0)[0], 0.0);
        assert_eq!(p.row(0)[3], 3.0);
        // Unstructured pruning ranks NaN last in the removal order.
        let order = magnitude_order(&m);
        assert_eq!(order.last(), Some(&1));
        let u = prune_unstructured(&m, 0.5);
        assert!(u.row(0)[1].is_nan(), "NaN is pruned last, so it survives");
        // A NaN payload score at an intermediate rank is handled the same
        // way (scaled_l2 of a NaN block is NaN).
        let wide = Matrix::from_rows(&[&[f32::NAN, 0.1, 3.0, 3.0]]);
        let hss = prune_hss(&wide, &HssPattern::two_rank(Gh::new(1, 2), Gh::new(1, 2)));
        assert!(hss.row(0)[0].is_nan());
        assert_eq!(&hss.row(0)[1..], &[0.0, 0.0, 0.0]);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The rank-count kernels select exactly the blocks the generic sort
    /// path selects, bit for bit, for every `G:H` they serve, at
    /// granularity 1 and wider blocks.
    #[test]
    fn rank_count_selection_matches_sorted_path() {
        let mut scratch = PruneScratch::new();
        for h in 2..=8u32 {
            for granularity in [1, 2, 3, 4] {
                let cols = h as usize * granularity * 3;
                let m = gen::random_special(16, cols, u64::from(h) * 31 + granularity as u64);
                for g in 1..=h {
                    let mut fast = m.clone();
                    prune_rank_in_place(&mut fast, Gh::new(g, h), granularity, &mut scratch);
                    let mut reference = m.clone();
                    let keep = g as usize;
                    if keep < h as usize {
                        select_sorted(
                            reference.data_mut(),
                            h as usize,
                            keep,
                            granularity,
                            &mut scratch,
                        );
                    }
                    assert_eq!(
                        bits(&fast),
                        bits(&reference),
                        "{g}:{h} granularity {granularity}"
                    );
                }
            }
        }
    }

    /// Digits every key shares are skipped; ties keep index order.
    #[test]
    fn radix_order_skips_uniform_digits() {
        // 2.0 and 0.5 share their low 22 bits: only the top pass moves.
        let ties = Matrix::from_rows(&[&[2.0, -2.0, 2.0, 0.5, -0.5]]);
        assert_eq!(magnitude_order(&ties), vec![3, 4, 0, 1, 2]);
    }

    #[test]
    fn dense_pattern_is_identity() {
        let m = gen::random_dense(4, 16, 11);
        assert_eq!(prune_hss(&m, &HssPattern::dense()), m);
        assert_eq!(prune_unstructured(&m, 0.0), m);
    }

    #[test]
    fn scaled_l2_basics() {
        assert_eq!(scaled_l2(&[]), 0.0);
        assert!((scaled_l2(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
        // Scale-invariance in block size: same values repeated.
        assert!((scaled_l2(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn retained_norm_of_identity_is_one() {
        let m = gen::random_dense(4, 4, 13);
        assert!((retained_norm_fraction(&m, &m) - 1.0).abs() < 1e-12);
        let z = Matrix::zeros(4, 4);
        assert_eq!(retained_norm_fraction(&z, &z), 1.0);
    }
}
