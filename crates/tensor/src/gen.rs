//! Random workload generation.
//!
//! The paper's synthetic evaluation (§7.1.2) uses 1024×1024 operands with
//! controlled sparsity degrees. These generators produce matrices that are
//! dense, unstructured sparse (exact global sparsity), `G:H` structured, or
//! N-rank HSS structured — all deterministic given a seed.

use hl_fibertree::spec::Gh;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::bits;
use crate::matrix::Matrix;

fn nonzero_value(rng: &mut StdRng) -> f32 {
    // Magnitudes in [0.05, 1] with a random sign: avoids values that round to
    // zero while still exercising magnitude-based pruning.
    let mag = rng.gen_range(0.05f32..=1.0);
    if rng.gen_bool(0.5) {
        mag
    } else {
        -mag
    }
}

/// Generates a fully dense matrix with values in `[-1, -0.05] ∪ [0.05, 1]`.
pub fn random_dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| nonzero_value(&mut rng))
}

/// Generates a matrix of awkward `f32` values for kernels whose result
/// depends on exact ordering: about a quarter special values (NaNs of both
/// signs with distinct payloads, quiet and signalling; ±0; ±∞;
/// subnormals; ±1), a quarter exact magnitude ties (four magnitudes of
/// either sign) and half arbitrary bit patterns.
pub fn random_special(rows: usize, cols: usize, seed: u64) -> Matrix {
    const SPECIAL: [u32; 12] = [
        0x7FC0_0001, // +qNaN with a payload
        0xFFC0_1234, // -qNaN
        0x7F80_0003, // +sNaN
        0xFF80_0005, // -sNaN
        0x0000_0000, // +0
        0x8000_0000, // -0
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x0000_0001, // smallest subnormal
        0x8000_0007, // negative subnormal
        0x3F80_0000, // 1.0
        0xBF80_0000, // -1.0
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        let r = rng.next_u64();
        f32::from_bits(match r % 4 {
            0 => SPECIAL[(r >> 8) as usize % SPECIAL.len()],
            1 => {
                (0x3F00_0000 + ((r >> 8) as u32 % 4) * 0x0040_0000)
                    | ((r >> 40) as u32 & 0x8000_0000)
            }
            _ => (r >> 16) as u32,
        })
    })
}

/// Generates a matrix with *exactly* `round(sparsity · rows · cols)` zeros at
/// uniformly random positions (unstructured sparsity).
///
/// # Panics
/// Panics if `sparsity` is not within `[0, 1]`.
pub fn random_unstructured(rows: usize, cols: usize, sparsity: f64, seed: u64) -> Matrix {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let total = rows * cols;
    let nnz = ((1.0 - sparsity) * total as f64).round() as usize;
    let mut idx: Vec<usize> = (0..total).collect();
    idx.shuffle(&mut rng);
    let mut m = Matrix::zeros(rows, cols);
    for &i in idx.iter().take(nnz) {
        m.set(i / cols, i % cols, nonzero_value(&mut rng));
    }
    m
}

/// Generates a matrix whose every row obeys `G:H` structured sparsity along
/// the columns: each aligned block of `H` columns holds exactly `G` nonzeros.
///
/// # Panics
/// Panics if `cols` is not a multiple of `H`.
pub fn random_gh(rows: usize, cols: usize, gh: Gh, seed: u64) -> Matrix {
    random_hss(rows, cols, &[gh], seed)
}

/// Generates a matrix whose rows obey an N-rank HSS pattern along the columns
/// (paper §4.1).
///
/// `ranks` is ordered highest to lowest (`[rank_{N-1}, …, rank_0]`), matching
/// the paper's `C_{N-1}(G:H)→…→C_0(G:H)` notation. Rank 0 constrains values
/// within blocks of `H_0`; rank 1 constrains which of `H_1` such blocks are
/// non-empty, and so on. Every group at every rank has *exactly* `G` occupied
/// children, so the matrix density is exactly `Π G_n/H_n`.
///
/// # Panics
/// Panics if `ranks` is empty or `cols` is not a multiple of `Π H_n`.
pub fn random_hss(rows: usize, cols: usize, ranks: &[Gh], seed: u64) -> Matrix {
    assert!(!ranks.is_empty(), "need at least one rank");
    let group: usize = ranks.iter().map(|gh| gh.h as usize).product();
    assert!(
        cols.is_multiple_of(group),
        "cols ({cols}) must be a multiple of the pattern group size ({group})"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        for g in 0..cols / group {
            fill_group(&mut m, r, g * group, ranks, &mut rng);
        }
    }
    m
}

/// Recursively fills one group: pick exactly `G` of the `H` children at the
/// current (highest remaining) rank, then recurse into each chosen child.
fn fill_group(m: &mut Matrix, row: usize, start: usize, ranks: &[Gh], rng: &mut StdRng) {
    let gh = ranks[0];
    let child: usize = ranks[1..].iter().map(|r| r.h as usize).product();
    let mut children: Vec<usize> = (0..gh.h as usize).collect();
    children.shuffle(rng);
    for &c in children.iter().take(gh.g as usize) {
        if ranks.len() == 1 {
            m.set(row, start + c, nonzero_value(rng));
        } else {
            fill_group(m, row, start + c * child, &ranks[1..], rng);
        }
    }
}

/// Verifies that each row of `m` obeys the N-rank HSS pattern (at most `G`
/// occupied children per group at every rank). Returns the first violation
/// as `(row, rank_index_from_highest, group_start)` or `None` if conformant.
///
/// Conformant rows — the common case on the hot simulation paths — are
/// screened with bit-packed occupancy words and popcounts (64 columns per
/// step instead of one). Only a row the screen rejects re-runs the exact
/// per-element walk, so the reported violation tuple is identical to the
/// naive scan's.
pub fn check_hss(m: &Matrix, ranks: &[Gh]) -> Option<(usize, usize, usize)> {
    let group: usize = ranks.iter().map(|gh| gh.h as usize).product();
    if !m.cols().is_multiple_of(group) {
        return Some((0, 0, 0));
    }
    let cols = m.cols();
    let mut occ = Vec::new();
    let mut collapsed = Vec::new();
    for row in 0..m.rows() {
        bits::pack_occupancy(m.row(row), &mut occ);
        if row_occupancy_conformant(&mut occ, &mut collapsed, cols, ranks) {
            continue;
        }
        for g in 0..cols / group {
            if let Some((rank, start)) = check_group(m, row, g * group, ranks) {
                return Some((row, rank, start));
            }
        }
        unreachable!("popcount screen rejected a row the exact walk accepts");
    }
    None
}

/// Word-parallel conformance screen over one row's occupancy bitmap:
/// checks each rank lowest-to-highest by popcounting its `H`-bit groups,
/// then collapses every group to one "non-empty" bit for the rank above.
/// `occ` is clobbered; `scratch` is the collapse buffer.
fn row_occupancy_conformant(
    occ: &mut [u64],
    scratch: &mut Vec<u64>,
    cols: usize,
    ranks: &[Gh],
) -> bool {
    let mut len = cols;
    let cur = occ;
    for gh in ranks.iter().rev() {
        let h = gh.h as usize;
        let groups = len / h;
        scratch.clear();
        scratch.resize(groups.div_ceil(64), 0);
        for gi in 0..groups {
            let occupied = bits::popcount_range(cur, gi * h, h);
            if occupied > gh.g {
                return false;
            }
            if occupied > 0 {
                scratch[gi / 64] |= 1 << (gi % 64);
            }
        }
        cur[..scratch.len()].copy_from_slice(scratch);
        len = groups;
    }
    true
}

fn check_group(m: &Matrix, row: usize, start: usize, ranks: &[Gh]) -> Option<(usize, usize)> {
    let gh = ranks[0];
    let child: usize = ranks[1..].iter().map(|r| r.h as usize).product();
    let mut occupied = 0u32;
    for c in 0..gh.h as usize {
        let base = start + c * child;
        let nonempty = (0..child).any(|i| m.get(row, base + i) != 0.0);
        if nonempty {
            occupied += 1;
            if ranks.len() > 1 {
                if let Some(v) = check_group(m, row, base, &ranks[1..]) {
                    return Some((v.0 + 1, v.1));
                }
            }
        }
    }
    if occupied > gh.g {
        Some((0, start))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_has_no_zeros() {
        let m = random_dense(16, 16, 1);
        assert_eq!(m.nonzeros(), 256);
    }

    #[test]
    fn unstructured_hits_exact_sparsity() {
        let m = random_unstructured(32, 32, 0.75, 2);
        assert_eq!(m.nonzeros(), 256); // 25% of 1024
        let dense = random_unstructured(8, 8, 0.0, 3);
        assert_eq!(dense.nonzeros(), 64);
        let empty = random_unstructured(8, 8, 1.0, 4);
        assert_eq!(empty.nonzeros(), 0);
    }

    #[test]
    fn unstructured_is_deterministic_per_seed() {
        assert_eq!(
            random_unstructured(8, 8, 0.5, 9),
            random_unstructured(8, 8, 0.5, 9)
        );
        assert_ne!(
            random_unstructured(8, 8, 0.5, 9),
            random_unstructured(8, 8, 0.5, 10)
        );
    }

    #[test]
    fn gh_pattern_is_exact_per_block() {
        let gh = Gh::new(2, 4);
        let m = random_gh(8, 16, gh, 5);
        for r in 0..8 {
            for b in 0..4 {
                let nnz = (0..4).filter(|&i| m.get(r, b * 4 + i) != 0.0).count();
                assert_eq!(nnz, 2, "block must hold exactly G nonzeros");
            }
        }
        assert!((m.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hss_two_rank_density_is_product_of_fractions() {
        // C1(3:4) -> C0(2:4): density 3/4 * 2/4 = 0.375 (paper Fig. 5).
        let ranks = [Gh::new(3, 4), Gh::new(2, 4)];
        let m = random_hss(16, 64, &ranks, 7);
        assert!((m.density() - 0.375).abs() < 1e-12);
        assert_eq!(check_hss(&m, &ranks), None);
    }

    #[test]
    fn hss_three_rank_generation() {
        let ranks = [Gh::new(1, 2), Gh::new(3, 4), Gh::new(2, 4)];
        let m = random_hss(4, 64, &ranks, 8);
        assert!((m.density() - 0.5 * 0.75 * 0.5).abs() < 1e-12);
        assert_eq!(check_hss(&m, &ranks), None);
    }

    #[test]
    fn check_hss_catches_violation() {
        let ranks = [Gh::new(1, 4)];
        let mut m = random_gh(2, 8, Gh::new(1, 4), 11);
        // Corrupt: add a second nonzero to the first block of row 0.
        let filled = (0..4).find(|&i| m.get(0, i) != 0.0).unwrap();
        m.set(0, (filled + 1) % 4, 9.0);
        assert!(check_hss(&m, &ranks).is_some());
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn hss_requires_aligned_cols() {
        let _ = random_hss(2, 10, &[Gh::new(2, 4)], 0);
    }
}
