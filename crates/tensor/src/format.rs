//! Storage formats: hierarchical CP compression and sparse-B metadata.
//!
//! Two formats from the paper plus a CSR helper for the unstructured
//! baselines:
//!
//! - [`HssCompressed`] — the hierarchical offset-based coordinate-payload
//!   (CP) format for HSS operand A (Fig. 9). Each nonzero value carries a
//!   Rank0 CP (its offset within its block of `H0`), and each non-empty
//!   block carries a Rank1 CP (its offset within its group of `H1` blocks).
//! - [`SparseB`] — the three-level metadata format for unstructured sparse
//!   operand B (Fig. 12a): per-group nonzero counts, per-block end
//!   addresses, and per-value intra-block offsets.
//! - [`Csr`] — compressed sparse rows, as used by outer-product unstructured
//!   designs (DSTC-like).
//!
//! All formats decode back to a [`Matrix`] exactly and report their metadata
//! overhead in bits.

use hl_fibertree::spec::Gh;

use crate::matrix::Matrix;

fn ceil_log2(x: usize) -> u32 {
    assert!(x > 0);
    usize::BITS - (x - 1).leading_zeros()
}

// ---------------------------------------------------------------------------
// HSS operand A format (Fig. 9)
// ---------------------------------------------------------------------------

/// One compressed row of an HSS operand (Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub struct HssRow {
    /// Nonzero values, grouped per non-empty Rank0 block, blocks in order.
    pub values: Vec<f32>,
    /// Rank0 CP per value: offset within its block of `H0`.
    pub rank0_cp: Vec<u8>,
    /// Rank1 CP per non-empty block: offset within its group of `H1` blocks.
    pub rank1_cp: Vec<u8>,
    /// Number of values in each non-empty block (aligned with `rank1_cp`).
    pub block_nnz: Vec<u8>,
    /// Number of non-empty blocks in each Rank1 group.
    pub group_blocks: Vec<u8>,
}

/// A matrix compressed with the hierarchical CP format for a two-rank HSS
/// pattern `C1(G1:H1)→C0(G0:H0)` applied along the columns of each row.
///
/// # Example
///
/// ```
/// use hl_fibertree::spec::Gh;
/// use hl_tensor::{gen, format::HssCompressed};
/// let ranks = [Gh::new(2, 4), Gh::new(2, 4)];
/// let m = gen::random_hss(4, 32, &ranks, 42);
/// let c = HssCompressed::encode(&m, 4, 4);
/// assert_eq!(c.decode(), m);
/// assert_eq!(c.nonzeros(), m.nonzeros());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HssCompressed {
    rows: usize,
    cols: usize,
    h0: usize,
    h1: usize,
    data: Vec<HssRow>,
}

impl HssCompressed {
    /// Encodes `m` with Rank0 blocks of `h0` values and Rank1 groups of `h1`
    /// blocks along the columns.
    ///
    /// The encoder is *pattern-agnostic*: it records whatever occupancy each
    /// block/group has, so it can also hold operands sparser than the
    /// nominal pattern. Conformance to a `G:H` pattern is the job of
    /// [`hl_fibertree::spec::PatternSpec::check`].
    ///
    /// # Panics
    /// Panics if `cols` is not a multiple of `h0 * h1`, or `h0`/`h1` are
    /// outside `1..=255` (CPs and the per-block and per-group counts are
    /// stored in a byte).
    pub fn encode(m: &Matrix, h1: usize, h0: usize) -> Self {
        let group = h1 * h0;
        assert!(
            (1..=255).contains(&h0) && (1..=255).contains(&h1),
            "H0 and H1 must be in 1..=255 (CPs and counts are stored in a byte)"
        );
        assert!(
            m.cols().is_multiple_of(group),
            "cols must be a multiple of H1*H0"
        );
        let cols = m.cols();
        // Each row is compacted branch-free into scratch buffers sized
        // once: every value and its offset is written unconditionally and
        // the cursor advances only past nonzeros, as does the block
        // cursor past non-empty blocks.
        let mut values = vec![0.0f32; cols];
        let mut rank0_cp = vec![0u8; cols];
        let mut rank1_cp = vec![0u8; cols / h0];
        let mut block_nnz = vec![0u8; cols / h0];
        let mut data = Vec::with_capacity(m.rows());
        for r in 0..m.rows() {
            let mut group_blocks = Vec::with_capacity(cols / group);
            let (mut vi, mut bi) = (0usize, 0usize);
            for group_values in m.row(r).chunks_exact(group) {
                let group_start = bi;
                for (b, block) in group_values.chunks_exact(h0).enumerate() {
                    let block_start = vi;
                    for (off, &v) in block.iter().enumerate() {
                        values[vi] = v;
                        rank0_cp[vi] = off as u8;
                        vi += usize::from(v != 0.0);
                    }
                    let nnz = vi - block_start;
                    rank1_cp[bi] = b as u8;
                    block_nnz[bi] = nnz as u8;
                    bi += usize::from(nnz != 0);
                }
                group_blocks.push((bi - group_start) as u8);
            }
            data.push(HssRow {
                values: values[..vi].to_vec(),
                rank0_cp: rank0_cp[..vi].to_vec(),
                rank1_cp: rank1_cp[..bi].to_vec(),
                block_nnz: block_nnz[..bi].to_vec(),
                group_blocks,
            });
        }
        Self {
            rows: m.rows(),
            cols,
            h0,
            h1,
            data,
        }
    }

    /// Decodes back to the dense matrix.
    pub fn decode(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        let group = self.h0 * self.h1;
        for (r, row) in self.data.iter().enumerate() {
            let mut vi = 0usize; // value index
            let mut bi = 0usize; // non-empty block index
            for (g, &gb) in row.group_blocks.iter().enumerate() {
                for _ in 0..gb {
                    let b = row.rank1_cp[bi] as usize;
                    let nnz = row.block_nnz[bi] as usize;
                    for _ in 0..nnz {
                        let off = row.rank0_cp[vi] as usize;
                        m.set(r, g * group + b * self.h0 + off, row.values[vi]);
                        vi += 1;
                    }
                    bi += 1;
                }
            }
        }
        m
    }

    /// Number of stored (nonzero) values.
    pub fn nonzeros(&self) -> usize {
        self.data.iter().map(|r| r.values.len()).sum()
    }

    /// Number of non-empty Rank0 blocks across the matrix.
    pub fn nonempty_blocks(&self) -> usize {
        self.data.iter().map(|r| r.rank1_cp.len()).sum()
    }

    /// Rank0 block size `H0`.
    pub fn h0(&self) -> usize {
        self.h0
    }

    /// Rank1 group size `H1` (in blocks).
    pub fn h1(&self) -> usize {
        self.h1
    }

    /// The compressed rows.
    pub fn rows(&self) -> &[HssRow] {
        &self.data
    }

    /// Metadata bits: one `⌈log2 H0⌉` CP per value plus one `⌈log2 H1⌉` CP
    /// per non-empty block (the paper's offset-based CP accounting, §6.2).
    pub fn metadata_bits(&self) -> u64 {
        let r0 = u64::from(ceil_log2(self.h0).max(1));
        let r1 = u64::from(ceil_log2(self.h1).max(1));
        self.nonzeros() as u64 * r0 + self.nonempty_blocks() as u64 * r1
    }

    /// Data bits at the given word width.
    pub fn data_bits(&self, bits_per_word: u32) -> u64 {
        self.nonzeros() as u64 * u64::from(bits_per_word)
    }
}

// ---------------------------------------------------------------------------
// Sparse operand B format (Fig. 12a)
// ---------------------------------------------------------------------------

/// One compressed K-vector of operand B (a column), Fig. 12(a).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseBVector {
    /// Nonzero values in K order.
    pub values: Vec<f32>,
    /// Level 1: total nonzeros per group of `H1` Rank1 blocks.
    pub group_nnz: Vec<u32>,
    /// Level 2: cumulative end address (into `values`) of each Rank1 block.
    pub block_end: Vec<u32>,
    /// Level 3: intra-Rank0-block offset of each nonzero value.
    pub rank0_off: Vec<u8>,
}

/// Operand B compressed with the three-level metadata format of Fig. 12(a).
///
/// B is `K×N`; each column's K-vector is compressed independently. The K
/// dimension is blocked to match operand A's HSS layout: Rank0 blocks of
/// `h0` values, grouped `h1` blocks at a time (groups are what the VFMU
/// shifts over, §6.4).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseB {
    k: usize,
    n: usize,
    h0: usize,
    h1: usize,
    cols: Vec<SparseBVector>,
}

impl SparseB {
    /// Encodes `m` (`K×N`) with Rank0 blocks of `h0` and groups of `h1`
    /// blocks along K.
    ///
    /// # Panics
    /// Panics if `K` is not a multiple of `h0 * h1` or `h0 > 256`.
    pub fn encode(m: &Matrix, h1: usize, h0: usize) -> Self {
        let group = h1 * h0;
        assert!(h0 >= 1 && h1 >= 1 && h0 <= 256, "H out of supported range");
        assert!(
            m.rows().is_multiple_of(group),
            "K must be a multiple of H1*H0"
        );
        let (k, n) = (m.rows(), m.cols());
        let data = m.data();
        // Each column is compacted branch-free into scratch buffers sized
        // once: every value and its offset is written unconditionally and
        // the cursor advances only past nonzeros.
        let mut values = vec![0.0f32; k];
        let mut rank0_off = vec![0u8; k];
        let mut cols = Vec::with_capacity(n);
        for c in 0..n {
            let mut group_nnz = Vec::with_capacity(k / group);
            let mut block_end = Vec::with_capacity(k / h0);
            let mut vi = 0usize;
            for g in 0..k / group {
                let group_start = vi;
                for b in 0..h1 {
                    let base = g * group + b * h0;
                    for off in 0..h0 {
                        let v = data[(base + off) * n + c];
                        values[vi] = v;
                        rank0_off[vi] = off as u8;
                        vi += usize::from(v != 0.0);
                    }
                    block_end.push(vi as u32);
                }
                group_nnz.push((vi - group_start) as u32);
            }
            cols.push(SparseBVector {
                values: values[..vi].to_vec(),
                group_nnz,
                block_end,
                rank0_off: rank0_off[..vi].to_vec(),
            });
        }
        Self { k, n, h0, h1, cols }
    }

    /// Decodes back to the dense `K×N` matrix.
    pub fn decode(&self) -> Matrix {
        let mut m = Matrix::zeros(self.k, self.n);
        for (c, v) in self.cols.iter().enumerate() {
            let mut vi = 0usize;
            for (b, &end) in v.block_end.iter().enumerate() {
                while (vi as u32) < end {
                    let off = v.rank0_off[vi] as usize;
                    m.set(b * self.h0 + off, c, v.values[vi]);
                    vi += 1;
                }
            }
        }
        m
    }

    /// Total stored (nonzero) values.
    pub fn nonzeros(&self) -> usize {
        self.cols.iter().map(|c| c.values.len()).sum()
    }

    /// The compressed columns.
    pub fn columns(&self) -> &[SparseBVector] {
        &self.cols
    }

    /// Rank0 block size along K.
    pub fn h0(&self) -> usize {
        self.h0
    }

    /// Blocks per group along K.
    pub fn h1(&self) -> usize {
        self.h1
    }

    /// Metadata bits: group counts (level 1) + block end addresses (level 2)
    /// + per-value offsets (level 3).
    pub fn metadata_bits(&self) -> u64 {
        let group = self.h0 * self.h1;
        let groups = (self.k / group) as u64 * self.n as u64;
        let blocks = (self.k / self.h0) as u64 * self.n as u64;
        // A group holds at most h0*h1 values; a block end address spans the
        // column's value count (bounded by K).
        let l1_bits = u64::from(ceil_log2(group + 1).max(1));
        let l2_bits = u64::from(ceil_log2(self.k + 1).max(1));
        let l3_bits = u64::from(ceil_log2(self.h0).max(1));
        groups * l1_bits + blocks * l2_bits + self.nonzeros() as u64 * l3_bits
    }

    /// Data bits at the given word width.
    pub fn data_bits(&self, bits_per_word: u32) -> u64 {
        self.nonzeros() as u64 * u64::from(bits_per_word)
    }
}

// ---------------------------------------------------------------------------
// CSR (for unstructured outer-product baselines)
// ---------------------------------------------------------------------------

/// Compressed sparse row format, used by the DSTC-like unstructured baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    /// Row pointers (`rows + 1` entries).
    pub row_ptr: Vec<u32>,
    /// Column index per nonzero.
    pub col_idx: Vec<u32>,
    /// Nonzero values.
    pub values: Vec<f32>,
}

impl Csr {
    /// Encodes a dense matrix.
    pub fn encode(m: &Matrix) -> Self {
        let mut row_ptr = Vec::with_capacity(m.rows() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let v = m.get(r, c);
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(values.len() as u32);
        }
        Self {
            rows: m.rows(),
            cols: m.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Decodes back to the dense matrix.
    pub fn decode(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for i in self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize {
                m.set(r, self.col_idx[i] as usize, self.values[i]);
            }
        }
        m
    }

    /// Number of stored nonzeros.
    pub fn nonzeros(&self) -> usize {
        self.values.len()
    }

    /// Nonzeros in one row.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn row_nnz(&self, row: usize) -> usize {
        (self.row_ptr[row + 1] - self.row_ptr[row]) as usize
    }

    /// Metadata bits: row pointers + column indices.
    pub fn metadata_bits(&self) -> u64 {
        let ptr_bits = u64::from(ceil_log2(self.values.len().max(1) + 1).max(1));
        let idx_bits = u64::from(ceil_log2(self.cols).max(1));
        (self.row_ptr.len() as u64) * ptr_bits + (self.col_idx.len() as u64) * idx_bits
    }
}

/// Convenience: metadata bits per nonzero for a two-rank HSS pattern, used by
/// analytical models without materializing data.
pub fn hss_metadata_bits_per_value(rank1: Gh, rank0: Gh) -> f64 {
    let r0 = f64::from(ceil_log2(rank0.h as usize).max(1));
    let r1 = f64::from(ceil_log2(rank1.h as usize).max(1));
    // Each value carries a Rank0 CP; each block (G0 values) shares a Rank1 CP.
    r0 + r1 / f64::from(rank0.g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn hss_roundtrip_structured() {
        let ranks = [Gh::new(2, 4), Gh::new(2, 4)];
        let m = gen::random_hss(8, 64, &ranks, 1);
        let c = HssCompressed::encode(&m, 4, 4);
        assert_eq!(c.decode(), m);
        assert_eq!(c.nonzeros(), m.nonzeros());
        // 2:4 at rank1 means half the blocks are non-empty.
        assert_eq!(c.nonempty_blocks(), 8 * (64 / 16) * 2);
    }

    #[test]
    fn hss_roundtrip_on_paper_example() {
        // Fig. 9: C1(2:4)→C0(2:4) row: blocks 0 and 2 of the first group
        // occupied, each with two values.
        let mut m = Matrix::zeros(1, 16);
        m.set(0, 0, 1.0); // block 0, offset 0 -> "a"
        m.set(0, 2, 2.0); // block 0, offset 2 -> "c"
        m.set(0, 8, 3.0); // block 2, offset 0 -> "j"
        m.set(0, 10, 4.0); // block 2, offset 2 -> "k"
        let c = HssCompressed::encode(&m, 4, 4);
        let row = &c.rows()[0];
        assert_eq!(row.values, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(row.rank0_cp, vec![0, 2, 0, 2]);
        assert_eq!(row.rank1_cp, vec![0, 2]); // first and third block
        assert_eq!(row.group_blocks, vec![2]);
        assert_eq!(c.decode(), m);
    }

    #[test]
    fn hss_roundtrip_unstructured_content() {
        // The format also holds arbitrary sparsity (fewer nonzeros than G:H).
        let m = gen::random_unstructured(8, 64, 0.9, 3);
        let c = HssCompressed::encode(&m, 4, 4);
        assert_eq!(c.decode(), m);
    }

    #[test]
    fn hss_full_255_value_block_and_group_roundtrip() {
        // The per-block value count and the per-group block count are
        // stored in a byte: 255 is the largest H either can reach.
        let m = gen::random_dense(2, 255, 4);
        let blocks = HssCompressed::encode(&m, 1, 255);
        assert_eq!(blocks.rows()[0].block_nnz, vec![255]);
        assert_eq!(blocks.decode(), m);
        let groups = HssCompressed::encode(&m, 255, 1);
        assert_eq!(groups.rows()[0].group_blocks, vec![255]);
        assert_eq!(groups.decode(), m);
    }

    #[test]
    #[should_panic(expected = "must be in 1..=255")]
    fn hss_rejects_h0_256() {
        let _ = HssCompressed::encode(&gen::random_dense(1, 256, 4), 1, 256);
    }

    #[test]
    #[should_panic(expected = "must be in 1..=255")]
    fn hss_rejects_h1_256() {
        let _ = HssCompressed::encode(&gen::random_dense(1, 256, 4), 256, 1);
    }

    #[test]
    fn hss_metadata_accounting() {
        let ranks = [Gh::new(2, 4), Gh::new(2, 4)];
        let m = gen::random_hss(2, 32, &ranks, 5);
        let c = HssCompressed::encode(&m, 4, 4);
        // nnz = 2*32*0.25 = 16 values * 2 bits + blocks (8) * 2 bits = 48.
        assert_eq!(c.nonzeros(), 16);
        assert_eq!(c.metadata_bits(), 16 * 2 + 8 * 2);
        assert_eq!(c.data_bits(16), 256);
    }

    #[test]
    fn sparse_b_roundtrip() {
        let m = gen::random_unstructured(24, 6, 0.6, 9);
        let c = SparseB::encode(&m, 3, 4);
        assert_eq!(c.decode(), m);
        assert_eq!(c.nonzeros(), m.nonzeros());
    }

    #[test]
    fn sparse_b_dense_roundtrip() {
        let m = gen::random_dense(12, 4, 10);
        let c = SparseB::encode(&m, 3, 4);
        assert_eq!(c.decode(), m);
        assert_eq!(c.nonzeros(), 48);
    }

    #[test]
    fn sparse_b_metadata_matches_fig12_structure() {
        // K=24 with h1=3, h0=4: 2 groups of 3 blocks per column.
        let m = gen::random_unstructured(24, 2, 0.5, 11);
        let c = SparseB::encode(&m, 3, 4);
        let col = &c.columns()[0];
        assert_eq!(col.group_nnz.len(), 2);
        assert_eq!(col.block_end.len(), 6);
        // group counts must sum to the column nnz.
        let nnz: u32 = col.group_nnz.iter().sum();
        assert_eq!(nnz as usize, col.values.len());
        // block_end is non-decreasing and ends at nnz.
        assert!(col.block_end.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*col.block_end.last().unwrap() as usize, col.values.len());
    }

    #[test]
    fn csr_roundtrip_and_row_nnz() {
        let m = gen::random_unstructured(16, 16, 0.7, 13);
        let c = Csr::encode(&m);
        assert_eq!(c.decode(), m);
        let total: usize = (0..16).map(|r| c.row_nnz(r)).sum();
        assert_eq!(total, m.nonzeros());
        assert!(c.metadata_bits() > 0);
    }

    #[test]
    fn metadata_bits_per_value_helper() {
        // H0=4 -> 2 bits per value; H1=4 -> 2 bits per block of G0=2 values.
        let v = hss_metadata_bits_per_value(Gh::new(2, 4), Gh::new(2, 4));
        assert!((v - 3.0).abs() < 1e-12);
    }
}
