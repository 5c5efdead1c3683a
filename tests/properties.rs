//! Property-based tests of the core invariants, across crates.

use highlight::fibertree::{Fibertree, RankInfo};
use highlight::prelude::*;
use highlight::sim::micro::{
    MicroConfig, MicroCounts, MicroReport, MicroSim, StepTrace, GLB_ROW_WORDS,
};
use highlight::sparsity::prune::{
    magnitude_order, prune_hss, prune_rank, prune_unstructured, retained_norm_fraction, sum_sq,
    top_rank_sums, PruneScratch,
};
use highlight::tensor::format::{Csr, HssCompressed, HssRow, SparseB, SparseBVector};
use highlight::tensor::gen;
use proptest::prelude::*;

fn pattern_strategy() -> impl Strategy<Value = HssPattern> {
    // Two-rank patterns with reasonable G:H.
    ((1u32..=4, 4u32..=8), (1u32..=2, 2u32..=4)).prop_map(|((g1, h1), (g0, h0))| {
        HssPattern::two_rank(Gh::new(g1.min(h1), h1), Gh::new(g0.min(h0), h0))
    })
}

/// Reference HSS pruning written for clarity: rank by rank, lowest
/// first, each group keeps its `G` blocks of largest sum of squares
/// (`f64::total_cmp`, ties to the lower index).
fn reference_prune_hss(m: &Matrix, pattern: &HssPattern) -> Matrix {
    let mut out = m.clone();
    let mut granularity = 1;
    for gh in pattern.ranks().iter().rev() {
        let (g, h) = (gh.g as usize, gh.h as usize);
        for group in out.data_mut().chunks_mut(h * granularity) {
            let scores: Vec<f64> = group
                .chunks(granularity)
                .map(|b| b.iter().map(|&v| f64::from(v) * f64::from(v)).sum())
                .collect();
            let mut ranked: Vec<usize> = (0..h).collect();
            ranked.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
            for &b in &ranked[g..] {
                group[b * granularity..(b + 1) * granularity].fill(0.0);
            }
        }
        granularity *= h;
    }
    out
}

fn bit_patterns(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Per-element reference for [`HssCompressed::encode`]: one branch per
/// value, pushing each nonzero (`v != 0.0`) with its Rank0 CP and each
/// non-empty block with its Rank1 CP and count.
fn reference_hss_rows(m: &Matrix, h1: usize, h0: usize) -> Vec<HssRow> {
    let group = h1 * h0;
    (0..m.rows())
        .map(|r| {
            let mut row = HssRow {
                values: Vec::new(),
                rank0_cp: Vec::new(),
                rank1_cp: Vec::new(),
                block_nnz: Vec::new(),
                group_blocks: Vec::new(),
            };
            for g in 0..m.cols() / group {
                let mut nonempty = 0u8;
                for b in 0..h1 {
                    let mut nnz = 0u8;
                    for i in 0..h0 {
                        let v = m.get(r, g * group + b * h0 + i);
                        if v != 0.0 {
                            row.values.push(v);
                            row.rank0_cp.push(i as u8);
                            nnz += 1;
                        }
                    }
                    if nnz > 0 {
                        row.rank1_cp.push(b as u8);
                        row.block_nnz.push(nnz);
                        nonempty += 1;
                    }
                }
                row.group_blocks.push(nonempty);
            }
            row
        })
        .collect()
}

/// Per-element reference for [`SparseB::encode`].
fn reference_sparse_b_columns(m: &Matrix, h1: usize, h0: usize) -> Vec<SparseBVector> {
    let group = h1 * h0;
    (0..m.cols())
        .map(|c| {
            let mut v = SparseBVector {
                values: Vec::new(),
                group_nnz: Vec::new(),
                block_end: Vec::new(),
                rank0_off: Vec::new(),
            };
            for g in 0..m.rows() / group {
                let start = v.values.len();
                for b in 0..h1 {
                    for i in 0..h0 {
                        let x = m.get(g * group + b * h0 + i, c);
                        if x != 0.0 {
                            v.values.push(x);
                            v.rank0_off.push(i as u8);
                        }
                    }
                    v.block_end.push(v.values.len() as u32);
                }
                v.group_nnz.push((v.values.len() - start) as u32);
            }
            v
        })
        .collect()
}

/// Reference for [`Fibertree::from_dense`]: one `insert` per nonzero at
/// coordinates recovered by div/mod, into an empty tree.
fn reference_from_dense(data: &[f64], shape: &[usize], names: &[&str]) -> Fibertree {
    let ranks = names
        .iter()
        .zip(shape)
        .map(|(n, &s)| RankInfo::new(*n, s))
        .collect();
    let mut tree = Fibertree::empty(ranks);
    let mut coords = vec![0usize; shape.len()];
    for (i, &v) in data.iter().enumerate() {
        if v != 0.0 {
            let mut rem = i;
            for (d, &s) in shape.iter().enumerate().rev() {
                coords[d] = rem % s;
                rem /= s;
            }
            tree.insert(&coords, v);
        }
    }
    tree
}

/// The VFMU's aligned-fetch buffer during one K-walk (reference copy).
struct ReferenceVfmu {
    valid: usize,
    fetch_pos: usize,
    stream_len: usize,
}

impl ReferenceVfmu {
    fn new(stream_len: usize) -> Self {
        Self {
            valid: 0,
            fetch_pos: 0,
            stream_len,
        }
    }

    fn ensure(&mut self, needed: usize) -> (usize, bool) {
        if self.valid >= needed {
            return (0, true);
        }
        let mut fetched = 0;
        while self.valid < needed && self.fetch_pos < self.stream_len {
            let row = GLB_ROW_WORDS.min(self.stream_len - self.fetch_pos);
            self.fetch_pos += row;
            self.valid += row;
            fetched += row;
        }
        assert!(
            self.valid >= needed,
            "GLB stream exhausted before the walk completed"
        );
        (fetched, false)
    }

    fn shift(&mut self, shift: usize) {
        assert!(self.valid >= shift, "VFMU shift beyond valid words");
        self.valid -= shift;
    }
}

/// Step-by-step reference for [`MicroSim::run`]: the modelled
/// `for m / for n / for g` loop nest, one VFMU walk and one accumulation
/// per `(m, n)`, every action counted as it happens.
fn reference_micro_run(cfg: &MicroConfig, a: &Matrix, b: &Matrix, sparse_b: bool) -> MicroReport {
    let (h1, h0) = (cfg.rank1.h as usize, cfg.rank0.h as usize);
    let group_words = cfg.group_words();
    let groups = a.cols() / group_words;
    let (m_dim, n_dim) = (a.rows(), b.cols());

    let a_comp = HssCompressed::encode(a, h1, h0);
    let b_comp = sparse_b.then(|| SparseB::encode(b, h1, h0));

    let mut block_start: Vec<u32> = Vec::with_capacity(groups + 1);
    let mut value_start: Vec<u32> = Vec::new();

    let mut counts = MicroCounts::default();
    let mut output = Matrix::zeros(m_dim, n_dim);
    let mut first_walk = Vec::new();

    for row in a_comp.rows() {
        counts.glb_a_value_reads += row.values.len() as u64;
        counts.glb_a_meta_reads +=
            (row.rank0_cp.len() + row.rank1_cp.len() + row.group_blocks.len()) as u64;
    }

    for (m, arow) in a_comp.rows().iter().enumerate() {
        block_start.clear();
        block_start.push(0);
        let mut acc = 0u32;
        for &nb in &arow.group_blocks {
            acc += u32::from(nb);
            block_start.push(acc);
        }
        value_start.clear();
        value_start.push(0);
        let mut acc = 0u32;
        for &nnz in &arow.block_nnz {
            acc += u32::from(nnz);
            value_start.push(acc);
        }
        for n in 0..n_dim {
            let record_trace = m == 0 && n == 0;
            let bcol = b_comp.as_ref().map(|sb| &sb.columns()[n]);
            let stream_len = match &bcol {
                None => b.rows(),
                Some(col) => col.values.len(),
            };
            let mut vfmu = ReferenceVfmu::new(stream_len);

            for (g, &group_start) in block_start.iter().take(groups).enumerate() {
                let (needed, meta_reads) = match &bcol {
                    None => (group_words, 0u64),
                    Some(col) => (col.group_nnz[g] as usize, 1u64),
                };
                counts.glb_b_meta_reads += meta_reads;
                let (fetched, skipped) = vfmu.ensure(needed);
                counts.glb_b_word_reads += fetched as u64;
                if skipped && needed > 0 {
                    counts.fetches_skipped += 1;
                }
                counts.vfmu_words += (cfg.hmax1 as usize * h0) as u64;
                if record_trace {
                    first_walk.push(StepTrace {
                        group: g,
                        shift_words: needed,
                        fetched_words: fetched,
                        fetch_skipped: skipped && needed > 0,
                    });
                }
                vfmu.shift(needed);

                let nblocks = arow.group_blocks[g] as usize;
                let bc = group_start as usize;
                let mut acc = 0.0f32;
                for pe in 0..nblocks {
                    let cp1 = arow.rank1_cp[bc + pe] as usize;
                    counts.mux_r1_selects += 1;
                    let nnz = arow.block_nnz[bc + pe] as usize;
                    let vbase = value_start[bc + pe] as usize;
                    for j in 0..nnz {
                        let a_val = arow.values[vbase + j];
                        let cp0 = arow.rank0_cp[vbase + j] as usize;
                        counts.mux_r0_selects += 1;
                        let k = g * group_words + cp1 * h0 + cp0;
                        let b_val = b.get(k, n);
                        if b_val != 0.0 {
                            counts.macs += 1;
                            acc += a_val * b_val;
                        } else {
                            counts.gated_macs += 1;
                        }
                    }
                    counts.gated_macs += (cfg.macs_per_pe() - nnz.min(cfg.macs_per_pe())) as u64;
                }

                let cur = output.get(m, n);
                output.set(m, n, cur + acc);
                counts.rf_accesses += 2;
                counts.cycles += 1;
            }
        }
    }

    if let Some(sb) = &b_comp {
        let offs: u64 = sb.columns().iter().map(|c| c.rank0_off.len() as u64).sum();
        counts.glb_b_meta_reads += offs * m_dim as u64;
    }

    MicroReport {
        output,
        counts,
        first_walk,
    }
}

/// Output bits agree, except that two NaNs may differ in payload.
fn same_bits_or_both_nan(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `prune_hss` equals the reference bit for bit on adversarial
    /// values, for every `H` in `1..=32` and one above: at granularity 1
    /// (one rank) and on wider blocks (two and three ranks).
    #[test]
    fn prune_hss_matches_reference_bit_for_bit(pick in 0u32..1000, seed in 0u64..1000) {
        for h in (1..=32u32).chain([40]) {
            let g = 1 + pick % h;
            let patterns = [
                HssPattern::one_rank(Gh::new(g, h)),
                HssPattern::two_rank(Gh::new(g, h), Gh::new(2, 4)),
                HssPattern::new(vec![Gh::new(1, 2), Gh::new(g, h), Gh::new(1 + pick % 3, 3)]),
            ];
            for (i, pattern) in patterns.iter().enumerate() {
                let seed = seed * 101 + u64::from(h) * 3 + i as u64;
                let m = gen::random_special(2, pattern.group_size() * 2, seed);
                prop_assert_eq!(
                    bit_patterns(prune_hss(&m, pattern).data()),
                    bit_patterns(reference_prune_hss(&m, pattern).data())
                );
            }
        }
    }

    /// `top_rank_sums` returns, for every `G` in `1..=H`, the retained
    /// energy `prune_rank` + `sum_sq` computes — for every `H` in `1..=32`
    /// and one above, at granularity 1 to 4. On values with ±0, ±∞,
    /// subnormals and exact ties the sums are bit-identical; once NaNs
    /// enter, a sum is NaN exactly when the reference is.
    #[test]
    fn top_rank_sums_match_prune_then_sum(seed in 0u64..1000) {
        let mut scratch = PruneScratch::new();
        for h in (1..=32u32).chain([40]) {
            for granularity in 1..=4usize {
                let seed = seed * 997 + u64::from(h) * 5 + granularity as u64;
                let cols = h as usize * granularity * 2;
                let special = gen::random_special(2, cols, seed);
                let no_nan = Matrix::from_fn(2, cols, |r, c| {
                    let v = special.get(r, c);
                    if v.is_nan() { 1.0 } else { v }
                });
                for (m, exact) in [(&no_nan, true), (&special, false)] {
                    let sums = top_rank_sums(m, h, granularity, &mut scratch);
                    prop_assert_eq!(sums.len(), h as usize);
                    for (g, &got) in (1..=h).zip(&sums) {
                        let reference = sum_sq(prune_rank(m, Gh::new(g, h), granularity).data());
                        let agree = if exact {
                            got.to_bits() == reference.to_bits()
                        } else {
                            got.is_nan() == reference.is_nan()
                        };
                        prop_assert!(
                            agree,
                            "{g}:{h} granularity {granularity}: {got} vs {reference}"
                        );
                    }
                }
            }
        }
    }

    /// `magnitude_order` equals the packed-key comparison sort
    /// `(magnitude bits << 32 | index)`: magnitude ascending under
    /// `total_cmp`, ties to the lower index.
    #[test]
    fn magnitude_order_matches_packed_sort(rows in 1usize..9, cols in 1usize..300, seed in 0u64..1000) {
        let m = gen::random_special(rows, cols, seed);
        let mut keys: Vec<u64> = m
            .data()
            .iter()
            .enumerate()
            .map(|(i, &v)| (u64::from(v.to_bits() & 0x7FFF_FFFF) << 32) | i as u64)
            .collect();
        keys.sort_unstable();
        let reference: Vec<u32> = keys.into_iter().map(|k| k as u32).collect();
        prop_assert_eq!(magnitude_order(&m), reference);
    }

    /// Generated HSS tensors have exactly the pattern density and conform.
    #[test]
    fn generated_hss_density_is_exact(pattern in pattern_strategy(), seed in 0u64..1000) {
        let cols = pattern.group_size() * 2;
        let m = gen::random_hss(4, cols, pattern.ranks(), seed);
        prop_assert!((m.density() - pattern.density_f64()).abs() < 1e-12);
        prop_assert_eq!(gen::check_hss(&m, pattern.ranks()), None);
    }

    /// Pruning any dense matrix to a pattern yields a conformant matrix and
    /// the retained norm never exceeds 1.
    #[test]
    fn pruning_conforms_and_bounds_norm(pattern in pattern_strategy(), seed in 0u64..1000) {
        let cols = pattern.group_size() * 2;
        let dense = gen::random_dense(4, cols, seed);
        let pruned = prune_hss(&dense, &pattern);
        prop_assert_eq!(gen::check_hss(&pruned, pattern.ranks()), None);
        let r = retained_norm_fraction(&dense, &pruned);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&r));
        // Unstructured pruning at the same degree retains at least as much.
        let un = prune_unstructured(&dense, pattern.sparsity_f64());
        prop_assert!(retained_norm_fraction(&dense, &un) >= r - 1e-9);
    }

    /// Bit-packed occupancy popcounts equal per-element nonzero counts on
    /// random matrices, over whole rows and awkward word-crossing spans —
    /// the invariant `check_hss`'s packed screen relies on.
    #[test]
    fn packed_popcounts_match_per_element_counts(
        rows in 1usize..5,
        cols in 1usize..200,
        sparsity in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        use highlight::tensor::bits;
        let m = gen::random_unstructured(rows, cols, sparsity, seed);
        let mut occ = Vec::new();
        for r in 0..rows {
            let row = m.row(r);
            bits::pack_occupancy(row, &mut occ);
            let len = (cols / 3).max(1);
            for (start, len) in [(0, cols), (cols / 2, len.min(cols - cols / 2)), (cols - len, len)] {
                let naive = row[start..start + len].iter().filter(|&&v| v != 0.0).count();
                prop_assert_eq!(bits::popcount_range(&occ, start, len) as usize, naive);
            }
        }
    }

    /// All three storage formats round-trip arbitrary sparse content, and
    /// both HSS-path encoders equal their per-element references field
    /// for field (values bit for bit) on awkward values — ±0, NaNs, ±∞,
    /// subnormals — for every `H0, H1` in `1..=8`.
    #[test]
    fn formats_roundtrip(sparsity in 0.0f64..1.0, seed in 0u64..1000) {
        let m = gen::random_unstructured(8, 32, sparsity, seed);
        prop_assert_eq!(HssCompressed::encode(&m, 4, 4).decode(), m.clone());
        prop_assert_eq!(Csr::encode(&m).decode(), m.clone());
        let b = gen::random_unstructured(32, 4, sparsity, seed + 1);
        prop_assert_eq!(SparseB::encode(&b, 4, 4).decode(), b);

        for h1 in 1..=8usize {
            for h0 in 1..=8usize {
                let seed = seed * 131 + (h1 * 8 + h0) as u64;
                let group = h1 * h0;
                let groups = 1 + (seed % 3) as usize;
                let a = gen::random_special(1 + (seed % 4) as usize, group * groups, seed);
                let got = HssCompressed::encode(&a, h1, h0);
                let want = reference_hss_rows(&a, h1, h0);
                prop_assert_eq!(got.rows().len(), want.len());
                for (g, w) in got.rows().iter().zip(&want) {
                    prop_assert_eq!(bit_patterns(&g.values), bit_patterns(&w.values));
                    prop_assert_eq!(&g.rank0_cp, &w.rank0_cp);
                    prop_assert_eq!(&g.rank1_cp, &w.rank1_cp);
                    prop_assert_eq!(&g.block_nnz, &w.block_nnz);
                    prop_assert_eq!(&g.group_blocks, &w.group_blocks);
                }
                let b = gen::random_special(group * groups, 1 + (seed % 5) as usize, seed + 1);
                let got = SparseB::encode(&b, h1, h0);
                let want = reference_sparse_b_columns(&b, h1, h0);
                prop_assert_eq!(got.columns().len(), want.len());
                for (g, w) in got.columns().iter().zip(&want) {
                    prop_assert_eq!(bit_patterns(&g.values), bit_patterns(&w.values));
                    prop_assert_eq!(&g.group_nnz, &w.group_nnz);
                    prop_assert_eq!(&g.block_end, &w.block_end);
                    prop_assert_eq!(&g.rank0_off, &w.rank0_off);
                }
            }
        }
    }

    /// The micro-architecture computes the exact GEMM for any supported
    /// configuration and any B sparsity, compressed or dense, and its
    /// report equals the step-by-step `(m, n, g)` reference: every count,
    /// the first VFMU walk, and every output bit (two NaNs may differ in
    /// payload). Covers `Hmax1 > H1`, several `M`, `N` and `K`, sparse and
    /// dense B with ordinary and awkward values, and A with awkward
    /// values at its nonzero positions.
    #[test]
    fn micro_sim_equals_reference(
        h1 in 2u32..=4,
        b_sparsity in 0.0f64..0.95,
        sparse_b in any::<bool>(),
        seed in 0u64..500,
    ) {
        let cfg = MicroConfig::paper_downsized(h1);
        let k = cfg.group_words() * 2;
        let a = gen::random_hss(3, k, &[cfg.rank1, cfg.rank0], seed);
        let b = gen::random_unstructured(k, 3, b_sparsity, seed + 1);
        let report = MicroSim::new(cfg).run(&a, &b, sparse_b);
        prop_assert!(report.output.approx_eq(&a.matmul(&b), 1e-3));

        for case in 0..12u64 {
            let seed = seed * 1009 + case;
            let g1 = 1 + (seed % u64::from(h1)) as u32;
            let h0 = 2 + (seed / 3 % 3) as u32;
            let g0 = 1 + (seed / 9 % u64::from(h0)) as u32;
            let hmax1 = h1 + (seed / 27 % 3) as u32;
            let cfg = MicroConfig::new(Gh::new(g1, h1), Gh::new(g0, h0), hmax1);
            let (m, n) = (1 + (seed % 4) as usize, 1 + (seed / 4 % 5) as usize);
            let k = cfg.group_words() * (1 + (seed / 5 % 4) as usize);
            let ranks = [cfg.rank1, cfg.rank0];
            let mut a = gen::random_hss(m, k, &ranks, seed);
            if case % 2 == 1 {
                let special = gen::random_special(m, k, seed + 2);
                for (v, &x) in a.data_mut().iter_mut().zip(special.data()) {
                    if *v != 0.0 {
                        *v = x;
                    }
                }
            }
            let b = if case % 3 == 2 {
                gen::random_special(k, n, seed + 1)
            } else {
                gen::random_unstructured(k, n, b_sparsity, seed + 1)
            };
            for sparse_b in [false, true] {
                let got = MicroSim::new(cfg).run(&a, &b, sparse_b);
                let want = reference_micro_run(&cfg, &a, &b, sparse_b);
                let at = format!("{cfg:?} M={m} N={n} K={k} sparse_b={sparse_b}");
                prop_assert!(
                    got.counts == want.counts,
                    "{at}: counts {:?} vs {:?}",
                    got.counts,
                    want.counts
                );
                prop_assert!(
                    got.first_walk == want.first_walk,
                    "{at}: first walk {:?} vs {:?}",
                    got.first_walk,
                    want.first_walk
                );
                prop_assert_eq!(got.output.rows(), want.output.rows());
                prop_assert_eq!(got.output.cols(), want.output.cols());
                for (&x, &y) in got.output.data().iter().zip(want.output.data()) {
                    prop_assert!(same_bits_or_both_nan(x, y), "{}: {} vs {}", at, x, y);
                }
            }
        }
    }

    /// Fibertree transforms are content-preserving: split∘flatten = id and
    /// reorder twice with the inverse permutation = id. `from_dense`
    /// builds the same tree as one `insert` per nonzero, down to the arena
    /// layout, for one to four ranks with ±0 among the values.
    #[test]
    fn fibertree_transforms_preserve_content(seed in 0u64..1000) {
        let m = gen::random_unstructured(4, 12, 0.5, seed);
        let data: Vec<f64> = m.data().iter().map(|&v| f64::from(v)).collect();
        let tree = Fibertree::from_dense(&data, &[4, 3, 4], &["A", "B", "C"]).unwrap();
        let split = tree.split_rank(2, 2).unwrap();
        let back = split.flatten_ranks(2).unwrap();
        prop_assert_eq!(back.to_dense(), tree.to_dense());
        let perm = tree.reorder(&[2, 0, 1]).unwrap();
        let inv = perm.reorder(&[1, 2, 0]).unwrap();
        prop_assert_eq!(inv.to_dense(), tree.to_dense());

        let names = ["R0", "R1", "R2", "R3"];
        for case in 0..16u64 {
            let seed = seed * 61 + case;
            let ranks = 1 + (case % 4) as usize;
            let shape: Vec<usize> = (0..ranks)
                .map(|d| 1 + (seed >> (3 * d)) as usize % 4)
                .collect();
            let total: usize = shape.iter().product();
            let sparsity = [0.0, 0.5, 0.9][(seed % 3) as usize];
            let occupancy = gen::random_unstructured(1, total, sparsity, seed);
            let special = gen::random_special(1, total, seed + 1);
            let data: Vec<f64> = (0..total)
                .map(|i| match (occupancy.get(0, i) != 0.0, i % 2) {
                    (true, _) => f64::from(special.get(0, i)),
                    (false, 0) => 0.0,
                    (false, _) => -0.0,
                })
                .collect();
            let names = &names[..ranks];
            let got = Fibertree::from_dense(&data, &shape, names).unwrap();
            let want = reference_from_dense(&data, &shape, names);
            let (got, want) = (format!("{got:?}"), format!("{want:?}"));
            prop_assert!(got == want, "shape {shape:?}: {got} vs {want}");
        }
    }

    /// Workload EDP metrics are consistent: ED² = EDP · latency, and the
    /// operand swap never makes `evaluate_best` worse.
    #[test]
    fn evaluation_metric_consistency(sa in 0.0f64..0.9, sb in 0.0f64..0.9) {
        let tc = Tc::default();
        let w = Workload::synthetic(
            OperandSparsity::unstructured(sa),
            OperandSparsity::unstructured(sb),
        );
        let direct = tc.evaluate(&w).unwrap();
        let best = evaluate_best(&tc, &w).unwrap();
        prop_assert!(best.edp() <= direct.edp() + 1e-30);
        prop_assert!((best.ed2() - best.edp() * best.latency_s()).abs() <= best.ed2() * 1e-12);
    }

    /// Memoized and unmemoized accelerator evaluations agree exactly: the
    /// engine's cached `evaluate_best` returns the same result as the plain
    /// call, on both the cold (miss) and warm (hit) path, for arbitrary
    /// workloads and designs.
    #[test]
    fn engine_memoization_is_transparent(
        sa in 0.0f64..0.9,
        sb in 0.0f64..0.9,
        pattern in pattern_strategy(),
        structured in any::<bool>(),
    ) {
        let engine = highlight::sim::engine::Engine::serial();
        let a = if structured {
            OperandSparsity::Hss(pattern)
        } else {
            OperandSparsity::unstructured(sa)
        };
        let w = Workload::synthetic(a, OperandSparsity::unstructured(sb));
        let designs: Vec<Box<dyn Accelerator>> =
            vec![Box::new(Tc::default()), Box::new(HighLight::default())];
        for d in &designs {
            let plain = evaluate_best(d.as_ref(), &w);
            let cold = engine.evaluate_best(d.as_ref(), &w);
            let warm = engine.evaluate_best(d.as_ref(), &w);
            prop_assert_eq!(plain.clone().ok(), cold.ok());
            prop_assert_eq!(plain.ok(), warm.ok());
        }
    }

    /// Memoized and unmemoized accuracy-surrogate evaluations agree
    /// exactly: weight synthesis, magnitude-order, and retention caches are
    /// all keyed on every input the evaluation reads.
    #[test]
    fn retention_memoization_is_transparent(
        pattern in pattern_strategy(),
        sparsity in 0.0f64..0.95,
        structured in any::<bool>(),
        k in 1usize..8,
    ) {
        use highlight::models::accuracy::{
            accuracy_loss, accuracy_loss_cached, PruningConfig, RetentionCache,
        };
        use highlight::models::{DnnModel, LayerKind, LayerSpec};

        let cfg = if structured {
            PruningConfig::Hss(pattern)
        } else {
            PruningConfig::Unstructured { sparsity }
        };
        let model = DnnModel {
            name: "prop".into(),
            metric: "top-1 %",
            dense_accuracy: 70.0,
            sensitivity: 1.0,
            layers: vec![LayerSpec::new(
                "l",
                LayerKind::Linear,
                GemmShape::new(16, k * 64, 8),
                1,
                true,
                0.0,
            )],
        };
        let cache = RetentionCache::new();
        let plain = accuracy_loss(&model, &cfg);
        let cold = accuracy_loss_cached(&model, &cfg, &cache);
        let warm = accuracy_loss_cached(&model, &cfg, &cache);
        prop_assert_eq!(plain, cold);
        prop_assert_eq!(plain, warm);
    }
}
