//! Property-based tests of the core invariants, across crates.

use highlight::fibertree::Fibertree;
use highlight::prelude::*;
use highlight::sim::micro::{MicroConfig, MicroSim};
use highlight::sparsity::prune::{
    magnitude_order, prune_hss, prune_rank, prune_unstructured, retained_norm_fraction, sum_sq,
    top_rank_sums, PruneScratch,
};
use highlight::tensor::format::{Csr, HssCompressed, SparseB};
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

fn bit_patterns(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
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
                    bit_patterns(&prune_hss(&m, pattern)),
                    bit_patterns(&reference_prune_hss(&m, pattern))
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
    /// the invariant `check_hss` and the encoders' packed fast paths rely
    /// on.
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
                let mut visited = Vec::new();
                bits::for_each_set_bit(&occ, start, len, |i| visited.push(i));
                prop_assert_eq!(visited.len(), naive);
                prop_assert!(visited.iter().all(|&i| row[start + i] != 0.0));
            }
        }
    }

    /// All three storage formats round-trip arbitrary sparse content.
    #[test]
    fn formats_roundtrip(sparsity in 0.0f64..1.0, seed in 0u64..1000) {
        let m = gen::random_unstructured(8, 32, sparsity, seed);
        prop_assert_eq!(HssCompressed::encode(&m, 4, 4).decode(), m.clone());
        prop_assert_eq!(Csr::encode(&m).decode(), m.clone());
        let b = gen::random_unstructured(32, 4, sparsity, seed + 1);
        prop_assert_eq!(SparseB::encode(&b, 4, 4).decode(), b);
    }

    /// The micro-architecture computes the exact GEMM for any supported
    /// configuration and any B sparsity, compressed or dense.
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
    }

    /// Fibertree transforms are content-preserving: split∘flatten = id and
    /// reorder twice with the inverse permutation = id.
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
