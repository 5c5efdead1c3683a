//! Functional micro-architecture simulator of the down-sized HighLight
//! (paper §6, Figs. 9–12).
//!
//! The simulator executes *real data* through the modeled datapath:
//!
//! - operand A is stored in the hierarchical CP format
//!   ([`hl_tensor::format::HssCompressed`], Fig. 9);
//! - the **Rank1 skipping SAF** distributes only non-empty Rank1 blocks to
//!   the PEs, with a **VFMU** performing variable-length shifts over aligned
//!   16-word GLB fetches (Fig. 11);
//! - the **Rank0 skipping SAF** muxes the correct operand-B words to each
//!   MAC using the Rank0 CPs (Fig. 10);
//! - sparse operand B uses the three-level metadata format and **gating**
//!   (Fig. 12): ineffectual MACs idle without changing the cycle count, and
//!   GLB fetches are skipped when the VFMU already holds enough valid words.
//!
//! ## Modeled dataflow
//!
//! ```text
//! for m in 0..M:                  # output row; A blocks of (m,g) are loaded
//!   for n in 0..N:                #   once per (m,g) and reused across n
//!     for g in 0..K/(H1·H0):      # one cycle per step: VFMU walks K with
//!       step                      #   shift = H1·H0 (dense) or group-nnz
//! ```
//!
//! Each step, the `G1` PEs each receive one non-empty Rank1 block and their
//! `G0` MACs each handle one nonzero of that block; partial sums accumulate
//! spatially and update the RF once per step. Cycle count is therefore
//! `M · N · K/(H1·H0)` — the hierarchical-skipping speedup
//! `(H1/G1)·(H0/G0)` over a dense array of `G1·G0` MACs (§6.3).
//!
//! ## How the simulator computes it
//!
//! [`MicroSim::run`] produces the counts and outputs of that loop nest
//! without stepping it cycle by cycle:
//!
//! - the VFMU state depends only on B's column and the group, never on
//!   `m`, so each column is walked once (`N` walks, not `M·N`) and its
//!   B-side counts are multiplied by `M`;
//! - cycles, RF accesses, VFMU words and SAF selections are closed-form
//!   in `M`, `N`, the group count and A's block and value counts;
//! - the MACs run with `n` innermost: each stored A value meets B's
//!   contiguous row `k` once and updates `N` per-group accumulators,
//!   which are added into row `m` of the output after each group. Every
//!   output receives the same additions in the same order as the
//!   modelled loop, so the result is bit-identical to it.
//!
//! The simulator's output is asserted against the reference GEMM in the
//! test-suite, and its action counts anchor the analytical HighLight model.

use std::fmt;

use hl_sparsity::{Gh, HssPattern};
use hl_tensor::format::{HssCompressed, SparseB};
use hl_tensor::{gen, Matrix};

/// Words per GLB row (Fig. 11: "each GLB row contains 16 data words").
pub const GLB_ROW_WORDS: usize = 16;

/// Configuration of the down-sized HighLight micro-architecture.
///
/// The paper's walkthrough configuration is two PEs with two MACs each and
/// sparsity support `C1(2:{2≤H≤4})→C0(2:4)` ([`MicroConfig::paper_downsized`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroConfig {
    /// Rank1 pattern `G1:H1`; `G1` equals the PE count.
    pub rank1: Gh,
    /// Rank0 pattern `G0:H0`; `G0` equals the MACs per PE.
    pub rank0: Gh,
    /// Largest `H1` the hardware supports (VFMU sizing, `2·Hmax` blocks).
    pub hmax1: u32,
}

impl MicroConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics if `rank1.h > hmax1`.
    pub fn new(rank1: Gh, rank0: Gh, hmax1: u32) -> Self {
        assert!(
            rank1.h <= hmax1,
            "H1 ({}) exceeds hardware Hmax ({hmax1})",
            rank1.h
        );
        Self {
            rank1,
            rank0,
            hmax1,
        }
    }

    /// The §6 walkthrough configuration with the given `H1 ∈ [2,4]`.
    ///
    /// # Panics
    /// Panics if `h1` is outside `[2, 4]`.
    pub fn paper_downsized(h1: u32) -> Self {
        assert!(
            (2..=4).contains(&h1),
            "the down-sized design supports 2 <= H1 <= 4"
        );
        Self::new(Gh::new(2, h1), Gh::new(2, 4), 4)
    }

    /// Number of PEs (= `G1`).
    pub fn pes(&self) -> usize {
        self.rank1.g as usize
    }

    /// MACs per PE (= `G0`).
    pub fn macs_per_pe(&self) -> usize {
        self.rank0.g as usize
    }

    /// Values per Rank1 group: `H1 · H0`.
    pub fn group_words(&self) -> usize {
        self.rank1.h as usize * self.rank0.h as usize
    }

    /// The HSS pattern operand A must conform to.
    pub fn pattern(&self) -> HssPattern {
        HssPattern::two_rank(self.rank1, self.rank0)
    }
}

/// Hardware action counts gathered during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MicroCounts {
    /// Total cycles (one per processing step).
    pub cycles: u64,
    /// Effectual MAC operations.
    pub macs: u64,
    /// Gated (ineffectual, energy-free) MAC slots.
    pub gated_macs: u64,
    /// Operand A value words read from GLB.
    pub glb_a_value_reads: u64,
    /// Operand A metadata (CP) entries read from GLB.
    pub glb_a_meta_reads: u64,
    /// Operand B data words fetched from GLB (aligned rows).
    pub glb_b_word_reads: u64,
    /// Operand B metadata entries read from GLB.
    pub glb_b_meta_reads: u64,
    /// Words streamed out of the VFMU (including dummy padding).
    pub vfmu_words: u64,
    /// Rank1 SAF mux selections.
    pub mux_r1_selects: u64,
    /// Rank0 SAF mux selections.
    pub mux_r0_selects: u64,
    /// Register-file accesses (partial-sum read + write per step).
    pub rf_accesses: u64,
    /// GLB fetches skipped because the VFMU held enough valid words
    /// (sparse B, Fig. 12b).
    pub fetches_skipped: u64,
}

/// One VFMU step record (for reproducing the Fig. 11 / Fig. 12 walkthroughs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTrace {
    /// Rank1 group index along K.
    pub group: usize,
    /// Words the VFMU shifted by after the step.
    pub shift_words: usize,
    /// Words fetched from GLB for this step (0 when the fetch was skipped).
    pub fetched_words: usize,
    /// Whether a needed fetch was skipped thanks to buffered valid words.
    pub fetch_skipped: bool,
}

/// Result of a micro-architecture run.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroReport {
    /// The computed output matrix (`M×N`).
    pub output: Matrix,
    /// Action counts.
    pub counts: MicroCounts,
    /// VFMU trace of the first `(m=0, n=0)` K-walk.
    pub first_walk: Vec<StepTrace>,
}

/// The down-sized HighLight simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroSim {
    config: MicroConfig,
}

/// Operand A violates the configured HSS pattern (see [`MicroSim::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonconformantOperand {
    /// The pattern the operand was checked against.
    pub pattern: HssPattern,
    /// Row of the first violation.
    pub row: usize,
    /// Violating rank, indexed from the highest rank.
    pub rank: usize,
    /// Start column of the violating group.
    pub group_start: usize,
}

impl fmt::Display for NonconformantOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operand A does not conform to {}: row {}, rank {} (from highest), group at column {}",
            self.pattern, self.row, self.rank, self.group_start
        )
    }
}

impl std::error::Error for NonconformantOperand {}

/// Tracks the VFMU's aligned-fetch buffer state during one K-walk.
struct VfmuState {
    /// Valid words currently buffered.
    valid: usize,
    /// Next aligned GLB word offset to fetch.
    fetch_pos: usize,
    /// Total words available in the stream.
    stream_len: usize,
}

impl VfmuState {
    fn new(stream_len: usize) -> Self {
        Self {
            valid: 0,
            fetch_pos: 0,
            stream_len,
        }
    }

    /// Ensures `needed` valid words, fetching aligned 16-word rows.
    /// Returns `(fetched_words, skipped)`.
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

    /// Consumes `shift` words (the configured shift signal).
    fn shift(&mut self, shift: usize) {
        assert!(self.valid >= shift, "VFMU shift beyond valid words");
        self.valid -= shift;
    }
}

impl MicroSim {
    /// Creates a simulator for the given configuration.
    pub fn new(config: MicroConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MicroConfig {
        &self.config
    }

    /// Checks that operand A conforms to the configured two-rank HSS
    /// pattern, reporting the first violation.
    ///
    /// [`run`](Self::run) only `debug_assert`s conformance (the O(M·K)
    /// walk is pure overhead on hot simulation paths whose operands are
    /// conformant by construction); callers handling untrusted operands
    /// must validate explicitly before running.
    ///
    /// # Errors
    /// Returns the first violating `(row, rank, group)` when `a` does not
    /// conform.
    pub fn validate(&self, a: &Matrix) -> Result<(), NonconformantOperand> {
        let cfg = &self.config;
        match gen::check_hss(a, &[cfg.rank1, cfg.rank0]) {
            None => Ok(()),
            Some((row, rank, group_start)) => Err(NonconformantOperand {
                pattern: cfg.pattern(),
                row,
                rank,
                group_start,
            }),
        }
    }

    /// Runs `A (M×K) · B (K×N)` through the modeled datapath.
    ///
    /// `A` must conform to the configured two-rank HSS pattern; this is
    /// `debug_assert`ed here and checked on demand via
    /// [`validate`](Self::validate). When `sparse_b` is true, B is stored
    /// compressed with the Fig. 12 metadata and exploited by gating;
    /// otherwise B is stored dense.
    ///
    /// # Panics
    /// Panics if the dimensions disagree or `K` is not a multiple of
    /// `H1·H0`; in debug builds, also if `A` violates the pattern.
    pub fn run(&self, a: &Matrix, b: &Matrix, sparse_b: bool) -> MicroReport {
        let cfg = &self.config;
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        debug_assert_eq!(
            self.validate(a).err(),
            None,
            "operand A must conform to {}",
            cfg.pattern()
        );
        let (h1, h0) = (cfg.rank1.h as usize, cfg.rank0.h as usize);
        let group_words = cfg.group_words();
        assert!(
            a.cols().is_multiple_of(group_words),
            "K must be a multiple of H1*H0"
        );
        let groups = a.cols() / group_words;
        let (m_dim, n_dim) = (a.rows(), b.cols());

        let a_comp = HssCompressed::encode(a, h1, h0);
        let b_comp = sparse_b.then(|| SparseB::encode(b, h1, h0));

        let mut counts = MicroCounts::default();

        // Operand A loads: once per (m, g) — blocks stay stationary in PE
        // registers while B streams across n (HSS-operand stationary, §6.3.1).
        let mut under_full = 0u64;
        let g0 = cfg.macs_per_pe();
        for row in a_comp.rows() {
            counts.glb_a_value_reads += row.values.len() as u64;
            counts.glb_a_meta_reads +=
                (row.rank0_cp.len() + row.rank1_cp.len() + row.group_blocks.len()) as u64;
            under_full += row
                .block_nnz
                .iter()
                .map(|&nnz| (g0 - usize::from(nnz).min(g0)) as u64)
                .sum::<u64>();
        }

        // --- VFMU: the walk over K depends only on B's column, so one walk
        // per column stands for all M rows that stream it.
        let mut first_walk = Vec::new();
        let (mut b_meta, mut b_words, mut skips) = (0u64, 0u64, 0u64);
        for n in 0..n_dim {
            let bcol = b_comp.as_ref().map(|sb| &sb.columns()[n]);
            let stream_len = match bcol {
                None => b.rows(), // dense column: K words
                Some(col) => col.values.len(),
            };
            let mut vfmu = VfmuState::new(stream_len);
            for g in 0..groups {
                let needed = match bcol {
                    None => group_words,
                    Some(col) => {
                        // Level-1 metadata: nonzeros in this group's blocks.
                        b_meta += 1;
                        col.group_nnz[g] as usize
                    }
                };
                let (fetched, skipped) = vfmu.ensure(needed);
                b_words += fetched as u64;
                let fetch_skipped = skipped && needed > 0;
                skips += u64::from(fetch_skipped);
                if n == 0 && m_dim > 0 {
                    first_walk.push(StepTrace {
                        group: g,
                        shift_words: needed,
                        fetched_words: fetched,
                        fetch_skipped,
                    });
                }
                vfmu.shift(needed);
            }
        }
        // Per-value Rank0 offsets of sparse B are consumed once per walk.
        if let Some(sb) = &b_comp {
            b_meta += sb.nonzeros() as u64;
        }
        let m_rows = m_dim as u64;
        counts.glb_b_meta_reads = b_meta * m_rows;
        counts.glb_b_word_reads = b_words * m_rows;
        counts.fetches_skipped = skips * m_rows;

        // --- Rank1 + Rank0 SAFs and the MACs, N innermost: each stored A
        // value meets B's contiguous row `k` once, feeding one accumulator
        // per output column. A gated slot adds `+0.0`, which leaves an
        // accumulator that starts at `+0.0` unchanged, so every output sees
        // the same additions in the same order as the per-(m, n) walk.
        let mut output = Matrix::zeros(m_dim, n_dim);
        let mut acc = vec![0.0f32; n_dim];
        let mut macs = 0u64;
        for (m, arow) in a_comp.rows().iter().enumerate() {
            let out_row = output.row_mut(m);
            let (mut bi, mut vi) = (0usize, 0usize);
            for (g, &nblocks) in arow.group_blocks.iter().enumerate() {
                acc.fill(0.0);
                for _ in 0..nblocks {
                    let k_block = g * group_words + usize::from(arow.rank1_cp[bi]) * h0;
                    let nnz = usize::from(arow.block_nnz[bi]);
                    bi += 1;
                    for (&a_val, &cp0) in arow.values[vi..vi + nnz]
                        .iter()
                        .zip(&arow.rank0_cp[vi..vi + nnz])
                    {
                        let k = k_block + usize::from(cp0);
                        for (s, &b_val) in acc.iter_mut().zip(b.row(k)) {
                            // Gating SAF: a zero B word idles its MAC (§6.4).
                            let effectual = b_val != 0.0;
                            *s += if effectual { a_val * b_val } else { 0.0 };
                            macs += u64::from(effectual);
                        }
                    }
                    vi += nnz;
                }
                // --- Spatial accumulation + RF update.
                for (o, &s) in out_row.iter_mut().zip(&acc) {
                    *o += s;
                }
            }
        }

        let cycles = m_rows * n_dim as u64 * groups as u64;
        let n_cols = n_dim as u64;
        counts.cycles = cycles;
        counts.macs = macs;
        counts.rf_accesses = 2 * cycles;
        // The VFMU always presents Hmax blocks (dummy padding for
        // H1 < Hmax, Fig. 11).
        counts.vfmu_words = cycles * u64::from(cfg.hmax1) * h0 as u64;
        counts.mux_r1_selects = n_cols * a_comp.nonempty_blocks() as u64;
        counts.mux_r0_selects = n_cols * counts.glb_a_value_reads;
        // Unused MAC slots in under-full blocks, plus zero B words.
        counts.gated_macs = n_cols * under_full + (counts.mux_r0_selects - macs);

        MicroReport {
            output,
            counts,
            first_walk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(cfg: &MicroConfig, m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
        let a = gen::random_hss(m, k, &[cfg.rank1, cfg.rank0], seed);
        let b = gen::random_dense(k, n, seed + 1);
        (a, b)
    }

    #[test]
    fn output_matches_reference_gemm_dense_b() {
        for h1 in 2..=4 {
            let cfg = MicroConfig::paper_downsized(h1);
            let k = cfg.group_words() * 4;
            let (a, b) = workload(&cfg, 6, k, 5, 100 + u64::from(h1));
            let report = MicroSim::new(cfg).run(&a, &b, false);
            assert!(
                report.output.approx_eq(&a.matmul(&b), 1e-3),
                "H1={h1}: micro-sim output must equal reference GEMM"
            );
        }
    }

    #[test]
    fn output_matches_reference_gemm_sparse_b() {
        for h1 in 2..=4 {
            let cfg = MicroConfig::paper_downsized(h1);
            let k = cfg.group_words() * 4;
            let a = gen::random_hss(4, k, &[cfg.rank1, cfg.rank0], 7);
            let b = gen::random_unstructured(k, 6, 0.6, 8);
            let report = MicroSim::new(cfg).run(&a, &b, true);
            assert!(report.output.approx_eq(&a.matmul(&b), 1e-3));
        }
    }

    #[test]
    fn cycle_count_is_hierarchical_skipping_speedup() {
        let cfg = MicroConfig::paper_downsized(4);
        let (m, k, n) = (4, 64, 8);
        let (a, b) = workload(&cfg, m, k, n, 3);
        let report = MicroSim::new(cfg).run(&a, &b, false);
        let groups = k / cfg.group_words();
        assert_eq!(report.counts.cycles, (m * n * groups) as u64);
        // Dense 4-MAC array would take M*K*N/4 cycles; speedup = (H1/G1)(H0/G0).
        let dense_cycles = (m * k * n) as f64 / 4.0;
        let speedup = dense_cycles / report.counts.cycles as f64;
        assert!((speedup - cfg.pattern().ideal_speedup()).abs() < 1e-9);
    }

    #[test]
    fn macs_equal_effectual_work_dense_b() {
        let cfg = MicroConfig::paper_downsized(3);
        let (a, b) = workload(&cfg, 3, 48, 4, 5);
        let report = MicroSim::new(cfg).run(&a, &b, false);
        // Dense B: every stored A value does one MAC per n.
        assert_eq!(report.counts.macs, (a.nonzeros() * 4) as u64);
        assert_eq!(report.counts.gated_macs, 0);
    }

    #[test]
    fn gating_counts_ineffectual_slots_without_extra_cycles() {
        let cfg = MicroConfig::paper_downsized(4);
        let k = cfg.group_words() * 2;
        let a = gen::random_hss(2, k, &[cfg.rank1, cfg.rank0], 11);
        let b = gen::random_unstructured(k, 4, 0.5, 12);
        let dense_run = MicroSim::new(cfg).run(&a, &gen::random_dense(k, 4, 13), false);
        let sparse_run = MicroSim::new(cfg).run(&a, &b, true);
        assert_eq!(
            dense_run.counts.cycles, sparse_run.counts.cycles,
            "gating keeps cycles"
        );
        assert!(sparse_run.counts.gated_macs > 0);
        assert_eq!(
            sparse_run.counts.macs + sparse_run.counts.gated_macs,
            dense_run.counts.macs
        );
    }

    #[test]
    fn fig11_vfmu_shifts_for_2_3_pattern() {
        // H1=3: groups of 12 words; the VFMU shifts by 12 per step and
        // fetches aligned 16-word rows (Fig. 11).
        let cfg = MicroConfig::paper_downsized(3);
        let k = cfg.group_words() * 4; // 48 words per column
        let (a, b) = workload(&cfg, 1, k, 1, 17);
        let report = MicroSim::new(cfg).run(&a, &b, false);
        let trace = &report.first_walk;
        assert_eq!(trace.len(), 4);
        assert!(trace.iter().all(|t| t.shift_words == 12));
        // Step 1 fetches a 16-word row; step 2 needs 12 but holds only 4,
        // so it fetches another row; step 3 holds 8 -> fetch; step 4 holds
        // 12 -> the fetch is skipped (valid words suffice).
        assert_eq!(trace[0].fetched_words, 16);
        assert_eq!(trace[1].fetched_words, 16);
        assert_eq!(trace[2].fetched_words, 16);
        assert_eq!(trace[3].fetched_words, 0);
        assert!(trace[3].fetch_skipped);
    }

    #[test]
    fn fig12_sparse_b_skips_fetches_when_buffered() {
        let cfg = MicroConfig::paper_downsized(3);
        let k = cfg.group_words() * 4;
        let a = gen::random_hss(1, k, &[cfg.rank1, cfg.rank0], 19);
        let b = gen::random_unstructured(k, 1, 0.5, 20);
        let report = MicroSim::new(cfg).run(&a, &b, true);
        // Compressed B streams ~24 words instead of 48; with 16-word rows
        // several steps find enough valid words already buffered.
        assert!(report.counts.fetches_skipped > 0);
        let dense_report = MicroSim::new(cfg).run(&a, &gen::random_dense(k, 1, 21), false);
        assert!(report.counts.glb_b_word_reads < dense_report.counts.glb_b_word_reads);
    }

    #[test]
    fn saf_select_counts() {
        let cfg = MicroConfig::paper_downsized(4);
        let (m, k, n) = (2, 32, 3);
        let (a, b) = workload(&cfg, m, k, n, 23);
        let report = MicroSim::new(cfg).run(&a, &b, false);
        let steps = (m * n * (k / cfg.group_words())) as u64;
        // Full pattern: G1 block selects and G1*G0 value selects per step.
        assert_eq!(report.counts.mux_r1_selects, steps * 2);
        assert_eq!(report.counts.mux_r0_selects, steps * 4);
        assert_eq!(report.counts.rf_accesses, steps * 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "conform")]
    fn rejects_nonconformant_operand() {
        let cfg = MicroConfig::paper_downsized(4);
        let a = gen::random_dense(2, 32, 1); // dense violates 2:4 blocks
        let b = gen::random_dense(32, 2, 2);
        let _ = MicroSim::new(cfg).run(&a, &b, false);
    }

    #[test]
    fn validate_errors_on_invalid_operand_in_any_build() {
        // `run` only debug_asserts conformance, so the release-mode
        // contract is this public entry point: it must report invalid
        // operands identically with and without debug assertions.
        let cfg = MicroConfig::paper_downsized(4);
        let sim = MicroSim::new(cfg);
        let a = gen::random_dense(2, 32, 1);
        let err = sim.validate(&a).expect_err("dense operand violates 2:4");
        assert_eq!(err.row, 0);
        assert!(err.to_string().contains("does not conform"));
        let good = gen::random_hss(2, 32, &[cfg.rank1, cfg.rank0], 3);
        assert_eq!(sim.validate(&good), Ok(()));
    }

    #[test]
    #[should_panic(expected = "supports")]
    fn paper_downsized_rejects_h1_out_of_range() {
        let _ = MicroConfig::paper_downsized(5);
    }
}
