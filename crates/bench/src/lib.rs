//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `src/bin/*.rs` binary reproduces one table or figure (see
//! `DESIGN.md` §4 for the index); this library holds the shared machinery:
//!
//! - [`designs`]: the evaluated design registry (TC, STC, DSTC, S2TA,
//!   HighLight) in the paper's presentation order;
//! - [`operand_a_for`] / [`operand_b_for`]: the co-design step — each design
//!   is handed a workload *in the sparsity pattern it was designed for* at
//!   the requested degree (§7.1.2: models are structured-pruned for
//!   STC/S2TA/HighLight and unstructured-pruned for DSTC);
//! - [`SweepContext`]: the evaluation front-end every sweep runs through.
//!   [`SweepContext::new`] uses the parallel engine
//!   ([`hl_sim::engine`]) — `(design, workload)` cells fan out across a
//!   worker pool (`HL_THREADS` override) and repeated pure evaluations
//!   (accelerator results, surrogate weight synthesis, per-layer
//!   retention) are memoized. [`SweepContext::serial_baseline`] runs the
//!   same code single-threaded and uncached — the reference the engine is
//!   benchmarked against (`bench_sweeps`) and must match byte-for-byte;
//! - [`run_synthetic_sweep`]: the Fig. 13 sweep (A ∈ {0, 50, 75}%,
//!   B ∈ {0, 25, 50, 75}% on 1024³ GEMMs), a [`SweepGrid`] under the hood;
//! - [`eval_model`] / [`SweepContext::eval_network`]: whole-DNN evaluation
//!   through the [`hl_sim::network`] subsystem — models lower to a
//!   [`NetworkWorkload`] via the design's [`DesignMapping`] and layers fan
//!   out across the engine pool, hitting the eval cache individually —
//!   for Figs. 2 and 15;
//! - [`fig2_data`] / [`fig15_points`]: the Fig. 2 / Fig. 15 sweep cores,
//!   shared by the figure binaries and the `bench_sweeps` perf harness;
//! - [`search`]: the §7.1.2 co-design search — [`SweepContext::codesign`]
//!   optimizes a pruning configuration for a `(design, model)` pair under
//!   an accuracy-loss budget, returning the Pareto front over
//!   `(loss, EDP)` (consumed by the `codesign` binary, the `hl-serve`
//!   `POST /search` endpoint, and the `hl-client search` subcommand);
//! - report helpers that print aligned tables and persist them under
//!   `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod search;
pub mod tables;

use std::fs;
use std::path::{Path, PathBuf};

pub use registry::{design_by_name, registered_names, DesignId, UnknownDesign};
pub use search::{codesign_space, SearchOutcome, SearchPoint};

use highlight_core::HighLight;
use hl_baselines::{Dstc, S2ta, Stc, Tc};
use hl_models::accuracy::{
    accuracy_loss, accuracy_loss_cached, accuracy_losses_cached, PruningConfig, RetentionCache,
};
use hl_models::DnnModel;
use hl_sim::engine::{Engine, SweepGrid};
use hl_sim::network::{NetworkEval, NetworkWorkload, SparsityMapping};
use hl_sim::{evaluate_best, Accelerator, EvalResult, OperandSparsity, Unsupported, Workload};
use hl_sparsity::families::{highlight_a, HssFamily};
use hl_sparsity::{Gh, HssPattern};

/// The evaluated designs in the paper's presentation order.
pub fn designs() -> Vec<Box<dyn Accelerator>> {
    vec![
        Box::new(Tc::default()),
        Box::new(Stc::default()),
        Box::new(Dstc::default()),
        Box::new(S2ta::default()),
        Box::new(HighLight::default()),
    ]
}

/// Design names in registry order.
pub fn design_names() -> Vec<String> {
    designs().iter().map(|d| d.name().to_string()).collect()
}

/// Maps a weight-sparsity degree to the operand A descriptor each design is
/// co-designed with (§7.1.2).
///
/// # Panics
/// Panics on a name the [`registry`] does not know; fallible front-ends
/// (the `hl-serve` API) use [`try_operand_a_for`].
pub fn operand_a_for(design: &str, sparsity: f64) -> OperandSparsity {
    try_operand_a_for(design, sparsity).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`operand_a_for`].
///
/// # Errors
/// [`UnknownDesign`] when the name is not registered.
pub fn try_operand_a_for(design: &str, sparsity: f64) -> Result<OperandSparsity, UnknownDesign> {
    let id: DesignId = design.parse()?;
    if sparsity == 0.0 {
        return Ok(OperandSparsity::Dense);
    }
    Ok(match id {
        DesignId::Tc | DesignId::Dstc => OperandSparsity::unstructured(sparsity),
        DesignId::Stc => {
            // {G≤2}:4 — 50% runs 2:4, anything sparser runs 1:4.
            let g = if sparsity <= 0.5 { 2 } else { 1 };
            OperandSparsity::Hss(HssPattern::one_rank(Gh::new(g, 4)))
        }
        DesignId::S2ta => {
            let g = ((1.0 - sparsity) * 8.0).round().max(1.0) as u32;
            OperandSparsity::Hss(HssPattern::one_rank(Gh::new(g.min(4), 8)))
        }
        DesignId::HighLight | DesignId::Dsso => {
            OperandSparsity::Hss(highlight_a().closest_to_density(1.0 - sparsity))
        }
    })
}

/// The [`SparsityMapping`] of one registered design: how the §7.1.2
/// co-design step resolves abstract weight/activation degrees into the
/// operand descriptors that design was built for. This is what model
/// lowering ([`DnnModel::lower`]) runs through, so the network subsystem
/// stays design-agnostic while the registry owns the policy.
#[derive(Debug, Clone)]
pub struct DesignMapping {
    name: &'static str,
}

impl DesignMapping {
    /// The mapping for a registered design name.
    ///
    /// # Errors
    /// [`UnknownDesign`] when the name is not registered (which makes the
    /// later per-degree calls infallible).
    pub fn new(design: &str) -> Result<Self, UnknownDesign> {
        let id: DesignId = design.parse()?;
        Ok(Self { name: id.name() })
    }

    /// The design name the mapping co-designs for.
    pub fn design(&self) -> &str {
        self.name
    }
}

impl SparsityMapping for DesignMapping {
    fn operand_a(&self, weight_sparsity: f64) -> OperandSparsity {
        operand_a_for(self.name, weight_sparsity)
    }

    fn operand_b(&self, activation_sparsity: f64) -> OperandSparsity {
        operand_b_for(self.name, activation_sparsity)
    }
}

/// Maps an activation-sparsity degree to the operand B descriptor each
/// design consumes.
pub fn operand_b_for(design: &str, sparsity: f64) -> OperandSparsity {
    if sparsity == 0.0 {
        return OperandSparsity::Dense;
    }
    match design {
        "S2TA" => {
            // Dynamic structured activation pruning to {G≤8}:8.
            let g = ((1.0 - sparsity) * 8.0).round().clamp(1.0, 8.0) as u32;
            OperandSparsity::Hss(HssPattern::one_rank(Gh::new(g, 8)))
        }
        "DSSO" => {
            // §7.5: B must be Rank1-structured `C1(2:{2≤H≤8})→C0(dense)`.
            // Exploit the sparsest family member whose sparsity the
            // activations actually reach (never claim zeros that are not
            // there); low degrees fall back to the dense 2:2 member.
            let target = 1.0 - sparsity;
            let p = hl_sparsity::families::dsso_b()
                .patterns()
                .into_iter()
                .filter(|p| p.density_f64() >= target - 1e-12)
                .min_by(|a, b| a.density().cmp(&b.density()))
                .expect("dsso_b has a dense member");
            OperandSparsity::Hss(p)
        }
        _ => OperandSparsity::unstructured(sparsity),
    }
}

/// The evaluation front-end shared by every sweep: either the parallel
/// engine with memoized pure evaluations, or the uncached single-threaded
/// baseline. Both modes run the *same* sweep code and produce identical
/// results (asserted by the `determinism` integration tests); the engine is
/// just faster.
pub struct SweepContext {
    engine: Engine,
    retention: RetentionCache,
    cached: bool,
}

impl Default for SweepContext {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepContext {
    /// An engine-backed context sized by `HL_THREADS` / available
    /// parallelism, with memoization enabled.
    pub fn new() -> Self {
        Self::with_engine(Engine::new())
    }

    /// An engine-backed context with an explicit worker pool.
    pub fn with_engine(engine: Engine) -> Self {
        Self {
            engine,
            retention: RetentionCache::new(),
            cached: true,
        }
    }

    /// The single-threaded, *uncached* reference: exactly the work the
    /// pre-engine harness performed. Used as the timing baseline and the
    /// determinism oracle.
    pub fn serial_baseline() -> Self {
        Self {
            engine: Engine::serial(),
            retention: RetentionCache::new(),
            cached: false,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// `(hits, misses)` of the retention (surrogate accuracy) cache —
    /// surfaced by `hl-serve`'s metrics alongside the eval cache.
    pub fn retention_stats(&self) -> (u64, u64) {
        self.retention.stats()
    }

    /// Maps `f` over `items` on the context's pool, results in input order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.engine.map(items, f)
    }

    /// `evaluate_best` through the context (memoized in engine mode).
    ///
    /// # Errors
    /// Exactly the errors of [`evaluate_best`].
    pub fn evaluate_best(
        &self,
        design: &dyn Accelerator,
        workload: &Workload,
    ) -> Result<EvalResult, Unsupported> {
        if self.cached {
            self.engine.evaluate_best(design, workload)
        } else {
            evaluate_best(design, workload)
        }
    }

    /// Surrogate accuracy loss through the context (memoized in engine
    /// mode).
    pub fn accuracy_loss(&self, model: &DnnModel, config: &PruningConfig) -> f64 {
        if self.cached {
            accuracy_loss_cached(model, config, &self.retention)
        } else {
            accuracy_loss(model, config)
        }
    }

    /// [`SweepContext::accuracy_loss`] of every configuration in
    /// `configs`, in order. In engine mode the retention work is split
    /// across the pool by weight matrix
    /// ([`accuracy_losses_cached`]); the baseline scores one
    /// configuration after another.
    pub fn accuracy_losses(&self, model: &DnnModel, configs: &[PruningConfig]) -> Vec<f64> {
        if self.cached {
            accuracy_losses_cached(model, configs, &self.retention, self.engine.threads())
        } else {
            configs
                .iter()
                .map(|cfg| accuracy_loss(model, cfg))
                .collect()
        }
    }

    /// Lowers `model` for `design` (prunable layers at the design's
    /// weight pattern, via [`DesignMapping`]) into the
    /// [`hl_sim::network`] IR.
    ///
    /// # Panics
    /// Panics when the design name is not in the [`registry`].
    pub fn lower_model(
        design: &dyn Accelerator,
        model: &DnnModel,
        weights: &PruningConfig,
    ) -> NetworkWorkload {
        let mapping = DesignMapping::new(design.name()).unwrap_or_else(|e| panic!("{e}"));
        model.lower(weights, &mapping)
    }

    /// Evaluates an already-lowered [`NetworkWorkload`] through the
    /// context: layers fan out across the engine pool, each hitting the
    /// eval cache individually (inline and uncached in baseline mode).
    pub fn evaluate_network(
        &self,
        design: &dyn Accelerator,
        network: &NetworkWorkload,
    ) -> NetworkEval {
        if self.cached {
            self.engine.evaluate_network(design, network)
        } else {
            hl_sim::network::evaluate_network(design, network)
        }
    }

    /// [`SweepContext::eval_network`] with a hoisted design fingerprint:
    /// sweep loops evaluating many configurations on one design compute
    /// [`Engine::fingerprint`] once and reuse it for every point, so
    /// neighboring points only re-key the operand descriptors that
    /// changed. The baseline mode ignores the fingerprint (it keys
    /// nothing).
    pub fn eval_network_keyed(
        &self,
        design: &dyn Accelerator,
        fingerprint: &hl_sim::engine::DesignFingerprint,
        model: &DnnModel,
        weights: &PruningConfig,
    ) -> NetworkEval {
        let network = Self::lower_model(design, model, weights);
        if self.cached {
            self.engine
                .evaluate_network_keyed(design, fingerprint, &network)
        } else {
            hl_sim::network::evaluate_network(design, &network)
        }
    }

    /// Whole-model evaluation through [`hl_sim::network`]: the model
    /// lowers to a [`NetworkWorkload`] and runs through
    /// [`SweepContext::evaluate_network`]. Unsupported layers are
    /// reported per layer in the returned [`NetworkEval`]; aggregates
    /// are `None` when any layer cannot run.
    pub fn eval_network(
        &self,
        design: &dyn Accelerator,
        model: &DnnModel,
        weights: &PruningConfig,
    ) -> NetworkEval {
        self.evaluate_network(design, &Self::lower_model(design, model, weights))
    }

    /// The per-design pruning configuration used for accuracy-matched
    /// comparisons (Fig. 2): the most aggressive config whose surrogate
    /// loss stays within `budget` metric points.
    ///
    /// # Panics
    /// Panics on a name the [`registry`] does not know; fallible
    /// front-ends use [`SweepContext::try_accuracy_matched_config`].
    pub fn accuracy_matched_config(
        &self,
        design: &str,
        model: &DnnModel,
        budget: f64,
    ) -> Option<PruningConfig> {
        self.try_accuracy_matched_config(design, model, budget)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SweepContext::accuracy_matched_config`].
    ///
    /// # Errors
    /// [`UnknownDesign`] when the name is not registered.
    pub fn try_accuracy_matched_config(
        &self,
        design: &str,
        model: &DnnModel,
        budget: f64,
    ) -> Result<Option<PruningConfig>, UnknownDesign> {
        let id: DesignId = design.parse()?;
        Ok(match id {
            DesignId::Tc => Some(PruningConfig::Dense),
            DesignId::Stc => {
                let p = PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4)));
                (self.accuracy_loss(model, &p) <= budget).then_some(p)
            }
            DesignId::Dstc => {
                let mut best = None;
                for i in 1..=18 {
                    let s = f64::from(i) * 0.05;
                    let p = PruningConfig::Unstructured { sparsity: s };
                    if self.accuracy_loss(model, &p) <= budget {
                        best = Some(p);
                    }
                }
                best
            }
            DesignId::HighLight | DesignId::Dsso => {
                self.best_in_family(&highlight_a(), model, budget)
            }
            DesignId::S2ta => {
                let fam = hl_sparsity::families::s2ta_a();
                self.best_in_family(&fam, model, budget)
            }
        })
    }

    fn best_in_family(
        &self,
        family: &HssFamily,
        model: &DnnModel,
        budget: f64,
    ) -> Option<PruningConfig> {
        let mut best: Option<(f64, PruningConfig)> = None;
        let mut seen = std::collections::BTreeSet::new();
        for p in family.patterns() {
            if !seen.insert(p.density()) {
                continue;
            }
            let cfg = PruningConfig::Hss(p.clone());
            let loss = self.accuracy_loss(model, &cfg);
            if loss <= budget {
                let s = p.sparsity_f64();
                if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                    best = Some((s, cfg));
                }
            }
        }
        best.map(|(_, cfg)| cfg)
    }
}

/// One point of the Fig. 13 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Operand A sparsity degree.
    pub a_sparsity: f64,
    /// Operand B sparsity degree.
    pub b_sparsity: f64,
    /// Per-design results in [`designs`] order; `None` = unsupported.
    pub results: Vec<Option<EvalResult>>,
}

/// The Fig. 13 sparsity degrees: A ∈ {0, 50, 75}%, B ∈ {0, 25, 50, 75}%.
pub fn fig13_degrees() -> (Vec<f64>, Vec<f64>) {
    (vec![0.0, 0.5, 0.75], vec![0.0, 0.25, 0.5, 0.75])
}

/// Runs the synthetic 1024³ GEMM sweep across all designs (§7.2) on the
/// default engine-backed context.
pub fn run_synthetic_sweep() -> Vec<SweepPoint> {
    run_synthetic_sweep_with(&SweepContext::new())
}

/// [`run_synthetic_sweep`] on an explicit context: the sweep is a
/// [`SweepGrid`] of co-designed `(design, workload)` cells fanned out
/// across the context's pool.
pub fn run_synthetic_sweep_with(ctx: &SweepContext) -> Vec<SweepPoint> {
    let designs = designs();
    let (a_degrees, b_degrees) = fig13_degrees();
    let mut grid = SweepGrid::new(&designs);
    let mut degrees = Vec::new();
    for &sa in &a_degrees {
        for &sb in &b_degrees {
            degrees.push((sa, sb));
            grid.push_row_with(|d| {
                Workload::synthetic(operand_a_for(d.name(), sa), operand_b_for(d.name(), sb))
            });
        }
    }
    // Both modes sweep exactly the cells the grid declared; only the
    // evaluation path (pool + memo vs plain inline) differs.
    let rows = if ctx.cached {
        grid.run(ctx.engine())
    } else {
        grid.run_serial()
    };
    degrees
        .into_iter()
        .zip(rows)
        .map(|((sa, sb), results)| SweepPoint {
            a_sparsity: sa,
            b_sparsity: sb,
            results,
        })
        .collect()
}

/// Evaluates a DNN on a design with the given weight-pruning config for
/// prunable layers, through the [`hl_sim::network`] subsystem.
///
/// Free-function form of [`SweepContext::eval_network`] on the uncached
/// serial baseline.
pub fn eval_model(
    design: &dyn Accelerator,
    model: &DnnModel,
    weights: &PruningConfig,
) -> NetworkEval {
    SweepContext::serial_baseline().eval_network(design, model, weights)
}

/// The per-design pruning configuration used for accuracy-matched
/// comparisons (Fig. 2): the most aggressive config whose surrogate loss
/// stays within `budget` metric points.
///
/// Free-function form of [`SweepContext::accuracy_matched_config`] on the
/// uncached serial baseline.
pub fn accuracy_matched_config(
    design: &str,
    model: &DnnModel,
    budget: f64,
) -> Option<PruningConfig> {
    SweepContext::serial_baseline().accuracy_matched_config(design, model, budget)
}

/// Outcome of one Fig. 2 design row.
#[derive(Debug, Clone, PartialEq)]
pub enum Fig2Outcome {
    /// No pruning configuration stays within the accuracy budget.
    NoConfig,
    /// A configuration exists but the design cannot run the model.
    Unsupported,
    /// The accuracy-matched evaluation.
    Matched {
        /// Whole-model EDP normalized to the dense TC.
        edp_ratio: f64,
        /// Weight sparsity of the matched configuration (fraction).
        weight_sparsity: f64,
        /// Estimated accuracy loss of the matched configuration.
        loss: f64,
    },
}

/// One Fig. 2 design row.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// Design name.
    pub design: String,
    /// Row outcome.
    pub outcome: Fig2Outcome,
}

/// Fig. 2 results for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Model {
    /// Model name.
    pub model: String,
    /// Accuracy metric name.
    pub metric: &'static str,
    /// The common accuracy-loss budget (2:4 loss + 0.4 points).
    pub budget: f64,
    /// Rows for TC / STC / DSTC / HighLight, in registry order.
    pub rows: Vec<Fig2Row>,
}

/// The Fig. 2 sweep core: accuracy-matched whole-model EDP of TC / STC /
/// DSTC / HighLight on Transformer-Big and ResNet50, normalized to the
/// dense TC. Design rows fan out across the context's pool.
pub fn fig2_data(ctx: &SweepContext) -> Vec<Fig2Model> {
    let mut out = Vec::new();
    for model in [
        hl_models::zoo::transformer_big(),
        hl_models::zoo::resnet50(),
    ] {
        let budget = ctx.accuracy_loss(
            &model,
            &PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4))),
        ) + 0.4;
        let tc_edp = {
            let tc = &designs()[0];
            ctx.eval_network(tc.as_ref(), &model, &PruningConfig::Dense)
                .edp()
                .expect("TC runs dense")
        };
        let fig2_designs: Vec<Box<dyn Accelerator>> = designs()
            .into_iter()
            .filter(|d| matches!(d.name(), "TC" | "STC" | "DSTC" | "HighLight"))
            .collect();
        let rows = ctx.map(&fig2_designs, |d| {
            let outcome = match ctx.accuracy_matched_config(d.name(), &model, budget) {
                None => Fig2Outcome::NoConfig,
                Some(cfg) => {
                    let loss = ctx.accuracy_loss(&model, &cfg);
                    match ctx.eval_network(d.as_ref(), &model, &cfg).edp() {
                        None => Fig2Outcome::Unsupported,
                        Some(edp) => Fig2Outcome::Matched {
                            edp_ratio: edp / tc_edp,
                            weight_sparsity: cfg.sparsity(),
                            loss,
                        },
                    }
                }
            };
            Fig2Row {
                design: d.name().to_string(),
                outcome,
            }
        });
        out.push(Fig2Model {
            model: model.name.clone(),
            metric: model.metric,
            budget,
            rows,
        });
    }
    out
}

/// One Fig. 15 trade-off point.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Design name.
    pub design: String,
    /// Human-readable pruning-configuration label.
    pub config: String,
    /// Estimated accuracy loss (metric points).
    pub loss: f64,
    /// Whole-model EDP normalized to the dense TC.
    pub edp: f64,
}

/// The pruning configurations each design contributes to Fig. 15.
///
/// # Panics
/// Panics on a name the [`registry`] does not know; fallible front-ends
/// use [`try_fig15_configs`].
pub fn fig15_configs(design: &str) -> Vec<PruningConfig> {
    try_fig15_configs(design).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`fig15_configs`].
///
/// # Errors
/// [`UnknownDesign`] when the name is not registered.
pub fn try_fig15_configs(design: &str) -> Result<Vec<PruningConfig>, UnknownDesign> {
    let id: DesignId = design.parse()?;
    Ok(match id {
        DesignId::Tc => vec![PruningConfig::Dense],
        DesignId::Stc => vec![
            PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4))),
            PruningConfig::Hss(HssPattern::one_rank(Gh::new(1, 4))),
        ],
        DesignId::Dstc => (1..=7)
            .map(|i| PruningConfig::Unstructured {
                sparsity: f64::from(i) * 0.125,
            })
            .collect(),
        DesignId::S2ta => hl_sparsity::families::s2ta_a()
            .patterns()
            .into_iter()
            .map(PruningConfig::Hss)
            .collect(),
        // DSSO shares HighLight's operand-A family (§7.5), as in
        // `operand_a_for` / `accuracy_matched_config`.
        DesignId::HighLight | DesignId::Dsso => {
            let mut seen = std::collections::BTreeSet::new();
            highlight_a()
                .patterns()
                .into_iter()
                .filter(|p| seen.insert(p.density()))
                .map(PruningConfig::Hss)
                .collect()
        }
    })
}

/// The Fig. 15 sweep core for one model: every `(design, config)` EDP /
/// accuracy-loss point (EDP normalized to the dense TC), in registry-then-
/// config order. Cells fan out across the context's pool.
pub fn fig15_points(ctx: &SweepContext, model: &DnnModel) -> Vec<ParetoPoint> {
    let designs = designs();
    let tc_edp = ctx
        .eval_network(designs[0].as_ref(), model, &PruningConfig::Dense)
        .edp()
        .expect("TC runs dense");
    let cells: Vec<(usize, PruningConfig)> = designs
        .iter()
        .enumerate()
        .flat_map(|(i, d)| fig15_configs(d.name()).into_iter().map(move |cfg| (i, cfg)))
        .collect();
    ctx.map(&cells, |(i, cfg)| {
        let d = designs[*i].as_ref();
        let loss = ctx.accuracy_loss(model, cfg);
        ctx.eval_network(d, model, cfg)
            .edp()
            .map(|edp| ParetoPoint {
                design: d.name().to_string(),
                config: cfg.to_string(),
                loss,
                edp: edp / tc_edp,
            })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Formats a ratio as a fixed-width cell, `n/a` when absent.
pub fn cell(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:10.3}"),
        None => format!("{:>10}", "n/a"),
    }
}

/// Environment variable naming the directory benchmark JSON artifacts
/// (`BENCH_sweeps.json`, `BENCH_serve.json`) are written into.
pub const HL_BENCH_OUT_ENV: &str = "HL_BENCH_OUT";

/// Resolves where a benchmark artifact named `file` should be written:
/// inside the `HL_BENCH_OUT` directory when the variable is set (created
/// if missing), otherwise the current working directory.
pub fn bench_out_path(file: &str) -> PathBuf {
    match std::env::var(HL_BENCH_OUT_ENV) {
        Ok(dir) if !dir.trim().is_empty() => {
            let dir = PathBuf::from(dir);
            let _ = fs::create_dir_all(&dir);
            dir.join(file)
        }
        _ => PathBuf::from(file),
    }
}

/// Writes a report under `results/` (best-effort; also returns the text so
/// binaries can print it).
pub fn persist(name: &str, text: &str) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        let _ = fs::write(dir.join(name), text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_models::zoo;

    #[test]
    fn registry_order_matches_paper() {
        assert_eq!(
            design_names(),
            vec!["TC", "STC", "DSTC", "S2TA", "HighLight"]
        );
    }

    #[test]
    fn operand_mapping_densities_match_degrees() {
        for design in design_names() {
            for s in [0.5, 0.75] {
                let a = operand_a_for(&design, s);
                assert!(
                    (a.sparsity() - s).abs() < 1e-9,
                    "{design} A at {s}: got {}",
                    a.sparsity()
                );
            }
            let b = operand_b_for(&design, 0.25);
            assert!((b.sparsity() - 0.25).abs() < 1e-9, "{design} B at 0.25");
        }
    }

    #[test]
    fn sweep_covers_all_degrees_and_marks_s2ta_dense_unsupported() {
        let sweep = run_synthetic_sweep();
        assert_eq!(sweep.len(), 12);
        let names = design_names();
        let s2ta = names.iter().position(|n| n == "S2TA").unwrap();
        for p in &sweep {
            if p.a_sparsity == 0.0 {
                assert!(p.results[s2ta].is_none(), "S2TA must fail on dense A");
            } else {
                assert!(p.results[s2ta].is_some());
            }
            // TC, STC, DSTC, HighLight always run.
            for (i, n) in names.iter().enumerate() {
                if n != "S2TA" {
                    assert!(p.results[i].is_some(), "{n} must run at every point");
                }
            }
        }
    }

    #[test]
    fn model_eval_runs_on_all_designs_for_resnet() {
        let model = zoo::resnet50();
        for d in designs() {
            let cfg = accuracy_matched_config(d.name(), &model, 1.0);
            if let Some(cfg) = cfg {
                let r = eval_model(d.as_ref(), &model, &cfg);
                assert!(r.supported(), "{} failed on ResNet50", d.name());
                assert_eq!(r.layers.len(), model.layers.len());
                assert!(r.edp().unwrap() > 0.0);
                let u = r.utilization().unwrap();
                assert!(u > 0.0 && u <= 1.0, "{} utilization {u}", d.name());
            }
        }
    }

    #[test]
    fn s2ta_reports_unsupported_dense_layers_per_layer() {
        let deit = zoo::deit_small();
        let s2ta = S2ta::default();
        let cfg = accuracy_matched_config("S2TA", &deit, 2.0);
        if let Some(cfg) = cfg {
            let r = eval_model(&s2ta, &deit, &cfg);
            assert!(!r.supported());
            assert_eq!(r.edp(), None, "aggregates are None on partial support");
            // The dense QKV projections fail; the pruned FFN layers still
            // evaluate (per-layer propagation, not whole-model bailout).
            for layer in &r.layers {
                let spec = deit.layers.iter().find(|l| l.name == layer.name()).unwrap();
                assert_eq!(layer.outcome.is_ok(), spec.prunable, "{}", layer.name());
            }
        }
    }

    // Serial-vs-engine network equality is covered (across all zoo
    // models, with warm-replay checks) by tests/network.rs at the
    // workspace level.

    #[test]
    fn dsso_b_mapping_codesigns_to_its_family() {
        // 60% activation sparsity is exactly the 2:5 Rank1 member.
        let b = operand_b_for("DSSO", 0.6);
        assert!(b.is_structured());
        assert!((b.density() - 0.4).abs() < 1e-12);
        // Low degrees cannot be overclaimed: the dense member is used.
        assert!(operand_b_for("DSSO", 0.05).is_dense());
        // The mapped descriptors are runnable on DSSO (whole-model eval
        // is no longer vacuously unsupported).
        let dsso = design_by_name("DSSO").unwrap();
        let eval = eval_model(
            dsso.as_ref(),
            &zoo::resnet50(),
            &PruningConfig::Hss(HssPattern::two_rank(Gh::new(4, 4), Gh::new(2, 4))),
        );
        assert!(eval.supported(), "{:?}", eval.first_unsupported());
    }

    #[test]
    fn design_mapping_rejects_unknown_names() {
        assert!(DesignMapping::new("TPU").is_err());
        let m = DesignMapping::new("STC").unwrap();
        assert_eq!(m.design(), "STC");
        assert!(m.operand_a(0.5).is_structured(), "STC co-designs to G:H");
    }
}
