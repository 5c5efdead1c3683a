//! The §7.1.2 co-design search: optimize a pruning configuration for a
//! model on a design under an accuracy-loss budget.
//!
//! The paper's flexibility claim is that HighLight lets the *pruning
//! configuration* be chosen per model against an accuracy target, where
//! single-degree designs (STC, S2TA) are stuck with their one pattern and
//! DSTC pays its dataflow tax at every degree. This module turns that
//! claim into an optimizer instead of the hand-picked Fig. 15 point list:
//!
//! 1. [`codesign_space`] enumerates an *abstract* candidate space — dense,
//!    a grid of unstructured degrees (up to and including the fully-pruned
//!    1.0 extreme), and 1-/2-/3-rank `G:H` grids (including `G == H` dense
//!    ranks and density → 0 stacks) plus the design's Fig. 15 configs;
//! 2. [`resolve_candidate`] performs the co-design step per candidate:
//!    abstract unstructured degrees resolve through the design's operand-A
//!    mapping (the same [`SparsityMapping`](hl_sim::network::SparsityMapping)
//!    policy model lowering uses), so a degree becomes the `G:H` pattern
//!    the design was built for and the surrogate scores exactly the
//!    configuration the hardware runs;
//! 3. [`SweepContext::codesign`] evaluates every resolved candidate across
//!    the engine pool in two parallel passes: surrogate accuracy loss
//!    through the retention cache, with the work split by weight matrix
//!    ([`SweepContext::accuracy_losses`]) so no two workers share a
//!    memoized intermediate, then whole-network EDP one candidate per
//!    cell through the per-layer [`hl_sim::engine::EvalCache`]. It
//!    returns the supported points with their Pareto front over
//!    `(loss, EDP)` and the lowest-EDP point within the budget.
//!
//! Degenerate candidates (fully-pruned operands, patterns outside the
//! design's families) surface as unsupported counts, not worker panics —
//! the search is the forcing function for the pipeline's degenerate-config
//! hardening. Results are byte-identical for any `HL_THREADS` worker
//! count (deterministic enumeration + ordered collect + memo
//! transparency), the property the workspace search tests assert.

use hl_models::accuracy::PruningConfig;
use hl_models::DnnModel;
use hl_sim::pareto::pareto_front_flags;
use hl_sim::{Accelerator, OperandSparsity};
use hl_sparsity::{Gh, HssPattern};

use crate::registry::UnknownDesign;
use crate::{operand_a_for, try_fig15_configs, SweepContext};

/// One evaluated (supported) candidate of a co-design search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchPoint {
    /// The resolved pruning configuration this point evaluates.
    pub config: PruningConfig,
    /// Canonical report label ([`PruningConfig`]'s `Display`).
    pub label: String,
    /// Weight sparsity of the configuration (fraction).
    pub weight_sparsity: f64,
    /// Estimated accuracy loss (metric points).
    pub loss: f64,
    /// Whole-model EDP normalized to the dense TC.
    pub edp: f64,
    /// Whole-model energy in J.
    pub energy_j: f64,
    /// Whole-model latency in s.
    pub latency_s: f64,
    /// True when no other point is better in both loss and EDP.
    pub on_front: bool,
    /// True when `loss` stays within the query budget.
    pub within_budget: bool,
}

/// The outcome of one co-design search query.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Design name.
    pub design: String,
    /// Model name.
    pub model: String,
    /// Accuracy metric name.
    pub metric: &'static str,
    /// The accuracy-loss budget (metric points).
    pub budget: f64,
    /// Candidates evaluated (after resolution and dedup).
    pub candidates: usize,
    /// Candidates the design cannot run (degenerate density, pattern
    /// outside its families, dense layers on S2TA, …).
    pub unsupported: usize,
    /// The supported points, in enumeration order.
    pub points: Vec<SearchPoint>,
    /// Index (into `points`) of the lowest-EDP point within the budget.
    pub best: Option<usize>,
}

impl SearchOutcome {
    /// The Pareto-front points, in enumeration order.
    pub fn front(&self) -> Vec<&SearchPoint> {
        self.points.iter().filter(|p| p.on_front).collect()
    }

    /// The budget-best point, if any configuration fits the budget.
    pub fn best_point(&self) -> Option<&SearchPoint> {
        self.best.map(|i| &self.points[i])
    }
}

/// The abstract candidate space the co-design search walks for one design:
/// dense, unstructured degrees in 5% steps up to the fully-pruned 1.0
/// extreme, 1-rank `G:H` grids (`G ≤ 4`, `H ≤ 8`, including dense
/// `G == H`), 2-rank grids over the Table 3 neighbourhood, a few 3-rank
/// stacks (density down to 1/8 at group size 8), and the design's Fig. 15
/// configurations — deduplicated after [`resolve_candidate`], preserving
/// first-occurrence order.
///
/// The extremes are deliberate: density → 0 (unstructured 1.0), `G == H`
/// dense ranks, and deep rank stacks are exactly the degenerate inputs the
/// evaluation pipeline must reject as `Unsupported` rather than panic on.
///
/// # Errors
/// [`UnknownDesign`] when the name is not registered.
pub fn codesign_space(design: &str) -> Result<Vec<PruningConfig>, UnknownDesign> {
    let mut raw: Vec<PruningConfig> = vec![PruningConfig::Dense];
    for i in 1..=20 {
        raw.push(PruningConfig::Unstructured {
            sparsity: f64::from(i) * 0.05,
        });
    }
    for g in 1..=4u32 {
        for h in g..=8 {
            raw.push(PruningConfig::Hss(HssPattern::one_rank(Gh::new(g, h))));
        }
    }
    for rank1 in [(2, 4), (2, 6), (2, 8), (4, 4), (4, 6), (4, 8)] {
        for rank0 in [(1, 2), (1, 4), (2, 2), (2, 4)] {
            raw.push(PruningConfig::Hss(HssPattern::two_rank(
                Gh::new(rank1.0, rank1.1),
                Gh::new(rank0.0, rank0.1),
            )));
        }
    }
    for stack in [
        [(1, 2), (2, 4), (2, 4)],
        [(2, 2), (4, 8), (2, 4)],
        [(1, 2), (1, 2), (1, 2)],
        [(2, 2), (2, 2), (2, 4)],
    ] {
        raw.push(PruningConfig::Hss(HssPattern::new(
            stack.iter().map(|&(g, h)| Gh::new(g, h)).collect(),
        )));
    }
    raw.extend(try_fig15_configs(design)?);

    let mut seen = std::collections::BTreeSet::new();
    Ok(raw
        .into_iter()
        .map(|cfg| resolve_candidate(design, &cfg))
        .filter(|cfg| seen.insert(cfg.to_string()))
        .collect())
}

/// The co-design step for one abstract candidate: unstructured degrees
/// resolve through the design's operand-A mapping (§7.1.2 — the model is
/// pruned *to the pattern the design was built for* at that degree), so
/// the surrogate loss and the evaluated workload describe the same
/// configuration. Dense and explicit HSS candidates pass through.
///
/// # Panics
/// Panics on a name the [`crate::registry`] does not know (callers reach
/// this through [`codesign_space`], which validates the name first).
pub fn resolve_candidate(design: &str, cfg: &PruningConfig) -> PruningConfig {
    match cfg {
        PruningConfig::Unstructured { sparsity } => match operand_a_for(design, *sparsity) {
            OperandSparsity::Dense => PruningConfig::Dense,
            OperandSparsity::Unstructured { sparsity } => PruningConfig::Unstructured { sparsity },
            OperandSparsity::Hss(p) => PruningConfig::Hss(p),
        },
        other => other.clone(),
    }
}

impl SweepContext {
    /// Runs the §7.1.2 co-design search: evaluates every
    /// [`codesign_space`] candidate for `design` on `model` — surrogate
    /// accuracy loss plus whole-network EDP normalized to the dense TC —
    /// in parallel across the context's pool, and returns the supported
    /// points with their Pareto front and the lowest-EDP point whose loss
    /// stays within `budget` metric points.
    ///
    /// The outcome is byte-identical for any worker count, and repeated
    /// queries replay from the shared caches (per-layer eval memo +
    /// retention memo).
    ///
    /// # Panics
    /// Panics on a design name the [`crate::registry`] does not know;
    /// fallible front-ends use [`SweepContext::try_codesign`].
    pub fn codesign(
        &self,
        design: &dyn Accelerator,
        model: &DnnModel,
        budget: f64,
    ) -> SearchOutcome {
        self.try_codesign(design, model, budget)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SweepContext::codesign`].
    ///
    /// # Errors
    /// [`UnknownDesign`] when the design name is not registered.
    pub fn try_codesign(
        &self,
        design: &dyn Accelerator,
        model: &DnnModel,
        budget: f64,
    ) -> Result<SearchOutcome, UnknownDesign> {
        let candidates = codesign_space(design.name())?;
        let tc = crate::design_by_name("TC").expect("TC is registered");
        let tc_edp = self
            .eval_network(tc.as_ref(), model, &PruningConfig::Dense)
            .edp()
            .expect("TC runs dense");

        // Retention first, split across the pool by weight matrix so the
        // workers never share a memoized intermediate; then one cell per
        // candidate for its network aggregates (nested layer fan-out runs
        // inline on workers). Neighboring candidates differ only in
        // operand A's descriptor, so the design fingerprint is hoisted out
        // of the whole grid.
        let losses = self.accuracy_losses(model, &candidates);
        let fingerprint = hl_sim::engine::Engine::fingerprint(design);
        let evals = self.map(&candidates, |cfg| {
            let eval = self.eval_network_keyed(design, &fingerprint, model, cfg);
            match (eval.edp(), eval.energy_j(), eval.latency_s()) {
                (Some(edp), Some(energy_j), Some(latency_s)) => Some((edp, energy_j, latency_s)),
                _ => None,
            }
        });

        let mut points: Vec<SearchPoint> = candidates
            .iter()
            .zip(losses.into_iter().zip(evals))
            .filter_map(|(cfg, (loss, eval))| {
                let (edp, energy_j, latency_s) = eval?;
                Some(SearchPoint {
                    config: cfg.clone(),
                    label: cfg.to_string(),
                    weight_sparsity: cfg.sparsity(),
                    loss,
                    edp: edp / tc_edp,
                    energy_j,
                    latency_s,
                    on_front: false,
                    within_budget: loss <= budget,
                })
            })
            .collect();
        let flags = pareto_front_flags(&points, |p| (p.loss, p.edp));
        for (p, on) in points.iter_mut().zip(flags) {
            p.on_front = on;
        }
        // Budget best: lowest EDP within budget, ties to lower loss then
        // enumeration order — always a frontier point when one exists.
        let best = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.within_budget)
            .min_by(|(ia, a), (ib, b)| {
                a.edp
                    .total_cmp(&b.edp)
                    .then(a.loss.total_cmp(&b.loss))
                    .then(ia.cmp(ib))
            })
            .map(|(i, _)| i);

        Ok(SearchOutcome {
            design: design.name().to_string(),
            model: model.name.clone(),
            metric: model.metric,
            budget,
            candidates: candidates.len(),
            unsupported: candidates.len() - points.len(),
            points,
            best,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_models::zoo;
    use hl_sim::pareto::dominates;

    #[test]
    fn space_walks_the_degenerate_extremes() {
        let space = codesign_space("DSTC").unwrap();
        // The fully-pruned extreme survives resolution on unstructured
        // hardware — the forcing function for the density-0 hardening.
        assert!(space
            .iter()
            .any(|c| matches!(c, PruningConfig::Unstructured { sparsity } if *sparsity == 1.0)));
        // Deep (3-rank) stacks and dense G==H ranks are present.
        assert!(space
            .iter()
            .any(|c| matches!(c, PruningConfig::Hss(p) if p.rank_count() == 3)));
        // Labels are unique after dedup.
        let mut labels: Vec<String> = space.iter().map(|c| c.to_string()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), space.len());
        assert!(codesign_space("TPU").is_err());
    }

    #[test]
    fn resolution_codesigns_unstructured_degrees() {
        // On HighLight an abstract 75% degree becomes the family pattern…
        let cfg = resolve_candidate("HighLight", &PruningConfig::Unstructured { sparsity: 0.75 });
        assert!(matches!(&cfg, PruningConfig::Hss(p) if (p.density_f64() - 0.25).abs() < 1e-12));
        // …while DSTC keeps it unstructured and degree 0 is dense.
        assert!(matches!(
            resolve_candidate("DSTC", &PruningConfig::Unstructured { sparsity: 0.75 }),
            PruningConfig::Unstructured { .. }
        ));
        assert_eq!(
            resolve_candidate("STC", &PruningConfig::Unstructured { sparsity: 0.0 }),
            PruningConfig::Dense
        );
    }

    #[test]
    fn search_front_is_nondominated_and_best_fits_budget() {
        let ctx = SweepContext::new();
        let model = zoo::deit_small();
        let design = crate::design_by_name("HighLight").unwrap();
        let out = ctx.codesign(design.as_ref(), &model, 0.5);
        assert!(!out.points.is_empty());
        assert_eq!(out.candidates - out.unsupported, out.points.len());
        let front = out.front();
        assert!(!front.is_empty());
        for a in &front {
            for b in &out.points {
                assert!(
                    !dominates((b.loss, b.edp), (a.loss, a.edp)),
                    "front point {} dominated by {}",
                    a.label,
                    b.label
                );
            }
        }
        let best = out.best_point().expect("dense always fits the budget");
        assert!(best.within_budget && best.on_front);
        for p in &out.points {
            if p.within_budget {
                assert!(best.edp <= p.edp, "{} beats best", p.label);
            }
        }
    }

    /// Every candidate of every design's space, on every zoo model, loses
    /// exactly what the plain uncached pipeline loses — on its first
    /// (miss) evaluation and on its replay — with one cache shared by
    /// concurrent workers across designs and models, as a serving context
    /// shares it, and through [`SweepContext::accuracy_losses`] on fresh
    /// 1- and 2-thread contexts, which split the work by weight matrix.
    #[test]
    fn cached_losses_match_uncached_on_every_candidate() {
        use hl_models::accuracy::{accuracy_loss, accuracy_loss_cached, RetentionCache};
        use hl_sim::engine::Engine;
        let models = zoo::all_models();
        // A candidate's loss does not depend on the design that proposed
        // it, so each distinct (model, candidate) is checked once.
        let mut seen = std::collections::BTreeSet::new();
        let cells: Vec<(usize, PruningConfig)> = crate::designs()
            .iter()
            .flat_map(|d| codesign_space(d.name()).unwrap())
            .flat_map(|cfg| (0..models.len()).map(move |m| (m, cfg.clone())))
            .filter(|(m, cfg)| seen.insert((*m, cfg.to_string())))
            .collect();
        let cache = RetentionCache::new();
        let plain = Engine::with_threads(2).map(&cells, |(m, cfg)| {
            let model = &models[*m];
            let plain = accuracy_loss(model, cfg);
            for pass in ["first", "replay"] {
                assert_eq!(
                    accuracy_loss_cached(model, cfg, &cache).to_bits(),
                    plain.to_bits(),
                    "{}/{cfg} ({pass})",
                    model.name
                );
            }
            plain
        });
        for threads in [1, 2] {
            let ctx = SweepContext::with_engine(Engine::with_threads(threads));
            for (m, model) in models.iter().enumerate() {
                let (configs, expected): (Vec<PruningConfig>, Vec<u64>) = cells
                    .iter()
                    .zip(&plain)
                    .filter(|((cm, _), _)| *cm == m)
                    .map(|((_, cfg), loss)| (cfg.clone(), loss.to_bits()))
                    .unzip();
                for pass in ["first", "replay"] {
                    let losses = ctx.accuracy_losses(model, &configs);
                    let bits: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
                    assert_eq!(
                        bits, expected,
                        "{}: {threads}-thread accuracy_losses ({pass})",
                        model.name
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_candidates_surface_as_unsupported_not_panics() {
        let ctx = SweepContext::new();
        let model = zoo::transformer_big();
        for name in ["DSTC", "S2TA", "DSSO"] {
            let design = crate::design_by_name(name).unwrap();
            let out = ctx.codesign(design.as_ref(), &model, 1.0);
            assert!(out.unsupported > 0, "{name} must reject some extremes");
        }
    }
}
