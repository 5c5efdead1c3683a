//! The paper's headline quantitative claims, asserted against the models.
//!
//! These tests pin the *shape* of the paper's results — who wins, where, by
//! roughly what factor — so regressions in any model surface immediately.

use highlight::prelude::*;
use hl_bench::{design_names, run_synthetic_sweep};
use hl_sim::geomean;

fn sweep_index(name: &str) -> usize {
    design_names().iter().position(|n| n == name).unwrap()
}

/// "HighLight always achieves the best EDP ... for all evaluated sparsity
/// degrees" (§7.2), with the abstract's qualifier that HighLight "is at EDP
/// parity for sparse DNN layers" against the sparse baselines — so best or
/// within a 2% parity band at every point.
#[test]
fn highlight_best_edp_at_every_sweep_point() {
    let sweep = run_synthetic_sweep();
    let hl = sweep_index("HighLight");
    for p in &sweep {
        let hl_edp = p.results[hl].as_ref().unwrap().edp();
        for (i, r) in p.results.iter().enumerate() {
            if let Some(r) = r {
                assert!(
                    hl_edp <= r.edp() * 1.02,
                    "at A={:.0}% B={:.0}%: HighLight EDP {hl_edp:.3e} vs {} {:.3e}",
                    p.a_sparsity * 100.0,
                    p.b_sparsity * 100.0,
                    design_names()[i],
                    r.edp()
                );
            }
        }
    }
}

/// "Compared to dense accelerators, HighLight achieves a geomean of 6.4x
/// (and up to 20.4x) lower EDP ... and is at EDP parity for dense DNN
/// layers." We assert the same order of magnitude: geomean in [3, 10],
/// max in [10, 30], parity within 15% at fully dense.
#[test]
fn highlight_vs_dense_geomean_and_parity() {
    let sweep = run_synthetic_sweep();
    let (tc, hl) = (sweep_index("TC"), sweep_index("HighLight"));
    let ratios: Vec<f64> = sweep
        .iter()
        .map(|p| p.results[tc].as_ref().unwrap().edp() / p.results[hl].as_ref().unwrap().edp())
        .collect();
    let gm = geomean(&ratios).unwrap();
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    assert!(
        (3.0..=10.0).contains(&gm),
        "geomean vs TC {gm} (paper: 6.4)"
    );
    assert!(
        (10.0..=30.0).contains(&max),
        "max vs TC {max} (paper: 20.4)"
    );

    let dense_point = sweep
        .iter()
        .find(|p| p.a_sparsity == 0.0 && p.b_sparsity == 0.0)
        .unwrap();
    let parity = dense_point.results[tc].as_ref().unwrap().edp()
        / dense_point.results[hl].as_ref().unwrap().edp();
    assert!(
        (0.85..=1.15).contains(&parity),
        "dense parity ratio {parity}"
    );
}

/// "Compared to sparse accelerators, HighLight achieves a geomean of 2.7x
/// (and up to 5.9x) lower EDP" — assert geomean in [1.5, 4] and max in
/// [3, 8] against each sparse baseline.
#[test]
fn highlight_vs_sparse_baselines() {
    let sweep = run_synthetic_sweep();
    let hl = sweep_index("HighLight");
    for name in ["STC", "DSTC", "S2TA"] {
        let idx = sweep_index(name);
        let ratios: Vec<f64> = sweep
            .iter()
            .filter_map(|p| {
                let other = p.results[idx].as_ref()?;
                Some(other.edp() / p.results[hl].as_ref().unwrap().edp())
            })
            .collect();
        let gm = geomean(&ratios).unwrap();
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        assert!(
            (1.5..=4.0).contains(&gm),
            "geomean vs {name}: {gm} (paper: 2.7 overall)"
        );
        assert!(
            (3.0..=8.0).contains(&max),
            "max vs {name}: {max} (paper: up to 5.9 overall)"
        );
    }
}

/// Fig. 2's crossover: STC beats DSTC on the near-dense-activation
/// Transformer-Big, DSTC beats STC on the sparse-activation ResNet50 —
/// while HighLight beats both on both (checked at fixed, accuracy-matched
/// sparsity choices: 2:4 for STC, unstructured for DSTC, 62.5% HSS for
/// HighLight).
#[test]
fn fig2_crossover_shape() {
    use highlight::models::accuracy::PruningConfig;
    use highlight::models::zoo;
    use hl_bench::eval_model;

    let designs = hl_bench::designs();
    let by_name = |n: &str| designs.iter().find(|d| d.name() == n).unwrap().as_ref();
    for (model, dstc_sparsity, expect_stc_wins) in [
        (zoo::transformer_big(), 0.75, true),
        (zoo::resnet50(), 0.70, false),
    ] {
        let stc = eval_model(
            by_name("STC"),
            &model,
            &PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4))),
        )
        .edp()
        .unwrap();
        let dstc = eval_model(
            by_name("DSTC"),
            &model,
            &PruningConfig::Unstructured {
                sparsity: dstc_sparsity,
            },
        )
        .edp()
        .unwrap();
        // The accuracy-matched HighLight pattern (see the fig2 binary):
        // 66.7% sparsity (4:6 x 2:4-class member).
        let hl = eval_model(
            by_name("HighLight"),
            &model,
            &PruningConfig::Hss(highlight_family().closest_to_density(1.0 / 3.0)),
        )
        .edp()
        .unwrap();
        if expect_stc_wins {
            assert!(stc < dstc, "{}: STC should beat DSTC", model.name);
        } else {
            assert!(dstc < stc, "{}: DSTC should beat STC", model.name);
        }
        assert!(hl < stc && hl < dstc, "{}: HighLight lowest", model.name);
    }
}

/// §7.5 / Fig. 17: DSSO reaches 2x HighLight's speed at the commonly
/// supported degree (B 50% as C1(2:4)).
#[test]
fn dsso_dual_side_speed_claim() {
    let a = OperandSparsity::Hss(HssPattern::two_rank(Gh::new(4, 4), Gh::new(2, 4)));
    let b_structured = OperandSparsity::Hss(HssPattern::two_rank(Gh::new(2, 4), Gh::new(4, 4)));
    let dsso = Dsso::default()
        .evaluate(&Workload::synthetic(a.clone(), b_structured))
        .unwrap();
    let hl = HighLight::default()
        .evaluate(&Workload::synthetic(a, OperandSparsity::unstructured(0.5)))
        .unwrap();
    let ratio = hl.cycles / dsso.cycles;
    assert!(
        (ratio - 2.0).abs() < 1e-9,
        "DSSO should be exactly 2x faster, got {ratio}"
    );
}
