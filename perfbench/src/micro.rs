//! `microsim`: seeded HSS × unstructured operand pairs through the
//! conformance check, both compressed-format encoders, a fibertree build
//! and the functional micro-architecture simulator.
//!
//! No other workload reaches the simulator, the fibertree or the format
//! encoders; serving and retention do no work here. The model has no
//! hardware reference, so its simulated counts are checked for internal
//! consistency only (effectual MACs against the operands' nonzero
//! products), not against real hardware.

use std::hint::black_box;
use std::time::Instant;

use hl_sim::micro::{MicroConfig, MicroSim};
use hl_tensor::format::{HssCompressed, SparseB};
use hl_tensor::{gen as tgen, Matrix};

use crate::gen::Rng;
use crate::ledger::{Metric, Outcome};
use crate::{stats, Args};

/// `H1` values of the paper's down-sized design, operand-B sparsities,
/// and whether B is held compressed (gated) or dense. Every pass covers
/// each combination with each `K` size once, so the work per pass is the
/// same for every seed; the seed draws the operands' values.
const H1S: [u32; 3] = [2, 3, 4];
const B_SPARSITIES: [f64; 3] = [0.25, 0.5, 0.75];
const SPARSE_B: [bool; 2] = [false, true];
/// Operand pairs per pass.
const PAIRS: usize = H1S.len() * K_GROUPS.len() * B_SPARSITIES.len() * SPARSE_B.len();
/// Output rows (`M`) and columns (`N`) of every pair.
const M: usize = 16;
const N: usize = 16;
/// `K` sizes, in Rank1 groups of `H1·H0` words.
const K_GROUPS: [usize; 3] = [8, 16, 32];
/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 21;

/// One seeded operand pair with its expected effectual MAC count.
struct Pair {
    config: MicroConfig,
    a: Matrix,
    b: Matrix,
    sparse_b: bool,
    expected_macs: u64,
}

/// The seeded pairs, one per combination, in a seeded order: an HSS
/// operand A conforming to the configuration and an unstructured B.
fn make_pairs(seed: u64) -> Vec<Pair> {
    let mut rng = Rng::new(seed, 0x4D49_4352);
    let mut pairs = Vec::with_capacity(PAIRS);
    for h1 in H1S {
        let config = MicroConfig::paper_downsized(h1);
        for groups in K_GROUPS {
            let k = config.group_words() * groups;
            for b_sparsity in B_SPARSITIES {
                for sparse_b in SPARSE_B {
                    let a = tgen::random_hss(M, k, &[config.rank1, config.rank0], rng.next_u64());
                    let b = tgen::random_unstructured(k, N, b_sparsity, rng.next_u64());
                    let expected_macs = a.effectual_macs(&b);
                    pairs.push(Pair {
                        config,
                        a,
                        b,
                        sparse_b,
                        expected_macs,
                    });
                }
            }
        }
    }
    rng.shuffle(&mut pairs);
    pairs
}

/// Per-step host time of one pair, in seconds.
#[derive(Debug, Default, Clone, Copy)]
struct Steps {
    check: f64,
    hss_encode: f64,
    sparse_b_encode: f64,
    fibertree: f64,
    sim: f64,
}

/// Simulated result of one pair.
struct Simulated {
    correct: bool,
    cycles: u64,
    macs: u64,
}

/// Runs one pair through every step. With `steps`, each step is timed
/// on its own (the traced path); without, nothing but the work runs.
fn run_pair(p: &Pair, mut steps: Option<&mut Steps>) -> Simulated {
    let (h1, h0) = (p.config.rank1.h as usize, p.config.rank0.h as usize);
    let mut clock = Instant::now();
    let mut lap = |slot: fn(&mut Steps) -> &mut f64| {
        if let Some(s) = steps.as_deref_mut() {
            let now = Instant::now();
            *slot(s) += now.duration_since(clock).as_secs_f64();
            clock = now;
        }
    };
    let conformant = tgen::check_hss(&p.a, &[p.config.rank1, p.config.rank0]).is_none();
    lap(|s| &mut s.check);
    black_box(HssCompressed::encode(&p.a, h1, h0));
    lap(|s| &mut s.hss_encode);
    black_box(SparseB::encode(&p.b, h1, h0));
    lap(|s| &mut s.sparse_b_encode);
    let tree = p.a.to_fibertree("M", "K");
    let tree_ok = tree.as_ref().is_ok_and(|t| t.nonzeros() == p.a.nonzeros());
    black_box(tree.ok());
    lap(|s| &mut s.fibertree);
    let report = MicroSim::new(p.config).run(&p.a, &p.b, p.sparse_b);
    lap(|s| &mut s.sim);
    Simulated {
        correct: conformant && tree_ok && report.counts.macs == p.expected_macs,
        cycles: report.counts.cycles,
        macs: report.counts.macs,
    }
}

/// One pass over every pair: (seconds, per-pair seconds, failures,
/// simulated cycles, simulated MACs).
struct Pass {
    seconds: f64,
    pair_s: Vec<f64>,
    failed: u64,
    cycles: u64,
    macs: u64,
}

fn pass(pairs: &[Pair], mut steps: Option<&mut Steps>, deadline: Option<Instant>) -> Pass {
    let start = Instant::now();
    let mut out = Pass {
        seconds: 0.0,
        pair_s: Vec::with_capacity(pairs.len()),
        failed: 0,
        cycles: 0,
        macs: 0,
    };
    for p in pairs {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let t = Instant::now();
        let sim = run_pair(p, steps.as_deref_mut());
        out.pair_s.push(t.elapsed().as_secs_f64());
        out.failed += u64::from(!sim.correct);
        out.cycles += sim.cycles;
        out.macs += sim.macs;
    }
    out.seconds = start.elapsed().as_secs_f64();
    out
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut pairs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        pairs = make_pairs(args.seed);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let expected_macs: u64 = pairs.iter().map(|p| p.expected_macs).sum();
    out.param("pairs_per_pass", crate::num(PAIRS as f64));
    out.param("m_n", crate::num(M as f64));
    out.count("pairs_per_pass", PAIRS as f64);
    out.count("expected_macs_per_pass", expected_macs as f64);

    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(args.seconds);
    let mut first: Option<(u64, u64)> = None;
    let mut record_pass = |out: &mut Outcome, p: &Pass| {
        out.attempted += p.pair_s.len() as u64;
        out.failed += p.failed;
        if p.pair_s.len() == PAIRS && first.is_none() {
            first = Some((p.cycles, p.macs));
        }
    };

    if args.trace {
        // Alternate untraced and traced passes so both see the same host
        // conditions; the difference is the tracing overhead.
        let (mut plain_s, mut traced_s, mut per_step) = (Vec::new(), Vec::new(), Vec::new());
        while plain_s.is_empty() || Instant::now() < deadline {
            let plain = pass(&pairs, None, None);
            record_pass(&mut out, &plain);
            plain_s.push(plain.seconds);
            let mut steps = Steps::default();
            let traced = pass(&pairs, Some(&mut steps), None);
            record_pass(&mut out, &traced);
            traced_s.push(traced.seconds);
            per_step.push(steps);
        }
        let passes = per_step.len();
        let us_per_call = |f: fn(&Steps) -> f64| {
            let v: Vec<f64> = per_step.iter().map(|s| f(s) * 1e6 / PAIRS as f64).collect();
            stats::median(&v).unwrap_or(0.0)
        };
        let note = format!("median over {passes} traced passes of {PAIRS} pairs");
        for (name, f) in [
            (
                "tensor.check_hss.us_per_call",
                (|s: &Steps| s.check) as fn(&Steps) -> f64,
            ),
            ("tensor.hss_encode.us_per_call", |s| s.hss_encode),
            ("tensor.sparse_b_encode.us_per_call", |s| s.sparse_b_encode),
            ("fibertree.build.us_per_call", |s| s.fibertree),
            ("sim.micro.run.us_per_call", |s| s.sim),
        ] {
            out.metrics.push(Metric::new(
                name,
                us_per_call(f),
                passes * PAIRS,
                note.clone(),
            ));
        }
        let overhead_ms = (stats::median(&traced_s).unwrap_or(0.0)
            - stats::median(&plain_s).unwrap_or(0.0))
            * 1e3
            / PAIRS as f64;
        out.metrics.push(Metric::new(
            "bench.trace.overhead_ms",
            overhead_ms,
            passes,
            "per pair: median traced pass minus median untraced pass",
        ));
    } else {
        let (mut pair_ms, mut rates) = (Vec::new(), Vec::new());
        while Instant::now() < deadline {
            let p = pass(&pairs, None, Some(deadline));
            record_pass(&mut out, &p);
            pair_ms.extend(p.pair_s.iter().map(|s| s * 1e3));
            if p.pair_s.len() == PAIRS {
                rates.push(p.macs as f64 / p.seconds);
            }
        }
        out.metrics.push(crate::peak_rss_metric()?);
        let rate = stats::median(&rates).ok_or("no complete pass in the window")?;
        out.metrics.push(Metric::new(
            "throughput_per_s",
            rate,
            rates.len(),
            format!(
                "simulated effectual MACs per host second, median over {} complete passes (within-run spread {:.3})",
                rates.len(),
                stats::spread(&rates).unwrap_or(0.0)
            ),
        ));
        let p50 = stats::median(&pair_ms).ok_or("no pair completed")?;
        out.metrics.push(Metric::new(
            "pair_p50_ms",
            p50,
            pair_ms.len(),
            "per operand pair",
        ));
        let tail = stats::tail(&pair_ms).ok_or("no pair completed")?;
        out.metrics.push(Metric::new(
            "pair_tail_ms",
            tail.value,
            tail.samples,
            format!("p{:.1} per operand pair", tail.q * 100.0),
        ));
    }

    let (cycles, macs) = first.ok_or("no complete pass")?;
    out.count("sim.micro.cycles_per_pass", cycles as f64);
    out.count("sim.micro.macs_per_pass", macs as f64);
    if args.trace {
        out.metrics.push(Metric::new(
            "sim.micro.cycles",
            cycles as f64,
            PAIRS,
            "simulated, one pass",
        ));
        out.metrics.push(Metric::new(
            "sim.micro.macs",
            macs as f64,
            PAIRS,
            "simulated, one pass",
        ));
    }
    out.check(
        "microsim.operands_and_macs",
        out.failed == 0,
        format!(
            "{} of {} pairs conformant with MicroSim MACs equal to the nonzero product count",
            out.attempted - out.failed,
            out.attempted
        ),
    );
    out.check(
        "microsim.macs_match_operands",
        macs == expected_macs,
        format!("pass MACs {macs} vs operands' effectual MACs {expected_macs}"),
    );
    Ok(out)
}
