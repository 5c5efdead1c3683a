//! `search_cold`: the §7.1.2 co-design search, cold, as `/v1/search`
//! runs it for a query it has not seen.
//!
//! Every registered paper design × every zoo model, in a seeded order
//! with seeded accuracy budgets, each search on a fresh 2-thread
//! context. Nearly all host time is retention (`models`) and pruning
//! (`sparsity`); analytic evaluation (`sim`) is a few percent and
//! serving does no work.

use std::time::{Duration, Instant};

use hl_bench::search::{codesign_space, SearchOutcome, SearchPoint};
use hl_bench::{design_by_name, designs, SweepContext};
use hl_models::accuracy::{synthetic_weights, PruningConfig};
use hl_models::{zoo, DnnModel};
use hl_sim::engine::Engine;
use hl_sim::pareto::pareto_front_flags;
use hl_sim::Accelerator;
use hl_sparsity::prune::{magnitude_order, prune_hss};
use hl_sparsity::{Gh, HssPattern};

use crate::gen::Rng;
use crate::ledger::{Metric, Outcome};
use crate::{stats, Args};

/// Worker threads of every search context, fixed rather than taken from
/// `HL_THREADS`.
const SEARCH_THREADS: usize = 2;
/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 9;
/// Largest relative gap allowed between the summed per-layer busy times
/// of the step-by-step replay and the 1-thread search time.
const LEDGER_TOLERANCE: f64 = 0.15;
/// Shape of the weight matrices retention prunes (`models::accuracy`).
const RETENTION_SHAPE: (usize, usize) = (64, 1024);

/// One planned search.
struct Search {
    design: Box<dyn Accelerator>,
    model: DnnModel,
    budget: f64,
}

impl Search {
    fn label(&self) -> String {
        format!("{}/{}@{}", self.design.name(), self.model.name, self.budget)
    }
}

/// Every design × model pair in a seeded order, each with a seeded
/// accuracy budget in metric points.
fn plan(seed: u64) -> Vec<Search> {
    let mut rng = Rng::new(seed, 0x5345_4152);
    let mut searches: Vec<Search> = designs()
        .into_iter()
        .flat_map(|design| {
            zoo::all_models()
                .into_iter()
                .map(move |model| (design.name().to_string(), model))
        })
        .map(|(name, model)| Search {
            design: design_by_name(&name).expect("registry names resolve"),
            model,
            budget: (rng.range(0.1, 2.0) * 100.0).round() / 100.0,
        })
        .collect();
    rng.shuffle(&mut searches);
    searches
}

fn context(threads: usize) -> SweepContext {
    SweepContext::with_engine(Engine::with_threads(threads))
}

/// One cold search on a fresh context: the outcome and its wall time.
fn cold(search: &Search, threads: usize) -> Result<(SearchOutcome, f64, SweepContext), String> {
    let ctx = context(threads);
    let t = Instant::now();
    let outcome = ctx
        .try_codesign(search.design.as_ref(), &search.model, search.budget)
        .map_err(|e| e.to_string())?;
    Ok((outcome, t.elapsed().as_secs_f64(), ctx))
}

/// Busy time per layer of a step-by-step replay, in seconds.
#[derive(Debug, Default, Clone, Copy)]
struct Busy {
    bench: f64,
    retention: f64,
    lower: f64,
    network: f64,
    pareto: f64,
}

impl Busy {
    fn total(&self) -> f64 {
        self.bench + self.retention + self.lower + self.network + self.pareto
    }
}

/// Adds the time since `*clock` to `slot` and restarts the clock.
fn lap(clock: &mut Instant, slot: &mut f64) {
    let now = Instant::now();
    *slot += now.duration_since(*clock).as_secs_f64();
    *clock = now;
}

/// `SweepContext::try_codesign` step by step through public calls, each
/// timed against its layer, on a 1-thread context so the layers never
/// overlap. Returns the same outcome `try_codesign` would.
fn replay(ctx: &SweepContext, s: &Search, busy: &mut Busy) -> Result<SearchOutcome, String> {
    let design = s.design.as_ref();
    let mut clock = Instant::now();
    let candidates = codesign_space(design.name()).map_err(|e| e.to_string())?;
    let tc = design_by_name("TC").map_err(|e| e.to_string())?;
    lap(&mut clock, &mut busy.bench);
    let tc_network = SweepContext::lower_model(tc.as_ref(), &s.model, &PruningConfig::Dense);
    lap(&mut clock, &mut busy.lower);
    let tc_edp = ctx
        .evaluate_network(tc.as_ref(), &tc_network)
        .edp()
        .ok_or("TC cannot run the dense model")?;
    lap(&mut clock, &mut busy.network);
    let fingerprint = Engine::fingerprint(design);
    lap(&mut clock, &mut busy.bench);

    let mut points = Vec::new();
    for cfg in &candidates {
        let loss = ctx.accuracy_loss(&s.model, cfg);
        lap(&mut clock, &mut busy.retention);
        let network = SweepContext::lower_model(design, &s.model, cfg);
        lap(&mut clock, &mut busy.lower);
        let eval = ctx
            .engine()
            .evaluate_network_keyed(design, &fingerprint, &network);
        lap(&mut clock, &mut busy.network);
        if let (Some(edp), Some(energy_j), Some(latency_s)) =
            (eval.edp(), eval.energy_j(), eval.latency_s())
        {
            points.push(SearchPoint {
                config: cfg.clone(),
                label: cfg.to_string(),
                weight_sparsity: cfg.sparsity(),
                loss,
                edp: edp / tc_edp,
                energy_j,
                latency_s,
                on_front: false,
                within_budget: loss <= s.budget,
            });
        }
        lap(&mut clock, &mut busy.bench);
    }
    let flags = pareto_front_flags(&points, |p| (p.loss, p.edp));
    lap(&mut clock, &mut busy.pareto);
    for (p, on) in points.iter_mut().zip(flags) {
        p.on_front = on;
    }
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
    let outcome = SearchOutcome {
        design: design.name().to_string(),
        model: s.model.name.clone(),
        metric: s.model.metric,
        budget: s.budget,
        candidates: candidates.len(),
        unsupported: candidates.len() - points.len(),
        points,
        best,
    };
    lap(&mut clock, &mut busy.bench);
    Ok(outcome)
}

/// Median microseconds per call of `f` over a few timed batches.
fn us_per_call(mut f: impl FnMut() -> usize) -> (f64, usize) {
    const BATCHES: usize = 7;
    const CALLS: usize = 16;
    let mut sink = 0usize;
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                sink = sink.wrapping_add(std::hint::black_box(f()));
            }
            t.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .collect();
    std::hint::black_box(sink);
    (stats::median(&per_call).unwrap_or(0.0), BATCHES * CALLS)
}

/// Sums the machine-independent work of a set of outcomes.
fn work_counts(out: &mut Outcome, prefix: &str, outcomes: &[SearchOutcome]) {
    let sum = |f: fn(&SearchOutcome) -> usize| outcomes.iter().map(f).sum::<usize>() as f64;
    out.count(format!("{prefix}.searches"), outcomes.len() as f64);
    out.count(format!("{prefix}.candidates"), sum(|o| o.candidates));
    out.count(format!("{prefix}.unsupported"), sum(|o| o.unsupported));
    out.count(format!("{prefix}.front_points"), sum(|o| o.front().len()));
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut searches = Vec::new();
    for _ in 0..SETUP_REPS {
        // Set-up: the plan plus one untimed warm-up search, so the
        // measured window starts with code and allocator warm.
        let t = Instant::now();
        searches = plan(args.seed);
        let warm = Search {
            design: design_by_name("TC").map_err(|e| e.to_string())?,
            model: zoo::deit_small(),
            budget: 1.0,
        };
        cold(&warm, SEARCH_THREADS)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    out.param("search_threads", crate::num(SEARCH_THREADS as f64));
    out.param(
        "plan",
        hl_serve::Json::Arr(
            searches
                .iter()
                .map(|s| hl_serve::Json::str(s.label()))
                .collect(),
        ),
    );
    if args.trace {
        traced(args, &searches, &mut out)?;
    } else {
        untraced(args, &searches, &mut out)?;
    }
    Ok(out)
}

fn untraced(args: &Args, searches: &[Search], out: &mut Outcome) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut first: Vec<SearchOutcome> = Vec::new();
    let (mut latency_ms, mut rates, mut mismatched) = (Vec::new(), Vec::new(), 0u64);
    while first.is_empty() || Instant::now() < deadline {
        let pass_start = Instant::now();
        for (i, s) in searches.iter().enumerate() {
            let (outcome, seconds, _) = cold(s, SEARCH_THREADS)?;
            latency_ms.push(seconds * 1e3);
            out.attempted += 1;
            match first.get(i) {
                None => first.push(outcome),
                Some(f) if *f != outcome => mismatched += 1,
                Some(_) => {}
            }
        }
        rates.push(searches.len() as f64 / pass_start.elapsed().as_secs_f64());
    }
    out.metrics.push(crate::peak_rss_metric()?);
    out.metrics.push(Metric::new(
        "throughput_per_s",
        stats::median(&rates).ok_or("no pass")?,
        rates.len(),
        format!(
            "cold searches per second, median over {} passes (within-run spread {:.3})",
            rates.len(),
            stats::spread(&rates).unwrap_or(0.0)
        ),
    ));
    out.metrics.push(Metric::new(
        "search_p50_ms",
        stats::median(&latency_ms).ok_or("no search")?,
        latency_ms.len(),
        "one cold search",
    ));
    let tail = stats::tail(&latency_ms).ok_or("no search")?;
    out.metrics.push(Metric::new(
        "search_tail_ms",
        tail.value,
        tail.samples,
        format!("p{:.1} of one cold search", tail.q * 100.0),
    ));

    // Outside the window: the uncached single-threaded reference.
    let mut off_reference = Vec::new();
    for (s, f) in searches.iter().zip(&first) {
        let reference = SweepContext::serial_baseline()
            .try_codesign(s.design.as_ref(), &s.model, s.budget)
            .map_err(|e| e.to_string())?;
        if reference != *f {
            off_reference.push(s.label());
        }
    }
    out.failed += mismatched + off_reference.len() as u64;
    out.check(
        "search.identical_across_passes",
        mismatched == 0,
        format!(
            "{mismatched} of {} repeated searches differ from their first pass",
            out.attempted - first.len() as u64
        ),
    );
    out.check(
        "search.matches_serial_baseline",
        off_reference.is_empty(),
        format!("differing from the uncached serial reference: {off_reference:?}"),
    );
    work_counts(out, "search.per_pass", &first);
    Ok(())
}

fn traced(args: &Args, searches: &[Search], out: &mut Outcome) -> Result<(), String> {
    let mut busy = Busy::default();
    let (mut two_s, mut one_s, mut replay_s) = (0.0, 0.0, 0.0);
    let (mut duplicated, mut mismatched) = (0u64, Vec::new());
    let step_ctx_stats = |ctx: &SweepContext| {
        let cache = ctx.engine().eval_cache();
        let (ret_hits, ret_misses) = ctx.retention_stats();
        [
            ret_hits,
            ret_misses,
            cache.hits(),
            cache.misses(),
            cache.len() as u64,
        ]
    };
    let mut step_counts = [0u64; 5];
    let mut outcomes = Vec::new();
    for s in searches {
        let (parallel, t2, ctx2) = cold(s, SEARCH_THREADS)?;
        let cache = ctx2.engine().eval_cache();
        duplicated += cache.misses() - cache.len() as u64;
        two_s += t2;
        let (serial, t1, _) = cold(s, 1)?;
        one_s += t1;
        let ctx = context(1);
        let t = Instant::now();
        let stepped = replay(&ctx, s, &mut busy)?;
        replay_s += t.elapsed().as_secs_f64();
        for (sum, v) in step_counts.iter_mut().zip(step_ctx_stats(&ctx)) {
            *sum += v;
        }
        out.attempted += 1;
        if !(parallel == serial && serial == stepped) {
            mismatched.push(s.label());
        }
        outcomes.push(parallel);
    }
    out.failed += mismatched.len() as u64;
    let n = searches.len();
    let note = format!("summed over {n} searches replayed step by step on 1 thread");
    for (name, v) in [
        ("models.retention.busy_s", busy.retention),
        ("models.lower.busy_s", busy.lower),
        ("sim.network.busy_s", busy.network),
        ("sim.pareto.busy_s", busy.pareto),
        ("bench.search.busy_s", busy.bench),
    ] {
        out.metrics.push(Metric::new(name, v, n, note.clone()));
    }
    let [ret_hits, ret_misses, eval_hits, eval_misses, eval_entries] = step_counts;
    for (name, v) in [
        ("models.retention.hits", ret_hits),
        ("models.retention.misses", ret_misses),
        ("sim.eval_cache.hits", eval_hits),
        ("sim.eval_cache.misses", eval_misses),
        ("sim.eval_cache.entries", eval_entries),
    ] {
        out.metrics
            .push(Metric::new(name, v as f64, n, note.clone()));
        out.count(name, v as f64);
    }
    out.metrics.push(Metric::new(
        "sim.eval_cache.duplicated",
        duplicated as f64,
        n,
        format!("eval-cache misses beyond entries on {SEARCH_THREADS}-thread contexts (timing dependent)"),
    ));
    let candidates: usize = outcomes.iter().map(|o| o.candidates).sum();
    let unsupported: usize = outcomes.iter().map(|o| o.unsupported).sum();
    out.metrics.push(Metric::new(
        "bench.search.candidates",
        candidates as f64,
        n,
        "one pass",
    ));
    out.metrics.push(Metric::new(
        "bench.search.unsupported",
        unsupported as f64,
        n,
        "one pass",
    ));
    out.metrics.push(Metric::new(
        "bench.search.parallel_speedup",
        one_s / two_s,
        n,
        format!("1-thread {one_s:.3} s / {SEARCH_THREADS}-thread {two_s:.3} s"),
    ));
    out.metrics.push(Metric::new(
        "bench.trace.overhead_ms",
        (replay_s - one_s) * 1e3 / n as f64,
        n,
        "per search: step-by-step replay minus the 1-thread search",
    ));

    let (rows, cols) = RETENTION_SHAPE;
    let weights = synthetic_weights(rows, cols, args.seed);
    let pattern = HssPattern::two_rank(Gh::new(2, 4), Gh::new(2, 4));
    let (prune_us, prune_n) = us_per_call(|| prune_hss(&weights, &pattern).nonzeros());
    let (order_us, order_n) = us_per_call(|| magnitude_order(&weights).len());
    let shape = format!("{rows}x{cols}, median of batches");
    out.metrics.push(Metric::new(
        "sparsity.prune_hss.us_per_call",
        prune_us,
        prune_n,
        format!("{pattern} at {shape}"),
    ));
    out.metrics.push(Metric::new(
        "sparsity.magnitude_order.us_per_call",
        order_us,
        order_n,
        shape,
    ));

    work_counts(out, "search.per_pass", &outcomes);
    out.check(
        "search.replay_matches_codesign",
        mismatched.is_empty(),
        format!("2-thread, 1-thread and step-by-step outcomes differ for {mismatched:?}"),
    );
    let gap = (busy.total() - one_s) / one_s;
    out.ledger_check(
        "search.ledger_sums_to_search_time",
        gap.abs() <= LEDGER_TOLERANCE,
        format!(
            "per-layer busy {:.3} s vs 1-thread search {one_s:.3} s: gap {:+.1}% (tolerance ±{:.0}%)",
            busy.total(),
            gap * 100.0,
            LEDGER_TOLERANCE * 100.0
        ),
    );
    Ok(())
}
