//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search_cold|serve_mixed|microsim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run builds its inputs from the
//! seed, sets up (several times; the median is `setup_s`), measures for
//! the given seconds, checks every output, and prints a metric table, a
//! JSON record line (host fingerprint, metrics with units, sample counts
//! and notes, work counts, checks), and finally the one-line result
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` re-runs the work layer by layer
//! and reports the per-layer metrics instead. See `perfbench/README.md`
//! for the ledger that ties each layer to the end-to-end metric it moves.

mod gen;
mod host;
mod ledger;
mod micro;
mod search;
mod serve;
mod stats;

use std::process::ExitCode;

use hl_serve::Json;

use ledger::{Metric, Outcome};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured window in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <search_cold|serve_mixed|microsim> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>, workloads: &[String]) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("a duration in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !workloads.contains(&workload) {
            return Err(format!("unknown workload {workload:?}"));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn main() -> ExitCode {
    let declared = match ledger::declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args = match Args::parse(std::env::args().skip(1), &declared.workloads) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "search_cold" => search::run(&args),
        "serve_mixed" => serve::run(&args),
        "microsim" => micro::run(&args),
        other => Err(format!("no runner for declared workload {other:?}")),
    };
    let mut outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    match finish(declared, &args, &mut outcome) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the table, the record line and the result line.
fn finish(declared: &ledger::Declared, args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let setup = stats::median(&outcome.setup_s).ok_or("set-up never ran")?;
    if !args.trace {
        outcome.metrics.push(Metric::new(
            "setup_s",
            setup,
            outcome.setup_s.len(),
            "median set-up repetition",
        ));
    }
    let (metrics, unbounded) = ledger::complete(
        declared,
        &args.workload,
        args.trace,
        std::mem::take(&mut outcome.metrics),
    )?;
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|c| c.passed || c.ledger);
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for ((d, m), bounded) in metrics
        .iter()
        .map(|x| (x, true))
        .chain(unbounded.iter().map(|x| (x, false)))
    {
        println!(
            "  {:<40} {:>16.6} {:<6} n={:<7} {}{}",
            d.name,
            m.value,
            d.unit,
            m.samples,
            m.note,
            if bounded { "" } else { " (unbounded)" }
        );
    }
    println!(
        "  {:<40} {:>16.6} {:<6} n={:<7} failed {} of {} attempted",
        "failed_ratio", failed_ratio, "ratio", outcome.attempted, outcome.failed, outcome.attempted
    );
    for c in &outcome.checks {
        println!(
            "  {} {:<34} {} {}",
            if c.ledger { "ledger" } else { "check " },
            c.name,
            if c.passed { "ok  " } else { "FAIL" },
            c.detail
        );
    }

    let record = Json::Obj(vec![
        ("workload".into(), Json::str(&args.workload)),
        ("seed".into(), num(args.seed as f64)),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("host".into(), host::fingerprint()),
        (
            "params".into(),
            Json::Obj(std::mem::take(&mut outcome.params)),
        ),
        (
            "setup_s".into(),
            Json::Arr(outcome.setup_s.iter().copied().map(num).collect()),
        ),
        ("failed_ratio".into(), num(failed_ratio)),
        (
            "metrics".into(),
            Json::Arr(
                metrics
                    .iter()
                    .map(|x| (x, true))
                    .chain(unbounded.iter().map(|x| (x, false)))
                    .map(|((d, m), bounded)| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(&d.name)),
                            ("bounded".into(), Json::Bool(bounded)),
                            ("value".into(), num(m.value)),
                            ("unit".into(), Json::str(&d.unit)),
                            ("samples".into(), num(m.samples as f64)),
                            ("note".into(), Json::str(&m.note)),
                            ("better".into(), Json::str(&d.better)),
                            (
                                "moves".into(),
                                Json::str(if args.trace && m.samples > 0 {
                                    ledger::moves(&args.workload)
                                } else {
                                    ""
                                }),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counts".into(),
            Json::Obj(
                outcome
                    .counts
                    .iter()
                    .map(|(k, v)| (k.clone(), num(*v)))
                    .collect(),
            ),
        ),
        (
            "checks".into(),
            Json::Arr(
                outcome
                    .checks
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(&c.name)),
                            ("passed".into(), Json::Bool(c.passed)),
                            ("ledger".into(), Json::Bool(c.ledger)),
                            ("detail".into(), Json::str(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", Json::Obj(vec![("record".into(), record)]).encode());

    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), num(outcome.attempted as f64)),
        ("failed".into(), num(outcome.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(d, m)| {
                        (
                            d.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), num(m.value)),
                                ("unit".into(), Json::str(&d.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.encode());
    Ok(())
}

/// The peak-memory metric, read at the end of a measured window.
pub fn peak_rss_metric() -> Result<Metric, String> {
    let mb = host::peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;
    Ok(Metric::new(
        "peak_rss_mb",
        mb,
        1,
        "VmHWM at the end of the measured window",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        let workloads = ["microsim".to_string()];
        Args::parse(args.iter().map(|s| s.to_string()), &workloads)
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&[
            "--workload",
            "microsim",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("microsim", 7, 10.0, true)
        );
        assert!(parse(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "microsim", "--seed", "x", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "microsim", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&[
            "--workload",
            "microsim",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&["--workload", "microsim", "--seed"]).is_err());
    }
}
