//! The metric ledger. `BENCHMARK.json` declares every bounded
//! end-to-end metric and every per-layer metric (name, unit, better);
//! this module reads those declarations from it, and adds only what the
//! file cannot hold: the unbounded latencies and which end-to-end
//! metrics each workload's per-layer metrics move.

use std::sync::OnceLock;

use hl_serve::Json;

/// One metric declaration.
#[derive(Debug, Clone)]
pub struct Decl {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

impl Decl {
    fn new(name: &str, unit: &str, better: &str) -> Self {
        Self {
            name: name.into(),
            unit: unit.into(),
            better: better.into(),
        }
    }
}

/// What `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Declared {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Bounded end-to-end metrics, reported by every untraced run.
    pub end_to_end: Vec<Decl>,
    /// Per-layer metrics, reported by every traced run.
    pub per_layer: Vec<Decl>,
}

impl Declared {
    fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
        };
        let field = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry has no {key}"))
        };
        let decls = |key: &str| -> Result<Vec<Decl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Decl {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        better: field(m, "better")?,
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: decls("end_to_end")?,
            per_layer: decls("per_layer")?,
        })
    }
}

/// The declarations of the `BENCHMARK.json` this binary was built with.
///
/// # Errors
/// The file does not parse or lacks a list.
pub fn declared() -> Result<&'static Declared, String> {
    static DECLARED: OnceLock<Result<Declared, String>> = OnceLock::new();
    DECLARED
        .get_or_init(|| Declared::parse(include_str!("../../BENCHMARK.json")))
        .as_ref()
        .map_err(Clone::clone)
}

/// End-to-end latencies, printed and recorded by the untraced run of
/// their workload but not bounded: on a small shared host their
/// run-to-run spread (serving latency moved fivefold between runs
/// minutes apart) is wider than any bound a regression gate can use.
const UNBOUNDED: [(&str, &str, &str); 9] = [
    ("search_p50_ms", "ms", "lower"),
    ("search_tail_ms", "ms", "lower"),
    ("read_p50_ms", "ms", "lower"),
    ("read_tail_ms", "ms", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("write_tail_ms", "ms", "lower"),
    ("max_rate_rps", "1/s", "higher"),
    ("pair_p50_ms", "ms", "lower"),
    ("pair_tail_ms", "ms", "lower"),
];

/// The end-to-end metrics a workload's per-layer metrics should move.
pub fn moves(workload: &str) -> &'static str {
    match workload {
        "search_cold" => "search_cold throughput_per_s (searches/s), search_p50_ms",
        "serve_mixed" => {
            "serve_mixed read/write latencies, max_rate_rps, throughput_per_s (saturated requests/s)"
        }
        "microsim" => "microsim throughput_per_s (simulated MACs/s), pair_p50_ms",
        _ => "",
    }
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Declared name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (0 when the workload did no such work).
    pub samples: usize,
    /// What exactly was measured (percentile, rate, scope).
    pub note: String,
}

impl Metric {
    /// A metric with a note.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            value,
            samples,
            note: note.into(),
        }
    }
}

/// A pass/fail check. Output checks judge the program's results and
/// decide `correct`; ledger checks judge whether the traced run's
/// per-layer numbers add up, and are reported beside it.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Evidence.
    pub detail: String,
    /// A ledger-consistency check rather than an output check.
    pub ledger: bool,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Wall time of each repetition of the workload's set-up.
    pub setup_s: Vec<f64>,
    /// Measured metrics (end-to-end or per-layer, by run mode), minus
    /// the set-up figure `main` adds.
    pub metrics: Vec<Metric>,
    /// Machine-independent work counts; they repeat exactly for a seed.
    pub counts: Vec<(String, f64)>,
    /// Output and ledger checks.
    pub checks: Vec<Check>,
    /// Free-form run parameters (rates, thread counts, …).
    pub params: Vec<(String, Json)>,
}

impl Outcome {
    /// Records a work count.
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        self.counts.push((name.into(), value));
    }

    /// Records a run parameter.
    pub fn param(&mut self, name: impl Into<String>, value: Json) {
        self.params.push((name.into(), value));
    }

    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
            ledger: false,
        });
    }

    /// Records a ledger-consistency check.
    pub fn ledger_check(
        &mut self,
        name: impl Into<String>,
        passed: bool,
        detail: impl Into<String>,
    ) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
            ledger: true,
        });
    }
}

/// Orders `measured` like the declarations for the mode, filling a
/// declared per-layer metric the workload did not measure with 0 and 0
/// samples. Returns the metrics of the result line, then the unbounded
/// latencies the untraced run measured.
///
/// # Errors
/// A measured name that is not declared, or a declared end-to-end
/// metric that was not measured.
pub fn complete(
    declared: &Declared,
    workload: &str,
    trace: bool,
    mut measured: Vec<Metric>,
) -> Result<Completed, String> {
    let decls = if trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    let unbounded: Vec<Decl> = if trace {
        Vec::new()
    } else {
        UNBOUNDED
            .iter()
            .map(|(n, u, b)| Decl::new(n, u, b))
            .collect()
    };
    let mut extra = Vec::new();
    for m in &measured {
        if decls.iter().any(|d| d.name == m.name) {
            continue;
        }
        let d = unbounded
            .iter()
            .find(|d| d.name == m.name)
            .ok_or_else(|| format!("metric {} is not declared", m.name))?;
        extra.push((d.clone(), m.clone()));
    }
    let result = decls
        .iter()
        .map(|d| match measured.iter().position(|m| m.name == d.name) {
            Some(i) => Ok((d.clone(), measured.swap_remove(i))),
            None if trace => Ok((
                d.clone(),
                Metric::new(&d.name, 0.0, 0, format!("not exercised by {workload}")),
            )),
            None => Err(format!("end-to-end metric {} was not measured", d.name)),
        })
        .collect::<Result<_, String>>()?;
    Ok((result, extra))
}

/// The result-line metrics and the unbounded extras of one run.
pub type Completed = (Vec<(Decl, Metric)>, Vec<(Decl, Metric)>);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_unique_names_and_known_workloads() {
        let d = declared().unwrap();
        let mut names: Vec<&str> = d
            .end_to_end
            .iter()
            .chain(&d.per_layer)
            .map(|m| m.name.as_str())
            .chain(UNBOUNDED.iter().map(|u| u.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(d.end_to_end.iter().any(|m| m.name == "setup_s"));
        for w in &d.workloads {
            assert!(!moves(w).is_empty(), "{w} has no moves entry");
        }
    }

    #[test]
    fn complete_fills_unmeasured_layers_and_rejects_unknown_names() {
        let d = Declared::parse(
            r#"{"workloads":[{"name":"microsim"}],
               "end_to_end":[{"name":"setup_s","unit":"s","better":"lower"}],
               "per_layer":[{"name":"sim.micro.macs","unit":"count","better":"lower"},
                            {"name":"sim.micro.cycles","unit":"count","better":"lower"}]}"#,
        )
        .unwrap();
        let (done, extra) = complete(
            &d,
            "microsim",
            true,
            vec![Metric::new("sim.micro.macs", 5.0, 1, "")],
        )
        .unwrap();
        assert!(extra.is_empty());
        assert_eq!(done.len(), 2);
        assert_eq!((done[0].1.value, done[1].1.samples), (5.0, 0));
        assert!(complete(&d, "microsim", false, vec![]).is_err());
        let e2e = vec![
            Metric::new("setup_s", 1.0, 1, ""),
            Metric::new("pair_p50_ms", 1.0, 1, ""),
        ];
        let (done, extra) = complete(&d, "microsim", false, e2e).unwrap();
        assert_eq!((done.len(), extra.len()), (1, 1));
        let traced_latency = vec![Metric::new("pair_p50_ms", 1.0, 1, "")];
        assert!(complete(&d, "microsim", true, traced_latency).is_err());
        assert!(complete(&d, "microsim", true, vec![Metric::new("nope", 1.0, 1, "")]).is_err());
    }
}
