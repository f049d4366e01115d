//! `perfbench`: the mobilenet benchmark harness.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload end to end through the program's public API (see
//! `README.md` next to this crate) and prints, as its last stdout line,
//! one JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits
//! non-zero when a correctness check fails. `run.py` builds this crate,
//! adds `peak_rss_mb` from the process's resource usage, and runs the
//! steadiness mode.

mod checks;
mod clients;
mod layers;
mod run;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Renders the result line.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = match workload::workload(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut outcome = match run::run(&w, Duration::from_secs(args.seconds), args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name);
            std::process::exit(1);
        }
    };
    let metrics = if args.trace {
        match layers::measure(&w, &mut outcome) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("perfbench: traced layers of {} failed: {e}", w.name);
                std::process::exit(1);
            }
        }
    } else {
        let e = outcome.e2e;
        vec![
            Metric {
                name: "setup_s".into(),
                value: e.setup_s,
                unit: "s",
            },
            Metric {
                name: "records_per_s".into(),
                value: e.records_per_s,
                unit: "records/s",
            },
            Metric {
                name: "batch_records_per_s".into(),
                value: e.batch_records_per_s,
                unit: "records/s",
            },
            Metric {
                name: "analysis_s".into(),
                value: e.analysis_s,
                unit: "s",
            },
            Metric {
                name: "query_p50_ms".into(),
                value: e.query_p50_ms,
                unit: "ms",
            },
            Metric {
                name: "query_p99_ms".into(),
                value: e.query_p99_ms,
                unit: "ms",
            },
        ]
    };
    outcome.server.shutdown();
    let correct = outcome.checks.failed == 0;
    println!(
        "{}",
        result_json(correct, outcome.attempted(), outcome.failed(), &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
