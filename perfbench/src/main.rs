//! The gcol benchmark: four workloads over the real code paths, each
//! printing its metrics by name and unit and checking every output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! same seeded stream with spans around each layer call, prints the
//! per-layer table and metrics, and writes a Chrome trace under
//! `perfbench/out/`. The last line of standard output is the result
//! object. See `perfbench/README.md` for the metrics and workloads.

mod check;
mod graphs;
mod host;
mod json;
mod paper;
mod pipe;
mod served;
mod session;
mod stats;
mod trace;

use stats::{Metrics, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// A served or session run times at least this many jobs, so that ten
/// samples lie beyond the 95th percentile, even past `--seconds`.
pub const MIN_TIMED_JOBS: u64 = 200;
/// Hard stop for a timed phase, whatever the job count.
pub const MAX_TIMED_S: f64 = 120.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

const WORKLOADS: [&str; 4] = ["cold-mix", "hot-repeat", "session-edit", "simt-paper"];

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    /// Seconds of the timed phase. A traced run splits `--seconds`
    /// between its served phase and its replay.
    pub fn budget(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Jobs the timed phase completes at least. A traced run reports no
    /// percentiles, so two jobs (one traced, one not) are enough.
    pub fn min_jobs(&self) -> u64 {
        if self.trace {
            2
        } else {
            MIN_TIMED_JOBS
        }
    }
}

/// What a workload hands back: its metrics and job counts.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    /// Jobs that failed, were rejected, or returned an improper or
    /// unexpected result.
    pub failed: u64,
    /// Jobs whose coloring failed its check.
    pub improper: u64,
    /// Share of CPU ticks the hypervisor stole during the timed phase.
    pub steal: Option<f64>,
    pub trace: Option<trace::Trace>,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(RunArgs {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check::self_test() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let out = match args.workload.as_str() {
        "cold-mix" => served::run(&args, false),
        "hot-repeat" => served::run(&args, true),
        "session-edit" => session::run(&args),
        _ => paper::run(&args),
    };
    println!(
        "host {{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"steal_share\":{},\"loadavg\":\"{}\",\"commit\":\"{}\"}}",
        args.workload,
        args.seed,
        host::nproc(),
        out.steal.map_or("null".into(), |s| format!("{s:.4}")),
        host::loadavg(),
        host::commit()
    );
    // Wall-clock figures: printed by every run, gated by none (see
    // stats::END_TO_END).
    let m = &out.metrics;
    println!(
        "wall {{\"jobs_per_s\":{},\"latency_p50_ms\":{},\"latency_p95_ms\":{}}}",
        m.get("bench.jobs_per_s"),
        m.get("bench.latency_p50_ms"),
        m.get("bench.latency_p95_ms")
    );
    if let Some(t) = &out.trace {
        t.print_table(&args.workload, out.metrics.get("bench.trace_overhead"));
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}-seed{}.trace.json", args.workload, args.seed);
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, t.chrome_json())) {
            Ok(()) => println!("chrome trace: {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    let (table, require_all) = if args.trace {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    println!(
        "{}",
        stats::result_line(
            out.improper == 0,
            out.attempted,
            out.failed,
            &out.metrics,
            table,
            require_all
        )
    );
    if out.improper > 0 {
        eprintln!("perfbench: {} improper colorings", out.improper);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
