//! `simt-paper`: the paper-reproduction path as a library call. A job is
//! one Table I stand-in colored by each of `Scheme::paper_seven()` on
//! the simt backend in deterministic mode, single-threaded — a column
//! group of the paper's Figs. 6 and 7. This is the only workload where
//! the SIMT simulator and its timing model do the work.

use crate::check;
use crate::graphs::{self, SUITE};
use crate::stats::{self, geomean, median, Metrics};
use crate::trace::{Recorder, Trace};
use crate::{host, Outcome, RunArgs, MAX_TIMED_S};
use gcol_core::{ColorOptions, Coloring, Scheme};
use gcol_graph::Csr;
use gcol_simt::{Device, ExecMode, Phase};
use std::time::Instant;

/// Small enough that a job takes 40-90 ms on one core.
const SCALE: u32 = 11;
/// Set-up is a few milliseconds, so it is repeated more often than the
/// served workloads' to steady its median.
const SETUP_REPS: usize = 7;

fn opts() -> ColorOptions {
    ColorOptions::default().with_exec_mode(ExecMode::Deterministic)
}

/// The suite, each seeded generator drawing from `--seed`.
fn suite(seed: u64) -> Vec<Csr> {
    SUITE
        .iter()
        .map(|name| graphs::generate(name, SCALE, graphs::derive(seed, name)).expect("suite graph"))
        .collect()
}

/// The job cycle: each graph once, plus rmat-er (the paper's headline
/// graph) a second time. With seven equal shares the median lands in
/// the middle of one graph's jobs, not on the boundary between two.
fn cycle(seed: u64) -> Vec<usize> {
    let mut entries: Vec<usize> = (0..SUITE.len()).collect();
    entries.push(0);
    graphs::shuffled(&entries, seed, "paper.cycle")
}

struct Row {
    colorings: Vec<Coloring>,
    /// Wall milliseconds of each scheme's `try_color`.
    wall_ms: Vec<f64>,
}

/// Runs one job; when `rec` is given, each call is a span.
fn color_row(g: &Csr, mut rec: Option<&mut Recorder>) -> Row {
    let (mut colorings, mut wall_ms) = (Vec::new(), Vec::new());
    for s in Scheme::paper_seven() {
        // Only the sequential baseline runs without the simulator.
        let name = if s == Scheme::Sequential {
            "core.exec"
        } else {
            "simt.simulate"
        };
        let span = rec.as_deref_mut().map(|r| r.open(name, None));
        let t = Instant::now();
        let c = s
            .try_color(g, &Device::k20c(), &opts())
            .expect("paper scheme converges");
        wall_ms.push(match (span, rec.as_deref_mut()) {
            (Some(id), Some(r)) => r.close(id),
            _ => t.elapsed().as_secs_f64() * 1e3,
        });
        colorings.push(c);
    }
    Row { colorings, wall_ms }
}

/// Checks a row's colorings; returns how many failed the job, how many
/// were improper and how many misreported their color count.
fn check_row(g: &Csr, row: &Row) -> (u64, u64, u64) {
    let (mut failed, mut improper, mut miscounted) = (0, 0, 0);
    for c in &row.colorings {
        if let Err(e) = check::check_coloring(g, &c.colors, c.num_colors) {
            eprintln!("{}: {e}", c.scheme);
            failed += u64::from(e.fails_job());
            improper += u64::from(e.is_improper());
            miscounted += u64::from(!e.fails_job());
        }
    }
    (failed, improper, miscounted)
}

fn kernel_sum(c: &Coloring, f: impl Fn(&gcol_simt::KernelStats) -> u64) -> u64 {
    c.profile
        .phases
        .iter()
        .map(|p| if let Phase::Kernel(k) = p { f(k) } else { 0 })
        .sum()
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut setup_secs = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        graphs = suite(args.seed);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let cycle = cycle(args.seed);

    // Warm-up: one pass over the suite, which also gives the exact
    // per-coloring figures (deterministic mode repeats them bit for bit).
    let pass: Vec<Row> = graphs.iter().map(|g| color_row(g, None)).collect();
    let mut improper = 0;
    for (g, row) in graphs.iter().zip(&pass) {
        improper += check_row(g, row).1;
    }
    let all: Vec<&Coloring> = pass.iter().flat_map(|r| &r.colorings).collect();
    let instr_per_graph: Vec<u64> = pass
        .iter()
        .map(|r| {
            r.colorings
                .iter()
                .map(|c| kernel_sum(c, |k| k.instructions))
                .sum()
        })
        .collect();

    let (budget, min_jobs) = (args.budget(), args.min_jobs());
    let ticks0 = host::cpu_ticks();
    let mut rec = Recorder::new(Instant::now(), 0);
    let (mut busy_s, mut latencies, mut traced_ms, mut untraced_ms) =
        (0.0, Vec::new(), Vec::new(), Vec::new());
    let (mut sim_wall_ms, mut sim_instr, mut cpu_s) = (0.0, 0u64, 0.0);
    let t0 = Instant::now();
    let (mut k, mut failed, mut miscounted) = (0usize, 0u64, 0u64);
    while t0.elapsed().as_secs_f64() < MAX_TIMED_S && (busy_s < budget || (k as u64) < min_jobs) {
        let g = &graphs[cycle[k % cycle.len()]];
        // The traced run alternates traced and untraced jobs.
        let traced = args.trace && k % 2 == 0;
        let (t, cpu) = (Instant::now(), host::thread_cpu_s());
        let root = traced.then(|| rec.open("bench.job", Some(k as u64)));
        let row = color_row(g, traced.then_some(&mut rec));
        if let Some(id) = root {
            rec.close(id);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        cpu_s += host::thread_cpu_s() - cpu;
        busy_s += ms / 1e3;
        latencies.push(ms);
        if traced {
            &mut traced_ms
        } else {
            &mut untraced_ms
        }
        .push(ms);
        // Checked outside the job's timed interval.
        let (bad, worse, misreported) = check_row(g, &row);
        failed += u64::from(bad > 0);
        improper += worse;
        miscounted += misreported;
        sim_wall_ms += row.wall_ms[1..].iter().sum::<f64>();
        sim_instr += instr_per_graph[cycle[k % cycle.len()]];
        k += 1;
    }
    let steal = host::steal_share(ticks0, host::cpu_ticks());
    let attempted = k as u64;

    let mut m = Metrics::default();
    stats::set_wall(&mut m, k, busy_s, &latencies);
    if args.trace {
        let trace = Trace::merge(vec![rec]);
        m.set("graph.gen_ms", median(&setup_secs) * 1e3);
        let colorings = k * Scheme::paper_seven().len();
        m.set(
            "core.miscounted_share",
            miscounted as f64 / colorings.max(1) as f64,
        );
        m.set(
            "simt.instructions",
            all.iter()
                .map(|c| kernel_sum(c, |k| k.instructions) as f64)
                .sum(),
        );
        m.set(
            "simt.dram_bytes",
            all.iter()
                .map(|c| kernel_sum(c, |k| k.dram_bytes) as f64)
                .sum(),
        );
        m.set(
            "simt.sim_ns_per_instr",
            sim_wall_ms * 1e6 / sim_instr as f64,
        );
        m.set(
            "bench.trace_overhead",
            median(&traced_ms) / median(&untraced_ms) - 1.0,
        );
        m.set("bench.trace_coverage", trace.coverage());
        return Outcome {
            metrics: m,
            attempted,
            failed,
            improper,
            steal,
            trace: Some(trace),
        };
    }
    m.set("cpu_ms_per_job", cpu_s * 1e3 / k as f64);
    m.set(
        "ok_share",
        (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
    );
    let ratios: Vec<f64> = pass
        .iter()
        .flat_map(|r| {
            let seq = r.colorings[0].num_colors as f64;
            r.colorings.iter().map(move |c| c.num_colors as f64 / seq)
        })
        .collect();
    m.set("colors_ratio", geomean(&ratios));
    m.set(
        "modeled_ms",
        geomean(&all.iter().map(|c| c.total_ms()).collect::<Vec<_>>()),
    );
    m.set("peak_rss_mb", host::peak_rss_mb());
    m.set("setup_s", median(&setup_secs));
    Outcome {
        metrics: m,
        attempted,
        failed,
        improper,
        steal,
        trace: None,
    }
}
