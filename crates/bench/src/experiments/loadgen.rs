//! Service load generator: replays an open-loop arrival trace against a
//! live [`gcol_serve::Service`] and reports throughput and latency
//! percentiles.
//!
//! Open-loop means arrivals follow a pre-generated schedule and are
//! *not* gated on completions — exactly the regime where a bounded
//! queue, coalescing and the result cache earn their keep. Two knobs
//! span the interesting space:
//!
//! * **arrival timing** — `--rate R` jobs/s paces the trace (uniform
//!   spacing, or 16-job bursts for the bursty trace); `--rate 0` (the
//!   default) submits the whole trace at once, measuring peak service
//!   throughput.
//! * **content mix** — the unique trace gives every job a distinct
//!   fingerprint (worst case for the cache); the duplicate-heavy trace
//!   draws from [`DUPLICATE_POOL_SIZE`] distinct jobs, so after each
//!   pool member's first execution everything is served by coalescing
//!   or the cache.
//!
//! With no `--trace`, the full A/B grid runs — {1, N} workers ×
//! {unique, duplicate} — producing the `service_throughput` table of
//! BENCH_simt.json in one command. `--smoke` instead runs the fast CI
//! invariant checks (zero rejections on an idle service, 100% cache
//! hits on a duplicate-only replay, and the same replay over the line
//! protocol serving every hit the cold line's assignment byte for byte)
//! and panics on any violation.

use super::ExpConfig;
use crate::report::{f, maybe_write_json, speedup, Table};
use gcol_core::{JobSpec, Scheme};
use gcol_graph::gen::{self, RmatParams};
use gcol_graph::Csr;
use gcol_serve::proto::{self, Request};
use gcol_serve::{serve_lines, JobRequest, ResultSource, Service, ServiceConfig};
use serde::Serialize;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Distinct jobs in the duplicate-heavy trace.
pub const DUPLICATE_POOL_SIZE: usize = 4;

/// Jobs per burst in the bursty trace.
pub const BURST_SIZE: usize = 16;

/// Loadgen-specific CLI options (the shared knobs ride in [`ExpConfig`]).
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Worker threads for the "scaled" service configuration.
    pub workers: usize,
    /// Jobs per trace replay.
    pub jobs: usize,
    /// Arrival rate in jobs/s; 0 = unpaced (submit everything at once).
    pub rate: f64,
    /// Specific trace to replay; `None` runs the A/B grid.
    pub trace: Option<TraceKind>,
    /// Run the CI invariant checks instead of the measurement.
    pub smoke: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            jobs: 200,
            rate: 0.0,
            trace: None,
            smoke: false,
        }
    }
}

/// Which trace to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Distinct fingerprints, uniform arrival spacing.
    Uniform,
    /// Distinct fingerprints, arrivals in bursts of [`BURST_SIZE`].
    Bursty,
    /// Fingerprints drawn from a pool of [`DUPLICATE_POOL_SIZE`] jobs.
    Duplicate,
    /// Alias of [`TraceKind::Uniform`] content with unpaced arrivals in
    /// the A/B grid (the cache's worst case).
    Unique,
}

impl TraceKind {
    /// CLI/report name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Uniform => "uniform",
            TraceKind::Bursty => "bursty",
            TraceKind::Duplicate => "duplicate",
            TraceKind::Unique => "unique",
        }
    }

    /// Parses a `--trace` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(TraceKind::Uniform),
            "bursty" => Some(TraceKind::Bursty),
            "duplicate" | "dup" => Some(TraceKind::Duplicate),
            "unique" => Some(TraceKind::Unique),
            _ => None,
        }
    }

    fn is_duplicate(&self) -> bool {
        matches!(self, TraceKind::Duplicate)
    }
}

/// One measured configuration, as written to the JSON report.
#[derive(Debug, Serialize)]
pub struct TraceResult {
    /// Trace name.
    pub trace: &'static str,
    /// Service worker threads.
    pub workers: usize,
    /// Jobs submitted.
    pub jobs: usize,
    /// Arrival rate (jobs/s; 0 = unpaced).
    pub rate: f64,
    /// Wall time from first submission to last resolution, seconds.
    pub wall_s: f64,
    /// Resolved-ok jobs per second of wall time.
    pub throughput: f64,
    /// Jobs that executed cold.
    pub executions: u64,
    /// Jobs served from the result cache.
    pub cache_hits: u64,
    /// Jobs attached to an in-flight twin.
    pub coalesced: u64,
    /// Admission rejections (should be 0: the queue is sized to the trace).
    pub rejected: u64,
    /// Median submission-to-resolution latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
}

/// The job spec for trace position `i`: same graph and scheme for every
/// job, fingerprints separated (or pooled) through the coloring seed.
fn spec_for(cfg: &ExpConfig, kind: TraceKind, i: usize) -> JobSpec {
    let seed = if kind.is_duplicate() {
        (i % DUPLICATE_POOL_SIZE) as u64
    } else {
        i as u64
    };
    JobSpec {
        scheme: Scheme::TopoBase,
        opts: cfg.color_options().with_seed(seed),
    }
}

/// Pre-generated arrival offsets for an open-loop replay.
fn arrivals(kind: TraceKind, jobs: usize, rate: f64) -> Vec<Duration> {
    if rate <= 0.0 {
        return vec![Duration::ZERO; jobs];
    }
    (0..jobs)
        .map(|i| {
            let slot = if kind == TraceKind::Bursty {
                i / BURST_SIZE * BURST_SIZE
            } else {
                i
            };
            Duration::from_secs_f64(slot as f64 / rate)
        })
        .collect()
}

/// Replays one trace against a fresh service and measures it.
fn replay(
    cfg: &ExpConfig,
    g: &Arc<Csr>,
    kind: TraceKind,
    workers: usize,
    opts: &LoadgenOptions,
) -> TraceResult {
    let svc = Service::start(ServiceConfig {
        num_workers: workers,
        // Sized to the trace: this measurement is about throughput, not
        // admission control, so nothing should be shed.
        queue_capacity: opts.jobs.max(16),
        ..ServiceConfig::default()
    });
    let schedule = arrivals(kind, opts.jobs, opts.rate);
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(opts.jobs);
    let mut rejected = 0u64;
    for (i, due) in schedule.iter().enumerate() {
        let now = t0.elapsed();
        if *due > now {
            std::thread::sleep(*due - now);
        }
        match svc.submit(JobRequest::new(Arc::clone(g), spec_for(cfg, kind, i))) {
            Ok(h) => handles.push(h),
            Err(_) => rejected += 1,
        }
    }
    let mut ok = 0u64;
    for h in &handles {
        if h.wait().is_ok() {
            ok += 1;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = svc.shutdown();
    TraceResult {
        trace: kind.name(),
        workers,
        jobs: opts.jobs,
        rate: opts.rate,
        wall_s,
        throughput: ok as f64 / wall_s,
        executions: stats.executions,
        cache_hits: stats.cache_hits,
        coalesced: stats.coalesced,
        rejected,
        p50_ms: stats.p50_ms,
        p95_ms: stats.p95_ms,
        p99_ms: stats.p99_ms,
    }
}

/// The workload graph every trace colors.
fn workload(cfg: &ExpConfig) -> Arc<Csr> {
    Arc::new(gen::rmat(RmatParams::erdos_renyi(cfg.scale, 20), 0xE5))
}

/// Runs the measurement (or the `--smoke` checks) and renders the report.
pub fn run(cfg: &ExpConfig, opts: &LoadgenOptions) -> String {
    if opts.smoke {
        return smoke(cfg, opts);
    }
    let g = workload(cfg);
    let cells: Vec<(TraceKind, usize)> = match opts.trace {
        Some(kind) => vec![(kind, opts.workers)],
        None => {
            let mut workers = vec![1usize];
            if opts.workers > 1 {
                workers.push(opts.workers);
            }
            let mut cells = Vec::new();
            for kind in [TraceKind::Unique, TraceKind::Duplicate] {
                for &w in &workers {
                    cells.push((kind, w));
                }
            }
            cells
        }
    };

    let mut table = Table::new(vec![
        "trace",
        "workers",
        "jobs",
        "thru (jobs/s)",
        "p50 ms",
        "p99 ms",
        "cold",
        "cache+coal",
        "vs unique w1",
    ]);
    let mut results: Vec<TraceResult> = Vec::new();
    let mut baseline: Option<f64> = None;
    for (kind, workers) in cells {
        let r = replay(cfg, &g, kind, workers, opts);
        if baseline.is_none() {
            baseline = Some(r.throughput);
        }
        let rel = r.throughput / baseline.unwrap();
        table.row(vec![
            r.trace.to_string(),
            r.workers.to_string(),
            r.jobs.to_string(),
            f(r.throughput, 1),
            f(r.p50_ms, 2),
            f(r.p99_ms, 2),
            r.executions.to_string(),
            (r.cache_hits + r.coalesced).to_string(),
            speedup(rel),
        ]);
        results.push(r);
    }
    maybe_write_json(cfg.json.as_deref(), &results).expect("json write");

    let mut out = String::new();
    out.push_str(&format!(
        "loadgen — open-loop traces vs the coloring service\n\
         workload: rmat-er scale {} ({} vertices, {} edges), scheme T-base, backend {}\n\
         rate: {}\n\n",
        cfg.scale,
        g.num_vertices(),
        g.num_edges(),
        cfg.backend,
        if opts.rate > 0.0 {
            format!("{} jobs/s (open loop)", opts.rate)
        } else {
            "unpaced (full trace submitted at once)".to_string()
        },
    ));
    out.push_str(&table.render());
    out
}

/// CI invariants, cheap enough for every pipeline run:
///
/// 1. **Zero rejections on an idle service** — a paced trace far below
///    capacity must shed nothing.
/// 2. **A duplicate-only replay is 100% cache hits** — after one warm
///    execution, every identical request is served from the cache, and
///    the service executes exactly once.
/// 3. **Over the line protocol, a hit serves the cold assignment** — the
///    same replay through [`serve_lines`] with `"assignment":true`: every
///    hit line's `assignment` equals the cold line's byte for byte (the
///    cold line is [`proto::ok_response`], as the server renders it).
fn smoke(cfg: &ExpConfig, opts: &LoadgenOptions) -> String {
    let g = workload(cfg);
    let jobs = opts.jobs.min(32);

    // 1: idle service, sequential waits — every submission must land.
    let svc = Service::start(ServiceConfig {
        num_workers: opts.workers.max(1),
        queue_capacity: 16,
        ..ServiceConfig::default()
    });
    for i in 0..jobs {
        let h = svc
            .submit(JobRequest::new(
                Arc::clone(&g),
                spec_for(cfg, TraceKind::Unique, i),
            ))
            .unwrap_or_else(|r| panic!("smoke: idle service rejected job {i}: {r}"));
        h.wait()
            .unwrap_or_else(|e| panic!("smoke: job {i} failed: {e}"));
    }
    let idle = svc.shutdown();
    assert_eq!(
        idle.rejected_queue_full + idle.rejected_too_large,
        0,
        "smoke: idle service rejected submissions"
    );

    // 2: duplicate-only replay — one cold run, then all cache hits.
    let svc = Service::start(ServiceConfig {
        num_workers: opts.workers.max(1),
        queue_capacity: 16,
        ..ServiceConfig::default()
    });
    let spec = spec_for(cfg, TraceKind::Unique, 0);
    svc.submit(JobRequest::new(Arc::clone(&g), spec.clone()))
        .expect("smoke: warm submission rejected")
        .wait()
        .expect("smoke: warm run failed");
    for i in 0..jobs {
        let r = svc
            .submit(JobRequest::new(Arc::clone(&g), spec.clone()))
            .unwrap_or_else(|r| panic!("smoke: duplicate {i} rejected: {r}"))
            .wait()
            .unwrap_or_else(|e| panic!("smoke: duplicate {i} failed: {e}"));
        assert_eq!(
            r.source,
            ResultSource::CacheHit,
            "smoke: duplicate {i} missed the cache"
        );
    }
    let dup = svc.shutdown();
    assert_eq!(dup.executions, 1, "smoke: duplicate replay re-executed");
    assert_eq!(
        dup.cache_hits, jobs as u64,
        "smoke: duplicate replay not 100% cache hits"
    );

    let kept = served_duplicates_smoke(cfg, opts, &g, jobs);

    format!(
        "loadgen --smoke OK: {jobs} idle submissions, 0 rejections; \
         duplicate-only replay 100% cache hits ({} hits, 1 execution); \
         served replay: {jobs} hit assignments byte-identical to the cold one \
         ({kept} bytes kept)\n",
        dup.cache_hits
    )
}

/// Smoke check 3: `jobs` duplicate `color` requests with
/// `"assignment":true` through [`serve_lines`], against a service that
/// already ran the job, so each is a cache hit. Every hit line's
/// assignment must equal the cold line's. Returns the assignment bytes
/// the cache keeps at the end.
fn served_duplicates_smoke(
    cfg: &ExpConfig,
    opts: &LoadgenOptions,
    g: &Arc<Csr>,
    jobs: usize,
) -> usize {
    let request = |id: usize| {
        format!(
            "{{\"id\":{id},\"graph\":{{\"gen\":\"loadgen\",\"scale\":{},\"seed\":0}},\
             \"scheme\":\"T-base\",\"backend\":\"{}\",\"assignment\":true}}\n",
            cfg.scale, cfg.backend
        )
    };
    let Ok(Request::Color { spec, .. }) = Request::parse(request(0).trim_end()) else {
        panic!("smoke: the served request does not parse");
    };
    let spec = spec.fixed().expect("smoke: T-base is a fixed scheme");
    let service = Service::start(ServiceConfig {
        num_workers: opts.workers.max(1),
        queue_capacity: 16,
        ..ServiceConfig::default()
    });
    let cold = service
        .submit(JobRequest::new(Arc::clone(g), spec))
        .expect("smoke: warm submission rejected")
        .wait()
        .expect("smoke: warm run failed");
    let cold_line = proto::ok_response(Some(0), &cold, true, None);
    let cold_body = assignment_of(&cold_line);

    let input: String = (1..=jobs).map(request).collect();
    let out = Captured::default();
    let resolve = |name: &str, _: u32, _: u64| match name {
        "loadgen" => Ok(Arc::clone(g)),
        other => Err(format!("unknown graph {other:?}")),
    };
    let stats = serve_lines(service, input.as_bytes(), out.clone(), &resolve)
        .expect("smoke: serve I/O failed");
    let out = String::from_utf8(out.0.lock().expect("smoke: writer lock").clone())
        .expect("smoke: response lines are UTF-8");
    assert_eq!(
        out.lines().count(),
        jobs,
        "smoke: a served duplicate got no line"
    );
    for line in out.lines() {
        assert!(
            line.contains("\"source\":\"cache-hit\""),
            "smoke: served duplicate missed the cache: {line}"
        );
        assert!(
            assignment_of(line) == cold_body,
            "smoke: a hit's assignment differs from the cold line's"
        );
    }
    assert_eq!(stats.executions, 1, "smoke: served replay re-executed");
    assert_eq!(
        stats.cache_assignment_bytes,
        cold_body.len(),
        "smoke: the cache does not keep exactly the one hit assignment"
    );
    stats.cache_assignment_bytes
}

/// The bytes between the `[` and `]` of a response line's `assignment`.
fn assignment_of(line: &str) -> &str {
    let body = line
        .strip_prefix("{\"assignment\":[")
        .unwrap_or_else(|| panic!("smoke: no assignment in {line}"));
    &body[..body.find(']').expect("smoke: unterminated assignment")]
}

/// The server's output, read back once [`serve_lines`] returns.
#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let mut out = self.0.lock().expect("smoke: writer lock");
        out.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
