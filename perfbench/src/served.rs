//! The served workloads: `cold-mix`, where every request misses the
//! result cache, and `hot-repeat`, where every request hits it. Both
//! drive `serve_lines` over in-memory pipes with a closed loop of
//! `nproc` requests in flight, against `nproc` service workers.

use crate::check::{self, Response};
use crate::graphs;
use crate::pipe::{Resolver, Server};
use crate::stats::{self, geomean, median, Metrics};
use crate::trace::{native_kernel_phases, Recorder, Trace};
use crate::{host, Outcome, RunArgs, MAX_TIMED_S, SETUP_REPS};
use gcol_core::{ColorOptions, Coloring, JobSpec, Scheme};
use gcol_graph::Csr;
use gcol_plan::AutoColorer;
use gcol_serve::proto::{self, GraphSpec, Request};
use gcol_serve::{JobRequest, JobResponse, ResultSource, Service, ServiceConfig};
use gcol_simt::{Device, Phase};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A graph the server resolves by name.
#[derive(Debug, Clone)]
struct GraphRef {
    name: &'static str,
    scale: u32,
    seed: u64,
}

impl GraphRef {
    fn new(name: &'static str, scale: u32, seed: u64) -> Self {
        let seed = wire_seed(graphs::derive(seed, &format!("graph.{name}.{scale}")));
        Self { name, scale, seed }
    }

    fn label(&self) -> String {
        format!("{}-s{}", self.name, self.scale)
    }
}

/// One request class: a scheme (or `auto`) and a shard count.
#[derive(Debug, Clone, Copy)]
struct Class {
    label: &'static str,
    scheme: &'static str,
    shards: usize,
}

const fn class(label: &'static str, scheme: &'static str, shards: usize) -> Class {
    Class {
        label,
        scheme,
        shards,
    }
}

const D_BASE: Class = class("D-base", "D-base", 1);
const D_ATOMIC: Class = class("D-atomic", "D-atomic", 1);
const T_BASE: Class = class("T-base", "T-base", 1);
const SEQUENTIAL: Class = class("sequential", "sequential", 1);
const AUTO: Class = class("auto", "auto", 1);
const D_BASE_P2: Class = class("D-base-p2", "D-base", 2);

/// `cold-mix`: each class once on each graph, in a seeded order.
const COLD_CLASSES: [Class; 6] = [D_BASE, D_ATOMIC, T_BASE, SEQUENTIAL, AUTO, D_BASE_P2];

/// `hot-repeat`'s pool over graphs 0 (rmat-er s17), 1 (thermal2 s17)
/// and 2 (thermal2 s19). A hit on the scale-19 mesh costs about four
/// times a scale-17 one and is a tenth of the pool, so the 95th
/// percentile falls in the middle of those hits, not on the edge of the
/// small ones where a host stall would move it. The median falls inside
/// the rmat-er hits.
const HOT_POOL: [(Class, usize); 10] = [
    (D_BASE, 0),
    (D_ATOMIC, 0),
    (T_BASE, 0),
    (AUTO, 0),
    (SEQUENTIAL, 0),
    (D_BASE_P2, 0),
    (D_BASE, 1),
    (T_BASE, 1),
    (AUTO, 1),
    (D_BASE, 2),
];

const SLO: gcol_plan::Slo = gcol_plan::Slo::FastestWall;

/// Seeds travel as JSON numbers, so they stay below 2^52.
fn wire_seed(x: u64) -> u64 {
    x & ((1 << 52) - 1)
}

/// A request stream: the cycle of (class, graph) entries and how each
/// job's request seed is drawn.
struct Stream {
    cycle: Vec<(Class, usize)>,
    /// Both workloads color rmat-er and thermal2 at scale 17. rmat-er
    /// converges in about two rounds over heavy rows; the thermal2 mesh
    /// needs about ten rounds over light rows.
    graphs: Vec<GraphRef>,
    /// `cold-mix` gives every job its own seed (a distinct cache key);
    /// `hot-repeat` fixes one seed per pool entry.
    distinct: bool,
    seed: u64,
}

impl Stream {
    fn new(hot: bool, seed: u64) -> Self {
        let mut graphs = vec![
            GraphRef::new("rmat-er", 17, seed),
            GraphRef::new("thermal2", 17, seed),
        ];
        let entries: Vec<(Class, usize)> = if hot {
            graphs.push(GraphRef::new("thermal2", 19, seed));
            HOT_POOL.to_vec()
        } else {
            COLD_CLASSES
                .iter()
                .flat_map(|&c| (0..graphs.len()).map(move |g| (c, g)))
                .collect()
        };
        Self {
            cycle: graphs::shuffled(&entries, seed, "served.cycle"),
            graphs,
            distinct: !hot,
            seed,
        }
    }

    fn slot(&self, k: u64) -> usize {
        (k % self.cycle.len() as u64) as usize
    }

    fn entry(&self, k: u64) -> (Class, usize) {
        self.cycle[self.slot(k)]
    }

    fn request_seed(&self, k: u64) -> u64 {
        let base = graphs::derive(self.seed, "served.request");
        wire_seed(base.wrapping_add(if self.distinct {
            k
        } else {
            self.slot(k) as u64
        }))
    }

    fn line(&self, k: u64) -> String {
        let (c, g) = self.entry(k);
        let shards = if c.shards > 1 {
            format!(",\"shards\":{}", c.shards)
        } else {
            String::new()
        };
        let slo = if c.scheme == "auto" {
            format!(",\"slo\":\"{}\"", SLO.name())
        } else {
            String::new()
        };
        let gr = &self.graphs[g];
        format!(
            "{{\"op\":\"color\",\"id\":{k},\"graph\":{{\"gen\":\"{}\",\"scale\":{},\"seed\":{}}},\"scheme\":\"{}\",\"backend\":\"native\"{shards}{slo},\"seed\":{},\"assignment\":true}}",
            gr.name,
            gr.scale,
            gr.seed,
            c.scheme,
            self.request_seed(k)
        )
    }
}

/// Graphs the server resolved, kept for the benchmark's own checks.
#[derive(Default)]
struct Catalog {
    graphs: Mutex<HashMap<(String, u32, u64), Arc<Csr>>>,
    gen_ms: Mutex<f64>,
}

fn resolver(cat: Arc<Catalog>) -> Arc<Resolver> {
    Arc::new(move |name: &str, scale: u32, seed: u64| {
        let t = Instant::now();
        let g = Arc::new(graphs::generate(name, scale, seed)?);
        *cat.gen_ms.lock().expect("catalog lock") += t.elapsed().as_secs_f64() * 1e3;
        cat.graphs
            .lock()
            .expect("catalog lock")
            .insert((name.to_string(), scale, seed), Arc::clone(&g));
        Ok(g)
    })
}

fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        num_workers: workers,
        ..ServiceConfig::default()
    }
}

/// The graphs a connection resolved, the sequential first-fit color
/// count of each, and what the set-up cost.
struct Inputs {
    graphs: Vec<Arc<Csr>>,
    seq_colors: Vec<usize>,
    secs: f64,
    gen_ms: f64,
}

/// Starts the service and resolves both graphs through `serve_lines`
/// with a `mutate` that carries no edits: generation and resolution,
/// and no coloring.
fn setup(stream: &Stream, workers: usize) -> (Server, Inputs) {
    let t0 = Instant::now();
    let cat = Arc::new(Catalog::default());
    let server = Server::start(service_config(workers), resolver(Arc::clone(&cat)));
    for (i, g) in stream.graphs.iter().enumerate() {
        server.send(&format!(
            "{{\"op\":\"mutate\",\"id\":{i},\"graph\":{{\"gen\":\"{}\",\"scale\":{},\"seed\":{}}}}}",
            g.name, g.scale, g.seed
        ));
        let r = Response::parse(&server.recv()).expect("mutate response is JSON");
        assert!(r.ok(), "resolving {} failed: {}", g.label(), r.error());
    }
    let graphs: Vec<Arc<Csr>> = stream
        .graphs
        .iter()
        .map(|g| {
            let key = (g.name.to_string(), g.scale, g.seed);
            Arc::clone(&cat.graphs.lock().expect("catalog lock")[&key])
        })
        .collect();
    let seq_colors = graphs
        .iter()
        .map(|g| gcol_core::seq::greedy_seq(g, gcol_graph::ordering::Ordering::Natural).num_colors)
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    let gen_ms = *cat.gen_ms.lock().expect("catalog lock");
    let inputs = Inputs {
        graphs,
        seq_colors,
        secs,
        gen_ms,
    };
    (server, inputs)
}

/// Runs a closed loop from job `first`: keeps up to `window` requests in
/// flight while `more(sent, elapsed_s)` holds, hands every response to
/// `done(job, latency_ms, response)` and returns the wall time from the
/// first request written to the last response read.
pub fn closed_loop(
    server: &Server,
    window: usize,
    first: u64,
    mut more: impl FnMut(u64, f64) -> bool,
    line: impl Fn(u64) -> String,
    mut done: impl FnMut(u64, f64, Response),
) -> f64 {
    let t0 = Instant::now();
    let mut last = t0;
    let mut inflight: HashMap<u64, Instant> = HashMap::new();
    let (mut next, mut sent) = (first, 0u64);
    loop {
        while inflight.len() < window && more(sent, t0.elapsed().as_secs_f64()) {
            let text = line(next);
            inflight.insert(next, Instant::now());
            server.send(&text);
            next += 1;
            sent += 1;
        }
        if inflight.is_empty() {
            return (last - t0).as_secs_f64();
        }
        let text = server.recv();
        last = Instant::now();
        let resp = Response::parse(&text)
            .unwrap_or_else(|e| panic!("unparseable response ({e}): {:.200}", text));
        let id = resp
            .num("id")
            .expect("every response carries its request id") as u64;
        let sent_at = inflight
            .remove(&id)
            .expect("response to a request in flight");
        done(id, (last - sent_at).as_secs_f64() * 1e3, resp);
    }
}

/// Coloring checks deferred until the timed phase ends. Equal
/// assignment text is checked once: cold-mix requests differ only in
/// their seed, which the deterministic schemes ignore.
#[derive(Default)]
struct Verifier {
    /// Keyed by (assignment hash, claimed colors, graph).
    by_key: HashMap<(u64, usize, usize), Pending>,
    unchecked: usize,
}

struct Pending {
    text: Option<String>,
    jobs: u64,
    verdict: Option<Result<(), check::CheckError>>,
}

impl Verifier {
    /// Bound on unchecked assignments held at once (about 0.3 MB each).
    /// A cold-mix run holds one per csrcolor job the planner picks,
    /// whose colors follow the request seed: about 50 in 20 seconds.
    const MAX_UNCHECKED: usize = 96;

    fn add(&mut self, graph: usize, claimed: usize, text: String, graphs: &[Arc<Csr>]) {
        let p = self
            .by_key
            .entry((check::hash_text(&text), claimed, graph))
            .or_insert_with(|| Pending {
                text: None,
                jobs: 0,
                verdict: None,
            });
        p.jobs += 1;
        if p.jobs == 1 {
            p.text = Some(text);
            self.unchecked += 1;
        }
        if self.unchecked > Self::MAX_UNCHECKED {
            self.check_all(graphs);
        }
    }

    fn check_all(&mut self, graphs: &[Arc<Csr>]) {
        for (&(_, claimed, graph), p) in &mut self.by_key {
            if let Some(text) = p.text.take() {
                p.verdict = Some(match check::decode_assignment(&text) {
                    Ok(c) => check::check_coloring(&graphs[graph], &c, claimed),
                    Err(e) => Err(check::CheckError::Improper(e)),
                });
            }
        }
        self.unchecked = 0;
    }

    /// Checks what is left; returns the (improper, failed, miscounted)
    /// job counts and prints each reason.
    fn finish(&mut self, graphs: &[Arc<Csr>], refs: &[GraphRef]) -> (u64, u64, u64) {
        self.check_all(graphs);
        let (mut improper, mut failed, mut miscounted) = (0, 0, 0);
        for (&(_, _, graph), p) in &self.by_key {
            if let Some(Err(e)) = &p.verdict {
                eprintln!("{} jobs on {}: {e}", p.jobs, refs[graph].label());
                improper += if e.is_improper() { p.jobs } else { 0 };
                failed += if e.fails_job() { p.jobs } else { 0 };
                miscounted += if e.fails_job() { 0 } else { p.jobs };
            }
        }
        (improper, failed, miscounted)
    }
}

/// One served response, reduced to what the metrics need.
struct Served {
    slot: usize,
    graph: usize,
    latency_ms: f64,
    ok: bool,
    source: String,
    colors: usize,
    queue_ms: f64,
    exec_ms: f64,
    total_ms: f64,
}

/// Runs a served phase and folds every response into `served` and the
/// verifier. Returns the phase's wall time.
#[allow(clippy::too_many_arguments)]
fn served_phase(
    server: &Server,
    st: &Inputs,
    stream: &Stream,
    window: usize,
    first: u64,
    more: impl FnMut(u64, f64) -> bool,
    verifier: &mut Verifier,
    served: &mut Vec<Served>,
) -> f64 {
    closed_loop(
        server,
        window,
        first,
        more,
        |k| stream.line(k),
        |k, ms, r| {
            let (_, graph) = stream.entry(k);
            let ok = r.ok();
            if !ok {
                eprintln!("job {k} failed: {}", r.error());
            }
            let colors = r.num("colors").unwrap_or(0.0) as usize;
            if let Some(text) = r.assignment.clone() {
                verifier.add(graph, colors, text, &st.graphs);
            }
            served.push(Served {
                slot: stream.slot(k),
                graph,
                latency_ms: ms,
                ok: ok && r.assignment.is_some(),
                source: r.text("source").unwrap_or("").to_string(),
                colors,
                queue_ms: r.num("queue_ms").unwrap_or(0.0),
                exec_ms: r.num("exec_ms").unwrap_or(0.0),
                total_ms: r.num("total_ms").unwrap_or(0.0),
            });
        },
    )
}

/// Prints each request class's median latency and its share of the
/// jobs, so a reader can see which class the median and the 95th
/// percentile fall in.
fn print_class_latencies(stream: &Stream, timed: &[Served]) {
    let mut by_slot: Vec<Vec<f64>> = vec![Vec::new(); stream.cycle.len()];
    for s in timed {
        by_slot[s.slot].push(s.latency_ms);
    }
    let mut rows: Vec<(f64, String)> = by_slot
        .iter()
        .zip(&stream.cycle)
        .map(|(lat, (c, g))| {
            let label = format!("{}/{} n={}", c.label, stream.graphs[*g].label(), lat.len());
            (median(lat), label)
        })
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (ms, label) in rows {
        eprintln!("  class p50 {ms:>9.2} ms  {label}");
    }
}

/// Modeled K20c milliseconds of D-base on each graph (simt backend,
/// deterministic mode): the paper's metric for the graphs this workload
/// serves.
fn modeled_ms(graphs: &[Arc<Csr>]) -> f64 {
    let ms: Vec<f64> = graphs
        .iter()
        .map(|g| {
            let c = Scheme::DataBase
                .try_color(g, &Device::k20c(), &ColorOptions::default())
                .expect("simt D-base converges");
            c.total_ms()
        })
        .collect();
    geomean(&ms)
}

pub fn run(args: &RunArgs, hot: bool) -> Outcome {
    let window = host::nproc();
    let stream = Stream::new(hot, args.seed);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups: Vec<(Server, Inputs)> = (0..reps).map(|_| setup(&stream, window)).collect();
    let setup_s = median(&setups.iter().map(|s| s.1.secs).collect::<Vec<_>>());
    let (server, st) = setups.pop().expect("at least one set-up");
    drop(setups);

    // Warm-up: one pass over the cycle; on hot-repeat a second pass, so
    // the timed phase starts with every pool entry cached and seen hit.
    let mut warm = Vec::new();
    let warm_jobs = stream.cycle.len() as u64 * if hot { 2 } else { 1 };
    let mut verifier = Verifier::default();
    served_phase(
        &server,
        &st,
        &stream,
        window,
        0,
        |sent, _| sent < warm_jobs,
        &mut verifier,
        &mut warm,
    );
    let (_, warm_failed, _) = verifier.finish(&st.graphs, &stream.graphs);
    assert!(
        warm.iter().all(|s| s.ok) && warm_failed == 0,
        "warm-up requests failed"
    );
    let mut verifier = Verifier::default();

    let (budget, min_jobs) = (args.budget(), args.min_jobs());
    let ticks0 = host::cpu_ticks();
    let cpu0 = (host::process_cpu_s(), host::thread_cpu_s());
    let mut timed = Vec::new();
    let wall = served_phase(
        &server,
        &st,
        &stream,
        window,
        warm_jobs,
        |sent, elapsed| elapsed < MAX_TIMED_S && (elapsed < budget || sent < min_jobs),
        &mut verifier,
        &mut timed,
    );
    let steal = host::steal_share(ticks0, host::cpu_ticks());
    // The client is this thread; every other thread serves.
    let server_cpu_s = (host::process_cpu_s() - cpu0.0) - (host::thread_cpu_s() - cpu0.1);
    let stats = server.finish();
    let (improper, bad_colorings, miscounted) = verifier.finish(&st.graphs, &stream.graphs);
    let expected_source = if hot { "cache-hit" } else { "cold" };
    let wrong_source = timed
        .iter()
        .filter(|s| s.ok && s.source != expected_source)
        .count() as u64;
    if wrong_source > 0 {
        eprintln!("{wrong_source} responses did not come from the {expected_source} path");
    }
    let attempted = timed.len() as u64;
    let failed = timed.iter().filter(|s| !s.ok).count() as u64 + wrong_source + bad_colorings;
    eprintln!("service: {stats}");

    print_class_latencies(&stream, &timed);
    let mut m = Metrics::default();
    let latencies: Vec<f64> = timed.iter().map(|s| s.latency_ms).collect();
    let ok_jobs = timed.iter().filter(|s| s.ok).count();
    stats::set_wall(&mut m, ok_jobs, wall, &latencies);
    if args.trace {
        let share = |f: &dyn Fn(&Served) -> bool| {
            timed.iter().filter(|s| f(s)).count() as f64 / timed.len().max(1) as f64
        };
        let med = |f: &dyn Fn(&Served) -> f64| median(&timed.iter().map(f).collect::<Vec<_>>());
        m.set("graph.gen_ms", st.gen_ms);
        m.set("serve.cache_hit_share", share(&|s| s.source == "cache-hit"));
        m.set(
            "core.miscounted_share",
            miscounted as f64 / attempted.max(1) as f64,
        );
        m.set("serve.queue_ms", med(&|s| s.queue_ms));
        m.set("serve.exec_ms", med(&|s| s.exec_ms));
        m.set("serve.outside_ms", med(&|s| s.latency_ms - s.total_ms));
        let (t, replay_failed, replay_improper) =
            replay(&stream, &st, window, warm_jobs, budget, hot, &mut m);
        return Outcome {
            metrics: m,
            attempted,
            failed: failed + replay_failed,
            improper: improper + replay_improper,
            steal,
            trace: Some(t),
        };
    }
    m.set("cpu_ms_per_job", server_cpu_s * 1e3 / ok_jobs.max(1) as f64);
    m.set(
        "ok_share",
        (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
    );
    // One ratio per cycle slot: every job of a slot colors the same
    // graph with the same deterministic scheme, so the figure repeats
    // exactly on a seed however many jobs the run completed.
    let mut by_slot: Vec<Option<f64>> = vec![None; stream.cycle.len()];
    for s in timed.iter().filter(|s| s.ok) {
        by_slot[s.slot].get_or_insert(s.colors as f64 / st.seq_colors[s.graph] as f64);
    }
    let ratios: Vec<f64> = by_slot.into_iter().flatten().collect();
    m.set("colors_ratio", geomean(&ratios));
    m.set("peak_rss_mb", host::peak_rss_mb());
    m.set("setup_s", setup_s);
    m.set("modeled_ms", modeled_ms(&st.graphs));
    Outcome {
        metrics: m,
        attempted,
        failed,
        improper,
        steal,
        trace: None,
    }
}

/// One job of the traced replay.
#[derive(Default)]
struct ReplayJob {
    slot: usize,
    graph: usize,
    class: &'static str,
    traced: bool,
    total_ms: f64,
    parse_ms: f64,
    plan_ms: Option<f64>,
    predicted_ms: Option<f64>,
    fingerprint_ms: f64,
    submit_ms: f64,
    exec_ms: f64,
    recorded_ms: f64,
    kernel_ms: f64,
    launches: usize,
    rounds: usize,
    exchange_rounds: usize,
    encode_ms: f64,
    bytes: usize,
    /// Why the job's coloring failed its check, if it did.
    check: Option<check::CheckError>,
}

/// Replays the timed stream from `first`, calling each layer's public
/// functions in the server's order on `nproc` threads: parse, plan,
/// fingerprint, then `try_color` (cold-mix) or `Service::submit`
/// (hot-repeat), then encode. It skips the queue hand-off between the
/// reader thread and the workers, whose cost `serve.queue_ms` reports
/// from the served phase. Alternate cycles run traced, so the traced and
/// untraced medians compare like with like.
fn replay(
    stream: &Stream,
    st: &Inputs,
    window: usize,
    first: u64,
    seconds: f64,
    hot: bool,
    m: &mut Metrics,
) -> (Trace, u64, u64) {
    let cycle = stream.cycle.len() as u64;
    let service = hot.then(|| {
        // A fresh service, warmed with one pass over the pool.
        let svc = Service::start(service_config(window));
        for k in 0..cycle {
            let (job, g) = resolve_job(stream, st, k);
            svc.submit(JobRequest::new(g, job))
                .expect("warm-up admitted")
                .wait()
                .expect("warm-up coloring");
        }
        svc
    });
    let epoch = Instant::now();
    let next = AtomicU64::new(first);
    let jobs = Mutex::new(Vec::new());
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..window)
            .map(|tid| {
                let (next, jobs, service) = (&next, &jobs, service.as_ref());
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, tid as u32);
                    while epoch.elapsed().as_secs_f64() < seconds {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let traced = ((k - first) / cycle).is_multiple_of(2);
                        let job = replay_job(stream, st, k, traced, &mut rec, service);
                        jobs.lock().expect("jobs lock").push(job);
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    if let Some(svc) = service {
        svc.shutdown();
    }
    let jobs = jobs.into_inner().expect("jobs lock");
    let trace = Trace::merge(recorders);
    let failed = jobs
        .iter()
        .filter(|j| j.check.as_ref().is_some_and(check::CheckError::fails_job))
        .count() as u64;
    let improper = jobs
        .iter()
        .filter(|j| j.check.as_ref().is_some_and(check::CheckError::is_improper))
        .count() as u64;
    layer_metrics(&jobs, stream, st, hot, m);
    let p50 = |traced: bool| {
        median(
            &jobs
                .iter()
                .filter(|j| j.traced == traced)
                .map(|j| j.total_ms)
                .collect::<Vec<_>>(),
        )
    };
    m.set("bench.trace_overhead", p50(true) / p50(false) - 1.0);
    m.set("bench.trace_coverage", trace.coverage());
    (trace, failed, improper)
}

/// The concrete job and graph of stream position `k`, resolved the way
/// the server resolves them (the planner picks `auto`'s scheme).
fn resolve_job(stream: &Stream, st: &Inputs, k: u64) -> (JobSpec, Arc<Csr>) {
    let (_, g) = stream.entry(k);
    let Ok(Request::Color { spec, .. }) = Request::parse(&stream.line(k)) else {
        panic!("stream line {k} is not a color request");
    };
    let graph = Arc::clone(&st.graphs[g]);
    let job = spec.fixed().unwrap_or_else(|| {
        AutoColorer::new(SLO)
            .plan_for(&graph, &spec.opts)
            .spec(&spec.opts)
    });
    (job, graph)
}

fn replay_job(
    stream: &Stream,
    st: &Inputs,
    k: u64,
    traced: bool,
    rec: &mut Recorder,
    service: Option<&Service>,
) -> ReplayJob {
    let (class, g) = stream.entry(k);
    let mut j = ReplayJob {
        slot: stream.slot(k),
        graph: g,
        class: class.label,
        traced,
        ..ReplayJob::default()
    };
    let t0 = Instant::now();
    let root = traced.then(|| rec.open("bench.job", Some(k)));
    let line = stream.line(k);
    let (req, ms) = rec.step(traced, "serve.proto.parse", || Request::parse(&line));
    j.parse_ms = ms;
    let Ok(Request::Color {
        graph: GraphSpec::Named { .. },
        spec,
        ..
    }) = req
    else {
        panic!("stream line {k} is not a named-graph color request");
    };
    let graph = Arc::clone(&st.graphs[g]);
    let (job, plan) = match spec.fixed() {
        Some(job) => (job, None),
        None => {
            let (plan, ms) = rec.step(traced, "plan.plan", || {
                AutoColorer::new(SLO).plan_for(&graph, &spec.opts)
            });
            j.plan_ms = Some(ms);
            j.predicted_ms = Some(plan.predicted_ms);
            (plan.spec(&spec.opts), Some(plan))
        }
    };
    let (fp, ms) = rec.step(traced, "graph.fingerprint", || {
        job.fingerprint_of(graph.content_fingerprint())
    });
    j.fingerprint_ms = ms;
    let response = match service {
        Some(svc) => {
            let (r, ms) = rec.step(traced, "serve.submit", || {
                svc.submit(JobRequest::new(Arc::clone(&graph), job.clone()))
                    .map_err(|e| e.to_string())
                    .and_then(|h| h.wait().map_err(|e| e.to_string()))
            });
            j.submit_ms = ms;
            r.ok()
        }
        None => {
            let span = traced.then(|| rec.open("core.exec", None));
            let t = Instant::now();
            let c = job.scheme.try_color(&graph, &Device::k20c(), &job.opts);
            j.exec_ms = match span {
                Some(id) => rec.close(id),
                None => t.elapsed().as_secs_f64() * 1e3,
            };
            c.ok().map(|c| {
                if let Some(id) = span {
                    rec.add_kernel_phases(id, &c.profile);
                }
                profile_counts(&mut j, &c);
                JobResponse {
                    coloring: Arc::new(c),
                    source: ResultSource::Cold,
                    fingerprint: fp,
                    queue_ms: 0.0,
                    exec_ms: j.exec_ms,
                    total_ms: j.exec_ms,
                }
            })
        }
    };
    if let Some(r) = &response {
        let (text, ms) = rec.step(traced, "serve.proto.encode", || {
            proto::ok_response(Some(k), r, true, plan.as_ref().map(|p| (SLO, p)))
        });
        j.encode_ms = ms;
        j.bytes = text.len();
    }
    if let Some(id) = root {
        rec.close(id);
    }
    j.total_ms = t0.elapsed().as_secs_f64() * 1e3;
    j.check = match &response {
        Some(r) => check::check_coloring(&graph, &r.coloring.colors, r.coloring.num_colors).err(),
        None => Some(check::CheckError::Missing(
            "the job returned an error".into(),
        )),
    };
    if let Some(e) = &j.check {
        eprintln!("replay job {k}: {e}");
    }
    j
}

/// Counts read from a native run's profile.
fn profile_counts(j: &mut ReplayJob, c: &Coloring) {
    j.recorded_ms = c.profile.total_ms();
    j.kernel_ms = native_kernel_phases(&c.profile).sum();
    j.launches = native_kernel_phases(&c.profile).count();
    j.rounds = c.iterations;
    j.exchange_rounds = c
        .profile
        .phases
        .iter()
        .filter(|p| matches!(p, Phase::Host { label, .. } if label.starts_with("exchange round")))
        .count();
}

fn layer_metrics(jobs: &[ReplayJob], stream: &Stream, st: &Inputs, hot: bool, m: &mut Metrics) {
    let traced: Vec<&ReplayJob> = jobs.iter().filter(|j| j.traced).collect();
    let med = |f: &dyn Fn(&ReplayJob) -> Option<f64>| {
        median(&traced.iter().filter_map(|j| f(j)).collect::<Vec<_>>())
    };
    m.set("graph.fingerprint_ms", med(&|j| Some(j.fingerprint_ms)));
    m.set("plan.plan_ms", med(&|j| j.plan_ms));
    m.set("serve.proto.parse_ms", med(&|j| Some(j.parse_ms)));
    m.set("serve.proto.encode_ms", med(&|j| Some(j.encode_ms)));
    m.set("serve.proto.response_bytes", med(&|j| Some(j.bytes as f64)));
    if hot {
        m.set("serve.submit_ms", med(&|j| Some(j.submit_ms)));
        return;
    }
    // Median exec per (class, graph), over every replayed job.
    let exec = |class: &str, g: usize| {
        median(
            &jobs
                .iter()
                .filter(|j| j.class == class && j.graph == g)
                .map(|j| j.exec_ms)
                .collect::<Vec<_>>(),
        )
    };
    let per_graph = |class: &str| {
        (0..stream.graphs.len())
            .map(|g| exec(class, g))
            .collect::<Vec<_>>()
    };
    for (name, class) in [
        ("core.exec_ms.D-base", D_BASE),
        ("core.exec_ms.D-atomic", D_ATOMIC),
        ("core.exec_ms.T-base", T_BASE),
        ("core.exec_ms.sequential", SEQUENTIAL),
        ("core.exec_ms.auto", AUTO),
        ("core.exec_ms.D-base-p2", D_BASE_P2),
    ] {
        m.set(name, geomean(&per_graph(class.label)));
    }
    let fixed = [D_BASE, D_ATOMIC, T_BASE, SEQUENTIAL, D_BASE_P2];
    let regret: Vec<f64> = (0..stream.graphs.len())
        .map(|g| {
            exec(AUTO.label, g)
                / fixed
                    .iter()
                    .map(|c| exec(c.label, g))
                    .fold(f64::INFINITY, f64::min)
        })
        .collect();
    m.set("plan.wall_regret", geomean(&regret));
    m.set(
        "plan.predicted_over_measured",
        med(&|j| j.predicted_ms.map(|p| p / j.exec_ms)),
    );
    let floor: Vec<f64> = (0..stream.graphs.len())
        .flat_map(|g| {
            [D_BASE, D_ATOMIC, T_BASE, AUTO, D_BASE_P2]
                .map(|c| exec(c.label, g) / exec(SEQUENTIAL.label, g))
        })
        .collect();
    m.set("core.floor_ratio", geomean(&floor));
    // The sequential scheme records modeled CPU time, not wall time.
    m.set(
        "core.recorded_share",
        med(&|j| (j.class != SEQUENTIAL.label).then(|| j.recorded_ms / j.exec_ms)),
    );
    m.set(
        "simt.native_kernel_ms",
        med(&|j| (j.launches > 0 && j.exchange_rounds == 0).then_some(j.kernel_ms)),
    );
    // Exact counts: every cycle slot runs the same deterministic job, so
    // the mean over the slots of the cycle repeats bit for bit.
    let mut by_slot: Vec<Option<&ReplayJob>> = vec![None; stream.cycle.len()];
    for j in jobs {
        by_slot[j.slot].get_or_insert(j);
    }
    let slots: Vec<&ReplayJob> = by_slot.into_iter().flatten().collect();
    if slots.len() == stream.cycle.len() {
        let mean = |f: &dyn Fn(&ReplayJob) -> usize| {
            slots.iter().map(|j| f(j) as f64).sum::<f64>() / slots.len() as f64
        };
        m.set("core.launches", mean(&|j| j.launches));
        m.set("core.rounds", mean(&|j| j.rounds));
        let p2: Vec<f64> = slots
            .iter()
            .filter(|j| j.class == D_BASE_P2.label)
            .map(|j| j.exchange_rounds as f64)
            .collect();
        m.set(
            "core.exchange_rounds",
            p2.iter().sum::<f64>() / p2.len() as f64,
        );
    } else {
        eprintln!("replay did not cover every cycle slot; exact counts omitted");
    }
    m.set("core.frontier_bytes", frontier_bytes(&st.graphs));
}

/// Ghost-frontier bytes of the `shards:2` class, mean over the graphs.
/// The native backend has no modeled interconnect and records no
/// transfers, so the same job runs once on the simt backend, whose
/// transfer phases carry the wire bytes.
fn frontier_bytes(graphs: &[Arc<Csr>]) -> f64 {
    let opts = ColorOptions::default().with_shards(2);
    let bytes: Vec<f64> = graphs
        .iter()
        .map(|g| {
            let c = Scheme::DataBase
                .try_color(g, &Device::k20c(), &opts)
                .expect("simt D-base p2 converges");
            c.profile
                .phases
                .iter()
                .filter_map(|p| match p {
                    Phase::Transfer { label, bytes, .. } if label.starts_with("ghost frontier") => {
                        Some(*bytes as f64)
                    }
                    _ => None,
                })
                .sum()
        })
        .collect();
    bytes.iter().sum::<f64>() / bytes.len() as f64
}
