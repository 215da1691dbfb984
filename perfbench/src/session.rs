//! `session-edit`: writes beside reads. Set-up uploads a scale-16
//! rmat-er graph as MatrixMarket text through chunked `load`; each job
//! is then a `mutate` with a seeded batch of 1% of the edges (half
//! deletes of present edges, half inserts of absent ones, so the graph
//! keeps its size; every tenth batch is a 5% bulk edit) followed by a
//! native delta `recolor`, one job in flight. Every result is checked against the benchmark's own mirror
//! of the graph, which applies the same edits without the library's
//! edit code.

use crate::check::{self, Response};
use crate::graphs;
use crate::pipe::{Resolver, Server};
use crate::stats::{self, geomean, median, Metrics};
use crate::trace::{Recorder, Trace};
use crate::{host, Outcome, RunArgs, MAX_TIMED_S, MIN_TIMED_JOBS, SETUP_REPS};
use gcol_core::{recolor_delta, ColorOptions, Coloring, Scheme};
use gcol_graph::edit::EdgeEdit;
use gcol_graph::io::{GraphFormat, GraphSource};
use gcol_graph::rng::Xoshiro256;
use gcol_graph::{Csr, VertexId};
use gcol_serve::proto::{self, Request};
use gcol_serve::ServiceConfig;
use gcol_simt::Device;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Scale 16 keeps a job near 100 ms, so a run times 200 jobs in about
/// twenty seconds; at scale 17 a job took about 210 ms on a 2-vCPU VM.
const SCALE: u32 = 16;
const GRAPH: &str = "rmat-er";
/// Edits per batch as a share of the undirected edges.
const EDIT_SHARE: f64 = 0.01;
/// Every tenth batch is a bulk edit five times the size. The bulk jobs
/// are a tenth of the stream, so the 95th percentile falls in their
/// middle rather than on the edge of the 1% jobs, where any stall of the
/// host would move it.
const BULK_EVERY: u64 = 10;
const BULK_FACTOR: usize = 5;

fn batch_size(base: usize, k: u64) -> usize {
    if k % BULK_EVERY == BULK_EVERY - 1 {
        base * BULK_FACTOR
    } else {
        base
    }
}
/// Upload chunk size: large files arrive over several `load` lines.
const CHUNK_BYTES: usize = 1 << 20;
/// Jobs whose exact counts (`graph.edit_touched`, `core.repair_rounds`)
/// the traced run reports: a fixed prefix of the seeded stream.
const EXACT_JOBS: usize = 8;
/// Request id of the scratch baseline recolor, apart from the job ids.
const BASELINE_ID: u64 = 1 << 40;

/// The benchmark's copy of the session graph: sorted adjacency lists.
#[derive(Clone)]
struct Mirror {
    adj: Vec<Vec<VertexId>>,
    edges: usize,
}

impl Mirror {
    fn new(g: &Csr) -> Self {
        let adj: Vec<Vec<VertexId>> = (0..g.num_vertices() as VertexId)
            .map(|v| g.neighbors(v).to_vec())
            .collect();
        let edges = adj.iter().map(Vec::len).sum::<usize>() / 2;
        Self { adj, edges }
    }

    fn has(&self, u: VertexId, v: VertexId) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Draws the next batch (distinct edges; deletes present, inserts
    /// absent) and applies it to the mirror.
    fn batch(&mut self, rng: &mut Xoshiro256, size: usize) -> Vec<EdgeEdit> {
        let n = self.adj.len();
        let mut chosen = HashSet::new();
        let mut edits = Vec::with_capacity(size);
        while edits.len() < size / 2 {
            let u = rng.gen_index(n);
            if self.adj[u].is_empty() {
                continue;
            }
            let v = self.adj[u][rng.gen_index(self.adj[u].len())];
            let key = ((u as VertexId).min(v), (u as VertexId).max(v));
            if chosen.insert(key) {
                edits.push(EdgeEdit::Delete(key.0, key.1));
            }
        }
        while edits.len() < size {
            let (u, v) = (rng.gen_index(n) as VertexId, rng.gen_index(n) as VertexId);
            if u == v || self.has(u, v) {
                continue;
            }
            if chosen.insert((u.min(v), u.max(v))) {
                edits.push(EdgeEdit::Insert(u, v));
            }
        }
        for e in &edits {
            let (u, v) = e.endpoints();
            for (a, b) in [(u, v), (v, u)] {
                let row = &mut self.adj[a as usize];
                match (e, row.binary_search(&b)) {
                    (EdgeEdit::Delete(..), Ok(i)) => {
                        row.remove(i);
                    }
                    (EdgeEdit::Insert(..), Err(i)) => row.insert(i, b),
                    _ => unreachable!("batch edits are effective by construction"),
                }
            }
            match e {
                EdgeEdit::Delete(..) => self.edges -= 1,
                EdgeEdit::Insert(..) => self.edges += 1,
            }
        }
        edits
    }

    fn csr(&self) -> Csr {
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        offsets.push(0u32);
        let mut cols = Vec::with_capacity(2 * self.edges);
        for row in &self.adj {
            cols.extend_from_slice(row);
            offsets.push(cols.len() as u32);
        }
        Csr::try_new(offsets, cols).expect("mirror adjacency is a valid CSR")
    }
}

fn touched(edits: &[EdgeEdit]) -> usize {
    edits
        .iter()
        .flat_map(|e| {
            let (u, v) = e.endpoints();
            [u, v]
        })
        .collect::<HashSet<_>>()
        .len()
}

fn mutate_line(id: u64, edits: &[EdgeEdit]) -> String {
    let body: Vec<String> = edits
        .iter()
        .map(|e| match *e {
            EdgeEdit::Insert(u, v) => format!("[\"+\",{u},{v}]"),
            EdgeEdit::Delete(u, v) => format!("[\"-\",{u},{v}]"),
        })
        .collect();
    format!(
        "{{\"op\":\"mutate\",\"id\":{id},\"edits\":[{}]}}",
        body.join(",")
    )
}

fn recolor_line(id: u64) -> String {
    format!("{{\"op\":\"recolor\",\"id\":{id},\"scheme\":\"D-base\",\"backend\":\"native\",\"assignment\":true}}")
}

fn recolor_opts() -> ColorOptions {
    ColorOptions::default().with_backend(gcol_core::BackendKind::Native)
}

struct Setup {
    graph: Csr,
    text: String,
    seq_colors: usize,
    secs: f64,
    gen_ms: f64,
}

/// Generates the graph, writes it as MatrixMarket text and uploads it
/// in chunks; the server parses it into the session graph.
fn setup(seed: u64, workers: usize) -> (Server, Setup) {
    let t0 = Instant::now();
    let no_names: Arc<Resolver> =
        Arc::new(|name: &str, _: u32, _: u64| Err(format!("no graph named {name}")));
    let server = Server::start(
        ServiceConfig {
            num_workers: workers,
            ..ServiceConfig::default()
        },
        no_names,
    );
    let graph = graphs::generate(GRAPH, SCALE, graphs::derive(seed, "session.graph"))
        .expect("session graph");
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut bytes = Vec::new();
    gcol_graph::io::write_matrix_market_symmetric(&graph, &mut bytes).expect("in-memory write");
    let text = String::from_utf8(bytes).expect("MatrixMarket text is UTF-8");
    let mut rest = text.as_str();
    let mut id = 0u64;
    while !rest.is_empty() {
        let mut cut = rest.len().min(CHUNK_BYTES);
        if cut < rest.len() {
            cut = rest[..cut].rfind('\n').map_or(cut, |i| i + 1);
        }
        let (chunk, tail) = rest.split_at(cut);
        rest = tail;
        server.send(&format!(
            "{{\"op\":\"load\",\"id\":{id},\"format\":\"mtx\",\"data\":\"{}\",\"last\":{}}}",
            crate::json::escape(chunk),
            rest.is_empty()
        ));
        let r = Response::parse(&server.recv()).expect("load response is JSON");
        assert!(r.ok(), "load chunk {id} failed: {}", r.error());
        if rest.is_empty() {
            assert_eq!(
                r.text("graph_fingerprint"),
                Some(format!("{:016x}", graph.content_fingerprint()).as_str()),
                "the loaded graph differs from the uploaded one"
            );
        }
        id += 1;
    }
    let seq_colors =
        gcol_core::seq::greedy_seq(&graph, gcol_graph::ordering::Ordering::Natural).num_colors;
    let st = Setup {
        graph,
        text,
        seq_colors,
        secs: t0.elapsed().as_secs_f64(),
        gen_ms,
    };
    (server, st)
}

/// One served job's outcome.
struct Job {
    latency_ms: f64,
    ok: bool,
    colors: usize,
    /// The reported color count differs from the assignment's.
    miscounted: bool,
}

/// Sends one mutate + recolor pair and checks both responses against
/// the mirror, which `edits` were already applied to. Returns the job
/// and whether its coloring was improper.
fn served_job(server: &Server, k: u64, edits: &[EdgeEdit], mirror: &Mirror) -> (Job, bool) {
    let (m_line, r_line) = (mutate_line(2 * k, edits), recolor_line(2 * k + 1));
    let t0 = Instant::now();
    server.send(&m_line);
    server.send(&r_line);
    let m_text = server.recv();
    let r_text = server.recv();
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let m = Response::parse(&m_text).expect("mutate response is JSON");
    let r = Response::parse(&r_text).expect("recolor response is JSON");
    let mut ok = m.ok() && r.ok() && r.text("source") == Some("delta");
    if !m.ok() || !r.ok() {
        eprintln!("job {k} failed: {} / {}", m.error(), r.error());
    }
    if m.num("touched") != Some(touched(edits) as f64)
        || m.num("edges") != Some(2.0 * mirror.edges as f64)
    {
        eprintln!("job {k}: mutate response disagrees with the mirror");
        ok = false;
    }
    let colors = r.num("colors").unwrap_or(0.0) as usize;
    let verdict = match r.assignment.as_deref().map(check::decode_assignment) {
        Some(Ok(c)) => check::check_coloring(&mirror.csr(), &c, colors),
        Some(Err(e)) => Err(check::CheckError::Improper(e)),
        None => Err(check::CheckError::Missing(r.error())),
    };
    if let Err(e) = &verdict {
        eprintln!("job {k}: {e}");
    }
    let improper = verdict.as_ref().is_err_and(check::CheckError::is_improper);
    let job = Job {
        latency_ms,
        ok: ok && !verdict.as_ref().is_err_and(check::CheckError::fails_job),
        colors,
        miscounted: verdict.is_err_and(|e| !e.fails_job()),
    };
    (job, improper)
}

pub fn run(args: &RunArgs) -> Outcome {
    let workers = host::nproc();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups: Vec<(Server, Setup)> = (0..reps).map(|_| setup(args.seed, workers)).collect();
    let setup_s = median(&setups.iter().map(|s| s.1.secs).collect::<Vec<_>>());
    let (server, st) = setups.pop().expect("at least one set-up");
    drop(setups);

    let size = (EDIT_SHARE * st.graph.num_edges() as f64 / 2.0).round() as usize;
    let mut mirror = Mirror::new(&st.graph);
    let mut rng = graphs::rng(args.seed, "session.edits");

    // Warm-up: the scratch baseline every delta repairs, then two jobs.
    server.send(&recolor_line(BASELINE_ID));
    let base = Response::parse(&server.recv()).expect("recolor response is JSON");
    assert!(
        base.ok() && base.text("source") == Some("scratch"),
        "baseline recolor failed"
    );
    let mut k = 0u64;
    for _ in 0..2 {
        let edits = mirror.batch(&mut rng, batch_size(size, k));
        let (job, improper) = served_job(&server, k, &edits, &mirror);
        assert!(job.ok && !improper, "warm-up job failed");
        k += 1;
    }

    let (budget, min_jobs) = (args.budget(), args.min_jobs());
    let ticks0 = host::cpu_ticks();
    let cpu0 = (host::process_cpu_s(), host::thread_cpu_s());
    let (mut jobs, mut improper, mut busy_s) = (Vec::new(), 0u64, 0.0);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < MAX_TIMED_S
        && (busy_s < budget || (jobs.len() as u64) < min_jobs)
    {
        let edits = mirror.batch(&mut rng, batch_size(size, k));
        let (job, bad) = served_job(&server, k, &edits, &mirror);
        busy_s += job.latency_ms / 1e3;
        improper += u64::from(bad);
        jobs.push(job);
        k += 1;
    }
    let steal = host::steal_share(ticks0, host::cpu_ticks());
    // The client, with its mirror and checks, is this thread; the server
    // thread does the jobs.
    let server_cpu_s = (host::process_cpu_s() - cpu0.0) - (host::thread_cpu_s() - cpu0.1);
    let stats = server.finish();
    eprintln!("service: {stats}");
    let attempted = jobs.len() as u64;
    let failed = jobs.iter().filter(|j| !j.ok).count() as u64;

    let mut m = Metrics::default();
    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_ms).collect();
    let ok_jobs = jobs.iter().filter(|j| j.ok).count();
    // One job in flight: the clock runs while a job is, so the
    // benchmark's own edit drawing and checking do not count.
    stats::set_wall(&mut m, ok_jobs, busy_s, &latencies);
    if args.trace {
        m.set("graph.gen_ms", st.gen_ms);
        let miscounted = jobs.iter().filter(|j| j.miscounted).count();
        m.set(
            "core.miscounted_share",
            miscounted as f64 / jobs.len().max(1) as f64,
        );
        let (t, replay_failed, replay_improper) = replay(&st, args.seed, size, budget, &mut m);
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
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    // Over the first MIN_TIMED_JOBS jobs of the seeded stream, so the
    // figure repeats exactly on a seed.
    let ratios: Vec<f64> = jobs
        .iter()
        .take(MIN_TIMED_JOBS as usize)
        .filter(|j| j.ok)
        .map(|j| j.colors as f64 / st.seq_colors as f64)
        .collect();
    m.set("colors_ratio", geomean(&ratios));
    m.set("peak_rss_mb", host::peak_rss_mb());
    m.set("setup_s", setup_s);
    let modeled = Scheme::DataBase
        .try_color(&st.graph, &Device::k20c(), &ColorOptions::default())
        .expect("simt D-base converges")
        .total_ms();
    m.set("modeled_ms", modeled);
    Outcome {
        metrics: m,
        attempted,
        failed,
        improper,
        steal,
        trace: None,
    }
}

#[derive(Default)]
struct ReplayJob {
    traced: bool,
    total_ms: f64,
    parse_ms: f64,
    edit_ms: f64,
    touched: usize,
    fingerprint_ms: f64,
    repair_ms: f64,
    repair_rounds: usize,
    encode_ms: f64,
    bytes: usize,
    /// Why the job's coloring failed its check, if it did.
    check: Option<check::CheckError>,
}

/// Replays the same seeded edit stream from the uploaded graph, calling
/// the server's steps for `mutate` and `recolor` directly: parse, edit,
/// encode; parse, fingerprint, delta repair, encode.
fn replay(st: &Setup, seed: u64, size: usize, seconds: f64, m: &mut Metrics) -> (Trace, u64, u64) {
    let (g, ms) = {
        let t = Instant::now();
        let g = GraphSource::new(GraphFormat::MatrixMarket)
            .read(st.text.as_bytes())
            .expect("the session text parses");
        (g, t.elapsed().as_secs_f64() * 1e3)
    };
    m.set("graph.ingest_ms", ms);
    let dev = Device::k20c();
    let opts = recolor_opts();
    let mut base: Arc<Coloring> = Arc::new(
        Scheme::DataBase
            .try_color(&g, &dev, &opts)
            .expect("scratch baseline"),
    );
    let mut graph = g;
    let mut mirror = Mirror::new(&graph);
    let mut rng = graphs::rng(seed, "session.edits");
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut jobs: Vec<ReplayJob> = Vec::new();
    let t_start = Instant::now();
    let mut k = 0u64;
    while t_start.elapsed().as_secs_f64() < seconds || jobs.len() < EXACT_JOBS {
        // Blocks of BULK_EVERY jobs alternate, so traced and untraced
        // jobs share one mix of batch sizes.
        let traced = (k / BULK_EVERY).is_multiple_of(2);
        let edits = mirror.batch(&mut rng, batch_size(size, k));
        let (m_line, r_line) = (mutate_line(2 * k, &edits), recolor_line(2 * k + 1));
        let mut j = ReplayJob {
            traced,
            ..ReplayJob::default()
        };
        let t0 = Instant::now();
        let root = traced.then(|| rec.open("bench.job", Some(k)));
        let (req, ms) = rec.step(traced, "serve.proto.parse", || Request::parse(&m_line));
        j.parse_ms += ms;
        let Ok(Request::Mutate { edits, .. }) = req else {
            panic!("mutate line {k} did not parse as a mutate");
        };
        let ((next, dirty), ms) = rec.step(traced, "graph.edit", || {
            graph.with_edits(&edits).expect("edits are in range")
        });
        j.edit_ms = ms;
        j.touched = dirty.len();
        graph = next;
        let (_, ms) = rec.step(traced, "serve.proto.encode", || {
            proto::mutate_response(Some(2 * k), dirty.len(), &graph)
        });
        j.encode_ms += ms;
        let (req, ms) = rec.step(traced, "serve.proto.parse", || Request::parse(&r_line));
        j.parse_ms += ms;
        let Ok(Request::Recolor { spec, .. }) = req else {
            panic!("recolor line {k} did not parse as a recolor");
        };
        let spec = spec.fixed().expect("recolor names a fixed scheme");
        let (fp, ms) = rec.step(traced, "graph.fingerprint", || spec.fingerprint(&graph));
        j.fingerprint_ms = ms;
        let span = traced.then(|| rec.open("core.repair", None));
        let t = Instant::now();
        let repaired = recolor_delta(&graph, &base, &dirty, &dev, &spec.opts);
        j.repair_ms = match span {
            Some(id) => rec.close(id),
            None => t.elapsed().as_secs_f64() * 1e3,
        };
        let repaired = Arc::new(repaired.expect("delta repair converges"));
        if let Some(id) = span {
            rec.add_kernel_phases(id, &repaired.profile);
        }
        j.repair_rounds = repaired.iterations;
        let (text, ms) = rec.step(traced, "serve.proto.encode", || {
            proto::recolor_response(Some(2 * k + 1), "delta", dirty.len(), fp, &repaired, true)
        });
        j.encode_ms += ms;
        j.bytes = text.len();
        if let Some(id) = root {
            rec.close(id);
        }
        j.total_ms = t0.elapsed().as_secs_f64() * 1e3;
        j.check = check::check_coloring(&mirror.csr(), &repaired.colors, repaired.num_colors).err();
        if let Some(e) = &j.check {
            eprintln!("replay job {k}: {e}");
        }
        base = repaired;
        jobs.push(j);
        k += 1;
    }
    let med = |f: &dyn Fn(&ReplayJob) -> f64| {
        median(&jobs.iter().filter(|j| j.traced).map(f).collect::<Vec<_>>())
    };
    m.set("serve.proto.parse_ms", med(&|j| j.parse_ms));
    m.set("serve.proto.encode_ms", med(&|j| j.encode_ms));
    m.set("serve.proto.response_bytes", med(&|j| j.bytes as f64));
    m.set("graph.edit_ms", med(&|j| j.edit_ms));
    m.set("graph.fingerprint_ms", med(&|j| j.fingerprint_ms));
    m.set("core.repair_ms", med(&|j| j.repair_ms));
    let exact = &jobs[..EXACT_JOBS];
    let mean = |f: &dyn Fn(&ReplayJob) -> usize| {
        exact.iter().map(|j| f(j) as f64).sum::<f64>() / EXACT_JOBS as f64
    };
    m.set("graph.edit_touched", mean(&|j| j.touched));
    m.set("core.repair_rounds", mean(&|j| j.repair_rounds));
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
    let trace = Trace::merge(vec![rec]);
    m.set("bench.trace_coverage", trace.coverage());
    let failed = jobs
        .iter()
        .filter(|j| j.check.as_ref().is_some_and(check::CheckError::fails_job))
        .count() as u64;
    let improper = jobs
        .iter()
        .filter(|j| j.check.as_ref().is_some_and(check::CheckError::is_improper))
        .count() as u64;
    (trace, failed, improper)
}
