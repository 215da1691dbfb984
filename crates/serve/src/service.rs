//! The coloring service: a worker pool over a bounded admission queue,
//! with request coalescing, a fingerprint-keyed result cache and
//! graceful drain on shutdown.
//!
//! ## Life of a request
//!
//! ```text
//!  submit ──► admission control ──► cache ──► coalesce ──► queue ──► worker pool
//!               │                    │           │            │          │
//!               ▼                    ▼           ▼            ▼          ▼
//!        typed Rejection      instant hit   attach to    bounded    Scheme::try_color
//!        (queue-full /                      in-flight    FIFO       on the job's own
//!         graph-too-large /                 execution               backend (simt /
//!         shutting-down)                                            native / sharded)
//! ```
//!
//! Invariants the tests pin down:
//!
//! * **No accepted job is ever dropped.** Every [`JobHandle`] the
//!   service hands out resolves — with a [`JobResponse`] or a typed
//!   [`ServeError`] — even across [`Service::shutdown`], which drains
//!   the queue instead of discarding it. Rejection happens only at
//!   submission, and only as a typed [`Rejection`].
//! * **Serving never changes results.** A job's coloring — cold, served
//!   from cache, or attached to a coalesced execution — is bit-identical
//!   to `Scheme::try_color` called directly with the same graph and
//!   options, because the cache key ([`JobSpec::fingerprint`]) covers
//!   every option that can influence the output.
//! * **One execution per fingerprint in flight.** Duplicate submissions
//!   attach to the running execution and share its result; the queue
//!   holds distinct fingerprints only, so a duplicate never consumes a
//!   second queue slot.

use crate::cache::{CachedResult, ResultCache};
use crate::sync::{thread, Arc, Condvar, Mutex};
use gcol_core::{ColorError, Coloring, Fingerprint, JobSpec};
use gcol_graph::Csr;
use gcol_simt::Device;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing colorings. `0` is the single-threaded
    /// test/embedding mode: nothing runs until [`Service::shutdown`] (or
    /// [`Service::drain`]) processes the queue on the calling thread.
    pub num_workers: usize,
    /// Bounded submission queue: distinct in-flight executions beyond
    /// this are rejected with [`Rejection::QueueFull`]. Cache hits and
    /// coalesced duplicates never consume a slot.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Admission bound on graph size ([`Rejection::GraphTooLarge`]).
    pub max_vertices: Option<usize>,
    /// Admission bound on stored directed edges.
    pub max_edges: Option<usize>,
    /// Bound on the byte size of a streamed `load` upload, enforced
    /// chunk by chunk while the text accumulates — a lying client is cut
    /// off mid-stream ([`Rejection::UploadTooLarge`]) before the parser
    /// ever sees the payload.
    pub max_upload_bytes: Option<usize>,
    /// Device model the simt-backend jobs execute on.
    pub device: Device,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            num_workers: 2,
            queue_capacity: 256,
            cache_capacity: 128,
            max_vertices: None,
            max_edges: None,
            max_upload_bytes: None,
            device: Device::k20c(),
        }
    }
}

/// A coloring request: a shared graph plus the job spec to run on it.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The graph (shared; the service never copies it).
    pub graph: Arc<Csr>,
    /// Scheme + options; determines the fingerprint.
    pub spec: JobSpec,
    /// Optional deadline, relative to submission. A job whose deadline
    /// has passed when a worker would start it (or when its coalesced
    /// execution completes) resolves with [`ServeError::DeadlineExceeded`]
    /// instead of running/receiving a result.
    pub deadline: Option<Duration>,
}

impl JobRequest {
    /// A request with no deadline.
    pub fn new(graph: Arc<Csr>, spec: JobSpec) -> Self {
        Self {
            graph,
            spec,
            deadline: None,
        }
    }
}

/// Typed admission-control rejection: the request was never accepted and
/// owns no queue slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded queue is at capacity.
    QueueFull {
        /// The configured capacity it was at.
        capacity: usize,
    },
    /// The graph exceeds the configured admission bounds.
    GraphTooLarge {
        /// Vertices in the rejected graph.
        vertices: usize,
        /// Stored directed edges in the rejected graph.
        edges: usize,
        /// The configured vertex bound, if that is what tripped.
        max_vertices: Option<usize>,
        /// The configured edge bound, if that is what tripped.
        max_edges: Option<usize>,
    },
    /// A streamed graph upload exceeded the configured byte bound
    /// before it finished arriving.
    UploadTooLarge {
        /// Bytes accumulated when the bound tripped.
        bytes: usize,
        /// The configured [`ServiceConfig::max_upload_bytes`].
        max_bytes: usize,
    },
    /// The service is draining after [`Service::shutdown`] began.
    ShuttingDown,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            Rejection::GraphTooLarge {
                vertices, edges, ..
            } => write!(f, "graph too large ({vertices} vertices, {edges} edges)"),
            Rejection::UploadTooLarge { bytes, max_bytes } => {
                write!(f, "upload too large ({bytes} bytes, cap {max_bytes})")
            }
            Rejection::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for Rejection {}

/// Why an *accepted* job failed to produce a coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The job's deadline passed before a result could be delivered.
    DeadlineExceeded,
    /// The scheme itself failed (non-convergence, invalid options).
    Coloring(ColorError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Coloring(e) => write!(f, "coloring failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How a job's result was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultSource {
    /// A worker executed this job.
    Cold,
    /// Served from the result cache at submission.
    CacheHit,
    /// Attached to an identical in-flight execution.
    Coalesced,
}

impl ResultSource {
    /// Wire/report name.
    pub fn name(&self) -> &'static str {
        match self {
            ResultSource::Cold => "cold",
            ResultSource::CacheHit => "cache-hit",
            ResultSource::Coalesced => "coalesced",
        }
    }
}

/// A finished job: the shared coloring plus per-job metrics.
#[derive(Debug, Clone)]
pub struct JobResponse {
    /// The result (shared with the cache and any coalesced twins).
    pub coloring: Arc<Coloring>,
    /// Cold, cache hit, or coalesced.
    pub source: ResultSource,
    /// The cache/coalescing key of this job.
    pub fingerprint: Fingerprint,
    /// Time from submission to execution start (0 for cache hits).
    pub queue_ms: f64,
    /// Execution wall time of the run that produced the coloring
    /// (0 for cache hits; shared for coalesced jobs).
    pub exec_ms: f64,
    /// Time from submission to resolution.
    pub total_ms: f64,
}

/// Waitable handle to an accepted job.
#[derive(Debug, Clone)]
pub struct JobHandle {
    cell: Arc<JobCell>,
}

impl JobHandle {
    /// Blocks until the job resolves.
    pub fn wait(&self) -> Result<JobResponse, ServeError> {
        let mut done = self.cell.done.lock().unwrap();
        loop {
            if let Some(d) = done.as_ref() {
                return d.result.clone();
            }
            done = self.cell.cv.wait(done).unwrap();
        }
    }

    /// The result if the job already resolved, without blocking.
    pub fn try_wait(&self) -> Option<Result<JobResponse, ServeError>> {
        self.cell
            .done
            .lock()
            .unwrap()
            .as_ref()
            .map(|d| d.result.clone())
    }

    /// The rendered `assignment` body of a job that resolved from a
    /// cache entry — a cache hit or a coalesced attach: the bytes that
    /// entry keeps, rendered by `render` from the entry's own coloring on
    /// first use ([`CachedResult::assignment`]). `None` for a cold run,
    /// whose caller renders the assignment directly and keeps nothing,
    /// and for a job that has not resolved with a coloring.
    pub fn kept_assignment(&self, render: impl FnOnce(&[u32]) -> Vec<u8>) -> Option<Arc<[u8]>> {
        let entry = self.cell.done.lock().unwrap().as_ref()?.entry.clone()?;
        Some(entry.assignment(render))
    }

    /// This job's fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.cell.fingerprint
    }
}

#[derive(Debug)]
struct JobCell {
    fingerprint: Fingerprint,
    submitted: Instant,
    deadline: Option<Instant>,
    done: Mutex<Option<Resolved>>,
    cv: Condvar,
}

/// How a job resolved, and the cache entry its coloring came from when
/// it was not a cold run.
#[derive(Debug)]
struct Resolved {
    result: Result<JobResponse, ServeError>,
    entry: Option<Arc<CachedResult>>,
}

impl JobCell {
    fn resolve(&self, result: Result<JobResponse, ServeError>, entry: Option<Arc<CachedResult>>) {
        if let (Ok(r), Some(e)) = (&result, &entry) {
            debug_assert!(
                Arc::ptr_eq(&r.coloring, e.coloring()),
                "a response shares its entry's own coloring"
            );
        }
        let mut done = self.done.lock().unwrap();
        debug_assert!(done.is_none(), "job resolved twice");
        *done = Some(Resolved { result, entry });
        self.cv.notify_all();
    }
}

/// One queued/running execution; duplicates attach as extra waiters.
struct Execution {
    graph: Arc<Csr>,
    spec: JobSpec,
    waiters: Vec<Waiter>,
}

struct Waiter {
    cell: Arc<JobCell>,
    source: ResultSource,
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    accepted: u64,
    rejected_queue_full: u64,
    rejected_too_large: u64,
    rejected_shutdown: u64,
    cache_hits: u64,
    coalesced: u64,
    auto_planned: u64,
    executions: u64,
    skipped_executions: u64,
    completed_ok: u64,
    completed_err: u64,
    deadline_exceeded: u64,
    queue_wait_ms_sum: f64,
    exec_ms_sum: f64,
}

struct State {
    queue: VecDeque<Fingerprint>,
    inflight: HashMap<u128, Execution>,
    cache: ResultCache,
    counters: Counters,
    draining: bool,
    latencies_ms: Vec<f64>,
}

/// Bounded reservoir for latency percentiles: plenty for any trace the
/// bench harness replays, without growing unboundedly in a long-lived
/// process (later samples beyond the cap are dropped — a snapshot, not
/// a sketch).
const MAX_LATENCY_SAMPLES: usize = 1 << 16;

struct Inner {
    state: Mutex<State>,
    work_cv: Condvar,
    config: ServiceConfig,
}

/// The service. See the module docs for the request lifecycle.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

/// Cloneable handle that can observe and begin a drain from outside the
/// thread that owns the [`Service`] — a signal handler, or a test
/// driving [`crate::serve_lines`] (which consumes the service by value).
#[derive(Clone)]
pub struct DrainController {
    inner: Arc<Inner>,
}

impl DrainController {
    /// Same as [`Service::begin_drain`].
    pub fn begin_drain(&self) {
        begin_drain(&self.inner);
    }

    /// Whether a drain has begun (new submissions are being rejected).
    pub fn is_draining(&self) -> bool {
        self.inner.state.lock().unwrap().draining
    }
}

impl Service {
    /// Starts the worker pool (if `config.num_workers > 0`) and returns
    /// the running service.
    pub fn start(config: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::named(
                "serve-state",
                State {
                    queue: VecDeque::new(),
                    inflight: HashMap::new(),
                    cache: ResultCache::new(config.cache_capacity),
                    counters: Counters::default(),
                    draining: false,
                    latencies_ms: Vec::new(),
                },
            ),
            work_cv: Condvar::new(),
            config,
        });
        let workers = (0..inner.config.num_workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("gcol-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// Submits a job. On acceptance the returned handle *will* resolve;
    /// on rejection the request had no effect.
    pub fn submit(&self, req: JobRequest) -> Result<JobHandle, Rejection> {
        let cfg = &self.inner.config;
        let (n, m) = (req.graph.num_vertices(), req.graph.num_edges());
        let too_large =
            cfg.max_vertices.is_some_and(|b| n > b) || cfg.max_edges.is_some_and(|b| m > b);
        // Fingerprint outside the lock: hashing a large graph is the
        // most expensive step of admission.
        let fp = req.spec.fingerprint(&req.graph);
        let now = Instant::now();
        let cell = Arc::new(JobCell {
            fingerprint: fp,
            submitted: now,
            deadline: req.deadline.map(|d| now + d),
            done: Mutex::named("job-cell", None),
            cv: Condvar::new(),
        });

        let mut st = self.inner.state.lock().unwrap();
        st.counters.submitted += 1;
        if st.draining {
            st.counters.rejected_shutdown += 1;
            return Err(Rejection::ShuttingDown);
        }
        if too_large {
            st.counters.rejected_too_large += 1;
            return Err(Rejection::GraphTooLarge {
                vertices: n,
                edges: m,
                max_vertices: cfg.max_vertices.filter(|&b| n > b),
                max_edges: cfg.max_edges.filter(|&b| m > b),
            });
        }
        if let Some(hit) = st.cache.get(fp) {
            st.counters.accepted += 1;
            st.counters.cache_hits += 1;
            let total_ms = now.elapsed().as_secs_f64() * 1e3;
            st.latencies_push(total_ms);
            drop(st);
            let response = JobResponse {
                coloring: Arc::clone(hit.coloring()),
                source: ResultSource::CacheHit,
                fingerprint: fp,
                queue_ms: 0.0,
                exec_ms: 0.0,
                total_ms,
            };
            cell.resolve(Ok(response), Some(hit));
            return Ok(JobHandle { cell });
        }
        if let Some(exec) = st.inflight.get_mut(&fp.0) {
            exec.waiters.push(Waiter {
                cell: Arc::clone(&cell),
                source: ResultSource::Coalesced,
            });
            st.counters.accepted += 1;
            st.counters.coalesced += 1;
            return Ok(JobHandle { cell });
        }
        if st.queue.len() >= cfg.queue_capacity {
            st.counters.rejected_queue_full += 1;
            return Err(Rejection::QueueFull {
                capacity: cfg.queue_capacity,
            });
        }
        st.counters.accepted += 1;
        st.inflight.insert(
            fp.0,
            Execution {
                graph: req.graph,
                spec: req.spec,
                waiters: vec![Waiter {
                    cell: Arc::clone(&cell),
                    source: ResultSource::Cold,
                }],
            },
        );
        st.queue.push_back(fp);
        drop(st);
        self.inner.work_cv.notify_one();
        Ok(JobHandle { cell })
    }

    /// Processes queued executions on the calling thread until the queue
    /// is empty. The embedding/test-mode complement to the worker pool
    /// (harmless but usually pointless when workers are running).
    pub fn drain(&self) {
        while process_one(&self.inner) {}
    }

    /// Stops accepting new submissions — they are rejected with
    /// [`Rejection::ShuttingDown`] — without blocking. Already-accepted
    /// jobs keep executing; [`Service::shutdown`] completes the drain.
    pub fn begin_drain(&self) {
        begin_drain(&self.inner);
    }

    /// Whether a drain has begun. The protocol server checks this so an
    /// in-progress `load` upload resolves with a typed rejection instead
    /// of parsing a graph no job could ever be submitted against.
    pub fn is_draining(&self) -> bool {
        self.inner.state.lock().unwrap().draining
    }

    /// A handle for beginning/observing drain after the service itself
    /// has been moved (e.g. into [`crate::serve_lines`]).
    pub fn controller(&self) -> DrainController {
        DrainController {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Stops accepting new jobs, drains every queued and in-flight
    /// execution, joins the workers and returns the final stats. Every
    /// handle accepted before the call resolves.
    pub fn shutdown(mut self) -> ServiceStats {
        self.begin_drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // num_workers == 0 (or none survived): drain inline.
        self.drain();
        self.stats()
    }

    /// The device model jobs execute on. The protocol server's
    /// session-level incremental recolor path runs on the same device so
    /// delta and from-scratch timelines stay comparable.
    pub fn device(&self) -> &Device {
        &self.inner.config.device
    }

    /// The configuration the service was started with. The protocol
    /// server reads the admission bounds from here so `load` uploads are
    /// rejected during parsing with the same limits `submit` would apply
    /// to the finished graph.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Records one `"scheme":"auto"` request the planner resolved to a
    /// concrete plan. Counted by the protocol server *before* `submit`
    /// so the submitted job itself stays indistinguishable from an
    /// explicit one — same fingerprint, same cache key.
    pub fn note_auto_planned(&self) {
        self.inner.state.lock().unwrap().counters.auto_planned += 1;
    }

    /// A point-in-time snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let st = self.inner.state.lock().unwrap();
        let c = &st.counters;
        let (_, _, cache_evictions) = st.cache.counters();
        let mut lat = st.latencies_ms.clone();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| -> f64 {
            if lat.is_empty() {
                return f64::NAN;
            }
            let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
            lat[idx]
        };
        ServiceStats {
            submitted: c.submitted,
            accepted: c.accepted,
            rejected_queue_full: c.rejected_queue_full,
            rejected_too_large: c.rejected_too_large,
            rejected_shutdown: c.rejected_shutdown,
            cache_hits: c.cache_hits,
            coalesced: c.coalesced,
            auto_planned: c.auto_planned,
            executions: c.executions,
            skipped_executions: c.skipped_executions,
            completed_ok: c.completed_ok,
            completed_err: c.completed_err,
            deadline_exceeded: c.deadline_exceeded,
            cache_entries: st.cache.len(),
            cache_assignment_bytes: st.cache.assignment_bytes(),
            cache_evictions,
            queued: st.queue.len(),
            avg_queue_wait_ms: if c.executions == 0 {
                0.0
            } else {
                c.queue_wait_ms_sum / c.executions as f64
            },
            avg_exec_ms: if c.executions == 0 {
                0.0
            } else {
                c.exec_ms_sum / c.executions as f64
            },
            latency_samples: lat.len(),
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
        }
    }
}

fn begin_drain(inner: &Inner) {
    {
        let mut st = inner.state.lock().unwrap();
        st.draining = true;
    }
    inner.work_cv.notify_all();
}

impl State {
    fn latencies_push(&mut self, ms: f64) {
        if self.latencies_ms.len() < MAX_LATENCY_SAMPLES {
            self.latencies_ms.push(ms);
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        {
            let mut st = inner.state.lock().unwrap();
            while st.queue.is_empty() && !st.draining {
                st = inner.work_cv.wait(st).unwrap();
            }
            if st.queue.is_empty() && st.draining {
                return;
            }
        }
        process_one(inner);
    }
}

/// Dequeues and runs one execution. Returns false if the queue was empty.
fn process_one(inner: &Inner) -> bool {
    let started = Instant::now();
    let (fp, graph, spec, queue_wait_ms) = {
        let mut st = inner.state.lock().unwrap();
        let Some(fp) = st.queue.pop_front() else {
            return false;
        };
        // Resolve waiters whose deadline passed while queued; if none
        // remain, skip the execution entirely.
        let now = Instant::now();
        let (expired, first_wait_ms, none_alive) = {
            let exec = st.inflight.get_mut(&fp.0).expect("queued fp has execution");
            let (expired, alive): (Vec<Waiter>, Vec<Waiter>) = exec
                .waiters
                .drain(..)
                .partition(|w| w.cell.deadline.is_some_and(|d| now > d));
            exec.waiters = alive;
            let first_wait_ms = exec
                .waiters
                .first()
                .map(|w| (now - w.cell.submitted).as_secs_f64() * 1e3)
                .unwrap_or(0.0);
            (expired, first_wait_ms, exec.waiters.is_empty())
        };
        st.counters.deadline_exceeded += expired.len() as u64;
        if none_alive {
            st.counters.skipped_executions += 1;
            st.inflight.remove(&fp.0);
            drop(st);
            for w in expired {
                w.cell.resolve(Err(ServeError::DeadlineExceeded), None);
            }
            return true;
        }
        let exec = st.inflight.get(&fp.0).expect("queued fp has execution");
        let graph = Arc::clone(&exec.graph);
        let spec = exec.spec.clone();
        drop(st);
        for w in expired {
            w.cell.resolve(Err(ServeError::DeadlineExceeded), None);
        }
        (fp, graph, spec, first_wait_ms)
    };

    // The result moves into its `Arc` here, outside the lock below.
    let result = spec
        .scheme
        .try_color(&graph, &inner.config.device, &spec.opts)
        .map(Arc::new);
    let exec_ms = started.elapsed().as_secs_f64() * 1e3;

    let (waiters, entry) = {
        let mut st = inner.state.lock().unwrap();
        let exec = st.inflight.remove(&fp.0).expect("running fp has execution");
        st.counters.executions += 1;
        st.counters.queue_wait_ms_sum += queue_wait_ms;
        st.counters.exec_ms_sum += exec_ms;
        let entry = match &result {
            Ok(coloring) => {
                st.counters.completed_ok += 1;
                Some(st.cache.insert(fp, Arc::clone(coloring)))
            }
            Err(_) => {
                // Failed runs are not cached: a later identical request
                // may succeed (e.g. under a different max_iterations,
                // which the fingerprint deliberately ignores).
                st.counters.completed_err += 1;
                None
            }
        };
        let now = Instant::now();
        let mut resolved = Vec::with_capacity(exec.waiters.len());
        for w in exec.waiters {
            let deadline_hit = w.cell.deadline.is_some_and(|d| now > d);
            if deadline_hit {
                st.counters.deadline_exceeded += 1;
            }
            let total_ms = (now - w.cell.submitted).as_secs_f64() * 1e3;
            if !deadline_hit && result.is_ok() {
                st.latencies_push(total_ms);
            }
            resolved.push((w, deadline_hit, total_ms));
        }
        drop(st);
        (resolved, entry)
    };
    for (w, deadline_hit, total_ms) in waiters {
        let r = match &result {
            _ if deadline_hit => Err(ServeError::DeadlineExceeded),
            Ok(coloring) => Ok(JobResponse {
                coloring: Arc::clone(coloring),
                source: w.source,
                fingerprint: fp,
                queue_ms: queue_wait_ms,
                exec_ms,
                total_ms,
            }),
            Err(e) => Err(ServeError::Coloring(e.clone())),
        };
        // A coalesced waiter shares the new entry's kept assignment; the
        // cold one renders its own and keeps nothing.
        let entry = match (&r, w.source) {
            (Ok(_), ResultSource::Coalesced) => entry.clone(),
            _ => None,
        };
        w.cell.resolve(r, entry);
    }
    true
}

/// Aggregated service-level metrics snapshot.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Submissions seen (accepted + rejected).
    pub submitted: u64,
    /// Accepted jobs (cold + cache hits + coalesced).
    pub accepted: u64,
    /// Rejections: bounded queue at capacity.
    pub rejected_queue_full: u64,
    /// Rejections: graph over the admission bounds.
    pub rejected_too_large: u64,
    /// Rejections: submitted during drain.
    pub rejected_shutdown: u64,
    /// Jobs served straight from the cache.
    pub cache_hits: u64,
    /// Jobs attached to an identical in-flight execution.
    pub coalesced: u64,
    /// `"scheme":"auto"` requests resolved by the planner.
    pub auto_planned: u64,
    /// Executions actually run by workers.
    pub executions: u64,
    /// Executions skipped because every waiter's deadline had passed.
    pub skipped_executions: u64,
    /// Executions whose scheme returned a coloring.
    pub completed_ok: u64,
    /// Executions whose scheme failed (typed `ColorError`).
    pub completed_err: u64,
    /// Jobs resolved with `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Results currently cached.
    pub cache_entries: usize,
    /// Bytes of rendered assignment the cached results keep (only hit or
    /// coalesced results that were asked for their assignment hold any).
    pub cache_assignment_bytes: usize,
    /// Lifetime cache evictions.
    pub cache_evictions: u64,
    /// Executions waiting in the queue at snapshot time.
    pub queued: usize,
    /// Mean queue wait across executions.
    pub avg_queue_wait_ms: f64,
    /// Mean execution wall time.
    pub avg_exec_ms: f64,
    /// Successful-job latency samples held (bounded reservoir).
    pub latency_samples: usize,
    /// Median submission-to-resolution latency of successful jobs.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "jobs: {} submitted, {} accepted ({} cold runs, {} cache hits, {} coalesced); {} auto-planned",
            self.submitted,
            self.accepted,
            self.executions,
            self.cache_hits,
            self.coalesced,
            self.auto_planned
        )?;
        writeln!(
            f,
            "rejected: {} queue-full, {} too-large, {} shutting-down; {} deadline-exceeded",
            self.rejected_queue_full,
            self.rejected_too_large,
            self.rejected_shutdown,
            self.deadline_exceeded
        )?;
        writeln!(
            f,
            "executions: {} ok, {} failed, {} skipped; cache: {} entries ({} assignment bytes), {} evictions",
            self.completed_ok,
            self.completed_err,
            self.skipped_executions,
            self.cache_entries,
            self.cache_assignment_bytes,
            self.cache_evictions
        )?;
        write!(
            f,
            "latency over {} jobs: p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms; queue wait avg {:.2} ms, exec avg {:.2} ms",
            self.latency_samples,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.avg_queue_wait_ms,
            self.avg_exec_ms
        )
    }
}
