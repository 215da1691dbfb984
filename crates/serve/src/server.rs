//! Drives a [`Service`] from a line-delimited JSON stream (stdio, a TCP
//! socket, a unit test's byte buffer — anything `BufRead`/`Write`).
//!
//! Requests pipeline: each accepted job gets a responder thread that
//! waits on its [`crate::JobHandle`] and writes the response line when
//! the job resolves, so a fast cache hit overtakes a slow cold run that
//! was submitted earlier. Clients correlate by `id`. Each response line
//! reaches the writer in one `write_all` call, its `\n` included, under
//! a mutex, so concurrent resolutions never interleave bytes and a
//! socket never sends the terminator as a segment of its own.
//!
//! A cache hit or a coalesced response that asks for its assignment
//! splices in the body its cache entry keeps
//! ([`crate::JobHandle::kept_assignment`]), rendering it only the first
//! time; a cold response renders its own and keeps nothing.
//!
//! ## The incremental session
//!
//! `mutate`/`recolor` operate on per-connection state: the **session
//! graph**, the last `recolor` result (the *baseline*) and the dirty set
//! the mutations since then have touched. A `recolor` whose options
//! match the baseline's repairs it through
//! [`gcol_core::recolor_delta`] instead of rerunning the scheme. These
//! verbs run synchronously on the reading thread — they mutate session
//! state, so ordering against subsequent requests must be strict — and
//! they bypass the service's result cache entirely: a repaired coloring
//! is proper but not bit-identical to a from-scratch run, so it must
//! never be served to a `color` request, whose cache the graph's content
//! fingerprint keys (mutation rolls the fingerprint, so stale entries
//! are unreachable rather than explicitly purged).

use crate::proto::{self, GraphSpec, Request};
use crate::service::{Rejection, Service, ServiceStats};
use crate::sync::{thread, Arc, Mutex};
use gcol_core::{recolor_delta, Coloring, JobSpec};
use gcol_graph::io::{GraphFormat, GraphSource, IngestLimits};
use gcol_graph::{Csr, VertexId};
use gcol_plan::AutoColorer;
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, Write};
use std::time::Duration;

/// Per-connection incremental state: the graph `mutate` edits and the
/// baseline coloring + accumulated dirty set `recolor` repairs.
struct Session {
    graph: Arc<Csr>,
    base: Option<(JobSpec, Arc<Coloring>)>,
    dirty: BTreeSet<VertexId>,
}

/// An in-progress chunked `load`: the text accumulated so far and the
/// format the first chunk declared (if any). Dropped whole on any
/// failure, so the connection recovers to a clean slate.
struct Upload {
    format: Option<GraphFormat>,
    data: String,
}

/// Writes `line` and its `\n` in one `write_all` call, then flushes.
fn write_line<W: Write>(writer: &Mutex<W>, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    let mut w = writer.lock().unwrap();
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Resolves a request's graph reference against the memoized named-graph
/// table (inline graphs pass straight through).
fn lookup_graph(
    graphs: &mut HashMap<(String, u32, u64), Arc<Csr>>,
    resolve: &GraphResolver<'_>,
    spec: GraphSpec,
) -> Result<Arc<Csr>, String> {
    match spec {
        GraphSpec::Inline(g) => Ok(Arc::new(g)),
        GraphSpec::Named { name, scale, seed } => match graphs.entry((name.clone(), scale, seed)) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(Arc::clone(e.get())),
            std::collections::hash_map::Entry::Vacant(slot) => {
                Ok(Arc::clone(slot.insert(resolve(&name, scale, seed)?)))
            }
        },
        // The session graph lives on the connection, not in the named
        // table; callers resolve it before reaching here.
        GraphSpec::Session => Err("no session graph: load or mutate one first".into()),
    }
}

/// Resolves a named graph request (`{"gen":…,"scale":…,"seed":…}`) to a
/// graph. The embedding decides which names exist; the server memoizes
/// results so repeated requests do not regenerate.
pub type GraphResolver<'a> = dyn Fn(&str, u32, u64) -> Result<Arc<Csr>, String> + Sync + 'a;

/// Serves `reader` until EOF or a `shutdown` request, then drains the
/// service and returns its final stats. Every accepted job's response is
/// written before this returns — also when reading or writing fails, in
/// which case the drain runs first and the I/O error is returned after.
pub fn serve_lines<R, W>(
    service: Service,
    reader: R,
    writer: W,
    resolve: &GraphResolver<'_>,
) -> std::io::Result<ServiceStats>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let writer = Arc::new(Mutex::named("conn-writer", writer));
    let mut responders: Vec<thread::JoinHandle<()>> = Vec::new();
    let served = serve_requests(&service, reader, &writer, &mut responders, resolve);
    // Drain: every accepted handle resolves, then every responder has a
    // resolved handle to write out.
    let stats = service.shutdown();
    for r in responders {
        let _ = r.join();
    }
    served.map(|()| stats)
}

/// The request loop of [`serve_lines`]: answers each line until EOF, a
/// `shutdown` request or an I/O error. Accepted jobs leave a responder
/// thread in `responders` for the caller to join after the drain.
fn serve_requests<R, W>(
    service: &Service,
    mut reader: R,
    writer: &Arc<Mutex<W>>,
    responders: &mut Vec<thread::JoinHandle<()>>,
    resolve: &GraphResolver<'_>,
) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let mut graphs: HashMap<(String, u32, u64), Arc<Csr>> = HashMap::new();
    let mut session: Option<Session> = None;
    let mut upload: Option<Upload> = None;
    loop {
        // Reading bytes rather than `lines()` keeps a line that is not
        // UTF-8 a bad request instead of an I/O error that would end the
        // connection. The buffer is per line, as with `lines()`: one
        // kept for the connection would pin the largest upload chunk.
        let mut buf = Vec::new();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        // Strip the terminator exactly as `BufRead::lines` does.
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        let line = match std::str::from_utf8(&buf) {
            Ok(line) => line,
            Err(e) => {
                let msg = format!("request line is not UTF-8: {e}");
                write_line(writer, proto::error_response(None, "bad-request", &msg))?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = match Request::parse(line) {
            Ok(req) => req,
            Err(msg) => {
                write_line(writer, proto::error_response(None, "bad-request", &msg))?;
                continue;
            }
        };
        match req {
            Request::Stats { id } => {
                write_line(writer, proto::stats_response(id, &service.stats()))?;
            }
            Request::Mutate { id, graph, edits } => {
                // `"graph":"session"` names the graph already installed
                // (by a `load` or earlier mutate) — nothing to replace.
                if let Some(spec) = graph.filter(|g| !matches!(g, GraphSpec::Session)) {
                    match lookup_graph(&mut graphs, resolve, spec) {
                        Ok(g) => {
                            session = Some(Session {
                                graph: g,
                                base: None,
                                dirty: BTreeSet::new(),
                            });
                        }
                        Err(msg) => {
                            write_line(writer, proto::error_response(id, "unknown-graph", &msg))?;
                            continue;
                        }
                    }
                }
                let Some(sess) = session.as_mut() else {
                    write_line(
                        writer,
                        proto::error_response(
                            id,
                            "no-graph",
                            "no session graph: include \"graph\" in a mutate first",
                        ),
                    )?;
                    continue;
                };
                match sess.graph.with_edits(&edits) {
                    Ok((g, touched)) => {
                        sess.graph = Arc::new(g);
                        sess.dirty.extend(touched.iter().copied());
                        write_line(
                            writer,
                            proto::mutate_response(id, touched.len(), &sess.graph),
                        )?;
                    }
                    Err(e) => {
                        write_line(
                            writer,
                            proto::error_response(id, "bad-edit", &e.to_string()),
                        )?;
                    }
                }
            }
            Request::Load {
                id,
                format,
                data,
                last,
            } => {
                // A drain that began mid-upload resolves the upload with
                // the same typed rejection `submit` would give: the
                // buffer is dropped, the connection stays usable, and no
                // graph is parsed that nothing could ever run against.
                if service.is_draining() {
                    let rej = Rejection::ShuttingDown;
                    upload = None;
                    write_line(
                        writer,
                        proto::error_response(id, proto::rejection_code(&rej), &rej.to_string()),
                    )?;
                    continue;
                }
                let up = upload.get_or_insert_with(|| Upload {
                    format: None,
                    data: String::new(),
                });
                if up.format.is_none() {
                    up.format = format;
                }
                up.data.push_str(&data);
                // The byte bound cuts a lying client off mid-stream:
                // the buffer is dropped, the connection lives on.
                if let Some(max_bytes) = service.config().max_upload_bytes {
                    if up.data.len() > max_bytes {
                        let rej = Rejection::UploadTooLarge {
                            bytes: up.data.len(),
                            max_bytes,
                        };
                        upload = None;
                        write_line(
                            writer,
                            proto::error_response(
                                id,
                                proto::rejection_code(&rej),
                                &rej.to_string(),
                            ),
                        )?;
                        continue;
                    }
                }
                if !last {
                    write_line(writer, proto::loading_response(id, up.data.len()))?;
                    continue;
                }
                let up = upload.take().expect("buffer exists: inserted above");
                let Some(fmt) = up.format.or_else(|| GraphFormat::sniff(&up.data)) else {
                    write_line(
                        writer,
                        proto::error_response(
                            id,
                            "bad-graph",
                            "cannot determine graph format from content; pass \"format\"",
                        ),
                    )?;
                    continue;
                };
                let cfg = service.config();
                let limits = IngestLimits {
                    max_vertices: cfg.max_vertices,
                    max_edges: cfg.max_edges,
                };
                let line = match GraphSource::new(fmt)
                    .with_limits(limits)
                    .read(up.data.as_bytes())
                {
                    Ok(g) => {
                        let g = Arc::new(g);
                        session = Some(Session {
                            graph: Arc::clone(&g),
                            base: None,
                            dirty: BTreeSet::new(),
                        });
                        proto::load_response(id, fmt, &g)
                    }
                    // An admission-limit breach surfaces as the same
                    // typed rejection `submit` would produce, caught
                    // while parsing instead of after building the graph.
                    Err(e) => match e.limit_exceeded() {
                        Some(l) => {
                            let rej = Rejection::GraphTooLarge {
                                vertices: l.vertices,
                                edges: l.edges,
                                max_vertices: l.max_vertices,
                                max_edges: l.max_edges,
                            };
                            proto::error_response(id, proto::rejection_code(&rej), &rej.to_string())
                        }
                        None => proto::error_response(id, "bad-graph", &e.to_string()),
                    },
                };
                write_line(writer, line)?;
            }
            Request::Recolor {
                id,
                spec,
                assignment,
            } => {
                // The incremental path repairs a *fixed* baseline spec;
                // letting the planner swap schemes between repairs would
                // silently discard the baseline it exists to reuse.
                let Some(spec) = spec.fixed() else {
                    write_line(
                        writer,
                        proto::error_response(
                            id,
                            "bad-request",
                            "\"scheme\":\"auto\" is not supported by recolor: \
                             pick a fixed scheme for the incremental baseline",
                        ),
                    )?;
                    continue;
                };
                let Some(sess) = session.as_mut() else {
                    write_line(
                        writer,
                        proto::error_response(
                            id,
                            "no-graph",
                            "no session graph: include \"graph\" in a mutate first",
                        ),
                    )?;
                    continue;
                };
                let fp = spec.fingerprint(&sess.graph);
                // Option equality via the spec fold over a zero graph
                // fingerprint: equal iff every output-relevant option is.
                let same_spec = sess
                    .base
                    .as_ref()
                    .is_some_and(|(s, _)| s.fingerprint_of(0) == spec.fingerprint_of(0));
                let line = if same_spec && sess.dirty.is_empty() {
                    let base = &sess.base.as_ref().unwrap().1;
                    proto::recolor_response(id, "session", 0, fp, base, assignment)
                } else if same_spec {
                    let base = Arc::clone(&sess.base.as_ref().unwrap().1);
                    let dirty: Vec<VertexId> = sess.dirty.iter().copied().collect();
                    match recolor_delta(&sess.graph, &base, &dirty, service.device(), &spec.opts) {
                        Ok(c) => {
                            let c = Arc::new(c);
                            sess.base = Some((spec, Arc::clone(&c)));
                            sess.dirty.clear();
                            proto::recolor_response(id, "delta", dirty.len(), fp, &c, assignment)
                        }
                        Err(e) => proto::error_response(id, "coloring-failed", &e.to_string()),
                    }
                } else {
                    match spec
                        .scheme
                        .try_color(&sess.graph, service.device(), &spec.opts)
                    {
                        Ok(c) => {
                            let c = Arc::new(c);
                            sess.base = Some((spec, Arc::clone(&c)));
                            sess.dirty.clear();
                            proto::recolor_response(id, "scratch", 0, fp, &c, assignment)
                        }
                        Err(e) => proto::error_response(id, "coloring-failed", &e.to_string()),
                    }
                };
                write_line(writer, line)?;
            }
            Request::Shutdown { id } => {
                write_line(writer, proto::ack_response(id, "draining"))?;
                break;
            }
            Request::Color {
                id,
                graph,
                spec,
                deadline_ms,
                assignment,
            } => {
                let graph = match graph {
                    // The session graph colors through the same service
                    // path as any other graph — admission control and
                    // the fingerprint-keyed cache included, so re-loads
                    // of identical bytes hit.
                    GraphSpec::Session => match session.as_ref() {
                        Some(s) => Arc::clone(&s.graph),
                        None => {
                            write_line(
                                writer,
                                proto::error_response(
                                    id,
                                    "no-graph",
                                    "no session graph: send a \"load\" or \"mutate\" first",
                                ),
                            )?;
                            continue;
                        }
                    },
                    other => match lookup_graph(&mut graphs, resolve, other) {
                        Ok(g) => g,
                        Err(msg) => {
                            write_line(writer, proto::error_response(id, "unknown-graph", &msg))?;
                            continue;
                        }
                    },
                };
                // `"scheme":"auto"` resolves here — after the graph is
                // known, so the profile is the real graph's — and the
                // *resolved* spec is submitted: the job is keyed, cached
                // and coalesced exactly as if the client had asked for
                // the plan's fields explicitly.
                let (spec, plan) = match spec.fixed() {
                    Some(job) => (job, None),
                    None => {
                        let slo = spec.slo.unwrap_or_default();
                        let plan = AutoColorer::new(slo).plan_for(&graph, &spec.opts);
                        let job = plan.spec(&spec.opts);
                        service.note_auto_planned();
                        (job, Some((slo, plan)))
                    }
                };
                let req = crate::service::JobRequest {
                    graph,
                    spec,
                    deadline: deadline_ms.map(Duration::from_millis),
                };
                match service.submit(req) {
                    Err(rej) => write_line(
                        writer,
                        proto::error_response(id, proto::rejection_code(&rej), &rej.to_string()),
                    )?,
                    Ok(handle) => {
                        // Join the responders that have written their line,
                        // so their threads' resources go now, not at the
                        // end of the connection.
                        let mut i = 0;
                        while i < responders.len() {
                            if responders[i].is_finished() {
                                let _ = responders.swap_remove(i).join();
                            } else {
                                i += 1;
                            }
                        }
                        let writer = Arc::clone(writer);
                        responders.push(thread::spawn(move || {
                            let plan = plan.as_ref().map(|(slo, p)| (*slo, p));
                            let line = match handle.wait() {
                                Ok(r) => match assignment
                                    .then(|| handle.kept_assignment(proto::assignment_body))
                                    .flatten()
                                {
                                    Some(kept) => proto::ok_response_kept(id, &r, &kept, plan),
                                    None => proto::ok_response(id, &r, assignment, plan),
                                },
                                Err(e) => proto::error_response(
                                    id,
                                    proto::serve_error_code(&e),
                                    &e.to_string(),
                                ),
                            };
                            let _ = write_line(&writer, line);
                        }));
                    }
                }
            }
        }
    }
    Ok(())
}
