//! The line-delimited JSON protocol: one request object per line in,
//! one response object per line out.
//!
//! Designed for external load generators (`netcat`, a script, the
//! `gcol-bench loadgen` harness): plain text, one message per line, no
//! framing beyond `\n`, every response carrying the request's `id` so
//! clients may pipeline.
//!
//! ## Requests
//!
//! ```text
//! {"op":"color","id":1,"graph":{"gen":"rmat-er","scale":12,"seed":5},
//!  "scheme":"T-base","backend":"native","shards":1,"seed":7,
//!  "block":128,"deadline_ms":2000,"assignment":false}
//! {"op":"color","id":2,"graph":{"r":[0,2,4],"c":[1,0,0,1]},"scheme":"D-ldg"}
//! {"op":"mutate","id":3,"graph":{"gen":"rmat-er","scale":12,"seed":5},
//!  "edits":[["+",0,3],["-",1,4]]}
//! {"op":"recolor","id":4,"scheme":"T-base","backend":"native"}
//! {"op":"load","id":5,"format":"dimacs","data":"p edge 3 3\ne 1 2\ne 2 3\ne 3 1\n"}
//! {"op":"load","id":6,"format":"mtx","data":"%%MatrixMarket…\n","last":false}
//! {"op":"stats","id":7}
//! {"op":"shutdown","id":8}
//! ```
//!
//! `op` defaults to `"color"`. Every field except `graph` is optional
//! and defaults to the service's [`gcol_core::ColorOptions`] defaults
//! (including `"exchange":"dense"|"delta"` for the sharded ghost wire
//! format — part of the cache fingerprint). Graphs come inline (`r`/`c`,
//! the CSR arrays of the paper's Fig. 2) or by generator name —
//! resolution of names is delegated to the embedding (the bench CLI
//! resolves the Table I suite names), keeping this crate free of
//! generator policy.
//!
//! `"scheme":"auto"` hands scheme/backend/shard/exchange selection to
//! the [`gcol_plan`] planner, optionally steered by
//! `"slo":"fastest-wall"|"fewest-colors"|"balanced"` (`slo` with a
//! fixed scheme is a parse error). The request's `backend` field then
//! names the *only* backend the planner may use and `shards` caps the
//! device budget. The server resolves the plan once the graph is known
//! and submits the concrete job — cache keys and coalescing behave
//! exactly as if the client had sent the resolved fields — and the
//! response carries a `"plan"` object echoing the decision:
//!
//! ```text
//! {"id":9,"ok":true,"plan":{"slo":"fastest-wall","scheme":"csrcolor",
//!  "backend":"simt","shards":1,"exchange":"delta",
//!  "predicted_ms":3.1,"predicted_colors":9.2}, …}
//! ```
//!
//! `mutate`/`recolor` are the incremental pair: `mutate` loads (or
//! edits) the connection's **session graph** — `edits` is an ordered
//! batch of `["+"|"-", u, v]` undirected edge inserts/deletes — and
//! accumulates the touched vertices as the session's dirty set;
//! `recolor` colors the session graph, repairing the previous result
//! through the dirty set when the request's options match the held
//! baseline (response `source` says which path ran: `"delta"`,
//! `"scratch"`, or `"session"` for an untouched baseline served as-is).
//!
//! `load` streams a real graph file *into* the session: `data` carries
//! the file text (MatrixMarket, DIMACS, METIS or edge list — `format`
//! names it, or the server sniffs the header), and `"last":false` marks
//! a non-final chunk so large files upload across several lines without
//! any one line ballooning. Chunks are acked
//! `{"ok":true,"status":"loading","bytes":N}`; the final chunk parses
//! the accumulated text under the service's admission limits and
//! installs the graph as the session graph, answering with its content
//! fingerprint, so a follow-up `{"op":"color","graph":"session"}` hits
//! the result cache exactly when the same bytes were loaded before.
//!
//! ## Responses
//!
//! ```text
//! {"id":1,"ok":true,"source":"cold","fingerprint":"93b1…","colors":11,
//!  "iterations":4,"modeled_ms":12.8,"queue_ms":0.1,"exec_ms":40.2,"total_ms":40.4}
//! {"id":1,"ok":false,"error":"queue-full","detail":"queue full (capacity 256)"}
//! ```
//!
//! `"assignment":true` adds the dense per-vertex color array to the
//! response (off by default: it is `n` integers).

use crate::json::{self, obj, Json};
use crate::service::{JobResponse, Rejection, ServeError, ServiceStats};
use gcol_core::{
    BackendKind, ColorOptions, Coloring, ExchangeKind, Fingerprint, JobSpec, Scheme, SchemeChoice,
};
use gcol_graph::edit::EdgeEdit;
use gcol_graph::io::GraphFormat;
use gcol_graph::Csr;
use gcol_plan::{Plan, Slo};
use gcol_simt::ExecMode;

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run (or fetch) a coloring.
    Color {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
        /// The graph, inline or by name.
        graph: GraphSpec,
        /// Scheme choice (possibly `"auto"`) + options to run.
        spec: SpecRequest,
        /// Optional deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Include the per-vertex color array in the response.
        assignment: bool,
    },
    /// Load and/or edit the session graph.
    Mutate {
        /// Correlation id.
        id: Option<u64>,
        /// Replaces the session graph before applying `edits` (clears
        /// any held baseline). Absent: edit the current session graph.
        graph: Option<GraphSpec>,
        /// Ordered undirected edge edits to apply.
        edits: Vec<EdgeEdit>,
    },
    /// Stream a graph file into the session (possibly chunked).
    Load {
        /// Correlation id.
        id: Option<u64>,
        /// Declared format; absent on the first chunk means the server
        /// sniffs the accumulated text's header on the final chunk.
        format: Option<GraphFormat>,
        /// This chunk's slice of the file text.
        data: String,
        /// `false` marks a non-final chunk (acked, not parsed yet).
        last: bool,
    },
    /// Color the session graph, incrementally when possible.
    Recolor {
        /// Correlation id.
        id: Option<u64>,
        /// Scheme + options to run (`"auto"` is rejected by the server:
        /// the incremental path repairs a fixed baseline spec).
        spec: SpecRequest,
        /// Include the per-vertex color array in the response.
        assignment: bool,
    },
    /// Return the service stats snapshot.
    Stats {
        /// Correlation id.
        id: Option<u64>,
    },
    /// Drain and stop the service.
    Shutdown {
        /// Correlation id.
        id: Option<u64>,
    },
}

/// A graph reference inside a request.
#[derive(Debug, Clone)]
pub enum GraphSpec {
    /// Inline CSR arrays.
    Inline(Csr),
    /// A named generated graph, resolved by the embedding.
    Named {
        /// Generator/suite name (e.g. `"rmat-er"`).
        name: String,
        /// log2-equivalent scale.
        scale: u32,
        /// Generator seed.
        seed: u64,
    },
    /// The connection's session graph (installed by `load`/`mutate`).
    Session,
}

impl Request {
    /// The correlation id, whatever the operation.
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::Color { id, .. }
            | Request::Mutate { id, .. }
            | Request::Load { id, .. }
            | Request::Recolor { id, .. }
            | Request::Stats { id }
            | Request::Shutdown { id } => *id,
        }
    }

    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let id = v.get("id").and_then(Json::as_u64);
        match v.get("op").and_then(Json::as_str).unwrap_or("color") {
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "color" => {
                let graph = parse_graph(v.get("graph").ok_or("missing \"graph\"")?)?;
                Ok(Request::Color {
                    id,
                    graph,
                    spec: parse_spec(&v)?,
                    deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
                    assignment: v.get("assignment").and_then(Json::as_bool).unwrap_or(false),
                })
            }
            "mutate" => Ok(Request::Mutate {
                id,
                graph: v.get("graph").map(parse_graph).transpose()?,
                edits: parse_edits(&v)?,
            }),
            "load" => {
                let data = v
                    .get("data")
                    .and_then(Json::as_str)
                    .ok_or("missing \"data\"")?
                    .to_string();
                let format = match v.get("format").and_then(Json::as_str) {
                    None => None,
                    Some(name) => Some(
                        GraphFormat::parse(name)
                            .ok_or_else(|| format!("unknown graph format {name:?}"))?,
                    ),
                };
                Ok(Request::Load {
                    id,
                    format,
                    data,
                    last: v.get("last").and_then(Json::as_bool).unwrap_or(true),
                })
            }
            "recolor" => Ok(Request::Recolor {
                id,
                spec: parse_spec(&v)?,
                assignment: v.get("assignment").and_then(Json::as_bool).unwrap_or(false),
            }),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// The scheme + option fields of a `color`/`recolor` request, before the
/// server resolves `"auto"` against the actual graph. Under a fixed
/// scheme this is a [`JobSpec`] waiting to happen; under `"auto"` the
/// `opts` carry the request's *resource envelope* — the `backend` field
/// is the only backend the planner may use and `shards` is the device
/// budget — and the planner fills in scheme/backend/shards/exchange once
/// the graph (and so its profile) is known.
#[derive(Debug, Clone)]
pub struct SpecRequest {
    /// Fixed scheme, or `Auto` for planner resolution.
    pub choice: SchemeChoice,
    /// Planner objective; only meaningful (and only accepted) with
    /// `"scheme":"auto"`. `None` means [`Slo::default`].
    pub slo: Option<Slo>,
    /// Parsed options — the concrete options under a fixed scheme, the
    /// resource envelope under `auto`.
    pub opts: ColorOptions,
}

impl SpecRequest {
    /// The job spec, when the scheme is fixed.
    pub fn fixed(&self) -> Option<JobSpec> {
        self.choice.fixed().map(|scheme| JobSpec {
            scheme,
            opts: self.opts.clone(),
        })
    }
}

/// Parses the scheme + option fields shared by `color` and `recolor`.
fn parse_spec(v: &Json) -> Result<SpecRequest, String> {
    let choice = match v.get("scheme").and_then(Json::as_str) {
        None => SchemeChoice::Fixed(Scheme::TopoBase),
        Some(name) => name
            .parse::<SchemeChoice>()
            .map_err(|_| format!("unknown scheme {name:?}"))?,
    };
    let slo = match v.get("slo").and_then(Json::as_str) {
        None => None,
        Some(name) => {
            if choice != SchemeChoice::Auto {
                return Err("\"slo\" requires \"scheme\":\"auto\"".into());
            }
            Some(name.parse::<Slo>()?)
        }
    };
    let mut opts = ColorOptions::default();
    if let Some(b) = v.get("backend").and_then(Json::as_str) {
        opts.backend = b
            .parse::<BackendKind>()
            .map_err(|_| format!("unknown backend {b:?}"))?;
    }
    if let Some(s) = v.get("shards").and_then(Json::as_u64) {
        if s == 0 {
            return Err("\"shards\" must be >= 1".into());
        }
        opts.num_shards = s as usize;
    }
    if let Some(s) = v.get("seed").and_then(Json::as_u64) {
        opts.seed = s;
    }
    if let Some(b) = v.get("block").and_then(Json::as_u64) {
        opts.block_size = b as u32;
    }
    if let Some(h) = v.get("hashes").and_then(Json::as_u64) {
        opts.num_hashes = h as usize;
    }
    if let Some(m) = v.get("mode").and_then(Json::as_str) {
        opts.exec_mode = match m {
            "deterministic" | "det" => ExecMode::Deterministic,
            "parallel" | "par" => ExecMode::Parallel,
            other => return Err(format!("unknown exec mode {other:?}")),
        };
    }
    if let Some(x) = v.get("exchange").and_then(Json::as_str) {
        opts.exchange = x.parse::<ExchangeKind>()?;
    }
    Ok(SpecRequest { choice, slo, opts })
}

/// Parses the `"edits"` array: ordered `["+"|"-", u, v]` triples.
fn parse_edits(v: &Json) -> Result<Vec<EdgeEdit>, String> {
    let Some(arr) = v.get("edits") else {
        return Ok(Vec::new());
    };
    let arr = arr.as_arr().ok_or("\"edits\" must be an array")?;
    arr.iter()
        .map(|e| {
            let t = e
                .as_arr()
                .filter(|t| t.len() == 3)
                .ok_or("each edit must be a [\"+\"|\"-\", u, v] triple")?;
            let endpoint = |x: &Json| {
                x.as_u64()
                    .filter(|&x| x <= u32::MAX as u64)
                    .map(|x| x as u32)
                    .ok_or_else(|| "edit endpoints must be u32".to_string())
            };
            let (u, w) = (endpoint(&t[1])?, endpoint(&t[2])?);
            match t[0].as_str() {
                Some("+") | Some("insert") => Ok(EdgeEdit::Insert(u, w)),
                Some("-") | Some("delete") => Ok(EdgeEdit::Delete(u, w)),
                _ => Err(format!(
                    "unknown edit op {:?} (expected \"+\" or \"-\")",
                    t[0]
                )),
            }
        })
        .collect()
}

fn parse_graph(v: &Json) -> Result<GraphSpec, String> {
    if v.as_str() == Some("session") {
        return Ok(GraphSpec::Session);
    }
    if let (Some(r), Some(c)) = (v.get("r"), v.get("c")) {
        let to_u32s = |a: &Json, what: &str| -> Result<Vec<u32>, String> {
            a.as_arr()
                .ok_or_else(|| format!("\"{what}\" must be an array"))?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .filter(|&x| x <= u32::MAX as u64)
                        .map(|x| x as u32)
                        .ok_or_else(|| format!("\"{what}\" entries must be u32"))
                })
                .collect()
        };
        let g = Csr::try_new(to_u32s(r, "r")?, to_u32s(c, "c")?)
            .map_err(|e| format!("invalid CSR arrays: {e:?}"))?;
        return Ok(GraphSpec::Inline(g));
    }
    if let Some(name) = v.get("gen").and_then(Json::as_str) {
        return Ok(GraphSpec::Named {
            name: name.to_string(),
            scale: v
                .get("scale")
                .and_then(Json::as_u64)
                .map(|s| s as u32)
                .unwrap_or(12),
            seed: v.get("seed").and_then(Json::as_u64).unwrap_or(0),
        });
    }
    Err("\"graph\" needs inline {\"r\":…,\"c\":…}, {\"gen\":…} or \"session\"".into())
}

/// Renders the `"plan"` object echoed in responses to `"scheme":"auto"`
/// requests: the concrete plan the planner resolved to, plus its model
/// predictions — the client-visible proof of what actually ran (and the
/// exact fields to resend for a byte-identical explicit request).
pub fn plan_json(slo: Slo, plan: &Plan) -> Json {
    obj([
        ("slo", Json::Str(slo.name().into())),
        ("scheme", Json::Str(plan.scheme.name().into())),
        ("backend", Json::Str(plan.backend.name().into())),
        ("shards", Json::Num(plan.num_shards as f64)),
        ("exchange", Json::Str(plan.exchange.name().into())),
        ("predicted_ms", Json::Num(plan.predicted_ms)),
        ("predicted_colors", Json::Num(plan.predicted_colors)),
    ])
}

/// Renders the success response for a resolved job. `plan` is present
/// exactly when the request said `"scheme":"auto"`.
pub fn ok_response(
    id: Option<u64>,
    r: &JobResponse,
    assignment: bool,
    plan: Option<(Slo, &Plan)>,
) -> String {
    let header = ok_header(id, r, plan);
    let colors = assignment.then_some(r.coloring.colors.as_slice());
    with_assignment(&header, colors.map(Body::Colors))
}

/// [`ok_response`] with `"assignment":true`, splicing in `kept`, the
/// body [`assignment_body`] rendered for this response's coloring
/// earlier, instead of rendering it again.
pub(crate) fn ok_response_kept(
    id: Option<u64>,
    r: &JobResponse,
    kept: &[u8],
    plan: Option<(Slo, &Plan)>,
) -> String {
    with_assignment(&ok_header(id, r, plan), Some(Body::Rendered(kept)))
}

/// Every field of [`ok_response`] except the assignment.
fn ok_header(id: Option<u64>, r: &JobResponse, plan: Option<(Slo, &Plan)>) -> Json {
    let coloring: &Coloring = &r.coloring;
    let mut o = obj([
        ("ok", Json::Bool(true)),
        ("source", Json::Str(r.source.name().into())),
        ("fingerprint", Json::Str(r.fingerprint.to_string())),
        ("scheme", Json::Str(coloring.scheme.name().into())),
        ("colors", Json::Num(coloring.num_colors as f64)),
        ("iterations", Json::Num(coloring.iterations as f64)),
        ("modeled_ms", Json::Num(coloring.total_ms())),
        ("queue_ms", Json::Num(r.queue_ms)),
        ("exec_ms", Json::Num(r.exec_ms)),
        ("total_ms", Json::Num(r.total_ms)),
    ]);
    with_id(&mut o, id);
    if let (Json::Obj(m), Some((slo, plan))) = (&mut o, plan) {
        m.insert("plan".into(), plan_json(slo, plan));
    }
    o
}

/// The body of an `"assignment"` array: the colors to render, or bytes
/// [`assignment_body`] rendered from them earlier.
enum Body<'a> {
    Colors(&'a [u32]),
    Rendered(&'a [u8]),
}

/// Renders the `header` object, with `"assignment":[…]` added when a
/// `body` is given. The array is written straight into the output
/// instead of going through a [`Json::Arr`]: it is the one payload that
/// grows with the graph (half a million entries at scale 19). The bytes
/// are those of the tree rendering — the codec orders keys, and
/// `"assignment"` sorts before every header key, so it goes first.
/// The capacity leaves room for the line's `\n`.
fn with_assignment(header: &Json, body: Option<Body<'_>>) -> String {
    let header = header.to_string();
    let Some(body) = body else {
        return header;
    };
    debug_assert!(header.starts_with('{') && &header[1..] > "\"assignment\"");
    let body_len = match body {
        Body::Colors(colors) => body_capacity(colors),
        Body::Rendered(bytes) => bytes.len(),
    };
    // `{"assignment":[` and `],` stand in for the header's `{`.
    let mut out = Vec::with_capacity(header.len() + 17 + body_len);
    out.extend_from_slice(b"{\"assignment\":[");
    match body {
        Body::Colors(colors) => push_body(&mut out, colors),
        Body::Rendered(bytes) => out.extend_from_slice(bytes),
    }
    out.extend_from_slice(b"],");
    out.extend_from_slice(&header.as_bytes()[1..]);
    String::from_utf8(out).expect("ASCII digits spliced into a UTF-8 header")
}

/// The bytes between the `[` and `]` of a response's `"assignment"`
/// array: what a cache entry keeps so later hits splice it in instead
/// of rendering it again.
pub(crate) fn assignment_body(colors: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body_capacity(colors));
    push_body(&mut out, colors);
    out
}

/// An upper bound on the rendered body's length: one comma per color
/// plus the digits of the widest.
fn body_capacity(colors: &[u32]) -> usize {
    let widest = colors.iter().max().map_or(1, |c| c.to_string().len());
    colors.len() * (widest + 1)
}

/// Appends the colors as comma-separated decimals: the one encoder of an
/// assignment body.
fn push_body(out: &mut Vec<u8>, colors: &[u32]) {
    for (i, &c) in colors.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_decimal(out, c);
    }
}

/// Appends `x` in plain decimal.
fn push_decimal(out: &mut Vec<u8>, mut x: u32) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Renders the response to a `mutate`: how many vertices the batch
/// touched and the post-edit graph identity (content fingerprint + size)
/// — the client-visible proof that cache keys rolled over.
pub fn mutate_response(id: Option<u64>, touched: usize, g: &Csr) -> String {
    let mut o = obj([
        ("ok", Json::Bool(true)),
        ("touched", Json::Num(touched as f64)),
        (
            "graph_fingerprint",
            Json::Str(format!("{:016x}", g.content_fingerprint())),
        ),
        ("vertices", Json::Num(g.num_vertices() as f64)),
        ("edges", Json::Num(g.num_edges() as f64)),
    ]);
    with_id(&mut o, id);
    o.to_string()
}

/// Renders the response to a `recolor`. `source` is `"delta"` (dirty-set
/// repair of the held baseline), `"scratch"` (full rerun) or
/// `"session"` (clean baseline served as held); `repaired` is the dirty
/// set size a delta repair consumed (0 otherwise).
pub fn recolor_response(
    id: Option<u64>,
    source: &str,
    repaired: usize,
    fingerprint: Fingerprint,
    coloring: &Coloring,
    assignment: bool,
) -> String {
    let header = recolor_header(id, source, repaired, fingerprint, coloring);
    let colors = assignment.then_some(coloring.colors.as_slice());
    with_assignment(&header, colors.map(Body::Colors))
}

/// Every field of [`recolor_response`] except the assignment.
fn recolor_header(
    id: Option<u64>,
    source: &str,
    repaired: usize,
    fingerprint: Fingerprint,
    coloring: &Coloring,
) -> Json {
    let mut o = obj([
        ("ok", Json::Bool(true)),
        ("source", Json::Str(source.into())),
        ("repaired", Json::Num(repaired as f64)),
        ("fingerprint", Json::Str(fingerprint.to_string())),
        ("scheme", Json::Str(coloring.scheme.name().into())),
        ("colors", Json::Num(coloring.num_colors as f64)),
        ("iterations", Json::Num(coloring.iterations as f64)),
        ("modeled_ms", Json::Num(coloring.total_ms())),
    ]);
    with_id(&mut o, id);
    o
}

/// Renders the final response to a `load`: the resolved format and the
/// parsed graph's identity (content fingerprint + size) — the same
/// identity `mutate` reports, and the key under which `color` on the
/// session graph caches.
pub fn load_response(id: Option<u64>, format: GraphFormat, g: &Csr) -> String {
    let mut o = obj([
        ("ok", Json::Bool(true)),
        ("status", Json::Str("loaded".into())),
        ("format", Json::Str(format.name().into())),
        (
            "graph_fingerprint",
            Json::Str(format!("{:016x}", g.content_fingerprint())),
        ),
        ("vertices", Json::Num(g.num_vertices() as f64)),
        ("edges", Json::Num(g.num_edges() as f64)),
    ]);
    with_id(&mut o, id);
    o.to_string()
}

/// Renders the ack for a non-final upload chunk: bytes buffered so far.
pub fn loading_response(id: Option<u64>, bytes: usize) -> String {
    let mut o = obj([
        ("ok", Json::Bool(true)),
        ("status", Json::Str("loading".into())),
        ("bytes", Json::Num(bytes as f64)),
    ]);
    with_id(&mut o, id);
    o.to_string()
}

/// Renders a positive acknowledgement (control ops with no payload).
pub fn ack_response(id: Option<u64>, status: &str) -> String {
    let mut o = obj([
        ("ok", Json::Bool(true)),
        ("status", Json::Str(status.into())),
    ]);
    with_id(&mut o, id);
    o.to_string()
}

/// Renders an error response. `error` is a stable machine-readable code,
/// `detail` the human text.
pub fn error_response(id: Option<u64>, error: &str, detail: &str) -> String {
    let mut o = obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(error.into())),
        ("detail", Json::Str(detail.into())),
    ]);
    with_id(&mut o, id);
    o.to_string()
}

/// The stable error code for an admission rejection.
pub fn rejection_code(r: &Rejection) -> &'static str {
    match r {
        Rejection::QueueFull { .. } => "queue-full",
        Rejection::GraphTooLarge { .. } => "graph-too-large",
        Rejection::UploadTooLarge { .. } => "upload-too-large",
        Rejection::ShuttingDown => "shutting-down",
    }
}

/// The stable error code for a completion failure.
pub fn serve_error_code(e: &ServeError) -> &'static str {
    match e {
        ServeError::DeadlineExceeded => "deadline-exceeded",
        ServeError::Coloring(_) => "coloring-failed",
    }
}

/// Renders the stats snapshot response.
pub fn stats_response(id: Option<u64>, s: &ServiceStats) -> String {
    let mut o = obj([
        ("ok", Json::Bool(true)),
        ("submitted", Json::Num(s.submitted as f64)),
        ("accepted", Json::Num(s.accepted as f64)),
        ("executions", Json::Num(s.executions as f64)),
        ("cache_hits", Json::Num(s.cache_hits as f64)),
        ("coalesced", Json::Num(s.coalesced as f64)),
        ("auto_planned", Json::Num(s.auto_planned as f64)),
        (
            "rejected_queue_full",
            Json::Num(s.rejected_queue_full as f64),
        ),
        ("rejected_too_large", Json::Num(s.rejected_too_large as f64)),
        ("rejected_shutdown", Json::Num(s.rejected_shutdown as f64)),
        ("deadline_exceeded", Json::Num(s.deadline_exceeded as f64)),
        ("cache_entries", Json::Num(s.cache_entries as f64)),
        ("cache_evictions", Json::Num(s.cache_evictions as f64)),
        ("queued", Json::Num(s.queued as f64)),
        ("p50_ms", Json::Num(s.p50_ms)),
        ("p95_ms", Json::Num(s.p95_ms)),
        ("p99_ms", Json::Num(s.p99_ms)),
    ]);
    with_id(&mut o, id);
    o.to_string()
}

fn with_id(o: &mut Json, id: Option<u64>) {
    if let (Json::Obj(m), Some(id)) = (o, id) {
        m.insert("id".into(), Json::Num(id as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ResultSource;

    #[test]
    fn parses_inline_color_request() {
        let r = Request::parse(
            r#"{"id":7,"graph":{"r":[0,2,4],"c":[1,0,0,1]},"scheme":"D-base","backend":"native","seed":3,"deadline_ms":100}"#,
        )
        .unwrap();
        match r {
            Request::Color {
                id,
                graph: GraphSpec::Inline(g),
                spec,
                deadline_ms,
                assignment,
            } => {
                assert_eq!(id, Some(7));
                assert_eq!(g.num_vertices(), 2);
                assert_eq!(spec.choice, SchemeChoice::Fixed(Scheme::DataBase));
                assert_eq!(spec.fixed().map(|j| j.scheme), Some(Scheme::DataBase));
                assert_eq!(spec.opts.backend, BackendKind::Native);
                assert_eq!(spec.opts.seed, 3);
                assert_eq!(deadline_ms, Some(100));
                assert!(!assignment);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_named_graph_and_defaults() {
        let r = Request::parse(r#"{"graph":{"gen":"rmat-er","scale":10,"seed":5}}"#).unwrap();
        match r {
            Request::Color {
                id,
                graph: GraphSpec::Named { name, scale, seed },
                spec,
                ..
            } => {
                assert_eq!(id, None);
                assert_eq!((name.as_str(), scale, seed), ("rmat-er", 10, 5));
                assert_eq!(spec.choice, SchemeChoice::Fixed(Scheme::TopoBase));
                assert_eq!(spec.opts.backend, BackendKind::Simt);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_exchange_option() {
        for (wire, kind) in [
            ("dense", ExchangeKind::Dense),
            ("delta", ExchangeKind::Delta),
        ] {
            let line = format!(r#"{{"graph":{{"r":[0,2,4],"c":[1,0,0,1]}},"exchange":"{wire}"}}"#);
            match Request::parse(&line).unwrap() {
                Request::Color { spec, .. } => assert_eq!(spec.opts.exchange, kind),
                other => panic!("wrong parse: {other:?}"),
            }
        }
        assert!(
            Request::parse(r#"{"graph":{"r":[0,0],"c":[]},"exchange":"sparse"}"#).is_err(),
            "unknown exchange kinds must be rejected"
        );
    }

    #[test]
    fn parses_auto_scheme_and_slo() {
        let r = Request::parse(
            r#"{"graph":{"r":[0,2,4],"c":[1,0,0,1]},"scheme":"auto","slo":"fewest-colors","backend":"native","shards":2}"#,
        )
        .unwrap();
        match r {
            Request::Color { spec, .. } => {
                assert_eq!(spec.choice, SchemeChoice::Auto);
                assert!(spec.fixed().is_none(), "auto has no fixed JobSpec");
                assert_eq!(spec.slo, Some(Slo::FewestColors));
                // The envelope fields still parse: backend is the only
                // allowed backend, shards the budget.
                assert_eq!(spec.opts.backend, BackendKind::Native);
                assert_eq!(spec.opts.num_shards, 2);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // "slo" defaults to None (server applies Slo::default()).
        match Request::parse(r#"{"graph":{"r":[0,0],"c":[]},"scheme":"auto"}"#).unwrap() {
            Request::Color { spec, .. } => {
                assert_eq!(spec.choice, SchemeChoice::Auto);
                assert_eq!(spec.slo, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        for bad in [
            // "slo" is meaningless without "scheme":"auto" — reject it
            // rather than silently ignoring a client intent.
            r#"{"graph":{"r":[0,0],"c":[]},"slo":"fastest-wall"}"#,
            r#"{"graph":{"r":[0,0],"c":[]},"scheme":"T-base","slo":"balanced"}"#,
            r#"{"graph":{"r":[0,0],"c":[]},"scheme":"auto","slo":"quickest"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn renders_the_plan_object() {
        let plan = Plan {
            scheme: Scheme::CsrColor,
            backend: BackendKind::Simt,
            num_shards: 2,
            exchange: ExchangeKind::Delta,
            predicted_ms: 12.5,
            predicted_colors: 9.3,
        };
        let v = plan_json(Slo::FastestWall, &plan);
        assert_eq!(v.get("slo").and_then(Json::as_str), Some("fastest-wall"));
        assert_eq!(v.get("scheme").and_then(Json::as_str), Some("csrcolor"));
        assert_eq!(v.get("backend").and_then(Json::as_str), Some("simt"));
        assert_eq!(v.get("shards").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("exchange").and_then(Json::as_str), Some("delta"));
        assert!(v.get("predicted_ms").is_some() && v.get("predicted_colors").is_some());
    }

    #[test]
    fn parses_mutate_and_recolor() {
        match Request::parse(
            r#"{"op":"mutate","id":9,"edits":[["+",0,3],["-",1,4],["insert",2,0]]}"#,
        )
        .unwrap()
        {
            Request::Mutate { id, graph, edits } => {
                assert_eq!(id, Some(9));
                assert!(graph.is_none());
                assert_eq!(
                    edits,
                    vec![
                        EdgeEdit::Insert(0, 3),
                        EdgeEdit::Delete(1, 4),
                        EdgeEdit::Insert(2, 0)
                    ]
                );
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match Request::parse(r#"{"op":"mutate","graph":{"gen":"rmat","scale":6,"seed":2}}"#)
            .unwrap()
        {
            Request::Mutate { graph, edits, .. } => {
                assert!(matches!(graph, Some(GraphSpec::Named { .. })));
                assert!(edits.is_empty());
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match Request::parse(
            r#"{"op":"recolor","id":2,"scheme":"D-ldg","backend":"native","assignment":true}"#,
        )
        .unwrap()
        {
            Request::Recolor {
                id,
                spec,
                assignment,
            } => {
                assert_eq!(id, Some(2));
                assert_eq!(spec.choice, SchemeChoice::Fixed(Scheme::DataLdg));
                assert_eq!(spec.opts.backend, BackendKind::Native);
                assert!(assignment);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        for bad in [
            r#"{"op":"mutate","edits":[["*",0,1]]}"#,
            r#"{"op":"mutate","edits":[["+",0]]}"#,
            r#"{"op":"mutate","edits":[["+",0,99999999999]]}"#,
            r#"{"op":"mutate","edits":"nope"}"#,
            r#"{"op":"recolor","scheme":"nope"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_load_and_session_graph() {
        match Request::parse(r#"{"op":"load","id":4,"format":"dimacs","data":"p edge 1 0\n"}"#)
            .unwrap()
        {
            Request::Load {
                id,
                format,
                data,
                last,
            } => {
                assert_eq!(id, Some(4));
                assert_eq!(format, Some(GraphFormat::Dimacs));
                assert_eq!(data, "p edge 1 0\n");
                assert!(last, "\"last\" defaults to true");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match Request::parse(r#"{"op":"load","data":"1 0\n","last":false}"#).unwrap() {
            Request::Load { format, last, .. } => {
                assert_eq!(format, None, "format is sniffed when absent");
                assert!(!last);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match Request::parse(r#"{"op":"color","graph":"session","scheme":"D-base"}"#).unwrap() {
            Request::Color { graph, spec, .. } => {
                assert!(matches!(graph, GraphSpec::Session));
                assert_eq!(spec.choice, SchemeChoice::Fixed(Scheme::DataBase));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        for bad in [
            r#"{"op":"load"}"#,
            r#"{"op":"load","data":"x","format":"tsv"}"#,
            r#"{"op":"color","graph":"sess"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn renders_load_responses() {
        let g = Csr::try_new(vec![0, 1, 2], vec![1, 0]).unwrap();
        let line = load_response(Some(4), GraphFormat::Metis, &g);
        assert!(!line.contains('\n'));
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("status").and_then(Json::as_str), Some("loaded"));
        assert_eq!(v.get("format").and_then(Json::as_str), Some("metis"));
        assert_eq!(
            v.get("graph_fingerprint").and_then(Json::as_str),
            Some(format!("{:016x}", g.content_fingerprint()).as_str())
        );
        assert_eq!(v.get("vertices").and_then(Json::as_u64), Some(2));
        let ack = crate::json::parse(&loading_response(None, 512)).unwrap();
        assert_eq!(ack.get("status").and_then(Json::as_str), Some("loading"));
        assert_eq!(ack.get("bytes").and_then(Json::as_u64), Some(512));
    }

    #[test]
    fn parses_control_ops() {
        assert!(matches!(
            Request::parse(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats { id: None }
        ));
        assert!(matches!(
            Request::parse(r#"{"op":"shutdown","id":1}"#).unwrap(),
            Request::Shutdown { id: Some(1) }
        ));
    }

    #[test]
    fn rejects_bad_requests() {
        for line in [
            "",
            "{}",
            r#"{"op":"color"}"#,
            r#"{"graph":{"gen":1}}"#,
            r#"{"graph":{"r":[0],"c":[]},"scheme":"nope"}"#,
            r#"{"graph":{"r":[0,1],"c":[9]}}"#,
            r#"{"graph":{"r":[0,0],"c":[]},"shards":0}"#,
            r#"{"op":"fly"}"#,
        ] {
            assert!(Request::parse(line).is_err(), "{line:?} should fail");
        }
    }

    /// The response as a `Json` tree renders it, assignment included:
    /// the oracle the streamed assignment is pinned against.
    fn tree_rendering(mut header: Json, colors: Option<&[u32]>) -> String {
        if let (Json::Obj(m), Some(colors)) = (&mut header, colors) {
            let arr = colors.iter().map(|&c| Json::Num(c as f64)).collect();
            m.insert("assignment".into(), Json::Arr(arr));
        }
        header.to_string()
    }

    fn coloring(k: usize, colors: Vec<u32>, modeled_ms: f64) -> Coloring {
        let mut profile = gcol_simt::RunProfile::new();
        profile.host("kernel", modeled_ms);
        Coloring {
            scheme: Scheme::ALL[k % Scheme::ALL.len()],
            num_colors: colors.iter().copied().max().unwrap_or(0) as usize,
            colors,
            iterations: k,
            profile,
        }
    }

    fn sample_plan(predicted_ms: f64) -> Plan {
        Plan {
            scheme: Scheme::DataAtomic,
            backend: BackendKind::Native,
            num_shards: 2,
            exchange: ExchangeKind::Delta,
            predicted_ms,
            predicted_colors: 11.5,
        }
    }

    /// Edge values (`0`, `9`, `10`, `u32::MAX`) mixed with small and
    /// full-range colors.
    fn color_value() -> impl proptest::Strategy<Value = u32> {
        use proptest::Strategy;
        (0u8..6, proptest::any::<u32>()).prop_map(|(k, x)| match k {
            0 => 0,
            1 => 9,
            2 => 10,
            3 => u32::MAX,
            4 => x % 1000,
            _ => x,
        })
    }

    /// Checks one rendering against its oracle and the strict parser.
    fn assert_streamed(line: &str, oracle: String, colors: &[u32], assignment: bool) {
        assert_eq!(line, oracle);
        assert!(!line.contains('\n'));
        let v = crate::json::parse(line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let parsed: Option<Vec<u64>> = v.get("assignment").map(|a| {
            a.as_arr()
                .unwrap()
                .iter()
                .map(|x| x.as_u64().unwrap())
                .collect()
        });
        let expected = assignment.then(|| colors.iter().map(|&c| c as u64).collect());
        assert_eq!(parsed, expected);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn streamed_ok_response_matches_the_tree(
            colors in proptest::collection::vec(color_value(), 0..24),
            (id, with_id, with_plan, assignment) in (
                proptest::any::<u64>(),
                proptest::any::<bool>(),
                proptest::any::<bool>(),
                proptest::any::<bool>(),
            ),
            (k, ms) in (0usize..64, 0u32..1_000_000),
        ) {
            let id = with_id.then_some(id % 1_000_000);
            let r = JobResponse {
                coloring: std::sync::Arc::new(coloring(k, colors.clone(), ms as f64 / 7.0)),
                source: [ResultSource::Cold, ResultSource::CacheHit, ResultSource::Coalesced][k % 3],
                fingerprint: Fingerprint(u128::from(id.unwrap_or(0)) << 64 | ms as u128),
                queue_ms: ms as f64 / 1000.0,
                exec_ms: k as f64,
                total_ms: ms as f64 / 3.0,
            };
            let plan = sample_plan(ms as f64 / 13.0);
            let plan = with_plan.then_some((Slo::balanced(), &plan));
            let line = ok_response(id, &r, assignment, plan);
            let oracle = tree_rendering(ok_header(id, &r, plan), assignment.then_some(&colors[..]));
            assert_streamed(&line, oracle, &colors, assignment);
            if assignment {
                // A cache entry's kept body splices in byte-identically.
                let kept = ok_response_kept(id, &r, &assignment_body(&colors), plan);
                proptest::prop_assert_eq!(kept, line);
            }
        }

        #[test]
        fn streamed_recolor_response_matches_the_tree(
            colors in proptest::collection::vec(color_value(), 0..24),
            (id, with_id, assignment, repaired) in (
                proptest::any::<u64>(),
                proptest::any::<bool>(),
                proptest::any::<bool>(),
                0usize..100_000,
            ),
            (k, ms) in (0usize..64, 0u32..1_000_000),
        ) {
            let id = with_id.then_some(id % 1_000_000);
            let c = coloring(k, colors.clone(), ms as f64 / 7.0);
            let source = ["delta", "scratch", "session"][k % 3];
            let fp = Fingerprint(u128::from(ms) << 32 | repaired as u128);
            let line = recolor_response(id, source, repaired, fp, &c, assignment);
            let oracle = tree_rendering(
                recolor_header(id, source, repaired, fp, &c),
                assignment.then_some(&colors[..]),
            );
            assert_streamed(&line, oracle, &colors, assignment);
        }
    }

    #[test]
    fn streamed_assignment_edge_cases() {
        for colors in [vec![], vec![0, 9, 10, u32::MAX], vec![1; 3]] {
            let c = coloring(1, colors.clone(), 0.5);
            for id in [None, Some(0), Some(42)] {
                let fp = Fingerprint(7);
                let line = recolor_response(id, "delta", 3, fp, &c, true);
                let oracle =
                    tree_rendering(recolor_header(id, "delta", 3, fp, &c), Some(&colors[..]));
                assert_streamed(&line, oracle, &colors, true);
            }
        }
        let c = coloring(0, vec![0, 9, 10, u32::MAX], 0.0);
        let line = recolor_response(None, "session", 0, Fingerprint(1), &c, true);
        assert!(line.starts_with(r#"{"assignment":[0,9,10,4294967295],"colors":4294967295,"#));
        let empty = recolor_response(
            None,
            "session",
            0,
            Fingerprint(1),
            &coloring(0, vec![], 0.0),
            true,
        );
        assert!(empty.starts_with(r#"{"assignment":[],"colors":0,"#));
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let err = error_response(Some(3), "queue-full", "queue full (capacity 1)");
        assert!(!err.contains('\n'));
        let v = crate::json::parse(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("queue-full"));
    }
}
