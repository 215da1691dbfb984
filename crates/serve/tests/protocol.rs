//! End-to-end line protocol test: feed a scripted session through
//! `serve_lines` and check every response line, correlating by id
//! (responses to accepted jobs may arrive in any order).

use gcol_graph::gen::{self, RmatParams};
use gcol_graph::Csr;
use gcol_serve::json::{self, Json};
use gcol_serve::proto::Request;
use gcol_serve::{serve_lines, JobRequest, ResultSource, Service, ServiceConfig};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::sync::{Arc, Mutex};

/// A `Write` the test can read back after `serve_lines` consumes it.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run_session(input: &(impl AsRef<[u8]> + ?Sized)) -> (Vec<Json>, gcol_serve::ServiceStats) {
    run_session_with(
        ServiceConfig {
            num_workers: 2,
            ..ServiceConfig::default()
        },
        input,
    )
}

fn run_session_with(
    config: ServiceConfig,
    input: &(impl AsRef<[u8]> + ?Sized),
) -> (Vec<Json>, gcol_serve::ServiceStats) {
    let (lines, stats) = run_session_raw(config, input);
    let lines = lines
        .iter()
        .map(|l| json::parse(l).expect("every response line is valid JSON"))
        .collect();
    (lines, stats)
}

/// [`run_session_with`] returning the response lines as written.
fn run_session_raw(
    config: ServiceConfig,
    input: &(impl AsRef<[u8]> + ?Sized),
) -> (Vec<String>, gcol_serve::ServiceStats) {
    let svc = Service::start(config);
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let stats = serve_lines(svc, input.as_ref(), buf.clone(), &resolve_rmat).unwrap();
    let bytes = buf.0.lock().unwrap().clone();
    let lines = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    (lines, stats)
}

fn resolve_rmat(name: &str, scale: u32, seed: u64) -> Result<Arc<Csr>, String> {
    match name {
        "rmat" => Ok(Arc::new(gen::rmat(RmatParams::erdos_renyi(scale, 8), seed))),
        other => Err(format!("unknown graph generator '{other}'")),
    }
}

fn by_id(lines: &[Json]) -> HashMap<u64, &Json> {
    lines
        .iter()
        .filter_map(|l| l.get("id").and_then(Json::as_u64).map(|id| (id, l)))
        .collect()
}

#[test]
fn scripted_session_colors_inline_and_named_graphs() {
    let input = concat!(
        // Inline CSR: the Fig. 2 pentagon-ish graph.
        r#"{"id":1,"op":"color","graph":{"r":[0,2,6,9,11,14],"c":[1,2,0,2,3,4,0,1,4,1,4,1,2,3]},"scheme":"T-base","backend":"native","assignment":true}"#,
        "\n",
        // Named generator, default scheme.
        r#"{"id":2,"op":"color","graph":{"gen":"rmat","scale":8,"seed":3},"backend":"native"}"#,
        "\n",
        // Identical repeat: must be a cache hit or coalesced, same colors.
        r#"{"id":3,"op":"color","graph":{"gen":"rmat","scale":8,"seed":3},"backend":"native"}"#,
        "\n",
        r#"{"id":4,"op":"stats"}"#,
        "\n",
    );
    let (lines, stats) = run_session(input);
    let resp = by_id(&lines);

    let r1 = resp[&1];
    assert_eq!(r1.get("ok").and_then(Json::as_bool), Some(true));
    assert!(r1.get("colors").and_then(Json::as_u64).unwrap() >= 3);
    let assignment = r1
        .get("assignment")
        .and_then(Json::as_arr)
        .expect("assignment requested");
    assert_eq!(assignment.len(), 5);
    assert_eq!(r1.get("source").and_then(Json::as_str), Some("cold"));

    let r2 = resp[&2];
    let r3 = resp[&3];
    assert_eq!(r2.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(r3.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        r2.get("colors").and_then(Json::as_u64),
        r3.get("colors").and_then(Json::as_u64)
    );
    assert_eq!(
        r2.get("fingerprint").and_then(Json::as_str),
        r3.get("fingerprint").and_then(Json::as_str),
        "identical requests share a fingerprint"
    );
    let src3 = r3.get("source").and_then(Json::as_str).unwrap();
    assert!(
        src3 == "cache-hit" || src3 == "coalesced",
        "repeat must reuse work, got {src3}"
    );

    // The stats line is a snapshot taken mid-session: only fields that
    // are stable at that point are asserted.
    let r4 = resp[&4];
    assert_eq!(r4.get("ok").and_then(Json::as_bool), Some(true));
    assert!(r4.get("accepted").and_then(Json::as_u64).unwrap() >= 1);

    // Final drained stats: 3 accepted color jobs, 2 executions (the
    // repeat reused one), nothing rejected.
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.executions, 2);
    assert_eq!(stats.cache_hits + stats.coalesced, 1);
    assert_eq!(stats.rejected_queue_full + stats.rejected_too_large, 0);
}

#[test]
fn exchange_kind_is_part_of_the_cache_fingerprint() {
    // Same sharded job under the two ghost wire formats: identical
    // colors, but distinct fingerprints — a dense run must never be
    // served from the cache for a delta request (their modeled exchange
    // timelines differ).
    let input = concat!(
        r#"{"id":1,"op":"color","graph":{"gen":"rmat","scale":7,"seed":2},"scheme":"T-base","shards":2,"exchange":"delta"}"#,
        "\n",
        r#"{"id":2,"op":"color","graph":{"gen":"rmat","scale":7,"seed":2},"scheme":"T-base","shards":2,"exchange":"dense"}"#,
        "\n",
        r#"{"id":3,"op":"color","graph":{"gen":"rmat","scale":7,"seed":2},"scheme":"T-base","shards":2}"#,
        "\n",
    );
    let (lines, stats) = run_session(input);
    let resp = by_id(&lines);
    for id in 1..=3 {
        assert_eq!(resp[&id].get("ok").and_then(Json::as_bool), Some(true));
    }
    let fp = |id: u64| resp[&id].get("fingerprint").and_then(Json::as_str).unwrap();
    assert_ne!(fp(1), fp(2), "exchange kind must separate fingerprints");
    assert_eq!(fp(1), fp(3), "delta is the default exchange kind");
    assert_eq!(
        resp[&1].get("colors").and_then(Json::as_u64),
        resp[&2].get("colors").and_then(Json::as_u64),
        "wire format must not change the coloring"
    );
    // Jobs 1 and 3 share a fingerprint; job 2 is its own execution.
    assert_eq!(stats.executions, 2);
    assert_eq!(stats.cache_hits + stats.coalesced, 1);
}

#[test]
fn mutate_and_recolor_drive_an_incremental_session() {
    let input = concat!(
        // Establish the session graph (no edits yet).
        r#"{"id":1,"op":"mutate","graph":{"r":[0,2,6,9,11,14],"c":[1,2,0,2,3,4,0,1,4,1,4,1,2,3]}}"#,
        "\n",
        // First recolor: nothing to repair against, runs from scratch.
        r#"{"id":2,"op":"recolor","scheme":"T-base","backend":"native","assignment":true}"#,
        "\n",
        // Clean repeat: the held baseline is served as-is.
        r#"{"id":3,"op":"recolor","scheme":"T-base","backend":"native"}"#,
        "\n",
        // Close the 5-cycle chord: touches vertices 0 and 3.
        r#"{"id":4,"op":"mutate","edits":[["+",0,3]]}"#,
        "\n",
        // Same options: repaired through the dirty set.
        r#"{"id":5,"op":"recolor","scheme":"T-base","backend":"native","assignment":true}"#,
        "\n",
        // Different scheme: the baseline does not transfer.
        r#"{"id":6,"op":"recolor","scheme":"D-base","backend":"native"}"#,
        "\n",
        // A deleted absent edge plus a cancelling pair touch nothing.
        r#"{"id":7,"op":"mutate","edits":[["-",0,4],["+",2,3],["-",2,3]]}"#,
        "\n",
    );
    let (lines, _) = run_session(input);
    let resp = by_id(&lines);
    for id in 1..=7 {
        assert_eq!(
            resp[&id].get("ok").and_then(Json::as_bool),
            Some(true),
            "response {id} failed: {:?}",
            resp[&id]
        );
    }
    assert_eq!(resp[&1].get("touched").and_then(Json::as_u64), Some(0));
    assert_eq!(resp[&1].get("vertices").and_then(Json::as_u64), Some(5));
    assert_eq!(
        resp[&2].get("source").and_then(Json::as_str),
        Some("scratch")
    );
    assert_eq!(
        resp[&3].get("source").and_then(Json::as_str),
        Some("session")
    );
    assert_eq!(
        resp[&3].get("colors").and_then(Json::as_u64),
        resp[&2].get("colors").and_then(Json::as_u64)
    );
    // The mutate rolled the graph's content fingerprint: cache keys for
    // the old graph can never serve the new one.
    assert_eq!(resp[&4].get("touched").and_then(Json::as_u64), Some(2));
    assert_ne!(
        resp[&1].get("graph_fingerprint").and_then(Json::as_str),
        resp[&4].get("graph_fingerprint").and_then(Json::as_str)
    );
    assert_eq!(resp[&4].get("edges").and_then(Json::as_u64), Some(16));
    // The delta repair consumed the two touched vertices and produced a
    // proper coloring of the edited graph (0 and 3 now adjacent).
    assert_eq!(resp[&5].get("source").and_then(Json::as_str), Some("delta"));
    assert_eq!(resp[&5].get("repaired").and_then(Json::as_u64), Some(2));
    let colors = |r: &Json| -> Vec<u64> {
        r.get("assignment")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|c| c.as_u64().unwrap())
            .collect()
    };
    let (before, after) = (colors(resp[&2]), colors(resp[&5]));
    assert_ne!(after[0], after[3], "chord endpoints must now differ");
    for v in [1usize, 2, 4] {
        assert_eq!(before[v], after[v], "untouched vertex {v} recolored");
    }
    assert_eq!(
        resp[&6].get("source").and_then(Json::as_str),
        Some("scratch")
    );
    assert_eq!(resp[&7].get("touched").and_then(Json::as_u64), Some(0));
}

#[test]
fn session_verbs_fail_cleanly_without_a_session_graph() {
    let input = concat!(
        r#"{"id":1,"op":"recolor","scheme":"T-base"}"#,
        "\n",
        r#"{"id":2,"op":"mutate","edits":[["+",0,1]]}"#,
        "\n",
        // Out-of-range endpoint: typed bad-edit, session survives.
        r#"{"id":3,"op":"mutate","graph":{"r":[0,1,2],"c":[1,0]},"edits":[["+",0,9]]}"#,
        "\n",
        r#"{"id":4,"op":"recolor","scheme":"T-base","backend":"native"}"#,
        "\n",
    );
    let (lines, _) = run_session(input);
    let resp = by_id(&lines);
    assert_eq!(
        resp[&1].get("error").and_then(Json::as_str),
        Some("no-graph")
    );
    assert_eq!(
        resp[&2].get("error").and_then(Json::as_str),
        Some("no-graph")
    );
    assert_eq!(
        resp[&3].get("error").and_then(Json::as_str),
        Some("bad-edit")
    );
    // The rejected batch left the freshly loaded graph intact.
    assert_eq!(resp[&4].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        resp[&4].get("source").and_then(Json::as_str),
        Some("scratch")
    );
}

#[test]
fn mutate_rejects_an_unsorted_inline_row() {
    // Row 0 of the inline graph is [2, 1]. The edit is refused instead of
    // merged into a wrong, asymmetric graph, and the session keeps the
    // graph as it was sent.
    let input = concat!(
        r#"{"id":1,"op":"mutate","graph":{"r":[0,2,3,4],"c":[2,1,0,0]},"edits":[["-",0,1]]}"#,
        "\n",
        r#"{"id":2,"op":"mutate","edits":[["+",1,2]]}"#,
        "\n",
    );
    let (lines, _) = run_session(input);
    let resp = by_id(&lines);
    assert_eq!(
        resp[&1].get("error").and_then(Json::as_str),
        Some("bad-edit")
    );
    assert!(resp[&1]
        .get("detail")
        .and_then(Json::as_str)
        .is_some_and(|m| m.contains("vertex 0")));
    // An edit that names only sorted rows still applies.
    assert_eq!(resp[&2].get("touched").and_then(Json::as_u64), Some(2));
}

#[test]
fn bad_lines_get_typed_errors_and_do_not_kill_the_session() {
    let input = concat!(
        "this is not json\n",
        r#"{"id":7,"op":"color","graph":{"gen":"nope","scale":4,"seed":1}}"#,
        "\n",
        r#"{"id":8,"op":"color","graph":{"gen":"rmat","scale":4,"seed":1},"backend":"native"}"#,
        "\n",
    );
    let (lines, stats) = run_session(input);
    assert!(
        lines
            .iter()
            .any(|l| l.get("error").and_then(Json::as_str) == Some("bad-request")),
        "malformed line must produce a bad-request error"
    );
    let resp = by_id(&lines);
    assert_eq!(
        resp[&7].get("error").and_then(Json::as_str),
        Some("unknown-graph")
    );
    assert_eq!(resp[&8].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(stats.accepted, 1);
}

#[test]
fn a_line_that_is_not_utf8_is_a_bad_request_and_the_session_continues() {
    let mut input = Vec::new();
    input.extend_from_slice(
        br#"{"id":1,"op":"color","graph":{"gen":"rmat","scale":4,"seed":1},"backend":"native"}"#,
    );
    input.extend_from_slice(b"\n\xff\r\n");
    input.extend_from_slice(br#"{"id":2,"op":"stats"}"#);
    input.push(b'\n');
    // A bad byte is a bad request, not an I/O error that ends the
    // connection: `serve_lines` returns Ok and answers request 2.
    let (lines, stats) = run_session(&input);
    assert_eq!(lines.len(), 3, "{lines:?}");
    let bad: Vec<&Json> = lines
        .iter()
        .filter(|l| l.get("error").and_then(Json::as_str) == Some("bad-request"))
        .collect();
    assert_eq!(bad.len(), 1, "{lines:?}");
    assert_eq!(bad[0].get("id"), None, "the line's id is unreadable");
    let detail = bad[0].get("detail").and_then(Json::as_str).unwrap();
    assert!(detail.contains("UTF-8"), "{detail}");
    let resp = by_id(&lines);
    assert_eq!(resp[&1].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp[&2].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(stats.accepted, 1);
}

/// A connection whose next read fails, as a reset socket does.
struct Reset;

impl Read for Reset {
    fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
        Err(std::io::Error::other("connection reset"))
    }
}

#[test]
fn a_read_error_drains_the_service_before_returning() {
    let line = concat!(
        r#"{"id":1,"op":"color","graph":{"gen":"rmat","scale":6,"seed":1},"backend":"native"}"#,
        "\n"
    );
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let resolve = |_: &str, scale: u32, seed: u64| {
        Ok(Arc::new(gen::rmat(RmatParams::erdos_renyi(scale, 8), seed)))
    };
    let reader = BufReader::new(line.as_bytes().chain(Reset));
    let svc = Service::start(ServiceConfig::default());
    let err = serve_lines(svc, reader, buf.clone(), &resolve).unwrap_err();
    assert_eq!(err.to_string(), "connection reset");
    // The accepted job's response is already written: the error path
    // ran the drain and joined the responder first.
    let out = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let resp = json::parse(out.trim_end()).expect("one whole response line");
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
}

// The paper's Fig. 2 graph (5 vertices, 7 undirected edges) as DIMACS
// text, `\n`-escaped for embedding in a JSON `load` request. The same
// graph the inline-CSR tests above use, so shapes are comparable.
const FIG2_COL: &str = r"p edge 5 7\ne 1 2\ne 1 3\ne 2 3\ne 2 4\ne 2 5\ne 3 5\ne 4 5\n";

#[test]
fn load_colors_and_caches_by_content_fingerprint() {
    let input = format!(
        concat!(
            // Upload with a declared format.
            r#"{{"id":1,"op":"load","format":"dimacs","data":"{d}"}}"#,
            "\n",
            // Color the session graph: a cold run through the service.
            r#"{{"id":2,"op":"color","graph":"session","scheme":"T-base","backend":"native"}}"#,
            "\n",
            // Re-upload the identical bytes, chunked this time and with
            // the format sniffed from the `p` line.
            r#"{{"id":3,"op":"load","data":"{c1}","last":false}}"#,
            "\n",
            r#"{{"id":4,"op":"load","data":"{c2}"}}"#,
            "\n",
            // Same graph bytes + same spec: must reuse the cached run.
            r#"{{"id":5,"op":"color","graph":"session","scheme":"T-base","backend":"native"}}"#,
            "\n",
        ),
        d = FIG2_COL,
        c1 = r"p edge 5 7\ne 1 2\ne 1 3\ne 2 3\n",
        c2 = r"e 2 4\ne 2 5\ne 3 5\ne 4 5\n",
    );
    let (lines, stats) = run_session_with(ServiceConfig::default(), &input);
    let resp = by_id(&lines);

    let r1 = resp[&1];
    assert_eq!(r1.get("ok").and_then(Json::as_bool), Some(true), "{r1:?}");
    assert_eq!(r1.get("status").and_then(Json::as_str), Some("loaded"));
    assert_eq!(r1.get("format").and_then(Json::as_str), Some("dimacs"));
    assert_eq!(r1.get("vertices").and_then(Json::as_u64), Some(5));
    assert_eq!(r1.get("edges").and_then(Json::as_u64), Some(14));

    assert_eq!(resp[&2].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp[&2].get("source").and_then(Json::as_str), Some("cold"));

    // The chunk ack reports buffered bytes, the final chunk the graph.
    assert_eq!(
        resp[&3].get("status").and_then(Json::as_str),
        Some("loading")
    );
    assert!(resp[&3].get("bytes").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(
        resp[&4].get("status").and_then(Json::as_str),
        Some("loaded")
    );
    assert_eq!(
        resp[&4].get("format").and_then(Json::as_str),
        Some("dimacs")
    );
    assert_eq!(
        resp[&4].get("graph_fingerprint").and_then(Json::as_str),
        r1.get("graph_fingerprint").and_then(Json::as_str),
        "identical bytes must produce the identical content fingerprint"
    );

    assert_eq!(resp[&5].get("ok").and_then(Json::as_bool), Some(true));
    let src5 = resp[&5].get("source").and_then(Json::as_str).unwrap();
    assert!(
        src5 == "cache-hit" || src5 == "coalesced",
        "re-loading the same bytes must reuse the cached/in-flight run, got {src5}"
    );
    assert_eq!(
        resp[&2].get("fingerprint").and_then(Json::as_str),
        resp[&5].get("fingerprint").and_then(Json::as_str)
    );
    assert_eq!(stats.executions, 1);
    assert_eq!(stats.cache_hits + stats.coalesced, 1);
}

#[test]
fn oversize_upload_is_cut_off_mid_stream() {
    let input = format!(
        concat!(
            // Two chunks; the second pushes the buffer past the cap
            // while the client still claims more is coming.
            r#"{{"id":1,"op":"load","format":"dimacs","data":"{c1}","last":false}}"#,
            "\n",
            r#"{{"id":2,"op":"load","data":"{c1}","last":false}}"#,
            "\n",
            // The buffer was dropped with the rejection: a fresh small
            // upload parses from a clean slate on the same connection.
            r#"{{"id":3,"op":"load","format":"dimacs","data":"{small}"}}"#,
            "\n",
            r#"{{"id":4,"op":"color","graph":"session","backend":"native"}}"#,
            "\n",
        ),
        c1 = r"p edge 5 7\ne 1 2\ne 1 3\n",
        small = r"p edge 2 1\ne 1 2\n",
    );
    let (lines, _) = run_session_with(
        ServiceConfig {
            max_upload_bytes: Some(32),
            ..ServiceConfig::default()
        },
        &input,
    );
    let resp = by_id(&lines);
    assert_eq!(
        resp[&1].get("status").and_then(Json::as_str),
        Some("loading")
    );
    assert_eq!(
        resp[&2].get("error").and_then(Json::as_str),
        Some("upload-too-large"),
        "{:?}",
        resp[&2]
    );
    assert_eq!(
        resp[&3].get("ok").and_then(Json::as_bool),
        Some(true),
        "{:?}",
        resp[&3]
    );
    assert_eq!(resp[&3].get("vertices").and_then(Json::as_u64), Some(2));
    assert_eq!(resp[&4].get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn bad_uploads_fail_typed_and_the_connection_recovers() {
    let input = format!(
        concat!(
            // Admission limits apply while parsing: the header already
            // promises more vertices than allowed.
            r#"{{"id":1,"op":"load","format":"dimacs","data":"{d}"}}"#,
            "\n",
            // Malformed text: an edge before any problem line.
            r#"{{"id":2,"op":"load","format":"dimacs","data":"e 1 2\n"}}"#,
            "\n",
            // Bare numbers are ambiguous without a format declaration.
            r#"{{"id":3,"op":"load","data":"1 2\n"}}"#,
            "\n",
            // After three failures the connection still loads and colors.
            r#"{{"id":4,"op":"load","format":"dimacs","data":"{small}"}}"#,
            "\n",
            r#"{{"id":5,"op":"color","graph":"session","backend":"native"}}"#,
            "\n",
        ),
        d = FIG2_COL,
        small = r"p edge 3 2\ne 1 2\ne 2 3\n",
    );
    let (lines, _) = run_session_with(
        ServiceConfig {
            max_vertices: Some(4),
            ..ServiceConfig::default()
        },
        &input,
    );
    let resp = by_id(&lines);
    assert_eq!(
        resp[&1].get("error").and_then(Json::as_str),
        Some("graph-too-large"),
        "{:?}",
        resp[&1]
    );
    assert_eq!(
        resp[&2].get("error").and_then(Json::as_str),
        Some("bad-graph")
    );
    assert!(
        resp[&2]
            .get("detail")
            .and_then(Json::as_str)
            .unwrap()
            .contains("line"),
        "parse errors carry the offending line: {:?}",
        resp[&2]
    );
    assert_eq!(
        resp[&3].get("error").and_then(Json::as_str),
        Some("bad-graph")
    );
    assert_eq!(
        resp[&4].get("ok").and_then(Json::as_bool),
        Some(true),
        "{:?}",
        resp[&4]
    );
    assert_eq!(resp[&5].get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn load_feeds_the_incremental_session() {
    let input = format!(
        concat!(
            r#"{{"id":1,"op":"load","format":"dimacs","data":"{d}"}}"#,
            "\n",
            // The loaded graph is the session graph: recolor runs on it.
            r#"{{"id":2,"op":"recolor","scheme":"T-base","backend":"native","assignment":true}}"#,
            "\n",
            // Close the 0–3 chord (0-based ids), then repair.
            r#"{{"id":3,"op":"mutate","edits":[["+",0,3]]}}"#,
            "\n",
            r#"{{"id":4,"op":"recolor","scheme":"T-base","backend":"native","assignment":true}}"#,
            "\n",
        ),
        d = FIG2_COL,
    );
    let (lines, _) = run_session_with(ServiceConfig::default(), &input);
    let resp = by_id(&lines);
    for id in 1..=4 {
        assert_eq!(
            resp[&id].get("ok").and_then(Json::as_bool),
            Some(true),
            "response {id} failed: {:?}",
            resp[&id]
        );
    }
    assert_eq!(
        resp[&2].get("source").and_then(Json::as_str),
        Some("scratch")
    );
    // The edit rolled the fingerprint the load reported.
    assert_ne!(
        resp[&3].get("graph_fingerprint").and_then(Json::as_str),
        resp[&1].get("graph_fingerprint").and_then(Json::as_str)
    );
    assert_eq!(resp[&3].get("touched").and_then(Json::as_u64), Some(2));
    assert_eq!(resp[&4].get("source").and_then(Json::as_str), Some("delta"));
    assert_eq!(resp[&4].get("repaired").and_then(Json::as_u64), Some(2));
    let colors = |r: &Json| -> Vec<u64> {
        r.get("assignment")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|c| c.as_u64().unwrap())
            .collect()
    };
    let after = colors(resp[&4]);
    assert_ne!(after[0], after[3], "chord endpoints must differ");
}

#[test]
fn shutdown_request_acks_and_stops_reading() {
    let input = concat!(
        r#"{"id":1,"op":"color","graph":{"gen":"rmat","scale":4,"seed":9},"backend":"native"}"#,
        "\n",
        r#"{"id":2,"op":"shutdown"}"#,
        "\n",
        // Never read: the server stops at the shutdown request.
        r#"{"id":3,"op":"color","graph":{"gen":"rmat","scale":4,"seed":10},"backend":"native"}"#,
        "\n",
    );
    let (lines, stats) = run_session(input);
    let resp = by_id(&lines);
    assert_eq!(resp[&1].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        resp[&2].get("status").and_then(Json::as_str),
        Some("draining")
    );
    assert!(
        !resp.contains_key(&3),
        "lines after shutdown must not be served"
    );
    assert_eq!(stats.accepted, 1);
}

/// The protocol server adds the `conn-writer` class (responder threads
/// write under it while job cells resolve): after full pipelined
/// sessions, the recorded acquisition graph must still be acyclic.
#[test]
fn pipelined_sessions_keep_the_lock_order_acyclic() {
    let input = concat!(
        r#"{"id":1,"op":"color","graph":{"gen":"rmat","scale":5,"seed":3}}"#,
        "\n",
        r#"{"id":2,"op":"color","graph":{"gen":"rmat","scale":5,"seed":3}}"#,
        "\n",
        r#"{"id":3,"op":"color","graph":{"gen":"rmat","scale":5,"seed":4},"backend":"native"}"#,
        "\n",
        r#"{"id":4,"op":"stats"}"#,
        "\n",
    );
    let (lines, _) = run_session(input);
    assert_eq!(by_id(&lines).len(), 4);
    gcol_serve::sync::lock_order::assert_acyclic();
}

/// A `Read` that hands out one scripted line per call and fires
/// `begin_drain` at a chosen line boundary — the deterministic stand-in
/// for a drain signal landing mid-upload.
struct DrainBetween {
    lines: Vec<Vec<u8>>,
    next: usize,
    drain_before: usize,
    ctl: gcol_serve::DrainController,
}

impl std::io::Read for DrainBetween {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.next >= self.lines.len() {
            return Ok(0);
        }
        if self.next == self.drain_before {
            self.ctl.begin_drain();
        }
        let line = &self.lines[self.next];
        assert!(buf.len() >= line.len(), "test lines fit one read");
        buf[..line.len()].copy_from_slice(line);
        self.next += 1;
        Ok(line.len())
    }
}

/// Shutdown edge: a chunked `load` is mid-upload when `begin_drain`
/// fires. The connection must resolve cleanly — the remaining chunks get
/// the same typed `shutting-down` rejection a `submit` would, the
/// accumulated buffer is dropped (no graph is parsed, no session
/// installed), and `serve_lines` returns instead of hanging.
#[test]
fn upload_in_progress_when_drain_fires_resolves_typed() {
    let svc = Service::start(ServiceConfig {
        num_workers: 1,
        ..ServiceConfig::default()
    });
    let ctl = svc.controller();
    let script = [
        // Chunk 1 arrives before the drain…
        r#"{"id":1,"op":"load","format":"edges","data":"0 1\n1 2\n","last":false}"#,
        // …the drain fires here…
        r#"{"id":2,"op":"load","data":"2 3\n","last":true}"#,
        // …and a fresh request on the drained connection is also typed.
        r#"{"id":3,"op":"color","graph":{"gen":"rmat","scale":4,"seed":1},"backend":"native"}"#,
    ];
    let reader = std::io::BufReader::new(DrainBetween {
        lines: script
            .iter()
            .map(|l| format!("{l}\n").into_bytes())
            .collect(),
        next: 0,
        drain_before: 1,
        ctl,
    });
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let resolve = |name: &str, scale: u32, seed: u64| match name {
        "rmat" => Ok(Arc::new(gen::rmat(RmatParams::erdos_renyi(scale, 8), seed))),
        other => Err(format!("unknown graph generator '{other}'")),
    };
    let stats = serve_lines(svc, reader, buf.clone(), &resolve).unwrap();
    let bytes = buf.0.lock().unwrap().clone();
    let lines: Vec<Json> = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(|l| json::parse(l).expect("valid JSON"))
        .collect();
    let resp = by_id(&lines);
    assert_eq!(
        resp[&1].get("status").and_then(Json::as_str),
        Some("loading"),
        "pre-drain chunk was accepted"
    );
    assert_eq!(
        resp[&2].get("error").and_then(Json::as_str),
        Some("shutting-down"),
        "mid-upload drain resolves the upload with the typed rejection"
    );
    assert_eq!(
        resp[&3].get("error").and_then(Json::as_str),
        Some("shutting-down"),
        "post-drain submissions are rejected the same way"
    );
    assert_eq!(stats.accepted, 0, "the dropped upload never became a job");
    gcol_serve::sync::lock_order::assert_acyclic();
}

/// `"scheme":"auto"` end to end: the response echoes the resolved plan
/// (shape pinned here — this is the wire contract), identical auto
/// requests key to one execution (cache hit or coalesced, never two
/// cold runs), the `stats` op reports `auto_planned`, and fixed-scheme
/// responses carry no `"plan"` key.
#[test]
fn auto_requests_echo_the_plan_and_share_one_execution() {
    let input = concat!(
        r#"{"id":1,"op":"color","graph":{"gen":"rmat","scale":8,"seed":3},"scheme":"auto","slo":"fastest-wall"}"#,
        "\n",
        r#"{"id":2,"op":"color","graph":{"gen":"rmat","scale":8,"seed":3},"scheme":"auto","slo":"fastest-wall"}"#,
        "\n",
        r#"{"id":3,"op":"color","graph":{"gen":"rmat","scale":8,"seed":3},"scheme":"T-base"}"#,
        "\n",
        r#"{"id":4,"op":"stats"}"#,
        "\n",
    );
    let (lines, stats) = run_session(input);
    let resp = by_id(&lines);

    let r1 = resp[&1];
    assert_eq!(r1.get("ok").and_then(Json::as_bool), Some(true));
    let plan = r1.get("plan").expect("auto responses echo the plan");
    assert_eq!(plan.get("slo").and_then(Json::as_str), Some("fastest-wall"));
    let planned_scheme = plan
        .get("scheme")
        .and_then(Json::as_str)
        .expect("plan.scheme");
    assert_eq!(
        plan.get("backend").and_then(Json::as_str),
        Some("simt"),
        "the request's backend field is the auto envelope"
    );
    assert!(plan.get("shards").and_then(Json::as_u64).unwrap() >= 1);
    assert!(plan.get("exchange").and_then(Json::as_str).is_some());
    assert!(plan
        .get("predicted_ms")
        .and_then(Json::as_f64)
        .unwrap()
        .is_finite());
    assert!(plan
        .get("predicted_colors")
        .and_then(Json::as_f64)
        .unwrap()
        .is_finite());
    assert_eq!(
        r1.get("scheme").and_then(Json::as_str),
        Some(planned_scheme),
        "the job that ran is the one the plan named"
    );

    // The identical auto request resolves to the identical plan and the
    // identical job: same fingerprint, exactly one cold run between them.
    let r2 = resp[&2];
    assert_eq!(r2.get("plan"), r1.get("plan"));
    assert_eq!(r2.get("fingerprint"), r1.get("fingerprint"));
    let sources: Vec<&str> = [r1, r2]
        .iter()
        .map(|r| r.get("source").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        sources.iter().filter(|s| **s == "cold").count(),
        1,
        "identical auto requests must share one execution: {sources:?}"
    );

    // Fixed-scheme responses have no plan object.
    assert!(resp[&3].get("plan").is_none());

    // Observability: both wire stats and the final snapshot count them.
    assert_eq!(resp[&4].get("auto_planned").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.auto_planned, 2);
}

/// The auto differential: a `"scheme":"auto"` request is
/// indistinguishable from explicitly sending the fields its echoed plan
/// names — same fingerprint, bit-identical assignment, and the exact
/// same cache key (the auto twin of an explicit job never runs cold).
#[test]
fn auto_is_bit_identical_to_its_resolved_explicit_request() {
    let auto_line = r#"{"id":1,"op":"color","graph":{"gen":"rmat","scale":8,"seed":3},"scheme":"auto","seed":7,"assignment":true}"#;
    let auto_line_12 = auto_line.replace(r#""id":1,"#, r#""id":12,"#);

    // Session A: run auto once and read back the resolved plan.
    let (lines, _) = run_session(&format!("{auto_line}\n"));
    let resp = by_id(&lines);
    let a1 = resp[&1];
    assert_eq!(a1.get("ok").and_then(Json::as_bool), Some(true));
    let plan = a1.get("plan").expect("auto responses echo the plan");
    let explicit_line = format!(
        r#"{{"id":1,"op":"color","graph":{{"gen":"rmat","scale":8,"seed":3}},"scheme":"{}","backend":"{}","shards":{},"exchange":"{}","seed":7,"assignment":true}}"#,
        plan.get("scheme").and_then(Json::as_str).unwrap(),
        plan.get("backend").and_then(Json::as_str).unwrap(),
        plan.get("shards").and_then(Json::as_u64).unwrap(),
        plan.get("exchange").and_then(Json::as_str).unwrap(),
    );

    // Session B (fresh cache): the explicit job first, then the auto
    // request — which must key to the explicit job's cache entry.
    let (lines, stats) = run_session(&format!("{explicit_line}\n{auto_line_12}\n"));
    let resp = by_id(&lines);
    let (b1, b2) = (resp[&1], resp[&12]);
    for r in [b1, b2] {
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            r.get("fingerprint"),
            a1.get("fingerprint"),
            "all three requests name the same job"
        );
        assert_eq!(
            r.get("assignment"),
            a1.get("assignment"),
            "served colorings are bit-identical across sessions"
        );
    }
    assert_eq!(b2.get("plan"), a1.get("plan"), "planning is deterministic");
    assert!(b1.get("plan").is_none());
    assert_ne!(
        b2.get("source").and_then(Json::as_str),
        Some("cold"),
        "the auto twin of an explicit job shares its execution"
    );
    assert_eq!(stats.executions, 1, "one cold run served both requests");
}

/// The bytes between the `[` and `]` of a line's `assignment`.
fn assignment_of(line: &str) -> &str {
    let body = line
        .strip_prefix(r#"{"assignment":["#)
        .unwrap_or_else(|| panic!("no leading assignment in {line}"));
    &body[..body.find(']').unwrap()]
}

fn source_of(line: &str) -> String {
    let v = json::parse(line).unwrap();
    v.get("source").and_then(Json::as_str).unwrap().to_owned()
}

fn color_request(id: u64, seed: u64) -> String {
    format!(
        r#"{{"id":{id},"op":"color","graph":{{"gen":"rmat","scale":9,"seed":3}},"scheme":"T-base","backend":"native","seed":{seed},"assignment":true}}"#
    )
}

/// The job `color_request` submits, for driving the service directly.
fn color_job(seed: u64) -> JobRequest {
    let Ok(Request::Color { spec, .. }) = Request::parse(&color_request(0, seed)) else {
        unreachable!("a color request")
    };
    let graph = resolve_rmat("rmat", 9, 3).unwrap();
    JobRequest::new(graph, spec.fixed().expect("T-base is a fixed scheme"))
}

/// The assignment body as plain decimals, independent of the codec.
fn decimals(colors: &[u32]) -> Vec<u8> {
    let text: Vec<String> = colors.iter().map(u32::to_string).collect();
    text.join(",").into_bytes()
}

/// A cache hit and a coalesced response splice in the bytes the cache
/// entry keeps; those must equal the cold line's assignment byte for
/// byte, on the first hit that renders them and on every later one.
#[test]
fn hit_and_coalesced_assignments_match_the_cold_line() {
    // No workers: the job runs at the drain, so every duplicate read
    // before it coalesces onto the first request.
    let input: String = (1..=4).map(|id| color_request(id, 0) + "\n").collect();
    let (lines, stats) = run_session_raw(
        ServiceConfig {
            num_workers: 0,
            ..ServiceConfig::default()
        },
        &input,
    );
    assert_eq!((stats.executions, stats.coalesced), (1, 3));
    let cold: Vec<&String> = lines.iter().filter(|l| source_of(l) == "cold").collect();
    assert_eq!(cold.len(), 1);
    let cold = assignment_of(cold[0]);
    assert!(cold.len() > 512, "a scale-9 assignment: {cold}");
    for line in &lines {
        assert_eq!(assignment_of(line), cold, "{}", source_of(line));
    }

    // A service that already ran the job serves every request as a hit.
    let service = Service::start(ServiceConfig::default());
    service.submit(color_job(0)).unwrap().wait().unwrap();
    let input: String = (11..=14).map(|id| color_request(id, 0) + "\n").collect();
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let stats = serve_lines(service, input.as_bytes(), buf.clone(), &resolve_rmat).unwrap();
    let out = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert_eq!(out.lines().count(), 4);
    for hit in out.lines() {
        assert_eq!(source_of(hit), "cache-hit");
        assert_eq!(assignment_of(hit), cold);
    }
    assert_eq!((stats.executions, stats.cache_hits), (1, 4));
    // One entry keeps one body: the one the first hit rendered.
    assert_eq!(stats.cache_assignment_bytes, cold.len());
}

/// With room for one entry, evicting it drops its kept bytes, and the
/// re-run that reinserts its fingerprint starts a fresh entry: the next
/// hit carries the bytes of the re-run's coloring.
#[test]
fn an_evicted_entry_takes_its_kept_assignment_with_it() {
    let svc = Service::start(ServiceConfig {
        cache_capacity: 1,
        ..ServiceConfig::default()
    });
    let run = |seed| svc.submit(color_job(seed)).unwrap();
    let first = run(0).wait().unwrap();
    let hit = run(0);
    assert_eq!(hit.wait().unwrap().source, ResultSource::CacheHit);
    assert_eq!(
        *hit.kept_assignment(decimals).unwrap(),
        decimals(&first.coloring.colors)[..]
    );
    assert!(svc.stats().cache_assignment_bytes > 0);

    // Another job evicts the entry, and its bytes go with it.
    assert_eq!(run(1).wait().unwrap().source, ResultSource::Cold);
    assert_eq!(svc.stats().cache_assignment_bytes, 0);
    let rerun = run(0);
    let again = rerun.wait().unwrap();
    assert_eq!(again.source, ResultSource::Cold);
    assert!(
        rerun.kept_assignment(decimals).is_none(),
        "cold keeps nothing"
    );
    assert_eq!(svc.stats().cache_assignment_bytes, 0);

    let hit = run(0);
    let r = hit.wait().unwrap();
    assert_eq!(r.source, ResultSource::CacheHit);
    assert!(
        Arc::ptr_eq(&r.coloring, &again.coloring),
        "the re-run's entry"
    );
    let kept = hit.kept_assignment(decimals).unwrap();
    assert_eq!(*kept, decimals(&again.coloring.colors)[..]);
    let stats = svc.shutdown();
    assert_eq!((stats.executions, stats.cache_evictions), (3, 2));
    assert_eq!(stats.cache_assignment_bytes, kept.len());
}

/// A `Write` that records every `write` call separately.
#[derive(Clone)]
struct WriteCalls(Arc<Mutex<Vec<Vec<u8>>>>);

impl Write for WriteCalls {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().push(buf.to_vec());
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every response line, whichever path writes it, reaches the writer in
/// exactly one `write` call that ends in its `\n`: a lone `\n` write
/// would go out as a segment of its own on a socket.
#[test]
fn each_response_line_is_one_write_call() {
    let input = format!(
        "{}\n{}\n{}\n",
        [
            format!(r#"{{"id":1,"op":"load","format":"dimacs","data":"{FIG2_COL}"}}"#),
            r#"{"id":2,"op":"color","graph":"session","scheme":"T-base","backend":"native","assignment":true}"#.into(),
            r#"{"id":3,"op":"color","graph":"session","scheme":"T-base","backend":"native","assignment":true}"#.into(),
            r#"{"id":4,"op":"color","graph":{"gen":"rmat","scale":6,"seed":1},"backend":"native"}"#.into(),
        ]
        .join("\n"),
        [
            r#"{"id":5,"op":"stats"}"#,
            r#"{"id":6,"op":"bogus"}"#,
            r#"{"id":7,"op":"mutate","graph":"session","edits":[["+",0,3]]}"#,
            r#"{"id":8,"op":"recolor","scheme":"T-base","backend":"native","assignment":true}"#,
            r#"{"id":9,"op":"color","graph":{"gen":"nope","scale":6,"seed":1}}"#,
        ]
        .join("\n"),
        r#"{"id":10,"op":"shutdown"}"#,
    );
    let calls = WriteCalls(Arc::new(Mutex::new(Vec::new())));
    serve_lines(
        Service::start(ServiceConfig::default()),
        input.as_bytes(),
        calls.clone(),
        &resolve_rmat,
    )
    .unwrap();
    let calls = calls.0.lock().unwrap();
    assert_eq!(calls.len(), 10, "one write per response line");
    for call in calls.iter() {
        let text = String::from_utf8_lossy(call);
        assert!(call.ends_with(b"\n"), "write without its newline: {text}");
        let newlines = call.iter().filter(|&&b| b == b'\n').count();
        assert_eq!(newlines, 1, "one line per write: {text}");
        json::parse(text.trim_end()).expect("each write is one JSON line");
    }
}
