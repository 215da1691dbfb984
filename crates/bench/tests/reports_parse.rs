//! The bench writes its JSON reports with the write-only `serde_json`
//! shim; the workspace reads JSON only through `gcol_serve::json`. These
//! tests pin that the two agree: a report the bench renders is a
//! document the one remaining parser accepts.

use gcol_bench::experiments::loadgen::TraceResult;
use gcol_bench::experiments::{sanitize, ExpConfig};
use gcol_serve::json::{self, Json};
use gcol_serve::{Service, ServiceConfig};

#[test]
fn sanitize_audit_report_parses_back() {
    let entries = sanitize::audit(&ExpConfig {
        scale: 8,
        ..ExpConfig::default()
    });
    let text = serde_json::to_string_pretty(&entries).expect("serialize audit");
    let doc = json::parse(&text).expect("the audit report is valid JSON");
    let parsed = doc.as_arr().expect("the audit report is an array");
    assert_eq!(parsed.len(), entries.len());
    for (entry, value) in entries.iter().zip(parsed) {
        assert_eq!(
            value.get("scheme").and_then(Json::as_str),
            Some(entry.scheme)
        );
        let findings = value
            .get("report")
            .and_then(|r| r.get("findings"))
            .and_then(Json::as_arr)
            .expect("report.findings is an array");
        assert_eq!(findings.len(), entry.report.findings.len());
        for (finding, value) in entry.report.findings.iter().zip(findings) {
            let kind = format!("{:?}", finding.kind);
            assert_eq!(value.get("kind").and_then(Json::as_str), Some(&*kind));
        }
    }
}

#[test]
fn non_finite_report_values_render_as_parseable_null() {
    // An idle service has an empty latency window: its percentiles are
    // NaN, which the writer must render as `null`, not `NaN`.
    let idle = Service::start(ServiceConfig::default()).shutdown();
    assert!(idle.p50_ms.is_nan());
    let row = TraceResult {
        trace: "unique",
        workers: 1,
        jobs: 0,
        rate: 0.0,
        wall_s: 0.0,
        throughput: 0.0,
        executions: 0,
        cache_hits: 0,
        coalesced: 0,
        rejected: 0,
        p50_ms: idle.p50_ms,
        p95_ms: idle.p95_ms,
        p99_ms: idle.p99_ms,
    };
    let text = serde_json::to_string_pretty(&vec![row]).expect("serialize");
    let doc = json::parse(&text).expect("a non-finite value still renders valid JSON");
    let row = &doc.as_arr().unwrap()[0];
    for key in ["p50_ms", "p95_ms", "p99_ms"] {
        assert_eq!(row.get(key), Some(&Json::Null), "{key}");
    }
    assert_eq!(row.get("rate").and_then(Json::as_f64), Some(0.0));
}
