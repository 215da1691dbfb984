//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Each replay thread owns a [`Recorder`]; spans stay in memory and are
//! merged when the replay ends. A span's layer is its name without the
//! last dot-separated part (`serve.proto.parse` belongs to
//! `serve.proto`). The root span of a job is `bench.job`; its self time
//! is the part of the job no layer call covers.

use gcol_simt::{Phase, RunProfile};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
    pub tid: u32,
    /// Placed from a `RunProfile` duration rather than timed by the
    /// benchmark: its length is measured, its start is not.
    pub synthesized: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

pub struct Recorder {
    epoch: Instant,
    tid: u32,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Self {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; the root span sets the
    /// job id its descendants carry.
    pub fn open(&mut self, name: &'static str, job: Option<u64>) -> usize {
        if let Some(j) = job {
            self.job = j;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
            tid: self.tid,
            synthesized: false,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].ms()
    }

    /// Times `f`, as a span only when `traced`.
    pub fn step<R>(&mut self, traced: bool, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = traced.then(|| self.open(name, None));
        let t = Instant::now();
        let r = f();
        let ms = match span {
            Some(id) => self.close(id),
            None => t.elapsed().as_secs_f64() * 1e3,
        };
        (r, ms)
    }

    /// Adds the kernel-named phases of a native run as `simt.kernel`
    /// children of span `parent`, laid end to end from its start.
    pub fn add_kernel_phases(&mut self, parent: usize, profile: &RunProfile) {
        let mut at = self.spans[parent].start_ns;
        for ms in native_kernel_phases(profile) {
            let dur = (ms * 1e6) as u64;
            self.spans.push(Span {
                name: "simt.kernel",
                start_ns: at,
                end_ns: at + dur,
                parent: Some(parent),
                job: self.job,
                tid: self.tid,
                synthesized: true,
            });
            at += dur;
        }
    }
}

/// Durations of the phases a native run spent inside kernels. The native
/// backend records each launch as a host phase named after the kernel
/// (a single token such as `topo-detect`); driver phases carry prose
/// labels with spaces. Kernel phases, should a backend record them as
/// such, count too.
pub fn native_kernel_phases(profile: &RunProfile) -> impl Iterator<Item = f64> + '_ {
    profile.phases.iter().filter_map(|p| match p {
        Phase::Kernel(k) => Some(k.time_ms),
        Phase::Host { label, ms } if !label.contains(' ') => Some(*ms),
        _ => None,
    })
}

/// All spans of one replay, merged from its recorders with global ids.
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn merge(recorders: Vec<Recorder>) -> Self {
        let mut spans = Vec::new();
        for r in recorders {
            let base = spans.len();
            spans.extend(r.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        Self { spans }
    }

    /// Each span's duration minus its children's, clamped at zero.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own.into_iter().map(|x| x.max(0.0)).collect()
    }

    /// Self time per layer, and the summed length of the root spans.
    pub fn layer_table(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut by_layer = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ms()) {
            *by_layer.entry(s.layer()).or_insert(0.0) += own;
        }
        let total = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ms)
            .sum();
        (by_layer, total)
    }

    /// Share of the root spans' time covered by layer spans.
    pub fn coverage(&self) -> f64 {
        let (by_layer, total) = self.layer_table();
        if total == 0.0 {
            return 0.0;
        }
        1.0 - by_layer.get("bench").copied().unwrap_or(0.0) / total
    }

    /// Prints the per-layer self-time table, the uncovered remainder
    /// (the root spans' own time) included.
    pub fn print_table(&self, workload: &str, overhead: f64) {
        let (by_layer, total) = self.layer_table();
        println!("traced layers ({workload}): self time over {total:.1} ms of traced jobs");
        for (layer, ms) in &by_layer {
            let label = if *layer == "bench" {
                "uncovered"
            } else {
                layer
            };
            println!(
                "  {label:<12} {ms:>10.2} ms {:>6.1}%",
                100.0 * ms / total.max(1e-9)
            );
        }
        println!(
            "  bench.trace_coverage {:.4}  bench.trace_overhead {overhead:.4}",
            self.coverage()
        );
    }

    /// Chrome trace-event JSON: opens offline in Perfetto or
    /// chrome://tracing.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{},\"job\":{},\"synthesized\":{}}}}}",
                    s.name,
                    s.layer(),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.tid,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.job,
                    s.synthesized
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(Instant::now(), 0);
        let root = r.open("bench.job", Some(7));
        r.step(true, "graph.fingerprint", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close(root);
        let t = Trace::merge(vec![r]);
        assert_eq!(t.spans[1].job, 7);
        assert_eq!(t.spans[1].layer(), "graph");
        let own = t.self_ms();
        assert!((own[0] + own[1] - t.spans[0].ms()).abs() < 1e-9);
        assert!(t.coverage() > 0.5);
        assert!(crate::json::parse(&t.chrome_json()).is_ok());
    }
}
