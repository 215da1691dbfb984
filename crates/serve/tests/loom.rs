//! Model-checked interleavings of the serve layer's concurrency core.
//!
//! These tests only exist under `RUSTFLAGS="--cfg loom"`; then
//! `cargo test -p gcol-serve --test loom` runs every thread schedule
//! (bounded by `LOOM_MAX_PREEMPTIONS`, default 2) of each body instead
//! of the one schedule a normal run happens to take. An invariant that
//! holds here holds on *every* bounded interleaving of facade sync
//! operations — queue admission, coalesce attach, cache fill, drain.
//!
//! The last two tests seed historical-style bugs (a drain that drops a
//! queued job; a check-then-act double resolve) in miniature replicas
//! and assert the model checker *fails* them: the layer's regression
//! proof that these schedules stay explored.
#![cfg(loom)]

use gcol_core::{Coloring, Fingerprint, JobSpec, RunProfile, Scheme};
use gcol_graph::gen::{self, RmatParams};
use gcol_graph::Csr;
use gcol_serve::sync::{thread, Condvar, Mutex};
use gcol_serve::{JobRequest, Rejection, ResultCache, ResultSource, Service, ServiceConfig};
use std::collections::VecDeque;
use std::sync::Arc;

fn tiny_graph() -> Arc<Csr> {
    // 4 vertices: big enough to color, small enough that the scheme run
    // inside every explored execution costs microseconds.
    Arc::new(gen::rmat(RmatParams::erdos_renyi(4, 4), 7))
}

fn native_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(Scheme::TopoBase);
    spec.opts = spec
        .opts
        .with_backend(gcol_core::BackendKind::Native)
        .with_seed(seed);
    spec
}

fn config(num_workers: usize, queue_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        num_workers,
        queue_capacity,
        cache_capacity: 8,
        ..ServiceConfig::default()
    }
}

/// Queue-full vs coalesce: job X holds the single queue slot while a
/// duplicate of X and a distinct job Y race the admission lock and a
/// worker races them both. On every schedule the duplicate is accepted
/// without consuming a slot — coalesced onto the in-flight execution,
/// or a cache hit if the worker already finished X — while Y is either
/// accepted (the worker freed the slot in time) or typed `QueueFull`.
/// No third outcome, no lost handle.
#[test]
fn queue_full_vs_coalesce_race() {
    let g = tiny_graph();
    loom::model(move || {
        let svc = Arc::new(Service::start(config(1, 1)));
        let hx = svc
            .submit(JobRequest::new(Arc::clone(&g), native_spec(0)))
            .expect("empty queue accepts");
        let (s1, g1) = (Arc::clone(&svc), Arc::clone(&g));
        let t_dup = thread::spawn(move || s1.submit(JobRequest::new(g1, native_spec(0))));
        let (s2, g2) = (Arc::clone(&svc), Arc::clone(&g));
        let t_y = thread::spawn(move || s2.submit(JobRequest::new(g2, native_spec(1))));
        let r_dup = t_dup.join().unwrap();
        let r_y = t_y.join().unwrap();

        let h_dup = r_dup.expect("a duplicate never consumes a slot, full queue or not");
        let svc = Arc::try_unwrap(svc).unwrap_or_else(|_| panic!("service still shared"));
        let stats = svc.shutdown();
        let x = hx.wait().expect("accepted job resolves ok");
        let dup = h_dup.wait().expect("accepted job resolves ok");
        assert_eq!(x.source, ResultSource::Cold);
        assert_eq!(
            x.coloring.colors, dup.coloring.colors,
            "duplicate shares X's result"
        );
        assert!(
            matches!(dup.source, ResultSource::Coalesced | ResultSource::CacheHit),
            "duplicate attached or hit the cache, got {:?}",
            dup.source
        );
        match r_y {
            // The worker freed the slot before Y's admission.
            Ok(h) => {
                h.wait().expect("accepted job resolves ok");
                assert_eq!(stats.executions, 2);
            }
            Err(Rejection::QueueFull { capacity: 1 }) => {
                assert_eq!(stats.executions, 1);
            }
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    });
}

/// Drain vs in-flight delivery: a job accepted before `begin_drain`
/// resolves on every schedule, whether the drain lands before the
/// worker dequeues, mid-execution, or after delivery. `shutdown` always
/// terminates (a hang on any schedule is a model deadlock).
#[test]
fn drain_never_drops_in_flight_delivery() {
    let g = tiny_graph();
    loom::model(move || {
        let svc = Service::start(config(1, 4));
        let h = svc
            .submit(JobRequest::new(Arc::clone(&g), native_spec(0)))
            .expect("accepted before drain");
        let ctl = svc.controller();
        let drainer = thread::spawn(move || ctl.begin_drain());
        let r = h.wait().expect("accepted job survives a racing drain");
        assert_eq!(r.source, ResultSource::Cold);
        drainer.join().unwrap();
        let stats = svc.shutdown();
        assert_eq!(stats.executions, 1);
        assert_eq!(stats.completed_ok, 1);
    });
}

/// Concurrent cache fill: two identical jobs racing two workers either
/// coalesce onto one execution or (if the first finishes before the
/// second submits) the second hits the cache — but on every schedule
/// both resolve with the bit-identical coloring and the accounting
/// (cold + coalesced + cache hits) covers both.
#[test]
fn concurrent_cache_fill_is_coherent() {
    let g = tiny_graph();
    loom::model(move || {
        let svc = Arc::new(Service::start(config(2, 4)));
        let (s1, g1) = (Arc::clone(&svc), Arc::clone(&g));
        let t = thread::spawn(move || {
            s1.submit(JobRequest::new(g1, native_spec(0)))
                .expect("capacity 4 never fills")
                .wait()
                .expect("resolves ok")
        });
        let mine = svc
            .submit(JobRequest::new(Arc::clone(&g), native_spec(0)))
            .expect("capacity 4 never fills")
            .wait()
            .expect("resolves ok");
        let theirs = t.join().unwrap();
        assert_eq!(
            mine.coloring.colors, theirs.coloring.colors,
            "cache/coalesce/cold must all deliver the identical coloring"
        );
        let svc = Arc::try_unwrap(svc).unwrap_or_else(|_| panic!("handle leaked"));
        let stats = svc.shutdown();
        assert_eq!(stats.accepted, 2);
        assert_eq!(
            stats.executions + stats.coalesced + stats.cache_hits,
            2,
            "every accepted job is cold, coalesced or a cache hit"
        );
        assert!(stats.executions >= 1, "someone ran it");
    });
}

/// begin_drain vs submit state machine: a submission racing the drain
/// flag is either fully accepted (and then must resolve through
/// shutdown) or rejected `ShuttingDown` — never silently lost, on any
/// schedule.
#[test]
fn drain_vs_submit_is_accept_or_typed_reject() {
    let g = tiny_graph();
    loom::model(move || {
        let svc = Service::start(config(0, 4));
        let ctl = svc.controller();
        let drainer = thread::spawn(move || ctl.begin_drain());
        let r = svc.submit(JobRequest::new(Arc::clone(&g), native_spec(0)));
        drainer.join().unwrap();
        let stats = svc.shutdown();
        match r {
            Ok(h) => {
                h.wait().expect("accepted-during-race job resolves");
                assert_eq!(stats.executions, 1);
                assert_eq!(stats.rejected_shutdown, 0);
            }
            Err(Rejection::ShuttingDown) => {
                assert_eq!(stats.executions, 0);
                assert_eq!(stats.rejected_shutdown, 1);
            }
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    });
}

/// Kept assignment bytes vs eviction and reinsertion: a hit takes its
/// entry under the cache lock and renders the entry's assignment
/// outside it, while another thread reinserts that fingerprint with a
/// different coloring, evicts it, and reinserts it again, rendering
/// each new entry. Entries of one fingerprint cannot be told apart by
/// key, so on every schedule each render must yield the bytes of the
/// coloring its own entry holds — never another entry's — and the entry
/// left in the cache keeps only the last coloring's bytes.
#[test]
fn kept_assignment_fill_races_eviction_and_reinsertion() {
    fn coloring(colors: Vec<u32>) -> Arc<Coloring> {
        Arc::new(Coloring {
            scheme: Scheme::Sequential,
            num_colors: colors.len(),
            colors,
            iterations: 1,
            profile: RunProfile::new(),
        })
    }
    // The protocol's body encoding, spelled out so the test does not
    // reach into the crate.
    fn render(colors: &[u32]) -> Vec<u8> {
        let text: Vec<String> = colors.iter().map(u32::to_string).collect();
        text.join(",").into_bytes()
    }
    let (key, other) = (Fingerprint(1), Fingerprint(2));
    loom::model(move || {
        let cache = Arc::new(Mutex::new(ResultCache::new(1)));
        cache.lock().unwrap().insert(key, coloring(vec![1, 2]));
        let c = Arc::clone(&cache);
        let hit = thread::spawn(move || {
            let entry = c.lock().unwrap().get(key);
            entry.map(|e| (Arc::clone(e.coloring()), e.assignment(render)))
        });
        let reinsert_and_render = |colors: Vec<u32>| {
            let fresh = coloring(colors);
            cache.lock().unwrap().insert(key, Arc::clone(&fresh));
            let entry = cache.lock().unwrap().get(key).expect("just inserted");
            assert!(Arc::ptr_eq(entry.coloring(), &fresh));
            assert_eq!(*entry.assignment(render), render(&fresh.colors)[..]);
        };
        // Reinsertion over the live entry, then eviction and reinsertion.
        reinsert_and_render(vec![3, 4, 5]);
        cache.lock().unwrap().insert(other, coloring(vec![9]));
        reinsert_and_render(vec![6, 7]);
        // The hit saw one of the three entries or, between eviction and
        // reinsertion, none; whichever it got, its bytes are that
        // entry's coloring's.
        if let Some((seen, bytes)) = hit.join().unwrap() {
            assert_eq!(*bytes, render(&seen.colors)[..]);
        }
        assert_eq!(cache.lock().unwrap().assignment_bytes(), b"6,7".len());
    });
}

/// Seeded historical-style bug #1 — the drain drop. A worker loop that
/// checks `draining` *before* checking the queue (instead of draining
/// the queue first, as `worker_loop` does) abandons a queued job on the
/// schedule where the drain flag lands between enqueue and dequeue; the
/// waiter then blocks forever and the model checker reports the
/// deadlock. This test asserts the checker catches it.
#[test]
fn seeded_drain_drop_is_caught() {
    let caught = std::panic::catch_unwind(|| {
        loom::model(|| {
            struct Q {
                state: Mutex<(VecDeque<u32>, bool)>, // (queue, draining)
                work: Condvar,
                done: Mutex<Option<u32>>,
                done_cv: Condvar,
            }
            let q = Arc::new(Q {
                state: Mutex::new((VecDeque::new(), false)),
                work: Condvar::new(),
                done: Mutex::new(None),
                done_cv: Condvar::new(),
            });
            let qw = Arc::clone(&q);
            let worker = thread::spawn(move || loop {
                let mut st = qw.state.lock().unwrap();
                // BUG: drain exits even with work still queued. The
                // correct loop drains the queue first and only exits
                // when `empty && draining`.
                if st.1 {
                    return;
                }
                if let Some(job) = st.0.pop_front() {
                    drop(st);
                    *qw.done.lock().unwrap() = Some(job);
                    qw.done_cv.notify_all();
                    continue;
                }
                let _ = qw.work.wait(st);
            });
            {
                let mut st = q.state.lock().unwrap();
                st.0.push_back(42);
            }
            q.work.notify_one();
            {
                let mut st = q.state.lock().unwrap();
                st.1 = true; // begin drain
            }
            q.work.notify_all();
            // The accepted job's waiter: hangs forever on the schedule
            // where the worker saw `draining` before dequeueing.
            let mut done = q.done.lock().unwrap();
            while done.is_none() {
                done = q.done_cv.wait(done).unwrap();
            }
            drop(done);
            worker.join().unwrap();
        });
    });
    let msg = payload_string(caught.expect_err("model must catch the drain drop"));
    assert!(
        msg.contains("deadlock"),
        "expected a deadlock report, got: {msg}"
    );
}

/// Seeded historical-style bug #2 — the double resolve. Two resolvers
/// that *check* a job cell outside the critical section that *sets* it
/// can both observe "unresolved" and both resolve; the model checker
/// finds the schedule where the second overwrites the first. This test
/// asserts the checker catches it.
#[test]
fn seeded_double_resolve_is_caught() {
    let caught = std::panic::catch_unwind(|| {
        loom::model(|| {
            let cell = Arc::new(Mutex::new(None::<u32>));
            let resolutions = Arc::new(Mutex::new(0u32));
            let spawn_resolver = |val: u32| {
                let cell = Arc::clone(&cell);
                let resolutions = Arc::clone(&resolutions);
                thread::spawn(move || {
                    // BUG: check-then-act across two critical sections.
                    // JobCell::resolve holds one lock across both (and
                    // debug-asserts the cell is still empty).
                    let unresolved = cell.lock().unwrap().is_none();
                    if unresolved {
                        *cell.lock().unwrap() = Some(val);
                        *resolutions.lock().unwrap() += 1;
                    }
                })
            };
            let t1 = spawn_resolver(1);
            let t2 = spawn_resolver(2);
            t1.join().unwrap();
            t2.join().unwrap();
            assert_eq!(*resolutions.lock().unwrap(), 1, "job resolved twice");
        });
    });
    let msg = payload_string(caught.expect_err("model must catch the double resolve"));
    assert!(
        msg.contains("job resolved twice"),
        "expected the double-resolve assertion, got: {msg}"
    );
}

fn payload_string(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".into())
}
