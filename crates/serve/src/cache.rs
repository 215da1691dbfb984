//! Fingerprint-keyed LRU result cache.
//!
//! Keys are [`Fingerprint`]s (the 128-bit job fingerprint of
//! `gcol_core::job`), values are [`CachedResult`]s: a shared
//! [`Coloring`] plus, once a cache hit or a coalesced response has
//! asked for it, the rendered body of its `assignment` array. Capacity
//! is an *entry* count, not bytes. An entry costs `4n` bytes of colors
//! and a small profile, plus, once it has been hit, about
//! `(digits + 1)·n` bytes of rendered assignment (digits of the widest
//! color, one comma each). The service bounds `n` via admission
//! control, so an entry cap is an effective (and much simpler) memory
//! bound.
//!
//! The rendered bytes belong to their entry: they are rendered from the
//! entry's own coloring, kept in the entry, and dropped with it on
//! eviction or reinsertion. Nothing keys them by address or by a bare
//! fingerprint, so bytes of one coloring cannot be served for another.
//!
//! The implementation is a `HashMap` with per-entry monotonic use
//! stamps; eviction scans for the minimum stamp. That makes `get`/
//! `insert` O(1) and eviction O(capacity) — deliberate: capacities are
//! service-configured small numbers (hundreds), and an O(1) linked-list
//! LRU is not worth its intrusive bookkeeping at that size.

use crate::sync::{Arc, Mutex};
use gcol_core::{Coloring, Fingerprint};
use std::collections::HashMap;

/// A finished coloring as the cache holds it.
#[derive(Debug)]
pub struct CachedResult {
    coloring: Arc<Coloring>,
    /// The `assignment` body of `coloring`, rendered on first use.
    assignment: Mutex<Option<Arc<[u8]>>>,
}

impl CachedResult {
    /// An entry for `coloring` with nothing rendered yet.
    pub fn new(coloring: Arc<Coloring>) -> Self {
        Self {
            coloring,
            assignment: Mutex::named("cached-assignment", None),
        }
    }

    /// The cached coloring.
    pub fn coloring(&self) -> &Arc<Coloring> {
        &self.coloring
    }

    /// The rendered `assignment` body of this entry's coloring. The
    /// first call renders it with `render` and keeps the bytes; later
    /// calls return them. `render` runs outside every lock: two first
    /// calls that race may both render, and the bytes stored first are
    /// the ones kept.
    pub fn assignment(&self, render: impl FnOnce(&[u32]) -> Vec<u8>) -> Arc<[u8]> {
        if let Some(kept) = self.assignment.lock().unwrap().as_ref() {
            return Arc::clone(kept);
        }
        let rendered: Arc<[u8]> = render(&self.coloring.colors).into();
        Arc::clone(self.assignment.lock().unwrap().get_or_insert(rendered))
    }

    /// Bytes of rendered assignment this entry holds (0 until the first
    /// [`CachedResult::assignment`] call).
    pub fn assignment_bytes(&self) -> usize {
        self.assignment
            .lock()
            .unwrap()
            .as_ref()
            .map_or(0, |b| b.len())
    }
}

/// An LRU map from job fingerprints to finished colorings.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    tick: u64,
    map: HashMap<u128, Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct Entry {
    value: Arc<CachedResult>,
    last_used: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results. Zero disables caching
    /// (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `fp`, refreshing its recency on a hit.
    pub fn get(&mut self, fp: Fingerprint) -> Option<Arc<CachedResult>> {
        self.tick += 1;
        match self.map.get_mut(&fp.0) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(&e.value))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a result, evicting the least-recently-used entry if full,
    /// and returns its new entry. A reinserted fingerprint gets a fresh
    /// entry: the bytes rendered for the one it replaces go with it.
    /// With capacity 0 the entry is returned but not kept.
    pub fn insert(&mut self, fp: Fingerprint, coloring: Arc<Coloring>) -> Arc<CachedResult> {
        let value = Arc::new(CachedResult::new(coloring));
        if self.capacity == 0 {
            return value;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&fp.0) {
            if let Some(&oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(
            fp.0,
            Entry {
                value: Arc::clone(&value),
                last_used: self.tick,
            },
        );
        value
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes of rendered assignment the held entries keep.
    pub fn assignment_bytes(&self) -> usize {
        self.map.values().map(|e| e.value.assignment_bytes()).sum()
    }

    /// Lifetime counters: `(hits, misses, evictions)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_core::{RunProfile, Scheme};

    fn coloring(tag: u32) -> Arc<Coloring> {
        Arc::new(Coloring {
            scheme: Scheme::Sequential,
            colors: vec![tag],
            num_colors: 1,
            iterations: 1,
            profile: RunProfile::new(),
        })
    }

    fn fp(k: u128) -> Fingerprint {
        Fingerprint(k)
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut c = ResultCache::new(2);
        assert!(c.get(fp(1)).is_none());
        c.insert(fp(1), coloring(10));
        assert_eq!(c.get(fp(1)).unwrap().coloring().colors, vec![10]);
        assert_eq!(c.counters(), (1, 1, 0));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert(fp(1), coloring(1));
        c.insert(fp(2), coloring(2));
        c.get(fp(1)); // 2 is now the LRU entry
        c.insert(fp(3), coloring(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(fp(2)).is_none(), "LRU entry should have been evicted");
        assert!(c.get(fp(1)).is_some());
        assert!(c.get(fp(3)).is_some());
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn reinsert_updates_without_evicting() {
        let mut c = ResultCache::new(1);
        c.insert(fp(1), coloring(1));
        c.insert(fp(1), coloring(9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(fp(1)).unwrap().coloring().colors, vec![9]);
        assert_eq!(c.counters().2, 0);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ResultCache::new(0);
        c.insert(fp(1), coloring(1));
        assert!(c.is_empty());
        assert!(c.get(fp(1)).is_none());
    }

    fn render(colors: &[u32]) -> Vec<u8> {
        crate::proto::assignment_body(colors)
    }

    #[test]
    fn an_entry_renders_its_assignment_once() {
        let e = CachedResult::new(coloring(42));
        assert_eq!(e.assignment_bytes(), 0);
        assert_eq!(&*e.assignment(render), b"42");
        let again = e.assignment(|_| unreachable!("kept bytes are reused"));
        assert_eq!(&*again, b"42");
        assert_eq!(e.assignment_bytes(), 2);
    }

    #[test]
    fn eviction_and_reinsertion_drop_the_kept_assignment() {
        let mut c = ResultCache::new(1);
        c.insert(fp(1), coloring(7));
        c.get(fp(1)).unwrap().assignment(render);
        assert_eq!(c.assignment_bytes(), 1);
        // Reinserting the fingerprint starts a fresh entry.
        c.insert(fp(1), coloring(123));
        assert_eq!(c.assignment_bytes(), 0);
        assert_eq!(&*c.get(fp(1)).unwrap().assignment(render), b"123");
        // Evicting it takes the bytes along.
        c.insert(fp(2), coloring(5));
        assert_eq!(c.assignment_bytes(), 0);
        assert_eq!(c.counters().2, 1);
    }

    /// Cold responses render their own assignment and keep nothing, so
    /// a stream where nothing hits holds no rendered bytes.
    #[test]
    fn cold_responses_keep_no_assignment() {
        let input: String = (0..4)
            .map(|seed| {
                format!(
                    "{{\"id\":{seed},\"graph\":{{\"r\":[0,2,6,9,11,14],\
                     \"c\":[1,2,0,2,3,4,0,1,4,1,4,1,2,3]}},\"scheme\":\"T-base\",\
                     \"backend\":\"native\",\"seed\":{seed},\"assignment\":true}}\n"
                )
            })
            .collect();
        let service = crate::Service::start(crate::ServiceConfig::default());
        let unnamed = |name: &str, _: u32, _: u64| Err(format!("no graph {name}"));
        let stats =
            crate::serve_lines(service, input.as_bytes(), std::io::sink(), &unnamed).unwrap();
        assert_eq!(
            (stats.executions, stats.cache_hits, stats.coalesced),
            (4, 0, 0)
        );
        assert_eq!(stats.cache_entries, 4);
        assert_eq!(stats.cache_assignment_bytes, 0);
    }
}
