//! Simulated device global memory.
//!
//! One flat arena of 32-bit words backed by `AtomicU32`. Plain loads and
//! stores are relaxed atomic word operations and `atomic_*` map to RMW
//! fetch-ops, so the *speculative races* of the GM scheme (two adjacent
//! vertices colored concurrently by different blocks) happen for real, with
//! GPU-like word-tearing-free semantics, while the code stays 100% safe
//! Rust.
//!
//! Buffers carry their base *word address*, so the timing model sees
//! realistic addresses for coalescing and cache indexing (byte address =
//! 4 × word address).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};

/// A 32-bit plain-old-data type that can live in device memory.
pub trait Word: Copy + 'static {
    /// Bit-cast to a raw word.
    fn to_bits(self) -> u32;
    /// Bit-cast from a raw word.
    fn from_bits(bits: u32) -> Self;
}

impl Word for u32 {
    fn to_bits(self) -> u32 {
        self
    }
    fn from_bits(bits: u32) -> Self {
        bits
    }
}

impl Word for i32 {
    fn to_bits(self) -> u32 {
        self as u32
    }
    fn from_bits(bits: u32) -> Self {
        bits as i32
    }
}

impl Word for f32 {
    fn to_bits(self) -> u32 {
        self.to_bits()
    }
    fn from_bits(bits: u32) -> Self {
        f32::from_bits(bits)
    }
}

/// A typed handle to a device allocation: base word address + length.
/// Copyable, like a raw device pointer, and only meaningful together with
/// the `GpuMem` it was allocated from.
pub struct Buffer<T: Word> {
    base: usize,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Word> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Word> Copy for Buffer<T> {}

impl<T: Word> std::fmt::Debug for Buffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Buffer {{ base: {}, len: {} }}", self.base, self.len)
    }
}

impl<T: Word> Buffer<T> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Word address of element `i` (also its cache/coalescing address unit).
    #[inline]
    pub fn addr(&self, i: usize) -> u32 {
        debug_assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        (self.base + i) as u32
    }

    /// Base word address of the allocation: element 0's [`Buffer::addr`]
    /// without the bounds assertion, so shadow tooling (the sanitizer)
    /// can resolve raw addresses and candidate indices against the
    /// allocation without tripping the debug bounds check.
    #[inline]
    pub fn base_addr(&self) -> u32 {
        self.base as u32
    }
}

/// Metadata for one arena allocation. `GpuMem` records every allocation
/// (cold path, `&mut self`) so analysis layers — the sanitizer's race and
/// bounds findings — can resolve a raw word address back to a buffer and
/// a human-readable name.
#[derive(Debug, Clone)]
pub struct AllocInfo {
    /// Base word address of the allocation.
    pub base: usize,
    /// Length in words.
    pub len: usize,
    /// Name for reports; `"alloc#k"` until [`GpuMem::set_label`] renames
    /// it.
    pub label: String,
}

/// Device global memory: a growable arena of words. Allocation requires
/// `&mut self` (between kernels); kernels access it through `&self` with
/// atomic word operations.
pub struct GpuMem {
    words: Vec<AtomicU32>,
    allocs: Vec<AllocInfo>,
    /// Whether [`GpuMem::alloc_uninit`] builds the shadow map below.
    /// Fixed at construction: on for [`GpuMem::new`], and on in a scheme
    /// driver only when its backend reads the map (the sanitizer).
    init_shadow: bool,
    /// Shadow initialized-word map, one flag word per arena word. `None`
    /// until the first [`GpuMem::alloc_uninit`] of an arena built with
    /// the shadow on, and always `None` otherwise — the common case: the
    /// native and simt runs of every scheme — so those runs pay only a
    /// never-taken branch per store. Created lazily with every
    /// pre-existing word marked initialized.
    init: Option<Vec<AtomicU32>>,
}

impl Default for GpuMem {
    fn default() -> Self {
        Self::new()
    }
}

/// Alignment (in words) of every allocation: 256 bytes like `cudaMalloc`,
/// so distinct buffers never share a cache line.
const ALLOC_ALIGN_WORDS: usize = 64;

impl GpuMem {
    /// An empty device memory that tracks initialization of
    /// [`GpuMem::alloc_uninit`] buffers.
    pub fn new() -> Self {
        Self::with_init_shadow(true)
    }

    /// An empty device memory whose [`GpuMem::alloc_uninit`] builds the
    /// initialized-word shadow only if `init_shadow` is set; otherwise it
    /// is a plain [`GpuMem::alloc`]. Only a backend that reads the shadow
    /// (see [`crate::Backend::reads_init_shadow`]) needs it.
    pub fn with_init_shadow(init_shadow: bool) -> Self {
        Self {
            words: Vec::new(),
            allocs: Vec::new(),
            init_shadow,
            init: None,
        }
    }

    /// Whether the initialized-word shadow map exists, i.e. whether
    /// stores pay for tracking it.
    pub fn tracks_init(&self) -> bool {
        self.init.is_some()
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> usize {
        self.words.len() * 4
    }

    fn alloc_words(&mut self, len: usize) -> usize {
        let base = self.words.len().next_multiple_of(ALLOC_ALIGN_WORDS);
        self.words.resize_with(base + len, || AtomicU32::new(0));
        // Padding and fresh words default to "initialized"; alloc_uninit
        // clears its own range afterwards.
        if let Some(map) = &mut self.init {
            map.resize_with(base + len, || AtomicU32::new(1));
        }
        self.allocs.push(AllocInfo {
            base,
            len,
            label: format!("alloc#{}", self.allocs.len()),
        });
        base
    }

    /// Allocates a zero-initialized buffer of `len` elements (models
    /// `cudaMalloc` + `cudaMemset(0)`: the sanitizer treats every word as
    /// initialized).
    pub fn alloc<T: Word>(&mut self, len: usize) -> Buffer<T> {
        let base = self.alloc_words(len);
        Buffer {
            base,
            len,
            _marker: PhantomData,
        }
    }

    /// Allocates a buffer whose words count as *uninitialized* for the
    /// sanitizer's shadow state (a bare `cudaMalloc`): a read of any word
    /// that no host write or kernel store has touched yet is reported as a
    /// read-before-init finding by [`crate::sanitize::SanitizeBackend`].
    /// Functionally the words still read as zero, so default (unsanitized)
    /// runs behave exactly like [`GpuMem::alloc`] — and on an arena built
    /// without the shadow it *is* [`GpuMem::alloc`].
    pub fn alloc_uninit<T: Word>(&mut self, len: usize) -> Buffer<T> {
        if !self.init_shadow {
            return self.alloc(len);
        }
        if self.init.is_none() {
            // First uninitialized allocation: materialize the shadow map
            // with everything allocated so far marked initialized.
            let map = (0..self.words.len()).map(|_| AtomicU32::new(1)).collect();
            self.init = Some(map);
        }
        let buf = self.alloc::<T>(len);
        let map = self.init.as_ref().expect("init map just created");
        for w in &map[buf.base..buf.base + len] {
            w.store(0, Ordering::Relaxed);
        }
        buf
    }

    /// Renames the allocation backing `buf` for sanitizer reports (e.g.
    /// `"color"`, `"worklist-a"`). No effect on execution or timing.
    pub fn set_label<T: Word>(&mut self, buf: Buffer<T>, label: &str) {
        if let Some(a) = self.allocs.iter_mut().find(|a| a.base == buf.base) {
            a.label = label.to_string();
        }
    }

    /// Resolves a raw word address to the allocation containing it, if
    /// any (addresses in alignment padding belong to no allocation).
    pub fn alloc_info(&self, word_addr: usize) -> Option<&AllocInfo> {
        // Allocations are recorded in increasing base order.
        let idx = self.allocs.partition_point(|a| a.base <= word_addr);
        let a = self.allocs.get(idx.checked_sub(1)?)?;
        (word_addr < a.base + a.len).then_some(a)
    }

    /// Whether a word has been written since allocation. Always `true`
    /// when no shadow map exists (no [`GpuMem::alloc_uninit`] buffer, or
    /// an arena built without the shadow).
    pub fn word_init(&self, word_addr: usize) -> bool {
        match &self.init {
            None => true,
            Some(map) => map
                .get(word_addr)
                .is_none_or(|w| w.load(Ordering::Relaxed) != 0),
        }
    }

    /// Marks a word initialized in the shadow map, if one exists. Called
    /// on every store path; a predictable never-taken branch when no
    /// shadow map exists.
    #[inline]
    fn mark_init(&self, word_addr: usize) {
        if let Some(map) = &self.init {
            map[word_addr].store(1, Ordering::Relaxed);
        }
    }

    /// Allocates a buffer filled with `value`.
    pub fn alloc_filled<T: Word>(&mut self, len: usize, value: T) -> Buffer<T> {
        let buf = self.alloc(len);
        for i in 0..len {
            self.store(buf, i, value);
        }
        buf
    }

    /// Allocates a buffer holding a copy of `data` (host-to-device copy;
    /// the *timing* of the transfer is charged separately via
    /// [`crate::xfer`]). The words are constructed from `data` directly
    /// rather than zero-filled and overwritten — graph uploads are the
    /// largest allocations every run makes, and this is their hot path.
    pub fn alloc_from_slice<T: Word>(&mut self, data: &[T]) -> Buffer<T> {
        let base = self.words.len().next_multiple_of(ALLOC_ALIGN_WORDS);
        self.words.resize_with(base, || AtomicU32::new(0));
        self.words
            .extend(data.iter().map(|&v| AtomicU32::new(v.to_bits())));
        if let Some(map) = &mut self.init {
            map.resize_with(base + data.len(), || AtomicU32::new(1));
        }
        self.allocs.push(AllocInfo {
            base,
            len: data.len(),
            label: format!("alloc#{}", self.allocs.len()),
        });
        Buffer {
            base,
            len: data.len(),
            _marker: PhantomData,
        }
    }

    /// Relaxed store to a raw word address (used by the executor to flush
    /// warp-deferred stores).
    #[inline]
    pub(crate) fn store_raw(&self, word_addr: usize, bits: u32) {
        self.mark_init(word_addr);
        self.words[word_addr].store(bits, Ordering::Relaxed);
    }

    /// Relaxed word load.
    #[inline]
    pub fn load<T: Word>(&self, buf: Buffer<T>, i: usize) -> T {
        debug_assert!(i < buf.len, "load out of bounds: {i} >= {}", buf.len);
        T::from_bits(self.words[buf.base + i].load(Ordering::Relaxed))
    }

    /// Relaxed word store.
    #[inline]
    pub fn store<T: Word>(&self, buf: Buffer<T>, i: usize, v: T) {
        debug_assert!(i < buf.len, "store out of bounds: {i} >= {}", buf.len);
        self.mark_init(buf.base + i);
        self.words[buf.base + i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// `atomicAdd` returning the old value.
    #[inline]
    pub fn fetch_add(&self, buf: Buffer<u32>, i: usize, v: u32) -> u32 {
        debug_assert!(i < buf.len);
        self.mark_init(buf.base + i);
        self.words[buf.base + i].fetch_add(v, Ordering::Relaxed)
    }

    /// `atomicMax` returning the old value.
    #[inline]
    pub fn fetch_max(&self, buf: Buffer<u32>, i: usize, v: u32) -> u32 {
        debug_assert!(i < buf.len);
        self.mark_init(buf.base + i);
        self.words[buf.base + i].fetch_max(v, Ordering::Relaxed)
    }

    /// `atomicMin` returning the old value.
    #[inline]
    pub fn fetch_min(&self, buf: Buffer<u32>, i: usize, v: u32) -> u32 {
        debug_assert!(i < buf.len);
        self.mark_init(buf.base + i);
        self.words[buf.base + i].fetch_min(v, Ordering::Relaxed)
    }

    /// `atomicCAS` returning the old value.
    #[inline]
    pub fn compare_exchange(&self, buf: Buffer<u32>, i: usize, expected: u32, new: u32) -> u32 {
        debug_assert!(i < buf.len);
        // Marked regardless of CAS success: a failed CAS still proves the
        // thread brought the word into a register, so "init" is the
        // conservative shadow state.
        self.mark_init(buf.base + i);
        match self.words[buf.base + i].compare_exchange(
            expected,
            new,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(old) | Err(old) => old,
        }
    }

    /// Copies a buffer's contents back to the host.
    pub fn read_vec<T: Word>(&self, buf: Buffer<T>) -> Vec<T> {
        (0..buf.len).map(|i| self.load(buf, i)).collect()
    }

    /// Overwrites a buffer from a host slice (device-to-device reuse).
    pub fn write_slice<T: Word>(&self, buf: Buffer<T>, data: &[T]) {
        assert!(data.len() <= buf.len, "write_slice larger than buffer");
        for (i, &v) in data.iter().enumerate() {
            self.store(buf, i, v);
        }
    }

    /// Fills a buffer with a value (like `cudaMemset`).
    pub fn fill<T: Word>(&self, buf: Buffer<T>, value: T) {
        for i in 0..buf.len {
            self.store(buf, i, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u32_i32_f32() {
        let mut mem = GpuMem::new();
        let a = mem.alloc_from_slice(&[1u32, 2, 3]);
        let b = mem.alloc_from_slice(&[-1i32, 7]);
        let c = mem.alloc_from_slice(&[1.5f32, -0.25]);
        assert_eq!(mem.read_vec(a), vec![1, 2, 3]);
        assert_eq!(mem.read_vec(b), vec![-1, 7]);
        assert_eq!(mem.read_vec(c), vec![1.5, -0.25]);
    }

    #[test]
    fn buffers_do_not_alias() {
        let mut mem = GpuMem::new();
        let a = mem.alloc::<u32>(10);
        let b = mem.alloc::<u32>(10);
        mem.fill(a, 7);
        mem.fill(b, 9);
        assert!(mem.read_vec(a).iter().all(|&x| x == 7));
        assert!(mem.read_vec(b).iter().all(|&x| x == 9));
    }

    #[test]
    fn alignment_is_256_bytes() {
        let mut mem = GpuMem::new();
        let a = mem.alloc::<u32>(3);
        let b = mem.alloc::<u32>(3);
        assert_eq!(a.addr(0) % 64, 0);
        assert_eq!(b.addr(0) % 64, 0);
        assert!(b.addr(0) >= a.addr(0) + 64);
    }

    #[test]
    fn atomics_work() {
        let mut mem = GpuMem::new();
        let a = mem.alloc::<u32>(1);
        assert_eq!(mem.fetch_add(a, 0, 5), 0);
        assert_eq!(mem.fetch_add(a, 0, 5), 5);
        assert_eq!(mem.fetch_max(a, 0, 3), 10);
        assert_eq!(mem.load(a, 0), 10);
        assert_eq!(mem.fetch_min(a, 0, 2), 10);
        assert_eq!(mem.load(a, 0), 2);
        assert_eq!(mem.compare_exchange(a, 0, 2, 99), 2);
        assert_eq!(mem.load(a, 0), 99);
        assert_eq!(mem.compare_exchange(a, 0, 2, 55), 99);
        assert_eq!(mem.load(a, 0), 99);
    }

    #[test]
    fn alloc_filled() {
        let mut mem = GpuMem::new();
        let a = mem.alloc_filled(4, 0xDEAD_BEEFu32);
        assert_eq!(mem.read_vec(a), vec![0xDEAD_BEEF; 4]);
    }

    #[test]
    fn concurrent_fetch_add_is_exact() {
        use rayon::prelude::*;
        let mut mem = GpuMem::new();
        let a = mem.alloc::<u32>(1);
        (0..10_000).into_par_iter().for_each(|_| {
            mem.fetch_add(a, 0, 1);
        });
        assert_eq!(mem.load(a, 0), 10_000);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_bounds_load_panics_in_debug() {
        let mut mem = GpuMem::new();
        let a = mem.alloc::<u32>(2);
        mem.load(a, 2);
    }

    #[test]
    fn alloc_info_resolves_addresses_and_labels() {
        let mut mem = GpuMem::new();
        let a = mem.alloc::<u32>(3);
        let b = mem.alloc::<u32>(5);
        mem.set_label(b, "color");
        let ia = mem.alloc_info(a.addr(2) as usize).expect("a resolves");
        assert_eq!((ia.base, ia.len, ia.label.as_str()), (0, 3, "alloc#0"));
        let ib = mem.alloc_info(b.addr(0) as usize).expect("b resolves");
        assert_eq!(ib.label, "color");
        assert_eq!(ib.base, b.base_addr() as usize);
        // Alignment padding between the two belongs to no allocation.
        assert!(mem.alloc_info(3).is_none());
        assert!(mem.alloc_info(b.base_addr() as usize + 5).is_none());
    }

    #[test]
    fn init_map_tracks_stores_lazily() {
        let mut mem = GpuMem::new();
        let a = mem.alloc::<u32>(2);
        // No alloc_uninit yet: everything reads as initialized.
        assert!(mem.word_init(a.addr(0) as usize));
        assert!(!mem.tracks_init());
        let b = mem.alloc_uninit::<u32>(4);
        assert!(mem.tracks_init());
        // Pre-existing words stay initialized; b's words start clear.
        assert!(mem.word_init(a.addr(1) as usize));
        assert!(!mem.word_init(b.addr(0) as usize));
        mem.store(b, 0, 7u32);
        assert!(mem.word_init(b.addr(0) as usize));
        assert!(!mem.word_init(b.addr(3) as usize));
        mem.fetch_add(b, 3, 1);
        assert!(mem.word_init(b.addr(3) as usize));
        // Functionally an uninit buffer still reads as zero.
        assert_eq!(mem.load(b, 1), 0u32);
        // A later zeroed alloc is fully initialized even with a live map.
        let c = mem.alloc::<u32>(3);
        assert!(mem.word_init(c.addr(2) as usize));
    }

    #[test]
    fn arena_without_shadow_never_builds_the_map() {
        let mut mem = GpuMem::with_init_shadow(false);
        let a = mem.alloc_uninit::<u32>(4);
        assert!(!mem.tracks_init());
        // Every word reads as zero and counts as initialized.
        assert_eq!(mem.read_vec(a), vec![0; 4]);
        assert!(mem.word_init(a.addr(3) as usize));
        mem.store(a, 1, 5u32);
        assert!(!mem.tracks_init());
        // Same layout as a shadowed arena: the gate changes no address.
        let mut shadowed = GpuMem::new();
        let b = shadowed.alloc_uninit::<u32>(4);
        assert!(shadowed.tracks_init());
        assert_eq!(a.base_addr(), b.base_addr());
    }

    #[test]
    fn write_slice_and_fill_mark_init() {
        let mut mem = GpuMem::new();
        let a = mem.alloc_uninit::<u32>(4);
        mem.write_slice(a, &[1, 2]);
        assert!(mem.word_init(a.addr(1) as usize));
        assert!(!mem.word_init(a.addr(2) as usize));
        mem.fill(a, 9);
        assert!(mem.word_init(a.addr(3) as usize));
    }
}
