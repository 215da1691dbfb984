//! The shared speculate/detect driver every GPU scheme runs on.
//!
//! Before this existed, each scheme driver re-implemented the same loop
//! against the simulator directly: upload the CSR arrays, allocate the
//! color buffers, charge the h2d copy, run speculate/detect passes until a
//! flag or worklist says done (panicking past `max_iterations`), read the
//! colors back. [`SpecGreedyDriver`] hoists all of that — parameterized
//! over the execution [`Backend`], so the same scheme code runs under the
//! paper-faithful timing simulator or the native rayon path — and turns
//! the convergence panic into a typed [`ColorError`].

use super::GpuGraph;
use crate::{ColorError, ColorOptions, Coloring, Scheme};
use gcol_graph::Csr;
use gcol_simt::mem::Buffer;
use gcol_simt::{grid_for, Backend, CoopKernel, GpuMem, Kernel, RunProfile};

/// Shared state and plumbing for one GPU-scheme run on one backend.
pub struct SpecGreedyDriver<'b, B: Backend> {
    backend: &'b B,
    /// Device memory (graph + scheme buffers).
    pub mem: GpuMem,
    /// The uploaded CSR graph.
    pub gg: GpuGraph,
    /// The run's timeline, filled by launches and transfers.
    pub profile: RunProfile,
    scheme: Scheme,
    block_size: u32,
    max_iterations: usize,
    charge_h2d: bool,
}

impl<'b, B: Backend> SpecGreedyDriver<'b, B> {
    /// Uploads `g` and prepares an empty profile for `scheme`. The arena
    /// tracks initialization of uninitialized buffers only if the backend
    /// reads that shadow (the sanitizer).
    pub fn new(backend: &'b B, scheme: Scheme, g: &Csr, opts: &ColorOptions) -> Self {
        let mut mem = GpuMem::with_init_shadow(backend.reads_init_shadow());
        let gg = GpuGraph::upload(&mut mem, g);
        Self {
            backend,
            mem,
            gg,
            profile: RunProfile::new(),
            scheme,
            block_size: opts.block_size,
            max_iterations: opts.max_iterations,
            charge_h2d: opts.charge_h2d,
        }
    }

    /// Allocates a zeroed per-vertex buffer (at least one element, so
    /// empty graphs need no special-casing in kernels).
    pub fn alloc_vertex_buf(&mut self) -> Buffer<u32> {
        let n = self.gg.n.max(1);
        self.mem.alloc(n)
    }

    /// Allocates an *uninitialized* per-vertex buffer (a bare
    /// `cudaMalloc`): functionally zeroed like
    /// [`SpecGreedyDriver::alloc_vertex_buf`], but the sanitizer backend
    /// flags any read of a word no kernel or host write has touched.
    /// Other backends get a plain zeroed buffer and no shadow.
    /// Used for the worklists every entry of which is written before
    /// being read.
    pub fn alloc_vertex_buf_uninit(&mut self) -> Buffer<u32> {
        let n = self.gg.n.max(1);
        self.mem.alloc_uninit(n)
    }

    /// Allocates a single-word flag/counter buffer.
    pub fn alloc_flag(&mut self) -> Buffer<u32> {
        self.mem.alloc(1)
    }

    /// Names a buffer for sanitizer reports (no effect on execution or
    /// timing).
    pub fn label(&mut self, buf: Buffer<u32>, name: &str) {
        self.mem.set_label(buf, name);
    }

    /// Bytes of the initial upload: the CSR arrays plus the listed staged
    /// buffers, computed from the actual allocations so every scheme's
    /// transfer charge is self-describing.
    pub fn upload_bytes(&self, staged: &[Buffer<u32>]) -> usize {
        self.gg.bytes() + staged.iter().map(|b| b.len() * 4).sum::<usize>()
    }

    /// Charges the initial host-to-device copy (graph + `staged` buffers)
    /// if the options ask for it. The paper times computation only, so
    /// `ColorOptions::charge_h2d` defaults to off.
    pub fn charge_upload(&mut self, label: &'static str, staged: &[Buffer<u32>]) {
        if self.charge_h2d {
            let bytes = self.upload_bytes(staged);
            self.transfer(label, bytes);
        }
    }

    /// Charges a host↔device transfer unconditionally (free on backends
    /// without a modeled interconnect).
    pub fn transfer(&mut self, label: &'static str, bytes: usize) {
        self.backend.transfer(label, bytes, &mut self.profile);
    }

    /// Launches `kernel` with one thread per element (`n` elements at the
    /// configured block size).
    pub fn launch<K: Kernel>(&mut self, n: usize, kernel: &K) {
        let grid = grid_for(n, self.block_size);
        self.backend
            .launch(&self.mem, grid, self.block_size, kernel, &mut self.profile);
    }

    /// Launches a cooperative kernel with one thread per element; returns
    /// the total number of emitted items.
    pub fn launch_coop<K: CoopKernel>(&mut self, n: usize, kernel: &K) -> u32 {
        let grid = grid_for(n, self.block_size);
        self.backend
            .launch_coop(&self.mem, grid, self.block_size, kernel, &mut self.profile)
    }

    /// Reads a 4-byte flag/counter back to the host, charging the PCIe
    /// round trip the real implementation pays for its `cudaMemcpy`.
    pub fn read_flag(&mut self, label: &'static str, flag: Buffer<u32>) -> u32 {
        self.transfer(label, 4);
        self.mem.load(flag, 0)
    }

    /// The host-side convergence loop: runs `body` with pass numbers
    /// `1, 2, …` until it reports no further pass is needed, then returns
    /// the number of passes executed. Exceeding
    /// [`ColorOptions::max_iterations`] yields
    /// [`ColorError::MaxIterations`] instead of the old `assert!` panic.
    pub fn run_passes(
        &mut self,
        mut body: impl FnMut(&mut Self, u32) -> bool,
    ) -> Result<usize, ColorError> {
        let mut pass = 0u32;
        loop {
            pass += 1;
            if pass as usize > self.max_iterations {
                return Err(ColorError::MaxIterations {
                    scheme: self.scheme,
                    limit: self.max_iterations,
                });
            }
            if !body(self, pass) {
                return Ok(pass as usize);
            }
        }
    }

    /// Copies the color array back to the host (empty for empty graphs —
    /// the buffer itself is padded to one element).
    pub fn read_colors(&self, color: Buffer<u32>) -> Vec<u32> {
        if self.gg.n == 0 {
            Vec::new()
        } else {
            self.mem.read_vec(color)
        }
    }

    /// Extracts the colors and packages the run's [`Coloring`]. Colors are
    /// assumed dense (first-fit), so the count is their maximum.
    pub fn finish(self, color: Buffer<u32>, iterations: usize) -> Coloring {
        let colors = self.read_colors(color);
        let num_colors = colors.iter().copied().max().unwrap_or(0) as usize;
        Coloring {
            scheme: self.scheme,
            colors,
            num_colors,
            iterations,
            profile: self.profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_graph::gen::simple::{cycle, erdos_renyi};
    use gcol_simt::{
        Device, ExecMode, FindingKind, KernelCtx, NativeBackend, SanitizeBackend, SimtBackend,
    };
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn driver<'b>(
        backend: &'b SimtBackend<'_>,
        g: &Csr,
        opts: &ColorOptions,
    ) -> SpecGreedyDriver<'b, SimtBackend<'b>> {
        // Lifetimes: the device outlives the backend which outlives the
        // driver; the test only needs them within one scope.
        SpecGreedyDriver::new(backend, Scheme::TopoBase, g, opts)
    }

    #[test]
    fn max_iterations_yields_typed_error() {
        let dev = Device::tiny();
        let backend = SimtBackend::new(&dev, ExecMode::Deterministic);
        let opts = ColorOptions {
            max_iterations: 3,
            ..ColorOptions::default()
        };
        let g = cycle(10);
        let mut d = driver(&backend, &g, &opts);
        let err = d.run_passes(|_, _| true).unwrap_err();
        assert_eq!(
            err,
            ColorError::MaxIterations {
                scheme: Scheme::TopoBase,
                limit: 3
            }
        );
        assert!(err.to_string().contains("did not converge"));
    }

    #[test]
    fn upload_bytes_are_self_describing() {
        let dev = Device::tiny();
        let backend = SimtBackend::new(&dev, ExecMode::Deterministic);
        let opts = ColorOptions {
            charge_h2d: true,
            ..ColorOptions::default()
        };
        let g = cycle(10);
        let mut d = driver(&backend, &g, &opts);
        let color = d.alloc_vertex_buf();
        let colored = d.alloc_vertex_buf();
        // R has n+1 entries, C has 2n (cycle), plus two n-word buffers.
        assert_eq!(d.upload_bytes(&[color, colored]), (11 + 20 + 10 + 10) * 4);
        d.charge_upload("graph h2d", &[color, colored]);
        assert!(d.profile.transfer_ms() > 0.0);
    }

    #[test]
    fn pass_count_is_returned() {
        let dev = Device::tiny();
        let backend = SimtBackend::new(&dev, ExecMode::Deterministic);
        let opts = ColorOptions::default();
        let g = cycle(6);
        let mut d = driver(&backend, &g, &opts);
        let mut left = 4;
        let iters = d
            .run_passes(|_, _| {
                left -= 1;
                left > 0
            })
            .unwrap();
        assert_eq!(iters, 4);
    }

    /// Forwards everything to `inner`, noting whether any launch ran on
    /// an arena that carries the initialized-word shadow.
    struct ShadowProbe<B> {
        inner: B,
        launches: AtomicUsize,
        saw_shadow: AtomicBool,
    }

    impl<B: Backend> ShadowProbe<B> {
        fn new(inner: B) -> Self {
            Self {
                inner,
                launches: AtomicUsize::new(0),
                saw_shadow: AtomicBool::new(false),
            }
        }

        fn observe(&self, mem: &GpuMem) {
            self.launches.fetch_add(1, Ordering::Relaxed);
            self.saw_shadow
                .fetch_or(mem.tracks_init(), Ordering::Relaxed);
        }
    }

    impl<B: Backend> Backend for ShadowProbe<B> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn launch<K: Kernel>(
            &self,
            mem: &GpuMem,
            grid: u32,
            block_threads: u32,
            kernel: &K,
            profile: &mut RunProfile,
        ) {
            self.observe(mem);
            self.inner.launch(mem, grid, block_threads, kernel, profile);
        }

        fn launch_coop<K: CoopKernel>(
            &self,
            mem: &GpuMem,
            grid: u32,
            block_threads: u32,
            kernel: &K,
            profile: &mut RunProfile,
        ) -> u32 {
            self.observe(mem);
            self.inner
                .launch_coop(mem, grid, block_threads, kernel, profile)
        }

        fn transfer(&self, label: &'static str, bytes: usize, profile: &mut RunProfile) {
            self.inner.transfer(label, bytes, profile);
        }

        fn transfer_cost_ms(&self, bytes: usize) -> Option<f64> {
            self.inner.transfer_cost_ms(bytes)
        }

        fn reads_init_shadow(&self) -> bool {
            self.inner.reads_init_shadow()
        }
    }

    /// Whether any launch of a D-base run on `backend` saw the shadow.
    fn d_base_saw_shadow<B: Backend>(backend: B) -> bool {
        let probe = ShadowProbe::new(backend);
        let g = erdos_renyi(300, 1500, 3);
        Scheme::DataBase
            .try_color_on(&probe, &g, &ColorOptions::default())
            .expect("D-base converges");
        assert!(probe.launches.load(Ordering::Relaxed) > 0);
        probe.saw_shadow.load(Ordering::Relaxed)
    }

    #[test]
    fn only_the_sanitizer_gets_an_init_shadow() {
        // D-base allocates its worklists with `alloc_uninit`, the call
        // that builds the shadow on an arena that tracks initialization.
        let dev = Device::tiny();
        assert!(!d_base_saw_shadow(NativeBackend::new()));
        assert!(!d_base_saw_shadow(SimtBackend::new(
            &dev,
            ExecMode::Deterministic
        )));
        assert!(d_base_saw_shadow(SanitizeBackend::new(SimtBackend::new(
            &dev,
            ExecMode::Deterministic
        ))));
    }

    /// One thread loads word `word` of `buf`.
    struct ReadWord {
        buf: Buffer<u32>,
        word: usize,
    }

    impl Kernel for ReadWord {
        fn name(&self) -> &'static str {
            "read-word"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            if t.global_id() == 0 {
                let _ = t.ld(self.buf, self.word);
            }
        }
    }

    #[test]
    fn sanitizer_reports_read_before_init_through_the_driver() {
        let dev = Device::tiny();
        let backend = SanitizeBackend::new(SimtBackend::new(&dev, ExecMode::Deterministic));
        let opts = ColorOptions::default();
        let g = cycle(10);
        let mut d = SpecGreedyDriver::new(&backend, Scheme::DataBase, &g, &opts);
        let w = d.alloc_vertex_buf_uninit();
        d.label(w, "worklist");
        d.mem.write_slice(w, &[4, 5, 6]); // h2d seeds words 0..3
        assert!(d.mem.tracks_init());
        d.launch(1, &ReadWord { buf: w, word: 2 });
        assert!(backend.take_report().findings.is_empty());
        d.launch(1, &ReadWord { buf: w, word: 7 });
        let report = backend.take_report();
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::UninitRead)
            .expect("read-before-init is reported");
        assert_eq!((f.buffer.as_str(), f.word), ("worklist", 7));
    }
}
