//! Execution backends: one kernel source, two ways to run it.
//!
//! A [`Backend`] owns the three things a scheme driver needs from the
//! execution layer: launching [`Kernel`]s, launching [`CoopKernel`]s, and
//! charging PCIe transfers into the run's [`RunProfile`]. Two
//! implementations:
//!
//! * [`SimtBackend`] — the paper-faithful path: the tracing simulator with
//!   its analytic timing model. Deterministic mode is bit-stable.
//! * [`NativeBackend`] — the production path: the same kernels over rayon
//!   at host speed. Kernel phases record *wall-clock* time as
//!   [`crate::profile::Phase::Host`] entries; transfers are free (there is
//!   no PCIe on the host path).

use crate::config::Device;
use crate::exec::{launch, launch_coop, ExecMode};
use crate::kernel::{CoopKernel, Kernel};
use crate::mem::GpuMem;
use crate::native::{launch_coop_native, launch_native};
use crate::profile::RunProfile;
use crate::xfer;

/// The execution surface scheme drivers are written against.
pub trait Backend: Sync {
    /// Short backend name ("simt" / "native") for reports and CLIs.
    fn name(&self) -> &'static str;

    /// Launches `kernel` over `grid` blocks of `block_threads` threads,
    /// recording its cost (modeled or wall-clock) into `profile`.
    fn launch<K: Kernel>(
        &self,
        mem: &GpuMem,
        grid: u32,
        block_threads: u32,
        kernel: &K,
        profile: &mut RunProfile,
    );

    /// Launches a cooperative kernel (count → block scan → emit); returns
    /// the total number of emitted items.
    fn launch_coop<K: CoopKernel>(
        &self,
        mem: &GpuMem,
        grid: u32,
        block_threads: u32,
        kernel: &K,
        profile: &mut RunProfile,
    ) -> u32;

    /// Charges a host↔device transfer of `bytes` into `profile`. A no-op
    /// on backends without a modeled interconnect.
    fn transfer(&self, label: &'static str, bytes: usize, profile: &mut RunProfile);

    /// The modeled cost of moving `bytes` over this device's interconnect,
    /// without recording anything — `None` when the backend has no modeled
    /// interconnect (the native path). Callers that overlap copies with
    /// compute (see [`CopyStream`]) price transfers through this hook and
    /// record only the non-overlapped tail themselves.
    fn transfer_cost_ms(&self, _bytes: usize) -> Option<f64> {
        None
    }

    /// Whether launches read the arena's initialized-word shadow (see
    /// [`GpuMem::alloc_uninit`]). Scheme drivers build their [`GpuMem`]
    /// with the shadow only when this holds, so backends that never look
    /// at it pay nothing for it. Only the sanitizer reads it.
    fn reads_init_shadow(&self) -> bool {
        false
    }
}

/// One device's asynchronous copy stream, for overlapping transfers with
/// compute in modeled time.
///
/// Real multi-GPU code issues `cudaMemcpyPeerAsync` on a copy stream and
/// keeps compute running on the default stream; the copy costs wall-clock
/// time only where it outlasts the compute it hides behind. This models
/// exactly that, in the simulator's virtual-time world: [`CopyStream::issue`]
/// starts a copy once its producer data is ready *and* the previous copy on
/// the stream has drained (one link, copies serialize), and returns the
/// landing time. The caller compares the landing time against the consuming
/// device's compute clock and charges only `max(0, landed - clock)` — the
/// non-overlapped tail — against the critical path.
#[derive(Debug, Clone, Copy, Default)]
pub struct CopyStream {
    /// Virtual time at which the last issued copy finishes landing.
    drained_ms: f64,
}

impl CopyStream {
    /// A fresh stream with no in-flight copies.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues a copy whose source data becomes available at `ready_ms`
    /// and which occupies the link for `cost_ms`; returns the virtual
    /// time at which the copy has fully landed on the destination.
    pub fn issue(&mut self, ready_ms: f64, cost_ms: f64) -> f64 {
        let start = ready_ms.max(self.drained_ms);
        self.drained_ms = start + cost_ms;
        self.drained_ms
    }

    /// Virtual time at which every issued copy has landed.
    pub fn drained_ms(&self) -> f64 {
        self.drained_ms
    }
}

/// The tracing simulator as a backend (the paper-faithful path).
#[derive(Debug, Clone, Copy)]
pub struct SimtBackend<'d> {
    /// The simulated device (timing model parameters).
    pub dev: &'d Device,
    /// Host-thread mapping of the simulation.
    pub mode: ExecMode,
}

impl<'d> SimtBackend<'d> {
    /// A backend simulating `dev` under `mode`.
    pub fn new(dev: &'d Device, mode: ExecMode) -> Self {
        Self { dev, mode }
    }
}

impl Backend for SimtBackend<'_> {
    fn name(&self) -> &'static str {
        "simt"
    }

    fn launch<K: Kernel>(
        &self,
        mem: &GpuMem,
        grid: u32,
        block_threads: u32,
        kernel: &K,
        profile: &mut RunProfile,
    ) {
        profile.kernel(launch(
            mem,
            self.dev,
            self.mode,
            grid,
            block_threads,
            kernel,
        ));
    }

    fn launch_coop<K: CoopKernel>(
        &self,
        mem: &GpuMem,
        grid: u32,
        block_threads: u32,
        kernel: &K,
        profile: &mut RunProfile,
    ) -> u32 {
        let (stats, total) = launch_coop(mem, self.dev, self.mode, grid, block_threads, kernel);
        profile.kernel(stats);
        total
    }

    fn transfer(&self, label: &'static str, bytes: usize, profile: &mut RunProfile) {
        profile.transfer(label, bytes, xfer::transfer_ms(self.dev, bytes));
    }

    fn transfer_cost_ms(&self, bytes: usize) -> Option<f64> {
        Some(xfer::transfer_ms(self.dev, bytes))
    }
}

/// The rayon host path as a backend (the production path).
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeBackend;

impl NativeBackend {
    /// A native backend.
    pub fn new() -> Self {
        Self
    }
}

impl Backend for NativeBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    fn launch<K: Kernel>(
        &self,
        mem: &GpuMem,
        grid: u32,
        block_threads: u32,
        kernel: &K,
        profile: &mut RunProfile,
    ) {
        let t0 = std::time::Instant::now();
        launch_native(mem, grid, block_threads, kernel);
        profile.host(kernel.name(), t0.elapsed().as_secs_f64() * 1e3);
    }

    fn launch_coop<K: CoopKernel>(
        &self,
        mem: &GpuMem,
        grid: u32,
        block_threads: u32,
        kernel: &K,
        profile: &mut RunProfile,
    ) -> u32 {
        let t0 = std::time::Instant::now();
        let total = launch_coop_native(mem, grid, block_threads, kernel);
        profile.host(kernel.name(), t0.elapsed().as_secs_f64() * 1e3);
        total
    }

    fn transfer(&self, _label: &'static str, _bytes: usize, _profile: &mut RunProfile) {}
}

/// A fleet of backend instances modeling P devices, one graph shard each.
///
/// The sharded driver runs its per-shard work on `device(p)` and prices
/// per-device ghost-frontier traffic through
/// [`ShardedBackend::link_cost_ms`]: each device owns an independent
/// inbound link (its own copy stream), so concurrent exchanges into
/// different devices proceed in parallel and only each link's
/// non-overlapped tail lands on the critical path (see [`CopyStream`]).
/// On the modeled K20c-era hardware peer-to-peer copies traverse the same
/// PCIe fabric as host copies, so [`SimtBackend`] prices them
/// identically, while [`NativeBackend`] keeps them free (shards share one
/// address space on the host path).
pub struct ShardedBackend<B: Backend> {
    devices: Vec<B>,
}

impl<B: Backend> ShardedBackend<B> {
    /// A fleet over the given device backends.
    ///
    /// # Panics
    /// Panics on an empty fleet — the sharded driver needs at least one
    /// device.
    pub fn new(devices: Vec<B>) -> Self {
        assert!(!devices.is_empty(), "a sharded fleet needs >= 1 device");
        Self { devices }
    }

    /// A homogeneous fleet of `n` devices built by `make(device_index)`.
    pub fn uniform(n: usize, make: impl FnMut(usize) -> B) -> Self {
        Self::new((0..n.max(1)).map(make).collect())
    }

    /// Number of devices in the fleet.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// The backend instance for shard/device `p`.
    pub fn device(&self, p: usize) -> &B {
        &self.devices[p]
    }

    /// The modeled cost of landing `bytes` on device `p`'s inbound link,
    /// or `None` when the fleet's backends have no modeled interconnect.
    pub fn link_cost_ms(&self, p: usize, bytes: usize) -> Option<f64> {
        self.devices[p].transfer_cost_ms(bytes)
    }
}

/// Which backend to run a scheme on — the selection that rides through
/// `ColorOptions` and the bench CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The tracing simulator ([`SimtBackend`]), the paper-faithful default.
    #[default]
    Simt,
    /// The rayon host path ([`NativeBackend`]).
    Native,
    /// The tracing simulator wrapped in the launch sanitizer
    /// ([`crate::sanitize::SanitizeBackend`]): identical execution and
    /// timing, plus shadow-memory race/`ldg`/bounds analysis per launch.
    Sanitize,
}

impl BackendKind {
    /// Every selectable backend.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Simt,
        BackendKind::Native,
        BackendKind::Sanitize,
    ];

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Simt => "simt",
            BackendKind::Native => "native",
            BackendKind::Sanitize => "sanitize",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| {
                format!("unknown backend {s:?} (expected \"simt\", \"native\" or \"sanitize\")")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::grid_for;
    use crate::kernel::KernelCtx;
    use crate::mem::Buffer;
    use crate::Phase;

    struct AddOne {
        data: Buffer<u32>,
    }

    impl Kernel for AddOne {
        fn name(&self) -> &'static str {
            "add-one"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            let i = t.global_id() as usize;
            if i < self.data.len() {
                let v = t.ld(self.data, i);
                t.st(self.data, i, v + 1);
            }
        }
    }

    fn run_on<B: Backend>(backend: &B) -> (Vec<u32>, RunProfile) {
        let mut mem = GpuMem::new();
        let d = mem.alloc_from_slice(&[10u32, 20, 30, 40]);
        let mut profile = RunProfile::new();
        backend.launch(
            &mem,
            grid_for(4, 128),
            128,
            &AddOne { data: d },
            &mut profile,
        );
        backend.transfer("d2h", 16, &mut profile);
        (mem.read_vec(d), profile)
    }

    #[test]
    fn both_backends_execute_the_same_kernel() {
        let dev = Device::tiny();
        let (simt_vals, simt_prof) = run_on(&SimtBackend::new(&dev, ExecMode::Deterministic));
        let (native_vals, native_prof) = run_on(&NativeBackend::new());
        assert_eq!(simt_vals, vec![11, 21, 31, 41]);
        assert_eq!(native_vals, simt_vals);
        // Simulator: one Kernel phase + a charged transfer.
        assert!(matches!(simt_prof.phases[0], Phase::Kernel(_)));
        assert!(simt_prof.transfer_ms() > 0.0);
        // Native: wall-clock Host phase, transfers free.
        assert!(matches!(native_prof.phases[0], Phase::Host { .. }));
        assert_eq!(native_prof.transfer_ms(), 0.0);
        assert_eq!(native_prof.num_kernels(), 0);
    }

    #[test]
    fn sharded_fleet_exposes_devices() {
        let dev = Device::tiny();
        let fleet = ShardedBackend::uniform(3, |_| SimtBackend::new(&dev, ExecMode::Deterministic));
        assert_eq!(fleet.num_devices(), 3);
        assert_eq!(fleet.device(2).name(), "simt");
    }

    #[test]
    fn transfer_cost_hook_prices_only_modeled_interconnects() {
        let dev = Device::tiny();
        let simt = SimtBackend::new(&dev, ExecMode::Deterministic);
        // The pricing hook matches what `transfer` would charge...
        let cost = simt.transfer_cost_ms(4096).expect("simt models PCIe");
        let mut profile = RunProfile::new();
        simt.transfer("d2d", 4096, &mut profile);
        assert_eq!(profile.transfer_ms(), cost);
        // ...is monotone in bytes, and absent on the native path.
        assert!(simt.transfer_cost_ms(1 << 20).unwrap() > cost);
        assert_eq!(NativeBackend::new().transfer_cost_ms(4096), None);

        let fleet = ShardedBackend::uniform(2, |_| SimtBackend::new(&dev, ExecMode::Deterministic));
        assert_eq!(fleet.link_cost_ms(1, 4096), Some(cost));
        let native = ShardedBackend::uniform(2, |_| NativeBackend::new());
        assert_eq!(native.link_cost_ms(0, 4096), None);
    }

    #[test]
    fn copy_stream_overlaps_and_serializes() {
        let mut s = CopyStream::new();
        // First copy: ready at t=2, takes 3ms → lands at 5.
        assert_eq!(s.issue(2.0, 3.0), 5.0);
        // Second copy ready earlier, but the link is busy until 5.
        assert_eq!(s.issue(1.0, 2.0), 7.0);
        // Third copy ready after the link drains: starts at its ready time.
        assert_eq!(s.issue(10.0, 1.0), 11.0);
        assert_eq!(s.drained_ms(), 11.0);
        // Non-overlapped tail: a consumer whose compute clock already
        // passed the landing time pays nothing.
        let landed = s.drained_ms();
        assert_eq!((landed - 12.0f64).max(0.0), 0.0);
    }

    #[test]
    fn uniform_fleet_never_empty() {
        let fleet = ShardedBackend::uniform(0, |_| NativeBackend::new());
        assert_eq!(fleet.num_devices(), 1);
    }

    #[test]
    fn backend_kind_round_trips() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>(), Ok(kind));
        }
        assert!("cuda".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::default(), BackendKind::Simt);
    }
}
