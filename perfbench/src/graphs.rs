//! Seeded inputs: the graphs every workload colors and the streams that
//! order its requests. Everything here is a function of `--seed`.

use gcol_graph::gen;
use gcol_graph::rng::{splitmix64, Xoshiro256};
use gcol_graph::Csr;

/// A sub-seed for one named use of the run seed, so that changing how
/// one stream draws never shifts another.
pub fn derive(seed: u64, tag: &str) -> u64 {
    let mut s = seed;
    for b in tag.bytes() {
        s = s.rotate_left(8) ^ u64::from(b);
        splitmix64(&mut s);
    }
    splitmix64(&mut s)
}

pub fn rng(seed: u64, tag: &str) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(derive(seed, tag))
}

/// Vertex count of a Table I graph shrunk to `scale` (paper scale 20).
fn shrink(paper_n: usize, scale: u32) -> usize {
    paper_n >> (20 - scale)
}

/// Generates one Table I stand-in. The shapes follow the suite of
/// `gcol-bench`; the generator seeds come from the caller.
pub fn generate(name: &str, scale: u32, seed: u64) -> Result<Csr, String> {
    if !(8..=20).contains(&scale) {
        return Err(format!("scale {scale} outside 8..=20"));
    }
    let side2 = |n: usize| (n as f64).sqrt().round() as usize;
    Ok(match name {
        "rmat-er" => gen::rmat(gen::RmatParams::erdos_renyi(scale, 20), seed),
        "rmat-g" => gen::rmat(gen::RmatParams::skewed(scale, 20), seed),
        "thermal2" => {
            let s = side2(shrink(1_228_045, scale));
            gen::mesh2d(s, s, 0.10, seed)
        }
        "atmosmodd" => {
            let s = (shrink(1_270_432, scale) as f64).cbrt().round() as usize;
            gen::grid3d(s, s, s)
        }
        "Hamrle3" => gen::circuit_graph(shrink(1_447_360, scale), 3, 0.9, seed),
        "G3_circuit" => {
            let s = side2(shrink(1_585_478, scale));
            gen::grid2d(s, s, gen::StencilKind::FivePoint)
        }
        other => return Err(format!("unknown graph {other:?}")),
    })
}

/// The six Table I stand-ins, in the paper's order.
pub const SUITE: [&str; 6] = [
    "rmat-er",
    "rmat-g",
    "thermal2",
    "atmosmodd",
    "Hamrle3",
    "G3_circuit",
];

/// `items` in a seeded order.
pub fn shuffled<T: Clone>(items: &[T], seed: u64, tag: &str) -> Vec<T> {
    let mut v = items.to_vec();
    rng(seed, tag).shuffle(&mut v);
    v
}
