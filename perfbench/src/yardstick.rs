//! The yardstick: a fixed computation, independent of `sbon`, that measures
//! how fast the host runs right now.
//!
//! The benchmark runs on shared virtual machines whose speed drifts with
//! their neighbours' load: on the two-vCPU host it was tuned on, the same
//! input of the same binary took anywhere from 1.0x to 1.8x its fastest
//! time within a few minutes, whole 30 s runs sat in slow spells, and no
//! steal time showed (the slowdown is contention inside the CPU, not lost
//! CPU time). Wall-clock timings alone therefore moved 19-41% (IQR/median)
//! between repeats of one seed. The yardstick runs before the first
//! iteration and after every iteration, outside their timed regions, and
//! each timing is divided by its iteration's host factor: the mean of the
//! yardsticks on either side, over [`NOMINAL_S`]. That puts every timing
//! at one nominal host speed.
//!
//! No single kind of work tracks the host: a memory-bound yardstick alone
//! over-corrected wave_jitter, a compute-bound one under-corrected both
//! wave_jitter and tenant_storm. The yardstick therefore sums four parts
//! that stress the host the way the overlay's hot paths do: Dijkstra over
//! a random sparse graph of 20,000 nodes (scattered reads over a few MiB,
//! like the lazy latency rows), over a clustered one (the locality of a
//! transit-stub topology), over a small random one that stays in L2, and a
//! floating-point loop over a 16 KiB vector (coordinate and cost
//! arithmetic). Calibrating with the sum took same-seed repeats of both
//! tenant_storm and wave_jitter to 3-4% (IQR/median) over a spell in which
//! the uncalibrated figures moved 12-23%. Everything is built from fixed
//! xorshift streams and never changes, so a change to `sbon` moves the
//! calibrated timings and not the yardstick.

// Benchmark harness: wall-clock timing is its purpose.
#![allow(clippy::disallowed_methods)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Yardstick wall time that counts as host factor 1: a round figure near
/// its fastest time on the two-vCPU Intel Xeon virtual machine the
/// benchmark was tuned on. Only the scale of the calibrated timings
/// depends on it.
pub const NOMINAL_S: f64 = 0.1;

/// Checksum of the work the yardstick does; any other value means it did
/// different work.
const CHECKSUM: u64 = 774_349_960_661;

/// Runs the yardstick once; returns its wall time in seconds.
pub fn measure() -> Result<f64, String> {
    let start = Instant::now();
    let sum = run();
    let elapsed = start.elapsed().as_secs_f64();
    if sum != CHECKSUM {
        return Err(format!("yardstick checksum {sum}, expected {CHECKSUM}"));
    }
    Ok(elapsed)
}

/// The four parts, summed into one checksum.
fn run() -> u64 {
    let random = |nodes| move |_, rng: &mut XorShift| (0..4).map(|_| rng.below(nodes)).collect();
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut sum = dijkstra(&graph(20_000, &mut rng, random(20_000)), 3);
    sum = sum.wrapping_add(dijkstra(&graph(20_000, &mut rng, clustered), 3));
    sum = sum.wrapping_add(dijkstra(&graph(4_096, &mut rng, random(4_096)), 15));
    sum.wrapping_add(arithmetic(2_048, 1_500))
}

/// A xorshift64 stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Targets of node `u`'s edges in a graph of clusters of 32 consecutive
/// nodes: three inside its cluster, and one anywhere for every fourth node.
fn clustered(u: usize, rng: &mut XorShift) -> Vec<usize> {
    const NODES: usize = 20_000;
    let base = u / 32 * 32;
    let mut out: Vec<usize> = (0..3).map(|_| (base + rng.below(32)).min(NODES - 1)).collect();
    if u % 4 == 0 {
        out.push(rng.below(NODES));
    }
    out
}

/// An undirected graph of `nodes` nodes with `targets(u)` edges from each
/// node `u`, weighted 1.0-100.9.
fn graph(
    nodes: usize,
    rng: &mut XorShift,
    targets: impl Fn(usize, &mut XorShift) -> Vec<usize>,
) -> Vec<Vec<(u32, f64)>> {
    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nodes];
    for u in 0..nodes {
        for v in targets(u, rng) {
            let w = rng.below(1000) as f64 / 10.0 + 1.0;
            adj[u].push((v as u32, w));
            adj[v].push((u as u32, w));
        }
    }
    adj
}

/// Shortest paths from `sources` evenly spaced nodes; a checksum of the
/// distances.
fn dijkstra(adj: &[Vec<(u32, f64)>], sources: usize) -> u64 {
    let mut sum = 0u64;
    for k in 0..sources {
        let src = k * adj.len() / sources;
        let mut dist = vec![f64::INFINITY; adj.len()];
        let mut heap = BinaryHeap::new();
        dist[src] = 0.0;
        heap.push(Reverse((0.0f64.to_bits(), src)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[u] {
                continue;
            }
            for &(v, w) in &adj[u] {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd.to_bits(), v as usize)));
                }
            }
        }
        sum = sum.wrapping_add(dist.iter().map(|d| d.to_bits() >> 40).sum::<u64>());
    }
    sum
}

/// `passes` passes of dependent floating-point updates over a vector of
/// `len` values; a checksum of the result.
fn arithmetic(len: usize, passes: usize) -> u64 {
    let mut v = vec![0.0f64; len];
    let mut x = 1.0f64;
    for pass in 0..passes {
        for (i, slot) in v.iter_mut().enumerate() {
            x = (x * 1.000_001 + (i as f64).sqrt()).fract() + 1.0;
            *slot += x * pass as f64;
        }
    }
    v.iter().map(|x| x.to_bits() >> 40).fold(0u64, u64::wrapping_add)
}
