//! Property tests for `LazyLatency::pair`: every answer, however it was
//! reached (resident source row, pair cache, or A* search under landmark or
//! target-row bounds), is bit-identical to the fresh `single_source` row.

use proptest::prelude::*;
use rand::Rng;

use sbon_netsim::dijkstra::single_source;
use sbon_netsim::graph::{EdgeId, Graph, NodeId};
use sbon_netsim::latency::LatencyProvider;
use sbon_netsim::lazy::LazyLatency;
use sbon_netsim::rng::derive_rng;
use sbon_netsim::topology::transit_stub::{self, TransitStubConfig};
use sbon_netsim::topology::waxman::{self, WaxmanConfig};

/// A random forest-plus-chords graph with small integer weights, so many
/// shortest paths tie. About one node in eight starts a new component, so
/// unreachable pairs are common.
fn tied_integer_graph<R: Rng>(n: usize, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n as u32 {
        if rng.gen_range(0..8) != 0 {
            let u = rng.gen_range(0..v);
            g.add_edge(NodeId(u), NodeId(v), rng.gen_range(1..4) as f64);
        }
    }
    for _ in 0..n / 2 {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if u != v {
            g.add_edge(NodeId(u), NodeId(v), rng.gen_range(1..4) as f64);
        }
    }
    g
}

proptest! {
    /// `pair(a, b)` equals `single_source(a)[b]` bit for bit across tied
    /// integer and jittered float weights, delta batches between queries
    /// (every earlier pair is asked again, so a stale pair-cache entry
    /// fails), unreachable components, `a == b`, zero to many landmark
    /// rows, resident target rows, and a FIFO-capped row cache that has
    /// evicted landmarks.
    #[test]
    fn pair_is_bit_identical_to_single_source(
        seed in 0u64..1_000_000,
        nodes in 12usize..60,
        landmarks in 0usize..7,
        batches in 1usize..4,
    ) {
        let mut rng = derive_rng(seed, 0x9a1f);
        let tied = seed % 3 == 0;
        let graph = match seed % 3 {
            0 => tied_integer_graph(nodes, &mut rng),
            1 => transit_stub::generate(&TransitStubConfig::with_total_nodes(nodes), seed).graph,
            _ => waxman::generate(&WaxmanConfig { nodes, ..Default::default() }, seed).graph,
        };
        let n = graph.num_nodes();
        let m = graph.num_edges();
        // Capped caches hold the landmarks plus one row: warming target
        // rows below evicts landmarks first-in first-out.
        let mut lazy = if seed % 4 == 1 {
            LazyLatency::with_capacity(graph, landmarks + 1)
        } else {
            LazyLatency::new(graph)
        };
        let lms: Vec<NodeId> = (0..landmarks).map(|_| NodeId(rng.gen_range(0..n as u32))).collect();
        lazy.ensure_rows(&lms, None);
        lazy.set_landmarks(&lms);

        let mut asked: Vec<(NodeId, NodeId)> = Vec::new();
        let mut warmed = 0;
        for batch in 0..batches {
            for q in 0..40 {
                let a = NodeId(rng.gen_range(0..n as u32));
                let b = match q % 10 {
                    0 => a,
                    _ => NodeId(rng.gen_range(0..n as u32)),
                };
                if q % 7 == 3 {
                    // Make the target's row resident (a bound source).
                    let _ = lazy.latency(b, a);
                    warmed += 1;
                }
                asked.push((a, b));
            }
            for &(a, b) in &asked {
                let want = single_source(lazy.graph(), a)[b.index()];
                let got = lazy.pair(a, b);
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "pair {got} != single_source {want} for {a}->{b} (seed {seed}, batch {batch})"
                );
            }
            if m == 0 {
                continue;
            }
            let deltas: Vec<(EdgeId, f64)> = (0..1 + m / 4)
                .map(|_| {
                    let e = EdgeId(rng.gen_range(0..m as u32));
                    let w = if tied {
                        rng.gen_range(1..4) as f64
                    } else {
                        lazy.graph().edge(e).latency_ms * rng.gen_range(0.5..2.0)
                    };
                    (e, w)
                })
                .collect();
            lazy.apply_edge_deltas(&deltas);
        }
        let stats = lazy.stats();
        prop_assert!(stats.pair_queries > 0);
        prop_assert!(
            stats.rows_computed as usize <= landmarks + warmed,
            "pair never computes a row: {} rows for {landmarks} landmarks + {warmed} warmed",
            stats.rows_computed
        );
    }
}

/// A pair search inserts no row, and repeats before the next delta batch
/// come from the pair cache.
#[test]
fn pair_search_inserts_no_row_and_caches_the_answer() {
    let t = transit_stub::generate(&TransitStubConfig::with_total_nodes(80), 5);
    let mut lazy = LazyLatency::new(t.graph);
    let lms = [NodeId(3), NodeId(40)];
    lazy.ensure_rows(&lms, None);
    lazy.set_landmarks(&lms);
    let (a, b) = (NodeId(7), NodeId(61));
    let want = single_source(lazy.graph(), a)[b.index()];
    assert_eq!(lazy.pair(a, b).to_bits(), want.to_bits());
    assert_eq!(lazy.pair(a, b).to_bits(), want.to_bits());
    let s = lazy.stats();
    assert_eq!(s.rows_cached, 2, "only the landmark rows are resident");
    assert_eq!(s.rows_computed, 2);
    assert_eq!((s.pair_queries, s.pair_cache_hits), (2, 1));
    assert!(s.pair_vertices_settled > 0);

    // An effective delta batch clears the pair cache.
    let e = EdgeId(0);
    let w = lazy.graph().edge(e).latency_ms;
    lazy.set_edge_latency(e, w * 3.0);
    let want = single_source(lazy.graph(), a)[b.index()];
    assert_eq!(lazy.pair(a, b).to_bits(), want.to_bits());
    assert_eq!(lazy.stats().pair_cache_hits, 1, "the repeat after a delta is searched again");
}

/// Landmark bounds prune the search: with landmarks resident, a pair costs
/// fewer expansions than the same pair with none.
#[test]
fn landmark_bounds_shrink_the_search() {
    let t = waxman::generate(&WaxmanConfig { nodes: 400, ..Default::default() }, 9);
    let settled = |landmarks: &[NodeId]| {
        let mut lazy = LazyLatency::new(t.graph.clone());
        lazy.ensure_rows(landmarks, None);
        lazy.set_landmarks(landmarks);
        for (a, b) in [(1u32, 399u32), (17, 250), (120, 333), (42, 5)] {
            lazy.pair(NodeId(a), NodeId(b));
        }
        lazy.stats().pair_vertices_settled
    };
    let lms: Vec<NodeId> = (0..16u32).map(|i| NodeId(i * 25)).collect();
    let (plain, alt) = (settled(&[]), settled(&lms));
    assert!(alt < plain, "ALT settled {alt}, plain early exit {plain}");
}
