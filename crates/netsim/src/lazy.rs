//! Lazy, churn-aware shortest-path latency provider with dynamic row repair.
//!
//! [`crate::dijkstra::all_pairs_latency`] materializes the full `n × n`
//! matrix up front: `O(n²)` memory and `O(n·(m + n log n))` precompute.
//! That is fine at the paper's 600-node scale but caps the thousand-node
//! runs the cost-space argument is about — the baseline's *data structure*
//! becomes the bottleneck before the placement algorithm does.
//!
//! [`LazyLatency`] keeps the topology graph instead and computes
//! **per-source single-source-shortest-path rows on demand**, caching each
//! row the first time any latency out of that source is queried. A steady
//! simulation tick therefore touches only the rows the optimizer actually
//! reads (the hosts of deployed circuits), not all `n` of them.
//!
//! # Repair contract (dynamic SSSP)
//!
//! Edge mutations go through [`LazyLatency::apply_edge_deltas`] (or the
//! single-edge [`LazyLatency::set_edge_latency`] / jitter convenience
//! [`LazyLatency::scale_edge_clamped`]). Under the default
//! [`DeltaPolicy::Repair`], a weight change does **not** drop cached rows:
//! each resident row is patched in place in two phases.
//!
//! * **Raises** (`w_new > w_old`) can only *increase* distances. The
//!   vertices a raise can affect are exactly those reachable from a raised
//!   edge's far endpoint by a chain of *old-tight* edges
//!   (`d[x] + w_old(e) ≤ d[y] + ε`, with `ε = 1e-9` ms absorbing
//!   float ties) — a cheap BFS over old labels marks that region. The
//!   marked labels are reset and recomputed by a Dijkstra *restricted to
//!   the region*, seeded with the best boundary relaxation of each marked
//!   vertex (unmarked labels are provably unchanged and act as fixed
//!   sources). If the region exceeds a quarter of the graph the row falls
//!   back to a full [`single_source`] rebuild instead.
//! * **Lowers** (`w_new < w_old`) can only *decrease* distances. Each
//!   lowered edge seeds at most two heap entries
//!   (`d[a] + w_new < d[b]` and symmetrically) and a standard
//!   improvement-propagation Dijkstra pushes the shortcut outward.
//!
//! Cost per (row, delta-batch): `O(|A| log |A| + edges(A))` where `A` is
//! the affected region — against `O(n log n + m)` for the
//! invalidate-and-recompute policy the provider previously used, a win whenever
//! jitter touches a small fraction of each row (the common case; the
//! `bench_control_plane` `jitter_tick` group measures the ratio at 10k
//! nodes). The two phases split one batch so each phase's precondition
//! (monotone effect on distances) holds exactly.
//!
//! Repaired rows are **bit-identical** to recomputing with
//! [`single_source`] on the mutated graph. This is not approximate: with
//! non-negative weights, float addition is monotone under rounding, so a
//! row's value at `v` equals the minimum over all paths of the fold-left
//! float sum — independent of the order any correct algorithm relaxes
//! edges in. Both the region recompute and the improvement propagation
//! compose exactly such fold-left sums. The property suite in
//! `tests/properties.rs` pins this equivalence across random topologies,
//! delta batches, and cache capacities.
//!
//! [`DeltaPolicy::Invalidate`] keeps the previous behavior — drop every
//! row the change could affect, recompute on next query — as a baseline
//! for benchmarks and differential tests.
//!
//! # Pair queries
//!
//! A row pays off only when reads out of its source repeat: once resident
//! it is repaired on every delta batch whether or not anyone reads it
//! again. [`LazyLatency::pair`] answers one `(a, b)` pair **without
//! inserting a row**, in this order:
//!
//! 1. from `a`'s row, when it is resident;
//! 2. from the pair cache, which holds earlier search answers and is
//!    cleared on every effective delta batch (and wholesale once it
//!    reaches a fixed bound) — a stale entry can never be served;
//! 3. by an A* search from `a` that stops at `b`, bounded below by the
//!    triangle inequality over resident rows (ALT: A*, landmarks,
//!    triangle inequality). When `b`'s own row is resident it is the
//!    bound (`d(v, b) ≥ row_b[v]`). Otherwise the bound is the largest
//!    `|d(ℓ, b) − d(ℓ, v)|` over a few *active* landmarks — the resident
//!    rows of the sources named by [`LazyLatency::set_landmarks`] whose
//!    bound at the source, `|d(ℓ, b) − d(ℓ, a)|`, is largest. A landmark
//!    that reaches exactly one of `a` and `b` proves `b` unreachable.
//!
//! The search is **exact**, bit for bit: it returns the same fold-left
//! minimum [`single_source`] stores at `row_a[b]`. The bound subtracts
//! `TIGHT_EPS_MS` (1e-9 ms) so it stays below the true remaining distance
//! under float rounding (admissible), the search re-opens a vertex whenever its
//! label improves, and it stops only when the smallest key in the heap is
//! `≥` the best label found for `b`. Suppose `b`'s label were still above
//! the optimum `D(b)`. Take an optimal path and its last vertex `x` whose
//! label is at most the path's prefix sum there: `x` has not been expanded
//! with that label (else its successor would be no worse), so an entry
//! with key `≤ prefix(x) + bound(x) ≤ D(b) <` label of `b` is still in the
//! heap, and the search would not have stopped. Labels are fold-left path
//! sums, so the final label is exactly `D(b)`. The property suite in
//! `tests/properties.rs` pins this against [`single_source`] across tied
//! and jittered weights, delta batches, unreachable pairs and evicted
//! landmarks.
//!
//! Rows therefore stay resident only where reads repeat: the landmarks
//! (every join-time placement and every pair bound reads them), sources
//! pinned by [`LazyLatency::ensure_rows`], and the sources of
//! [`LatencyProvider::latency`] calls, which keep inserting rows as before.
//!
//! # Memory bound
//!
//! [`LazyLatency::with_capacity`] caps the number of resident rows with
//! FIFO eviction, bounding memory at `O(capacity · n)` regardless of query
//! pattern; [`LazyLatency::evict_all`] drops the whole cache (useful after
//! a warm-up phase whose rows the steady state will never read again).
//! [`LazyLatency::ensure_rows`] batch-computes missing rows — optionally
//! sharded across a thread pool, with insertion order (and therefore FIFO
//! order, statistics, and every served value) independent of the thread
//! count. Pair queries add `O(n)` search scratch and a pair cache of at
//! most `PAIR_CACHE_CAP` (65,536) entries, and never insert a row. An
//! evicted landmark simply stops contributing to the bound until it is
//! resident again.

use std::cell::RefCell;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use rayon::prelude::*;

use crate::dijkstra::{single_source, HeapEntry};
use crate::graph::{EdgeId, Graph, NodeId};
use crate::latency::LatencyProvider;

/// Absolute slack (ms) used when testing whether an edge is tight on a
/// cached shortest-path row, and subtracted from pair-search bounds to keep
/// them admissible. Latencies are milliseconds-scale, so this is far below
/// any real tie yet far above accumulated float error.
const TIGHT_EPS_MS: f64 = 1e-9;

/// Landmarks whose bounds a pair search combines: those with the largest
/// bound at the source. More landmarks tighten the bound at every vertex
/// but cost a row read each. On the benchmark's wave tiers (64 and 32
/// landmarks, 2-vCPU host) two active landmarks made ticks 20–60% slower
/// than eight, and twelve or sixteen bought nothing more.
const ACTIVE_LANDMARKS: usize = 8;

/// Pair-cache entries kept before the cache is cleared wholesale.
const PAIR_CACHE_CAP: usize = 1 << 16;

/// How a [`LazyLatency`] reacts to edge-weight deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeltaPolicy {
    /// Patch affected rows in place (dynamic SSSP; see the
    /// [module docs](self)). The default.
    #[default]
    Repair,
    /// Drop every row the delta could affect; recompute on next query.
    /// The pre-repair behavior, kept as a benchmark / differential-test
    /// baseline.
    Invalidate,
}

/// Counters describing how a [`LazyLatency`] has been exercised.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LazyLatencyStats {
    /// Dijkstra rows computed (cache misses and [`LazyLatency::ensure_rows`]).
    pub rows_computed: u64,
    /// Queries answered from a cached row: [`LatencyProvider::latency`]
    /// hits and [`LazyLatency::pair`] reads of a resident source row.
    pub cache_hits: u64,
    /// Rows dropped because an edge mutation made them stale (only under
    /// [`DeltaPolicy::Invalidate`]).
    pub rows_invalidated: u64,
    /// Rows dropped while still valid: capacity-bound evictions plus
    /// explicit [`LazyLatency::evict_all`] calls (e.g. the runtime's
    /// post-embedding warm-up flush).
    pub rows_evicted: u64,
    /// Row × delta-batch events where dynamic repair patched at least one
    /// distance (only under [`DeltaPolicy::Repair`]).
    pub rows_repaired: u64,
    /// Distance labels recomputed by dynamic repair, summed over rows and
    /// batches — the per-tick work the repair path actually did.
    pub vertices_settled: u64,
    /// Repairs whose affected region exceeded the rebuild threshold and
    /// fell back to a full-row [`single_source`] recompute.
    pub rows_rebuilt: u64,
    /// Rows currently resident.
    pub rows_cached: usize,
    /// [`LazyLatency::pair`] calls, however they were answered.
    pub pair_queries: u64,
    /// Pair queries answered from the pair cache.
    pub pair_cache_hits: u64,
    /// Vertices expanded by pair searches.
    pub pair_vertices_settled: u64,
}

struct RowCache {
    /// `rows[src]` — cached SSSP distances from `src`, if resident.
    rows: Vec<Option<Box<[f64]>>>,
    /// Insertion order of resident rows, for FIFO eviction.
    order: VecDeque<u32>,
    rows_computed: u64,
    cache_hits: u64,
    rows_invalidated: u64,
    rows_evicted: u64,
    rows_repaired: u64,
    vertices_settled: u64,
    rows_rebuilt: u64,
}

impl RowCache {
    fn new(n: usize) -> Self {
        RowCache {
            rows: vec![None; n],
            order: VecDeque::new(),
            rows_computed: 0,
            cache_hits: 0,
            rows_invalidated: 0,
            rows_evicted: 0,
            rows_repaired: 0,
            vertices_settled: 0,
            rows_rebuilt: 0,
        }
    }

    /// Inserts a freshly computed row, evicting FIFO victims to stay under
    /// `capacity`. The single insertion path keeps the `order` invariant
    /// (each resident source appears exactly once).
    fn insert(&mut self, src: NodeId, row: Box<[f64]>, capacity: Option<usize>) {
        self.rows_computed += 1;
        if let Some(cap) = capacity {
            while self.order.len() >= cap {
                let victim = self.order.pop_front().expect("capacity >= 1");
                self.rows[victim as usize] = None;
                self.rows_evicted += 1;
            }
        }
        self.rows[src.index()] = Some(row);
        self.order.push_back(src.0);
    }
}

/// Scratch buffers reused across repairs so a steady jitter tick allocates
/// only heap entries proportional to the affected region.
#[derive(Default)]
struct RepairScratch {
    /// `mark[v] == epoch` ⇔ `v` is in the current repair's affected region.
    mark: Vec<u64>,
    epoch: u64,
    /// The marked region, in BFS discovery order.
    region: Vec<u32>,
}

impl RepairScratch {
    fn begin(&mut self, n: usize) -> u64 {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        self.epoch += 1;
        self.region.clear();
        self.epoch
    }
}

/// A* heap entry: ordered by `key = label + bound` (smallest first), then
/// node id; `label` detects entries superseded by a later improvement.
#[derive(PartialEq)]
struct SearchEntry {
    key: f64,
    label: f64,
    node: NodeId,
}

impl Eq for SearchEntry {}

impl Ord for SearchEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.total_cmp(&self.key).then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for SearchEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Pair-query state: the answer cache, reusable search scratch, counters.
#[derive(Default)]
struct PairState {
    // sbon-lint: allow(unordered-iteration): point lookups by (a, b); the
    // cache is only ever cleared, never iterated.
    cache: HashMap<(u32, u32), f64>,
    /// `seen[v] == epoch` ⇔ `label[v]` and `bound[v]` belong to this search.
    seen: Vec<u64>,
    epoch: u64,
    label: Vec<f64>,
    bound: Vec<f64>,
    heap: BinaryHeap<SearchEntry>,
    /// `(bound at the source, landmark)` candidates of the current query.
    active: Vec<(f64, NodeId)>,
    queries: u64,
    cache_hits: u64,
    vertices_settled: u64,
}

impl PairState {
    /// Exact `a → b` distance by A* from `a` (`a ≠ b`); see the
    /// [module docs](self) for the bound and the exactness argument.
    fn search(
        &mut self,
        graph: &Graph,
        rows: &[Option<Box<[f64]>>],
        landmarks: &[NodeId],
        a: NodeId,
        b: NodeId,
    ) -> f64 {
        let target = rows[b.index()].as_deref();
        let mut bounds: [(&[f64], f64); ACTIVE_LANDMARKS] = [(&[], 0.0); ACTIVE_LANDMARKS];
        let mut k = 0;
        match target {
            Some(row) if row[a.index()].is_infinite() => return f64::INFINITY,
            Some(_) => {}
            None => {
                self.active.clear();
                for &l in landmarks {
                    let Some(row) = rows[l.index()].as_deref() else { continue };
                    let (dla, dlb) = (row[a.index()], row[b.index()]);
                    match (dla.is_finite(), dlb.is_finite()) {
                        (true, true) => self.active.push(((dlb - dla).abs(), l)),
                        (false, false) => {}
                        // The landmark reaches one endpoint but not the
                        // other: they lie in different components.
                        _ => return f64::INFINITY,
                    }
                }
                // Stable: equal bounds keep node-id order.
                self.active.sort_by(|x, y| y.0.total_cmp(&x.0));
                for &(_, l) in self.active.iter().take(ACTIVE_LANDMARKS) {
                    let row = rows[l.index()].as_deref().expect("active landmarks are resident");
                    bounds[k] = (row, row[b.index()]);
                    k += 1;
                }
            }
        }
        let bounds = &bounds[..k];
        let lower_bound = |v: usize| -> f64 {
            let raw = match target {
                Some(row) => row[v],
                None => bounds.iter().fold(0.0, |m: f64, &(row, dlb)| m.max((dlb - row[v]).abs())),
            };
            (raw - TIGHT_EPS_MS).max(0.0)
        };

        let n = graph.num_nodes();
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.label.resize(n, f64::INFINITY);
            self.bound.resize(n, 0.0);
        }
        self.epoch += 1;
        let epoch = self.epoch;
        let mut best = f64::INFINITY;
        self.seen[a.index()] = epoch;
        self.label[a.index()] = 0.0;
        self.bound[a.index()] = lower_bound(a.index());
        self.heap.push(SearchEntry { key: self.bound[a.index()], label: 0.0, node: a });
        while let Some(SearchEntry { key, label: d, node: v }) = self.heap.pop() {
            if key >= best {
                break;
            }
            if d > self.label[v.index()] {
                continue; // superseded by a later improvement
            }
            self.vertices_settled += 1;
            for (u, w) in graph.neighbors(v) {
                let ui = u.index();
                if self.seen[ui] != epoch {
                    self.seen[ui] = epoch;
                    self.label[ui] = f64::INFINITY;
                    self.bound[ui] = lower_bound(ui);
                }
                let nd = d + w;
                if nd < self.label[ui] {
                    self.label[ui] = nd;
                    if u == b {
                        best = nd;
                        continue; // expanding b cannot shorten a path to b
                    }
                    let key = nd + self.bound[ui];
                    // An entry keyed at or above `best` could only trigger
                    // the stop test; dropping it changes nothing.
                    if key < best {
                        self.heap.push(SearchEntry { key, label: nd, node: u });
                    }
                }
            }
        }
        self.heap.clear();
        best
    }
}

/// One edge-weight change, resolved against the pre-batch graph.
#[derive(Clone, Copy)]
struct EdgeDelta {
    id: EdgeId,
    a: NodeId,
    b: NodeId,
    w_old: f64,
    w_new: f64,
}

/// Demand-driven shortest-path latency over a mutable topology graph.
///
/// Implements [`LatencyProvider`]; see the [module docs](self) for the
/// caching and repair contract.
///
/// ```
/// use sbon_netsim::graph::{Graph, NodeId};
/// use sbon_netsim::latency::LatencyProvider;
/// use sbon_netsim::lazy::LazyLatency;
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId(0), NodeId(1), 2.0);
/// let e = g.add_edge(NodeId(1), NodeId(2), 3.0);
/// let mut lat = LazyLatency::new(g);
/// assert_eq!(lat.latency(NodeId(0), NodeId(2)), 5.0);
/// lat.set_edge_latency(e, 1.0); // repairs the cached row in place
/// assert_eq!(lat.latency(NodeId(0), NodeId(2)), 3.0);
/// ```
pub struct LazyLatency {
    graph: Graph,
    /// Edge latencies at construction time — the reference for jitter bands.
    base_edges: Vec<f64>,
    capacity: Option<usize>,
    policy: DeltaPolicy,
    scratch: RepairScratch,
    cache: RefCell<RowCache>,
    /// Sources whose resident rows bound pair searches.
    landmarks: Vec<NodeId>,
    pair: RefCell<PairState>,
}

impl LazyLatency {
    /// Wraps a topology graph with an unbounded row cache.
    pub fn new(graph: Graph) -> Self {
        Self::build(graph, None)
    }

    /// Wraps a topology graph keeping at most `capacity` rows resident
    /// (FIFO eviction). `capacity` is clamped to at least 1.
    pub fn with_capacity(graph: Graph, capacity: usize) -> Self {
        Self::build(graph, Some(capacity.max(1)))
    }

    fn build(graph: Graph, capacity: Option<usize>) -> Self {
        let n = graph.num_nodes();
        let base_edges = graph.edges().iter().map(|e| e.latency_ms).collect();
        LazyLatency {
            graph,
            base_edges,
            capacity,
            policy: DeltaPolicy::default(),
            scratch: RepairScratch::default(),
            cache: RefCell::new(RowCache::new(n)),
            landmarks: Vec::new(),
            pair: RefCell::new(PairState::default()),
        }
    }

    /// Sets how edge deltas are absorbed (builder-style). The default is
    /// [`DeltaPolicy::Repair`].
    pub fn with_delta_policy(mut self, policy: DeltaPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active delta policy.
    pub fn delta_policy(&self) -> DeltaPolicy {
        self.policy
    }

    /// Names the sources whose rows bound [`LazyLatency::pair`] searches
    /// (duplicates ignored). Only rows resident at query time contribute;
    /// keep them resident with [`LazyLatency::ensure_rows`].
    pub fn set_landmarks(&mut self, landmarks: &[NodeId]) {
        self.landmarks = landmarks.to_vec();
        self.landmarks.sort_unstable();
        self.landmarks.dedup();
    }

    /// Exact shortest-path latency `a → b`, bit-identical to
    /// `single_source(graph, a)[b]`, without inserting a row. Answers from
    /// `a`'s resident row, else the pair cache, else an ALT-bounded A*
    /// search (see the [module docs](self#pair-queries)).
    pub fn pair(&self, a: NodeId, b: NodeId) -> f64 {
        let mut state = self.pair.borrow_mut();
        state.queries += 1;
        let mut cache = self.cache.borrow_mut();
        if let Some(row) = cache.rows[a.index()].as_deref() {
            let value = row[b.index()];
            cache.cache_hits += 1;
            return value;
        }
        if a == b {
            return 0.0;
        }
        if let Some(&value) = state.cache.get(&(a.0, b.0)) {
            state.cache_hits += 1;
            return value;
        }
        let value = state.search(&self.graph, &cache.rows, &self.landmarks, a, b);
        if state.cache.len() >= PAIR_CACHE_CAP {
            state.cache.clear();
        }
        state.cache.insert((a.0, b.0), value);
        value
    }

    /// The underlying (possibly mutated) topology graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The latency an edge had at construction time.
    pub fn base_edge_latency(&self, id: EdgeId) -> f64 {
        self.base_edges[id.index()]
    }

    /// Overwrites the latency of edge `id`, repairing (or, under
    /// [`DeltaPolicy::Invalidate`], dropping) affected cached rows. Returns
    /// the previous latency. No-op if the value is unchanged.
    pub fn set_edge_latency(&mut self, id: EdgeId, latency_ms: f64) -> f64 {
        let old = self.graph.edge(id).latency_ms;
        if latency_ms != old {
            self.apply_edge_deltas(&[(id, latency_ms)]);
        }
        old
    }

    /// Jitter convenience: multiplies edge `id` by `factor` and clamps the
    /// result to `band` × the edge's *base* latency, giving mean-reverting
    /// edge-granular jitter. Returns the new latency.
    pub fn scale_edge_clamped(&mut self, id: EdgeId, factor: f64, band: (f64, f64)) -> f64 {
        let base = self.base_edges[id.index()];
        let cur = self.graph.edge(id).latency_ms;
        let next = (cur * factor).clamp(base * band.0, base * band.1);
        self.set_edge_latency(id, next);
        next
    }

    /// Applies a batch of edge-weight deltas `(edge, new_latency_ms)` and
    /// brings every cached row up to date in one pass.
    ///
    /// Duplicate edges collapse to their final value (no query can observe
    /// an intermediate weight), so a jitter tick should batch its whole
    /// delta set into one call: each resident row is then repaired once
    /// per phase instead of once per delta. Served values afterwards are
    /// bit-identical to fresh [`single_source`] rows on the mutated graph
    /// (see the [module docs](self)).
    pub fn apply_edge_deltas(&mut self, deltas: &[(EdgeId, f64)]) {
        // sbon-lint: allow(unordered-iteration): slot map for last-write-wins
        // dedup; iteration happens over `net` (a Vec), never over the map.
        let mut index: HashMap<u32, usize> = HashMap::new();
        let mut net: Vec<EdgeDelta> = Vec::new();
        for &(id, w) in deltas {
            match index.entry(id.0) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    net[*slot.get()].w_new = w;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    let edge = self.graph.edge(id);
                    slot.insert(net.len());
                    net.push(EdgeDelta {
                        id,
                        a: edge.a,
                        b: edge.b,
                        w_old: edge.latency_ms,
                        w_new: w,
                    });
                }
            }
        }
        net.retain(|d| d.w_new != d.w_old);
        if net.is_empty() {
            return;
        }
        self.pair.get_mut().cache.clear();
        match self.policy {
            DeltaPolicy::Invalidate => {
                for d in &net {
                    self.graph.set_edge_latency(d.id, d.w_new);
                    self.invalidate_stale(d.a, d.b, d.w_old, d.w_new);
                }
            }
            DeltaPolicy::Repair => {
                let (raises, lowers): (Vec<_>, Vec<_>) =
                    net.into_iter().partition(|d| d.w_new > d.w_old);
                self.repair_rows(&raises, &lowers);
            }
        }
    }

    /// Batch-computes the rows for `sources` that are not already resident
    /// and inserts them in first-occurrence order (duplicates ignored).
    /// Returns the number of rows computed.
    ///
    /// With a `pool`, the independent [`single_source`] computations are
    /// sharded across its threads; insertion happens afterwards on the
    /// calling thread in the same deterministic order, so the cache state,
    /// FIFO eviction sequence, statistics, and every subsequently served
    /// value are identical at any thread count.
    pub fn ensure_rows(&self, sources: &[NodeId], pool: Option<&rayon::ThreadPool>) -> u64 {
        let missing: Vec<NodeId> = {
            let cache = self.cache.borrow();
            let mut seen = vec![false; self.graph.num_nodes()];
            sources
                .iter()
                .copied()
                .filter(|s| {
                    if std::mem::replace(&mut seen[s.index()], true) {
                        return false;
                    }
                    cache.rows[s.index()].is_none()
                })
                .collect()
        };
        if missing.is_empty() {
            return 0;
        }
        let graph = &self.graph;
        let compute = |s: &NodeId| single_source(graph, *s).into_boxed_slice();
        let rows: Vec<Box<[f64]>> = match pool {
            Some(pool) if missing.len() > 1 => {
                pool.install(|| missing.par_iter().map(compute).collect())
            }
            _ => missing.iter().map(compute).collect(),
        };
        let mut cache = self.cache.borrow_mut();
        for (&s, row) in missing.iter().zip(rows) {
            cache.insert(s, row, self.capacity);
        }
        missing.len() as u64
    }

    /// Drops every cached row. Counters other than `rows_cached` are kept.
    pub fn evict_all(&self) {
        let mut cache = self.cache.borrow_mut();
        let dropped = cache.order.len() as u64;
        cache.rows_evicted += dropped;
        cache.order.clear();
        for row in cache.rows.iter_mut() {
            *row = None;
        }
    }

    /// Usage counters so far.
    pub fn stats(&self) -> LazyLatencyStats {
        let cache = self.cache.borrow();
        let pair = self.pair.borrow();
        LazyLatencyStats {
            rows_computed: cache.rows_computed,
            cache_hits: cache.cache_hits,
            rows_invalidated: cache.rows_invalidated,
            rows_evicted: cache.rows_evicted,
            rows_repaired: cache.rows_repaired,
            vertices_settled: cache.vertices_settled,
            rows_rebuilt: cache.rows_rebuilt,
            rows_cached: cache.order.len(),
            pair_queries: pair.queries,
            pair_cache_hits: pair.cache_hits,
            pair_vertices_settled: pair.vertices_settled,
        }
    }

    /// Repairs every resident row through one delta batch: weight raises
    /// first (against the pre-batch labels), then lowers (against the
    /// raised intermediate), so each phase sees only monotone changes.
    fn repair_rows(&mut self, raises: &[EdgeDelta], lowers: &[EdgeDelta]) {
        for d in raises {
            self.graph.set_edge_latency(d.id, d.w_new);
        }
        if !raises.is_empty() {
            // Marking must test tightness under *pre-batch* weights; for
            // raised edges the graph now holds w_new, so carry the old ones.
            // sbon-lint: allow(unordered-iteration): point lookups by edge id
            // during repair; never iterated.
            let old_w: HashMap<u32, f64> = raises.iter().map(|d| (d.id.0, d.w_old)).collect();
            let graph = &self.graph;
            let cache = self.cache.get_mut();
            for i in 0..cache.order.len() {
                let src = NodeId(cache.order[i]);
                let row = cache.rows[src.index()].as_mut().expect("ordered rows are resident");
                let (settled, rebuilt) =
                    repair_increase(graph, row, src, raises, &old_w, &mut self.scratch);
                if rebuilt {
                    cache.rows_rebuilt += 1;
                }
                if settled > 0 {
                    cache.rows_repaired += 1;
                    cache.vertices_settled += settled as u64;
                }
            }
        }
        for d in lowers {
            self.graph.set_edge_latency(d.id, d.w_new);
        }
        if !lowers.is_empty() {
            let graph = &self.graph;
            let cache = self.cache.get_mut();
            for i in 0..cache.order.len() {
                let src = NodeId(cache.order[i]);
                let row = cache.rows[src.index()].as_mut().expect("ordered rows are resident");
                let settled = repair_decrease(graph, row, src, lowers);
                if settled > 0 {
                    cache.rows_repaired += 1;
                    cache.vertices_settled += settled as u64;
                }
            }
        }
    }

    /// Drops cached rows for which the `(u, v)` edge changing `w_old →
    /// w_new` could alter any distance ([`DeltaPolicy::Invalidate`] only).
    fn invalidate_stale(&mut self, u: NodeId, v: NodeId, w_old: f64, w_new: f64) {
        let cache = self.cache.get_mut();
        let mut dropped = 0u64;
        cache.order.retain(|&src| {
            let row = cache.rows[src as usize].as_deref().expect("ordered rows are resident");
            let (du, dv) = (row[u.index()], row[v.index()]);
            // A weight change cannot connect a component the source does not
            // already reach (edges are never *added* through this path), so
            // doubly-unreachable endpoints leave the row valid. A mixed
            // finite/infinite pair is impossible while the edge exists.
            if du.is_infinite() && dv.is_infinite() {
                return true;
            }
            let relevant = |w: f64| du + w <= dv + TIGHT_EPS_MS || dv + w <= du + TIGHT_EPS_MS;
            if relevant(w_old) || relevant(w_new) {
                cache.rows[src as usize] = None;
                dropped += 1;
                false
            } else {
                true
            }
        });
        cache.rows_invalidated += dropped;
    }
}

/// Phase 1 of row repair: weight raises. `graph` already holds the raised
/// weights; `row` holds pre-batch labels; `old_w` maps raised edge ids to
/// their pre-batch weights. Returns `(labels recomputed, fell back to full
/// rebuild)`.
///
/// Only vertices reachable from a raised edge's far endpoint through a
/// chain of old-tight edges can change (any vertex whose distance grows
/// loses *every* old shortest path, and one such path witnesses the
/// tight chain), so the BFS-marked region is a superset of the changed
/// set and everything outside it keeps its label.
fn repair_increase(
    graph: &Graph,
    row: &mut [f64],
    src: NodeId,
    raises: &[EdgeDelta],
    // sbon-lint: allow(unordered-iteration): lookup-only map, see caller.
    old_w: &HashMap<u32, f64>,
    scratch: &mut RepairScratch,
) -> (usize, bool) {
    let n = graph.num_nodes();
    let epoch = scratch.begin(n);

    // Seed: far endpoints of raised edges that were old-tight. The source
    // itself never moves (d[src] = 0 by definition).
    for d in raises {
        let (da, db) = (row[d.a.index()], row[d.b.index()]);
        if !da.is_finite() || !db.is_finite() {
            continue;
        }
        if d.b != src && scratch.mark[d.b.index()] != epoch && da + d.w_old <= db + TIGHT_EPS_MS {
            scratch.mark[d.b.index()] = epoch;
            scratch.region.push(d.b.0);
        }
        if d.a != src && scratch.mark[d.a.index()] != epoch && db + d.w_old <= da + TIGHT_EPS_MS {
            scratch.mark[d.a.index()] = epoch;
            scratch.region.push(d.a.0);
        }
    }
    if scratch.region.is_empty() {
        return (0, false);
    }

    // Propagate through old-tight edges (old labels, pre-batch weights).
    let mut qi = 0;
    while qi < scratch.region.len() {
        let x = NodeId(scratch.region[qi]);
        qi += 1;
        let dx = row[x.index()];
        for (y, e, w_cur) in graph.neighbors_with_ids(x) {
            if y == src || scratch.mark[y.index()] == epoch || !row[y.index()].is_finite() {
                continue;
            }
            let w_pre = old_w.get(&e.0).copied().unwrap_or(w_cur);
            if dx + w_pre <= row[y.index()] + TIGHT_EPS_MS {
                scratch.mark[y.index()] = epoch;
                scratch.region.push(y.0);
            }
        }
    }

    // Past a quarter of the graph, a restricted Dijkstra stops paying for
    // its bookkeeping; rebuild the row outright.
    if scratch.region.len() * 4 >= n {
        let fresh = single_source(graph, src);
        row.copy_from_slice(&fresh);
        return (n, true);
    }

    // Recompute the region: unmarked labels are fixed and correct, so each
    // marked vertex restarts from its best boundary relaxation and the
    // heap settles the region's interior in distance order.
    for &x in &scratch.region {
        row[x as usize] = f64::INFINITY;
    }
    let mut heap = BinaryHeap::with_capacity(scratch.region.len());
    for &x in &scratch.region {
        let x = NodeId(x);
        let mut best = f64::INFINITY;
        for (y, _e, w) in graph.neighbors_with_ids(x) {
            if scratch.mark[y.index()] != epoch {
                let cand = row[y.index()] + w;
                if cand < best {
                    best = cand;
                }
            }
        }
        if best < f64::INFINITY {
            row[x.index()] = best;
            heap.push(HeapEntry { dist: best, node: x });
        }
    }
    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if d > row[v.index()] {
            continue; // stale entry
        }
        for (u, _e, w) in graph.neighbors_with_ids(v) {
            if scratch.mark[u.index()] != epoch {
                continue; // outside the region: label fixed
            }
            let nd = d + w;
            if nd < row[u.index()] {
                row[u.index()] = nd;
                heap.push(HeapEntry { dist: nd, node: u });
            }
        }
    }
    (scratch.region.len(), false)
}

/// Phase 2 of row repair: weight lowers. `graph` holds the final weights;
/// `row` holds exact labels for the pre-lower intermediate graph. Each
/// lowered edge seeds at most two improvements and a standard
/// improvement-propagation Dijkstra pushes them outward. Returns the
/// number of labels improved.
fn repair_decrease(graph: &Graph, row: &mut [f64], src: NodeId, lowers: &[EdgeDelta]) -> usize {
    let _ = src; // d[src] = 0 can never improve; no special-casing needed.
    let mut heap = BinaryHeap::new();
    for d in lowers {
        // INF endpoints fall out naturally: INF + w < x is never true.
        let nd = row[d.a.index()] + d.w_new;
        if nd < row[d.b.index()] {
            row[d.b.index()] = nd;
            heap.push(HeapEntry { dist: nd, node: d.b });
        }
        let nd = row[d.b.index()] + d.w_new;
        if nd < row[d.a.index()] {
            row[d.a.index()] = nd;
            heap.push(HeapEntry { dist: nd, node: d.a });
        }
    }
    let mut settled = 0usize;
    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if d > row[v.index()] {
            continue; // stale entry
        }
        settled += 1;
        for (u, w) in graph.neighbors(v) {
            let nd = d + w;
            if nd < row[u.index()] {
                row[u.index()] = nd;
                heap.push(HeapEntry { dist: nd, node: u });
            }
        }
    }
    settled
}

impl LatencyProvider for LazyLatency {
    fn len(&self) -> usize {
        self.graph.num_nodes()
    }

    fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        let mut cache = self.cache.borrow_mut();
        if let Some(row) = cache.rows[a.index()].as_deref() {
            let value = row[b.index()];
            cache.cache_hits += 1;
            return value;
        }
        let row = single_source(&self.graph, a).into_boxed_slice();
        let value = row[b.index()];
        cache.insert(a, row, self.capacity);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::all_pairs_latency;
    use crate::rng::rng_from_seed;
    use crate::topology::transit_stub::{generate, TransitStubConfig};
    use rand::Rng;

    /// Every (source, destination) latency must be bit-identical to the
    /// dense matrix built from the same graph.
    fn assert_matches_dense(lazy: &LazyLatency) {
        let dense = all_pairs_latency(lazy.graph());
        let n = lazy.len();
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let (a, b) = (NodeId(a), NodeId(b));
                let (l, d) = (lazy.latency(a, b), dense.latency(a, b));
                assert!(l == d || (l.is_nan() && d.is_nan()), "lazy {l} != dense {d} for {a}->{b}");
            }
        }
    }

    #[test]
    fn matches_dense_on_fresh_topology() {
        let t = generate(&TransitStubConfig::with_total_nodes(80), 11);
        let lazy = LazyLatency::new(t.graph);
        assert_matches_dense(&lazy);
    }

    /// Random churn through the repair path: every cached (and fresh) row
    /// stays bit-identical to the dense matrix on the mutated graph.
    #[test]
    fn matches_dense_after_random_edge_churn() {
        let t = generate(&TransitStubConfig::with_total_nodes(60), 3);
        let mut lazy = LazyLatency::new(t.graph);
        let mut rng = rng_from_seed(3);
        let m = lazy.graph().num_edges();
        for round in 0..6 {
            // Warm some rows, mutate some edges, then verify everything.
            for _ in 0..10 {
                let a = NodeId(rng.gen_range(0..lazy.len() as u32));
                let b = NodeId(rng.gen_range(0..lazy.len() as u32));
                lazy.latency(a, b);
            }
            for _ in 0..8 {
                let e = EdgeId(rng.gen_range(0..m as u32));
                let f = rng.gen_range(0.5..2.0);
                lazy.scale_edge_clamped(e, f, (0.25, 4.0));
            }
            assert_matches_dense(&lazy);
            assert!(lazy.stats().rows_computed > 0, "round {round}");
        }
    }

    /// The same churn through the legacy invalidation path still matches.
    #[test]
    fn invalidate_policy_matches_dense_after_random_edge_churn() {
        let t = generate(&TransitStubConfig::with_total_nodes(60), 3);
        let mut lazy = LazyLatency::new(t.graph).with_delta_policy(DeltaPolicy::Invalidate);
        let mut rng = rng_from_seed(4);
        let m = lazy.graph().num_edges();
        for _ in 0..4 {
            for _ in 0..10 {
                let a = NodeId(rng.gen_range(0..lazy.len() as u32));
                let b = NodeId(rng.gen_range(0..lazy.len() as u32));
                lazy.latency(a, b);
            }
            for _ in 0..8 {
                let e = EdgeId(rng.gen_range(0..m as u32));
                let f = rng.gen_range(0.5..2.0);
                lazy.scale_edge_clamped(e, f, (0.25, 4.0));
            }
            assert_matches_dense(&lazy);
        }
        assert!(lazy.stats().rows_invalidated > 0, "churn must have hit the invalidate path");
        assert_eq!(lazy.stats().rows_repaired, 0);
    }

    /// A batched delta set must leave rows identical to applying the same
    /// deltas one by one (and both identical to dense), including a
    /// duplicate edge whose intermediate value must not be observable.
    #[test]
    fn batched_deltas_match_sequential_application() {
        let t = generate(&TransitStubConfig::with_total_nodes(50), 17);
        let mut batched = LazyLatency::new(t.graph.clone());
        let mut sequential = LazyLatency::new(t.graph);
        let n = batched.len();
        for src in [0u32, 7, 23, 41] {
            batched.latency(NodeId(src), NodeId(1));
            sequential.latency(NodeId(src), NodeId(1));
        }
        let deltas = [
            (EdgeId(3), 40.0),
            (EdgeId(10), 0.5),
            (EdgeId(3), 2.0), // duplicate: final value wins
            (EdgeId(21), 9.0),
        ];
        batched.apply_edge_deltas(&deltas);
        for &(e, w) in &deltas {
            sequential.set_edge_latency(e, w);
        }
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let (a, b) = (NodeId(a), NodeId(b));
                assert_eq!(batched.latency(a, b), sequential.latency(a, b), "{a}->{b}");
            }
        }
        assert_matches_dense(&batched);
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let t = generate(&TransitStubConfig::with_total_nodes(40), 5);
        let lazy = LazyLatency::new(t.graph);
        lazy.latency(NodeId(0), NodeId(7));
        lazy.latency(NodeId(0), NodeId(9));
        let s = lazy.stats();
        assert_eq!(s.rows_computed, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.rows_cached, 1);
    }

    #[test]
    fn irrelevant_edge_mutation_keeps_rows_untouched() {
        // Line 0 -1- 1 -1- 2, plus a far-away pair 3 -1- 4: changing the
        // (3,4) edge cannot affect distances out of node 0 — repair must
        // not do any work at all.
        let mut g = Graph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        let far = g.add_edge(NodeId(3), NodeId(4), 1.0);
        let mut lazy = LazyLatency::new(g);
        assert_eq!(lazy.latency(NodeId(0), NodeId(2)), 2.0);
        lazy.set_edge_latency(far, 5.0);
        let s = lazy.stats();
        assert_eq!(s.rows_repaired, 0, "disconnected-component edge must not touch row 0");
        assert_eq!(s.vertices_settled, 0);
        assert_eq!(s.rows_cached, 1);
    }

    /// A raise on a used edge repairs affected rows *in place*: they stay
    /// resident (no recompute on next query) and serve the new distances.
    #[test]
    fn raise_repairs_rows_in_place() {
        // 0 -1- 1 -1- 2 (a line). Rows from 0 and from 2 both cross edge
        // (1,2); raising it must fix both without dropping either.
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let e = g.add_edge(NodeId(1), NodeId(2), 1.0);
        let mut lazy = LazyLatency::new(g);
        lazy.latency(NodeId(0), NodeId(2));
        lazy.latency(NodeId(2), NodeId(0));
        lazy.set_edge_latency(e, 10.0);
        let s = lazy.stats();
        assert_eq!(s.rows_cached, 2, "repair keeps rows resident");
        assert_eq!(s.rows_repaired, 2);
        assert!(s.vertices_settled > 0);
        let computed_before = s.rows_computed;
        assert_eq!(lazy.latency(NodeId(0), NodeId(2)), 11.0);
        assert_eq!(lazy.latency(NodeId(2), NodeId(0)), 11.0);
        assert_eq!(lazy.stats().rows_computed, computed_before, "no recompute after repair");
    }

    /// A lower that creates a shortcut propagates through the row.
    #[test]
    fn lower_propagates_shortcut() {
        // 0 -10- 1 -1- 2; lowering (0,1) to 1 must update d(0,2) too.
        let mut g = Graph::new(3);
        let e = g.add_edge(NodeId(0), NodeId(1), 10.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        let mut lazy = LazyLatency::new(g);
        assert_eq!(lazy.latency(NodeId(0), NodeId(2)), 11.0);
        lazy.set_edge_latency(e, 1.0);
        assert_eq!(lazy.latency(NodeId(0), NodeId(2)), 2.0);
        assert_eq!(lazy.latency(NodeId(0), NodeId(1)), 1.0);
        assert!(lazy.stats().rows_repaired >= 1);
    }

    /// When the affected region covers most of the graph the repair falls
    /// back to a full-row rebuild — and still matches dense.
    #[test]
    fn large_region_falls_back_to_rebuild() {
        // A star: every distance from the hub crosses the raised edge's
        // tight tree, so raising a spoke adjacent to everything marks a
        // large region. Use a line where raising the first edge affects
        // every downstream vertex.
        let mut g = Graph::new(8);
        let first = g.add_edge(NodeId(0), NodeId(1), 1.0);
        for i in 1..7u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), 1.0);
        }
        let mut lazy = LazyLatency::new(g);
        lazy.latency(NodeId(0), NodeId(7));
        lazy.set_edge_latency(first, 5.0);
        let s = lazy.stats();
        assert_eq!(s.rows_rebuilt, 1, "7 of 8 vertices affected: rebuild threshold");
        assert_eq!(lazy.latency(NodeId(0), NodeId(7)), 11.0);
        assert_matches_dense(&lazy);
    }

    #[test]
    fn unchanged_weight_is_a_noop() {
        let mut g = Graph::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 4.0);
        let mut lazy = LazyLatency::new(g);
        lazy.latency(NodeId(0), NodeId(1));
        lazy.set_edge_latency(e, 4.0);
        assert_eq!(lazy.stats().rows_repaired, 0);
        assert_eq!(lazy.stats().rows_cached, 1);
    }

    #[test]
    fn capacity_bounds_resident_rows() {
        let t = generate(&TransitStubConfig::with_total_nodes(50), 7);
        let lazy = LazyLatency::with_capacity(t.graph, 3);
        for src in 0..10u32 {
            lazy.latency(NodeId(src), NodeId(20));
        }
        let s = lazy.stats();
        assert_eq!(s.rows_cached, 3);
        assert_eq!(s.rows_computed, 10);
        assert_eq!(s.rows_evicted, 7);
        // Evicted rows recompute correctly.
        assert_matches_dense(&lazy);
    }

    /// A row that is invalidated and then refetched must be *re-enqueued*
    /// in the FIFO order, not duplicated: a stale duplicate entry would make
    /// one capacity eviction pop the ghost and a later one over-evict a
    /// still-valid row (and `rows_cached` would double-count). Pins the
    /// invariant that `order` holds each resident source exactly once.
    /// (Invalidate policy: only that path removes rows mid-order.)
    #[test]
    fn invalidated_then_refetched_row_does_not_duplicate_in_fifo() {
        // Square: 0 —10— 1, 0 —1— 2 —1— 3 —1— 1. The (0,1) edge has an
        // alternate 3-hop path, so re-weighting it to 1.5 invalidates row 0
        // (new shortcut: 1.5 < 3) but leaves row 2 valid (2 + 1.5 > 1 and
        // 1 + 1.5 > 2).
        let mut g = Graph::new(4);
        let e01 = g.add_edge(NodeId(0), NodeId(1), 10.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        g.add_edge(NodeId(3), NodeId(1), 1.0);
        let mut lazy = LazyLatency::with_capacity(g, 2).with_delta_policy(DeltaPolicy::Invalidate);
        assert_eq!(lazy.latency(NodeId(0), NodeId(1)), 3.0); // order: [0]
        assert_eq!(lazy.latency(NodeId(2), NodeId(1)), 2.0); // order: [0, 2]
        assert_eq!(lazy.stats().rows_cached, 2);

        // Invalidate row 0 only, then refetch it: the FIFO order must
        // become [2, 0] with each source present exactly once.
        lazy.set_edge_latency(e01, 1.5);
        assert_eq!(lazy.stats().rows_invalidated, 1, "only row 0 is stale");
        assert_eq!(lazy.latency(NodeId(0), NodeId(1)), 1.5); // recompute
        assert_eq!(lazy.stats().rows_cached, 2);

        // One more source at capacity 2 evicts exactly one row — the
        // oldest (2) — and must leave the refetched row 0 resident. A stale
        // duplicate of 0 at the queue front would instead evict 0's fresh
        // row (over-eviction) while `rows_cached` double-counted it.
        let evicted_before = lazy.stats().rows_evicted;
        lazy.latency(NodeId(3), NodeId(0)); // order: [0, 3]
        assert_eq!(lazy.stats().rows_evicted, evicted_before + 1);
        assert_eq!(lazy.stats().rows_cached, 2);
        let hits_before = lazy.stats().cache_hits;
        lazy.latency(NodeId(0), NodeId(2)); // must still be a cache hit
        assert_eq!(lazy.stats().cache_hits, hits_before + 1);
        assert_eq!(lazy.stats().rows_cached, 2, "no ghost entries inflate residency");
    }

    #[test]
    fn ensure_rows_dedups_and_counts() {
        let t = generate(&TransitStubConfig::with_total_nodes(40), 13);
        let lazy = LazyLatency::new(t.graph);
        lazy.latency(NodeId(5), NodeId(1)); // row 5 already resident
        let computed =
            lazy.ensure_rows(&[NodeId(5), NodeId(2), NodeId(9), NodeId(2), NodeId(5)], None);
        assert_eq!(computed, 2, "5 is resident and 2 is repeated");
        let s = lazy.stats();
        assert_eq!(s.rows_computed, 3);
        assert_eq!(s.rows_cached, 3);
        // Values match on-demand computation.
        assert_matches_dense(&lazy);
    }

    /// `ensure_rows` with a pool must leave cache state and served values
    /// identical to the serial path — and FIFO eviction order too.
    #[test]
    fn ensure_rows_parallel_is_bit_identical_to_serial() {
        let t = generate(&TransitStubConfig::with_total_nodes(60), 21);
        let sources: Vec<NodeId> = (0..20u32).map(NodeId).collect();
        let serial = LazyLatency::with_capacity(t.graph.clone(), 8);
        serial.ensure_rows(&sources, None);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(6).build().expect("pool");
        let parallel = LazyLatency::with_capacity(t.graph, 8);
        parallel.ensure_rows(&sources, Some(&pool));
        assert_eq!(serial.stats(), parallel.stats());
        let n = serial.len();
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let (a, b) = (NodeId(a), NodeId(b));
                assert_eq!(
                    serial.latency(a, b).to_bits(),
                    parallel.latency(a, b).to_bits(),
                    "{a}->{b}"
                );
            }
        }
    }

    #[test]
    fn evict_all_clears_cache_but_not_the_graph() {
        let t = generate(&TransitStubConfig::with_total_nodes(40), 9);
        let lazy = LazyLatency::new(t.graph);
        let before = lazy.latency(NodeId(1), NodeId(30));
        lazy.evict_all();
        assert_eq!(lazy.stats().rows_cached, 0);
        assert_eq!(lazy.latency(NodeId(1), NodeId(30)), before);
    }

    #[test]
    fn unreachable_pairs_are_infinite() {
        let g = Graph::new(2);
        let lazy = LazyLatency::new(g);
        assert!(lazy.latency(NodeId(0), NodeId(1)).is_infinite());
        assert_eq!(lazy.latency(NodeId(0), NodeId(0)), 0.0);
    }

    #[test]
    fn scale_edge_respects_band() {
        let mut g = Graph::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 10.0);
        let mut lazy = LazyLatency::new(g);
        // Repeated inflation saturates at band.1 × base.
        for _ in 0..10 {
            lazy.scale_edge_clamped(e, 2.0, (0.5, 3.0));
        }
        assert_eq!(lazy.latency(NodeId(0), NodeId(1)), 30.0);
        assert_eq!(lazy.base_edge_latency(e), 10.0);
        // And repeated deflation saturates at band.0 × base.
        for _ in 0..10 {
            lazy.scale_edge_clamped(e, 0.5, (0.5, 3.0));
        }
        assert_eq!(lazy.latency(NodeId(0), NodeId(1)), 5.0);
    }
}
