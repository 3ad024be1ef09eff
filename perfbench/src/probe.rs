//! Benchmark-side tracing: spans around every public call, each carrying
//! the deltas of the runtime's public stats getters across that call.
//!
//! Nothing here reaches into the crates. A span is recorded *after* its
//! call returns, from timestamps the driver took around the call, so the
//! call's own wall time never includes the probe's reads. The reads do add
//! to the iteration's total time; that difference between a traced and an
//! untraced iteration is the `obs.trace_overhead_share` metric.

// Benchmark harness: spans are stamped with the wall clock by design.
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::time::Instant;

use sbon::overlay::{MetricsSnapshot, OverlayRuntime};

use crate::stats::{json_num, json_str};

macro_rules! counters {
    ($($id:ident => $name:literal),* $(,)?) => {
        /// Index of one counter in a [`Counters`] reading.
        #[derive(Clone, Copy, Debug)]
        pub enum C { $($id),* }
        /// Counter names, indexed by [`C`].
        pub const NAMES: &[&str] = &[$($name),*];
    };
}

counters! {
    Ticks => "cp.ticks",
    DirtyNodes => "cp.dirty_nodes",
    PointsUpdated => "cp.points_updated",
    NodesJoined => "cp.nodes_joined",
    JoinNs => "cp.join_ns",
    RefreshNs => "cp.refresh_ns",
    LocalNs => "cp.local_reopt_ns",
    RewriteNs => "cp.rewrite_ns",
    FullNs => "cp.full_reopt_ns",
    EvacNs => "cp.evac_ns",
    Evaluated => "cp.reopt_evaluated",
    Skipped => "cp.reopt_skipped",
    UsageNs => "cp.usage_ns",
    RowsComputed => "lazy.rows_computed",
    CacheHits => "lazy.cache_hits",
    RowsInvalidated => "lazy.rows_invalidated",
    RowsEvicted => "lazy.rows_evicted",
    RowsRepaired => "lazy.rows_repaired",
    VerticesSettled => "lazy.vertices_settled",
    RowsRebuilt => "lazy.rows_rebuilt",
    RowsResident => "lazy.rows_cached",
    DhtLookups => "dht.lookups",
    DhtHops => "dht.hops",
    DhtCandidates => "dht.candidates_examined",
    RoutedLookups => "routed.lookups",
    RoutedMessages => "routed.messages",
    RoutedRetries => "routed.retries",
    RoutedTimeouts => "routed.timeouts",
    RoutedRegistrations => "routed.registrations",
    Arrivals => "lifecycle.arrivals",
    Departures => "lifecycle.departures",
    ReuseHits => "lifecycle.reuse_hits",
    ReusedServices => "lifecycle.reused_services",
    Active => "runtime.active_queries",
    Retained => "runtime.retained_shared_subtrees",
}

/// The tick phases the runtime's own counters attribute wall time to.
pub const PHASES_NS: [C; 7] =
    [C::JoinNs, C::RefreshNs, C::LocalNs, C::RewriteNs, C::FullNs, C::EvacNs, C::UsageNs];

/// Every public stats getter of one runtime, read at one instant and
/// flattened to numbers indexed by [`C`].
#[derive(Clone, Debug)]
pub struct Counters([f64; NAMES.len()]);

impl Counters {
    /// All zeros: the reading before a runtime exists.
    pub fn zero() -> Counters {
        Counters([0.0; NAMES.len()])
    }

    /// Reads `control_plane_stats`, `lazy_latency_stats`, `dht_stats`,
    /// `routed_stats`, `lifecycle_stats` and the tenancy gauges.
    pub fn read(rt: &OverlayRuntime) -> Counters {
        let mut c = Counters::zero();
        let cp = rt.control_plane_stats();
        c.set(C::Ticks, cp.ticks as f64);
        c.set(C::DirtyNodes, cp.dirty_nodes as f64);
        c.set(C::PointsUpdated, cp.points_updated as f64);
        c.set(C::NodesJoined, cp.nodes_joined as f64);
        c.set(C::JoinNs, cp.join_ns as f64);
        c.set(C::RefreshNs, cp.refresh_ns as f64);
        c.set(C::LocalNs, cp.local_reopt_ns as f64);
        c.set(C::RewriteNs, cp.rewrite_ns as f64);
        c.set(C::FullNs, cp.full_reopt_ns as f64);
        c.set(C::EvacNs, cp.evac_ns as f64);
        c.set(C::Evaluated, cp.reopt_evaluated as f64);
        c.set(C::Skipped, cp.reopt_skipped as f64);
        c.set(C::UsageNs, cp.usage_ns as f64);
        if let Some(lazy) = rt.lazy_latency_stats() {
            c.set(C::RowsComputed, lazy.rows_computed as f64);
            c.set(C::CacheHits, lazy.cache_hits as f64);
            c.set(C::RowsInvalidated, lazy.rows_invalidated as f64);
            c.set(C::RowsEvicted, lazy.rows_evicted as f64);
            c.set(C::RowsRepaired, lazy.rows_repaired as f64);
            c.set(C::VerticesSettled, lazy.vertices_settled as f64);
            c.set(C::RowsRebuilt, lazy.rows_rebuilt as f64);
            c.set(C::RowsResident, lazy.rows_cached as f64);
        }
        if let Some(dht) = rt.dht_stats() {
            c.set(C::DhtLookups, dht.lookups as f64);
            c.set(C::DhtHops, dht.hops as f64);
            c.set(C::DhtCandidates, dht.candidates_examined as f64);
        }
        if let Some(rs) = rt.routed_stats() {
            c.set(C::RoutedLookups, rs.lookups as f64);
            c.set(C::RoutedMessages, rs.messages as f64);
            c.set(C::RoutedRetries, rs.retries as f64);
            c.set(C::RoutedTimeouts, rs.timeouts as f64);
            c.set(C::RoutedRegistrations, rs.registrations as f64);
        }
        let life = rt.lifecycle_stats();
        c.set(C::Arrivals, life.arrivals as f64);
        c.set(C::Departures, life.departures as f64);
        c.set(C::ReuseHits, life.reuse_hits as f64);
        c.set(C::ReusedServices, life.reused_services as f64);
        c.set(C::Active, rt.active_queries() as f64);
        c.set(C::Retained, rt.retained_shared_subtrees() as f64);
        c
    }

    /// One counter.
    pub fn get(&self, c: C) -> f64 {
        self.0[c as usize]
    }

    fn set(&mut self, c: C, v: f64) {
        self.0[c as usize] = v;
    }

    /// Sum of the tick phases' wall-time counters, in nanoseconds.
    pub fn phases_ns(&self) -> f64 {
        PHASES_NS.iter().map(|&c| self.get(c)).sum()
    }
}

/// Identifier of a recorded span; [`ROOT`] is "no parent".
pub type SpanId = u32;

/// The parent of top-level spans.
pub const ROOT: SpanId = 0;

/// Per-layer figures one traced iteration accumulates from its spans.
#[derive(Clone, Debug, Default)]
pub struct LayerSample {
    /// Wall time of the `advance_ticks` calls (s).
    pub tick_wall_s: f64,
    /// Of that, what the runtime's own phase counters attribute (s).
    pub tick_attributed_s: f64,
    /// `deploy` calls that attached to no running instance (ms each).
    pub deploy_cold_ms: Vec<f64>,
    /// `deploy` calls that were reuse hits (ms each).
    pub deploy_reuse_ms: Vec<f64>,
    /// Most lazy rows resident after any call.
    pub rows_resident_peak: f64,
    /// Most retained shared subtrees after any call.
    pub retained_peak: f64,
}

/// Records spans when tracing is on; every method is a no-op when off.
///
/// Spans are serialized as JSON lines the moment they are recorded, into
/// one growing buffer written out when the run ends: tens of thousands of
/// small per-span allocations would fragment the heap and slow every later
/// iteration, traced or not.
pub struct Probe {
    on: bool,
    epoch: Instant,
    next_id: SpanId,
    spans: usize,
    jsonl: String,
    open: Vec<(SpanId, SpanId, &'static str, Instant)>,
    last: Counters,
    last_snap: MetricsSnapshot,
    sample: LayerSample,
}

impl Probe {
    /// A probe that records nothing (untraced runs).
    pub fn off() -> Probe {
        Probe::new(false, Instant::now())
    }

    /// A recording probe; span times are relative to `epoch`.
    pub fn on(epoch: Instant) -> Probe {
        Probe::new(true, epoch)
    }

    fn new(on: bool, epoch: Instant) -> Probe {
        Probe {
            on,
            epoch,
            next_id: ROOT,
            spans: 0,
            jsonl: String::new(),
            open: Vec::new(),
            last: Counters::zero(),
            last_snap: MetricsSnapshot::default(),
            sample: LayerSample::default(),
        }
    }

    /// Starts a new iteration: counter deltas restart from zero, because
    /// the iteration builds a fresh runtime.
    pub fn begin_iteration(&mut self) {
        self.last = Counters::zero();
        self.last_snap = MetricsSnapshot::default();
        self.sample = LayerSample::default();
    }

    /// Hands back the iteration's per-layer figures (`None` when off).
    pub fn end_iteration(&mut self) -> Option<LayerSample> {
        self.on.then(|| std::mem::take(&mut self.sample))
    }

    fn alloc(&mut self) -> SpanId {
        self.next_id += 1;
        self.next_id
    }

    /// Opens a grouping span (an iteration, the set-up, the tick train).
    pub fn open(&mut self, kind: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let id = self.alloc();
        self.open.push((id, parent, kind, Instant::now()));
        id
    }

    /// Closes the most recently opened grouping span `id`.
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let (open_id, parent, kind, start) = self.open.pop().expect("a span is open");
        assert_eq!(open_id, id, "grouping spans close in LIFO order");
        let end = Instant::now();
        self.push(id, parent, kind, start, end, "", "");
    }

    /// Records one public call that ran over `[start, end)` under
    /// `parent`. With a runtime, the span carries the deltas of every
    /// stats getter across the call, and the layer figures are updated.
    pub fn call(
        &mut self,
        rt: Option<&OverlayRuntime>,
        kind: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let id = self.alloc();
        let Some(rt) = rt else {
            self.push(id, parent, kind, start, end, "", "");
            return;
        };
        let now = Counters::read(rt);
        let snap = rt.metrics_snapshot();
        let wall_s = (end - start).as_secs_f64();
        let s = &mut self.sample;
        match kind {
            "advance_ticks" => {
                s.tick_wall_s += wall_s;
                s.tick_attributed_s += (now.phases_ns() - self.last.phases_ns()) / 1e9;
            }
            "deploy" => {
                if now.get(C::ReuseHits) > self.last.get(C::ReuseHits) {
                    s.deploy_reuse_ms.push(wall_s * 1e3);
                } else {
                    s.deploy_cold_ms.push(wall_s * 1e3);
                }
            }
            _ => {}
        }
        s.rows_resident_peak = s.rows_resident_peak.max(now.get(C::RowsResident));
        s.retained_peak = s.retained_peak.max(now.get(C::Retained));
        let mut fields = String::new();
        for (i, name) in NAMES.iter().enumerate() {
            let d = now.0[i] - self.last.0[i];
            if d != 0.0 {
                let _ = write!(fields, "{}{}:{}", sep(&fields), json_str(name), json_num(d));
            }
        }
        let mut registry = String::new();
        for (k, v) in snap.diff(&self.last_snap).counters {
            if v > 0 {
                let _ = write!(registry, "{}{}:{v}", sep(&registry), json_str(&k));
            }
        }
        self.last = now;
        self.last_snap = snap;
        self.push(id, parent, kind, start, end, &fields, &registry);
    }

    #[allow(clippy::too_many_arguments)] // the span's fields, spelled out
    fn push(
        &mut self,
        id: SpanId,
        parent: SpanId,
        kind: &'static str,
        start: Instant,
        end: Instant,
        deltas: &str,
        registry: &str,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let _ = writeln!(
            self.jsonl,
            "{{\"id\":{id},\"parent\":{parent},\"kind\":{},\"start_us\":{},\"end_us\":{},\
             \"deltas\":{{{deltas}}},\"registry\":{{{registry}}}}}",
            json_str(kind),
            json_num(us(start)),
            json_num(us(end)),
        );
        self.spans += 1;
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans
    }

    /// Every recorded span, one JSON object per line, in the order the
    /// spans ended.
    pub fn jsonl(&self) -> &str {
        &self.jsonl
    }
}

/// The separator before the next field of a JSON object being built.
fn sep(object: &str) -> &'static str {
    if object.is_empty() {
        ""
    } else {
        ","
    }
}
