//! The three workloads and their timed drivers.
//!
//! Every driver reaches `sbon` only through public calls —
//! `transit_stub::generate`, `OverlayRuntime::{new, deploy, undeploy,
//! start_run, advance_ticks, finish_run}`, the `sbon_workload` generators
//! and the stats getters — and times each call from outside. One thread
//! drives a closed loop: a call is issued when the previous one returns.
//! Arrivals are scheduled in virtual time, so the driver is never late.

// Benchmark harness: wall-clock timing around public calls is its purpose.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use rand::seq::SliceRandom;
use rand::Rng;

use sbon::core::multiquery::ReuseScope;
use sbon::core::reopt::ReoptPolicy;
use sbon::core::QuerySpec;
use sbon::dht::ProtoConfig;
use sbon::netsim::graph::NodeId;
use sbon::netsim::load::ChurnProcess;
use sbon::netsim::rng::{derive_rng, derive_seed};
use sbon::netsim::topology::transit_stub::{self, TransitStubConfig};
use sbon::netsim::topology::Topology;
use sbon::overlay::{
    CircuitHandle, DeploymentModel, JitterModel, LatencyBackend, MapperBackend, OverlayRuntime,
    RunReport, RuntimeConfig,
};
use sbon::prelude::VivaldiConfig;
use sbon::query::stream::StreamCatalog;
use sbon::workload::{
    ArrivalProcess, CatalogSpec, QueryGenerator, QueryTemplate, Scenario, ScenarioReport,
    SessionDuration, WorkloadSpec,
};

use crate::probe::{Counters, LayerSample, Probe, SpanId, C, NAMES, ROOT};
use crate::stats::{fnv1a, quantile};

/// Stream the per-input seeds derive from.
const INPUT_STREAM: u64 = 0xBE7C_0000;

/// Worker threads of the runtime under test. Serial on purpose: on the
/// two-vCPU host the benchmark was tuned on, a second thread bought the
/// wave tiers nothing (2.96 s against 2.97 s per input) while the per-call
/// thread spawn made the storm's sub-millisecond ticks three times slower
/// and swung its tick p90 by 60% from run to run. Results are identical
/// for every thread count.
pub const RUNTIME_THREADS: usize = 1;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// The 100k planet tier's shape at a size two cores can run.
    WaveJitter,
    /// A flash crowd of reuse-aware tenants: deploys and undeploys beside
    /// re-optimizing ticks.
    TenantStorm,
    /// The wave shape under the message-passing control plane.
    RoutedPlane,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] =
        [Workload::WaveJitter, Workload::TenantStorm, Workload::RoutedPlane];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WaveJitter => "wave_jitter",
            Workload::TenantStorm => "tenant_storm",
            Workload::RoutedPlane => "routed_plane",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Inputs one run measures: a fixed set derived from the run's seed.
    /// A single network, catalog and arrival stream varies far more from
    /// seed to seed than a run varies from repeat to repeat, so every run
    /// averages over the same number of them (and pools at least 100
    /// ticks).
    pub fn inputs(self) -> usize {
        match self {
            Workload::WaveJitter => 10,
            Workload::TenantStorm => 14,
            Workload::RoutedPlane => 12,
        }
    }

    /// The seed of input `input` of a run with seed `seed`.
    pub fn input_seed(seed: u64, input: usize) -> u64 {
        derive_seed(seed, INPUT_STREAM + input as u64)
    }

    /// Runs one timed iteration on input `input` of seed `seed`.
    pub fn iterate(self, seed: u64, input: usize, probe: &mut Probe) -> Result<Iteration, String> {
        let seed = Workload::input_seed(seed, input);
        match self {
            Workload::TenantStorm => drive_storm(&storm_scenario(seed), probe),
            _ => {
                let wave = self.wave();
                drive_wave(&wave, seed, wave.backend, probe)
            }
        }
    }

    /// The correctness gate that needs a second, untimed run: the routed
    /// plane must equal its omniscient twin, and the storm's timed driver
    /// must reproduce `Scenario::run_on`. `first` is a timed iteration of
    /// input 0 of the same seed.
    pub fn check_against_reference(self, seed: u64, first: &Iteration) -> Result<String, String> {
        let seed = Workload::input_seed(seed, 0);
        match self {
            Workload::WaveJitter => Ok("every circuit deployed; full membership arrived".into()),
            Workload::RoutedPlane => {
                let twin =
                    drive_wave(&self.wave(), seed, MapperBackend::default(), &mut Probe::off())?;
                if twin.report != first.report {
                    return Err("routed RunReport differs from its omniscient twin".into());
                }
                Ok("RunReport equals the omniscient-backend twin".into())
            }
            Workload::TenantStorm => {
                let sc = storm_scenario(seed);
                let topo =
                    transit_stub::generate(&TransitStubConfig::with_total_nodes(sc.nodes), seed);
                let reference = sc.run_on(&topo);
                let ours = first.scenario.as_ref().ok_or("storm iteration has no report")?;
                if format!("{reference:?}") != format!("{ours:?}") {
                    return Err(format!(
                        "timed driver diverged from Scenario::run_on:\n  ours: {ours:?}\n  \
                         reference: {reference:?}"
                    ));
                }
                Ok("drained to baseline; ScenarioReport equals Scenario::run_on".into())
            }
        }
    }

    fn wave(self) -> Wave {
        match self {
            // 8×8 backbone homing 512 stub domains of 12 nodes: 6,208
            // nodes, all arrived by tick 35 of 40.
            Workload::WaveJitter => Wave {
                topo: backbone_8x8(12),
                horizon_ms: 40_000.0,
                queries: 32,
                landmarks: 64,
                initial: 1_000,
                joins_per_tick: 150,
                jitter_edges: 75,
                backend: MapperBackend::default(),
            },
            // 512 stub domains of 4 nodes: 2,112 nodes, all arrived by
            // tick 22 of 25. Nearly every latency row becomes resident.
            Workload::RoutedPlane => Wave {
                topo: backbone_8x8(4),
                horizon_ms: 25_000.0,
                queries: 32,
                landmarks: 32,
                initial: 400,
                joins_per_tick: 80,
                jitter_edges: 50,
                backend: MapperBackend::Routed {
                    bits: 12,
                    scan_width: 8,
                    proto: ProtoConfig::default(),
                },
            },
            Workload::TenantStorm => unreachable!("tenant_storm is a scenario, not a wave"),
        }
    }
}

fn backbone_8x8(stub_nodes_per_domain: usize) -> TransitStubConfig {
    TransitStubConfig {
        transit_domains: 8,
        transit_nodes_per_domain: 8,
        stub_domains_per_transit_node: 8,
        stub_nodes_per_domain,
        ..Default::default()
    }
}

/// A deployment-wave workload: the planet tier's configuration knobs.
struct Wave {
    topo: TransitStubConfig,
    horizon_ms: f64,
    queries: usize,
    landmarks: usize,
    initial: usize,
    joins_per_tick: usize,
    jitter_edges: usize,
    backend: MapperBackend,
}

impl Wave {
    fn config(&self, backend: MapperBackend) -> RuntimeConfig {
        RuntimeConfig::builder()
            .mapper_backend(backend)
            .tick_ms(1_000.0)
            .horizon_ms(self.horizon_ms)
            .reopt_interval_ms(5_000.0)
            .full_reopt_interval_ms(15_000.0)
            .policy(ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.15 })
            .churn(ChurnProcess::SparseWalk { nodes_per_tick: 64, std_dev: 0.1 })
            .latency_jitter(JitterModel { edges_per_tick: self.jitter_edges, ..Default::default() })
            .latency_backend(LatencyBackend::Lazy)
            .vivaldi(VivaldiConfig { landmarks: Some(self.landmarks), ..Default::default() })
            .deployment(DeploymentModel::Wave {
                initial: self.initial,
                joins_per_tick: self.joins_per_tick,
            })
            .threads(RUNTIME_THREADS)
            .build()
    }
}

/// The flash-crowd scenario: 4,144 nodes, reuse within a cost-space
/// radius, a Zipf template mix, over a thousand arrivals and as many
/// departures, no jitter.
fn storm_scenario(seed: u64) -> Scenario {
    let runtime = RuntimeConfig::builder()
        .horizon_ms(60_000.0)
        .churn(ChurnProcess::SparseWalk { nodes_per_tick: 16, std_dev: 0.1 })
        .latency_backend(LatencyBackend::Lazy)
        .vivaldi(VivaldiConfig { landmarks: Some(32), ..Default::default() })
        .reuse(ReuseScope::Radius(60.0))
        .threads(RUNTIME_THREADS)
        .build();
    Scenario {
        catalog: CatalogSpec { feeds: 16, rate: 10.0, zipf_exponent: 1.1, join_selectivity: 0.02 },
        workload: WorkloadSpec {
            arrival: ArrivalProcess::FlashCrowd {
                base_per_sec: 15.0,
                peak_per_sec: 45.0,
                start_ms: 20_000.0,
                end_ms: 35_000.0,
            },
            duration: SessionDuration::Exponential { mean_ms: 15_000.0 },
            templates: vec![
                (QueryTemplate::PopularFeedJoin { ways: 2 }, 4.0),
                (QueryTemplate::PopularFeedJoin { ways: 3 }, 2.0),
                (QueryTemplate::FanInAggregate { ways: 3, ratio: 0.2 }, 1.0),
                (QueryTemplate::ChainFilter { filters: 2, selectivity: 0.3 }, 1.0),
            ],
            max_arrivals: None,
            drain_at_end: true,
        },
        ..Scenario::new("tenant_storm", 4_144, seed, runtime)
    }
}

/// Everything one timed iteration measured.
pub struct Iteration {
    /// `transit_stub::generate` wall time (s).
    pub generate_s: f64,
    /// `OverlayRuntime::new` wall time (s), landmark warm-up included.
    pub new_s: f64,
    /// Each `deploy` call (ms).
    pub deploy_ms: Vec<f64>,
    /// `deploy` calls that returned `None`.
    pub deploy_failed: usize,
    /// Each `undeploy` call (ms).
    pub undeploy_ms: Vec<f64>,
    /// `undeploy` calls that returned `false`.
    pub undeploy_failed: usize,
    /// Each `advance_ticks(_, 1)` call that completed a tick (ms).
    pub tick_ms: Vec<f64>,
    /// Every `advance_ticks` call, including a trailing one that only
    /// drains the horizon (s).
    pub train_s: f64,
    /// Simulated seconds the tick train covered.
    pub sim_s: f64,
    /// Wall time from the first deploy to `finish_run` returning (s).
    pub lifecycle_s: f64,
    /// Set-up through `finish_run` (s).
    pub total_s: f64,
    /// Arrivals plus departures the runtime counted.
    pub lifecycle_ops: usize,
    /// The run's report.
    pub report: RunReport,
    /// Experienced routed-lookup latency (virtual ms): p50, p90, count.
    pub lookup_vms: Option<(f64, f64, u64)>,
    /// The storm's workload-level report, rebuilt from the timed loop.
    pub scenario: Option<ScenarioReport>,
    /// Digest of the report and the deterministic work counts.
    pub fingerprint: String,
    /// Per-layer figures (traced iterations only).
    pub layers: Option<LayerSample>,
    /// The end-of-iteration stats reading.
    pub totals: Counters,
    /// Overlay size.
    pub nodes: usize,
    /// How much slower than nominal the host ran around this iteration
    /// (set by the caller from the yardstick; 1 until then).
    pub host: f64,
}

/// The determinism fingerprint of one iteration, as one line: a digest of
/// its `RunReport` (whose `Debug` form is bit-exact for every float) plus
/// every deterministic work count.
fn fingerprint(report: &RunReport, totals: &Counters) -> String {
    const WORK: [C; 19] = [
        C::Ticks,
        C::DirtyNodes,
        C::PointsUpdated,
        C::NodesJoined,
        C::Evaluated,
        C::Skipped,
        C::RowsComputed,
        C::RowsRepaired,
        C::VerticesSettled,
        C::RowsRebuilt,
        C::RowsResident,
        C::DhtLookups,
        C::DhtHops,
        C::DhtCandidates,
        C::RoutedLookups,
        C::RoutedMessages,
        C::Arrivals,
        C::Departures,
        C::ReuseHits,
    ];
    let counts: Vec<String> =
        WORK.iter().map(|&c| format!("{}={}", NAMES[c as usize], totals.get(c))).collect();
    format!("report={:016x} {}", fnv1a(format!("{report:?}").as_bytes()), counts.join(" "))
}

/// Times one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let start = Instant::now();
    let out = f();
    (out, start, Instant::now())
}

fn ms(start: Instant, end: Instant) -> f64 {
    (end - start).as_secs_f64() * 1e3
}

/// Set-up shared by both drivers: topology, then runtime.
fn setup(
    topo_cfg: &TransitStubConfig,
    seed: u64,
    config: RuntimeConfig,
    probe: &mut Probe,
    parent: SpanId,
) -> (Topology, OverlayRuntime, f64, f64) {
    let span = probe.open("setup", parent);
    let (topo, t0, t1) = timed(|| transit_stub::generate(topo_cfg, seed));
    probe.call(None, "transit_stub::generate", span, t0, t1);
    let (rt, t1, t2) = timed(|| OverlayRuntime::new(&topo, seed, config));
    probe.call(Some(&rt), "OverlayRuntime::new", span, t1, t2);
    probe.close(span);
    (topo, rt, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// One `advance_ticks(_, 1)` call: records its time when it completed a
/// tick, and returns whether the run has more events.
fn tick(
    rt: &mut OverlayRuntime,
    session: &mut sbon::overlay::RunSession,
    probe: &mut Probe,
    parent: SpanId,
    it: &mut Iteration,
) -> bool {
    let before = session.ticks_done();
    let (more, t0, t1) = timed(|| rt.advance_ticks(session, 1));
    probe.call(Some(rt), "advance_ticks", parent, t0, t1);
    it.train_s += (t1 - t0).as_secs_f64();
    if session.ticks_done() > before {
        it.tick_ms.push(ms(t0, t1));
    }
    more
}

/// One timed `deploy`; a `None` is counted, not fatal.
fn deploy(
    rt: &mut OverlayRuntime,
    query: QuerySpec,
    probe: &mut Probe,
    parent: SpanId,
    it: &mut Iteration,
) -> Option<CircuitHandle> {
    let (handle, t0, t1) = timed(|| rt.deploy(query));
    probe.call(Some(rt), "deploy", parent, t0, t1);
    it.deploy_ms.push(ms(t0, t1));
    it.deploy_failed += usize::from(handle.is_none());
    handle
}

/// One timed `undeploy`; a `false` is counted, not fatal.
fn undeploy(
    rt: &mut OverlayRuntime,
    handle: CircuitHandle,
    probe: &mut Probe,
    parent: SpanId,
    it: &mut Iteration,
) {
    let (ok, t0, t1) = timed(|| rt.undeploy(handle));
    probe.call(Some(rt), "undeploy", parent, t0, t1);
    it.undeploy_ms.push(ms(t0, t1));
    it.undeploy_failed += usize::from(!ok);
}

impl Iteration {
    fn new(generate_s: f64, new_s: f64, nodes: usize) -> Iteration {
        Iteration {
            generate_s,
            new_s,
            deploy_ms: Vec::new(),
            deploy_failed: 0,
            undeploy_ms: Vec::new(),
            undeploy_failed: 0,
            tick_ms: Vec::new(),
            train_s: 0.0,
            sim_s: 0.0,
            lifecycle_s: 0.0,
            total_s: 0.0,
            lifecycle_ops: 0,
            report: RunReport::default(),
            lookup_vms: None,
            scenario: None,
            fingerprint: String::new(),
            layers: None,
            totals: Counters::zero(),
            nodes,
            host: 1.0,
        }
    }

    /// A wall time of this iteration (any unit) at nominal host speed.
    pub fn cal(&self, wall: f64) -> f64 {
        wall / self.host
    }

    /// Reads the untimed end-of-iteration state: totals, routed latency,
    /// fingerprint, per-layer figures.
    fn close(&mut self, rt: &OverlayRuntime, report: RunReport, probe: &mut Probe) {
        self.totals = Counters::read(rt);
        self.lifecycle_ops =
            (self.totals.get(C::Arrivals) + self.totals.get(C::Departures)) as usize;
        self.lookup_vms = rt.routed_stats().filter(|rs| rs.lookups > 0).map(|rs| {
            let lat = rs.lookup_latencies_ms();
            (quantile(lat, 0.5).unwrap_or(0.0), quantile(lat, 0.9).unwrap_or(0.0), rs.lookups)
        });
        self.fingerprint = fingerprint(&report, &self.totals);
        self.report = report;
        self.layers = probe.end_iteration();
    }
}

/// The deployment-wave driver (`wave_jitter`, `routed_plane`): deploy a
/// handful of long-lived `join_star` circuits, run the tick train to the
/// horizon one tick per call, undeploy, finish.
fn drive_wave(
    w: &Wave,
    seed: u64,
    backend: MapperBackend,
    probe: &mut Probe,
) -> Result<Iteration, String> {
    probe.begin_iteration();
    let start = Instant::now();
    let root = probe.open("iteration", ROOT);
    let (topo, mut rt, generate_s, new_s) = setup(&w.topo, seed, w.config(backend), probe, root);
    let mut it = Iteration::new(generate_s, new_s, topo.num_nodes());

    // Circuit inputs: producers and consumer drawn from hosts present at
    // tick 0, from a stream of their own.
    let hosts: Vec<NodeId> =
        topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
    if hosts.len() < 5 {
        return Err(format!("only {} hosts arrived at tick 0", hosts.len()));
    }
    let mut rng = derive_rng(seed, 0x9a7e);
    let queries: Vec<QuerySpec> = (0..w.queries)
        .map(|_| {
            let mut picked = hosts.clone();
            picked.shuffle(&mut rng);
            QuerySpec::join_star(&picked[..4], picked[4], 10.0, 0.02)
        })
        .collect();

    let life = Instant::now();
    let span = probe.open("deploys", root);
    let handles: Vec<CircuitHandle> =
        queries.into_iter().filter_map(|q| deploy(&mut rt, q, probe, span, &mut it)).collect();
    probe.close(span);

    let span = probe.open("tick_train", root);
    let (mut session, t0, t1) = timed(|| rt.start_run());
    probe.call(Some(&rt), "start_run", span, t0, t1);
    while tick(&mut rt, &mut session, probe, span, &mut it) {}
    it.sim_s = session.now_ms() / 1e3;
    probe.close(span);
    let arrived = rt.arrived_count();

    let span = probe.open("undeploys", root);
    for h in handles {
        undeploy(&mut rt, h, probe, span, &mut it);
    }
    probe.close(span);
    let (report, t0, t1) = timed(|| rt.finish_run(session));
    probe.call(Some(&rt), "finish_run", root, t0, t1);
    it.lifecycle_s = (t1 - life).as_secs_f64();
    it.total_s = (t1 - start).as_secs_f64();
    probe.close(root);

    // Correctness gate, outside the timed region.
    if it.deploy_failed > 0 {
        return Err(format!("{} of {} circuits failed to deploy", it.deploy_failed, w.queries));
    }
    if arrived != topo.num_nodes() {
        return Err(format!("{arrived} of {} nodes arrived by the horizon", topo.num_nodes()));
    }
    it.close(&rt, report, probe);
    Ok(it)
}

/// The tenant-storm driver: `Scenario::run_on`'s loop, rewritten so every
/// `deploy`, `undeploy` and tick is timed on its own. It must reproduce
/// `run_on`'s `ScenarioReport` exactly (checked once per process).
fn drive_storm(sc: &Scenario, probe: &mut Probe) -> Result<Iteration, String> {
    // The random streams `Scenario::run_on` derives from its seed.
    const CATALOG_STREAM: u64 = 0xCA7A_1065;
    const WORKLOAD_STREAM: u64 = 0x3070_AD01;

    probe.begin_iteration();
    let start = Instant::now();
    let root = probe.open("iteration", ROOT);
    let topo_cfg = TransitStubConfig::with_total_nodes(sc.nodes);
    let (topo, mut rt, generate_s, new_s) =
        setup(&topo_cfg, sc.seed, sc.runtime.clone(), probe, root);
    let mut it = Iteration::new(generate_s, new_s, topo.num_nodes());

    let mut cat_rng = derive_rng(sc.seed, CATALOG_STREAM);
    let hosts: Vec<NodeId> =
        topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
    if hosts.is_empty() {
        return Err("no arrived host candidates to pin feeds on".into());
    }
    let mut streams = StreamCatalog::new();
    for i in 0..sc.catalog.feeds {
        let host = hosts[cat_rng.gen_range(0..hosts.len())];
        streams.register(format!("feed{i}"), sc.catalog.rate, host);
    }
    let generator = QueryGenerator::new(
        streams,
        sc.catalog.join_selectivity,
        sc.catalog.zipf_exponent,
        hosts,
        &sc.workload.templates,
    );
    let baseline_usage = rt.instantaneous_usage();
    let mut wl_rng = derive_rng(sc.seed, WORKLOAD_STREAM);
    let tick_ms = sc.runtime.tick_ms();
    let cap = sc.workload.max_arrivals.unwrap_or(usize::MAX);

    let life = Instant::now();
    let span = probe.open("lifecycle", root);
    let (mut session, t0, t1) = timed(|| rt.start_run());
    probe.call(Some(&rt), "start_run", span, t0, t1);
    let mut live: Vec<(f64, CircuitHandle)> = Vec::new();
    let mut now_ms = 0.0f64;
    let (mut offered, mut peak_active, mut peak_retained) = (0usize, 0usize, 0usize);
    loop {
        let will_tick = now_ms + tick_ms <= sc.runtime.horizon_ms();
        let count = if will_tick {
            sc.workload.arrival.sample_arrivals(now_ms, tick_ms, &mut wl_rng)
        } else {
            0
        }
        .min(cap - offered);
        for _ in 0..count {
            offered += 1;
            let query = generator.draw(&mut wl_rng);
            let depart_at = now_ms + tick_ms + sc.workload.duration.sample(&mut wl_rng);
            if let Some(h) = deploy(&mut rt, query, probe, span, &mut it) {
                live.push((depart_at, h));
            }
        }
        let more = tick(&mut rt, &mut session, probe, span, &mut it);
        now_ms += tick_ms;
        peak_active = peak_active.max(rt.active_queries());
        peak_retained = peak_retained.max(rt.retained_shared_subtrees());
        let mut idx = 0;
        while idx < live.len() {
            if live[idx].0 <= now_ms {
                let (_, h) = live.swap_remove(idx);
                undeploy(&mut rt, h, probe, span, &mut it);
            } else {
                idx += 1;
            }
        }
        if !more {
            break;
        }
    }
    if sc.workload.drain_at_end {
        for (_, h) in live.drain(..) {
            undeploy(&mut rt, h, probe, span, &mut it);
        }
    }
    it.sim_s = session.now_ms() / 1e3;
    let (run, t0, t1) = timed(|| rt.finish_run(session));
    probe.call(Some(&rt), "finish_run", span, t0, t1);
    probe.close(span);
    it.lifecycle_s = (t1 - life).as_secs_f64();
    it.total_s = (t1 - start).as_secs_f64();
    probe.close(root);

    let lifecycle = rt.lifecycle_stats();
    let (subscriptions, instances, retained_records) = rt
        .multiquery()
        .map(|mq| (mq.total_subscriptions(), mq.num_instances(), mq.num_retained()))
        .unwrap_or((0, 0, 0));
    let report = ScenarioReport {
        name: sc.name.clone(),
        seed: sc.seed,
        nodes: topo.num_nodes(),
        arrivals: lifecycle.arrivals,
        departures: lifecycle.departures,
        offered,
        rejected: it.deploy_failed,
        reuse_hits: lifecycle.reuse_hits,
        reused_services: lifecycle.reused_services,
        marginal_usage: lifecycle.marginal_usage,
        standalone_usage: lifecycle.standalone_usage,
        peak_active,
        final_active: rt.active_queries(),
        peak_retained,
        final_retained: rt.retained_shared_subtrees(),
        final_subscriptions: subscriptions,
        final_instances: instances,
        final_retained_records: retained_records,
        baseline_usage,
        final_usage: rt.instantaneous_usage(),
        run: run.clone(),
    };

    // Correctness gate, outside the timed region.
    if report.final_active != 0 || !report.drained_to_baseline() {
        return Err(format!(
            "storm did not drain to baseline: final_active {}, retained {}, subscriptions {}, \
             usage {} vs baseline {}",
            report.final_active,
            report.final_retained,
            report.final_subscriptions,
            report.final_usage,
            report.baseline_usage
        ));
    }
    it.scenario = Some(report);
    it.close(&rt, run, probe);
    Ok(it)
}
