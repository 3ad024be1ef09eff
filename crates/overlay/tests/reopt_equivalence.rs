//! Property pins for dirty-driven incremental re-optimization.
//!
//! The relevance index ([`sbon_core::reopt::relevance`]) lets the runtime
//! skip re-optimization passes for circuits it can prove clean. The skip is
//! only legal if it is **exact**: on the full [`RunReport`] — every sample,
//! every migration, every usage figure — a run with skipping enabled must be
//! bit-identical to one that evaluates every circuit at every pass. These
//! properties pin that contract across random topologies, churn and jitter
//! schedules, both latency backends, all three mapper backends (DHT, oracle,
//! routed), all-at-once vs deployment-wave membership, reuse on/off, and
//! mid-run node failures — so every arm of the runtime's membership sync
//! (join, move, leave under each backend) feeds the dirty filter.
//!
//! A second pin holds the sharded read-only evaluation phase to the serial
//! one: `threads = 8` ≡ `threads = 1`, again on the whole report.

use proptest::prelude::*;
use sbon_core::multiquery::ReuseScope;
use sbon_core::optimizer::QuerySpec;
use sbon_dht::proto::ProtoConfig;
use sbon_netsim::graph::NodeId;
use sbon_netsim::load::ChurnProcess;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
use sbon_netsim::topology::Topology;
use sbon_overlay::{
    DeploymentModel, JitterModel, LatencyBackend, MapperBackend, OverlayRuntime, RunReport,
    RuntimeConfig,
};

/// One randomly drawn run scenario. Everything that shapes the simulation is
/// in here so both runs of a comparison replay the identical schedule.
#[derive(Clone, Debug)]
struct Scenario {
    seed: u64,
    nodes: usize,
    /// Selects (latency backend, mapper backend) out of the 2×3 grid.
    backend: u8,
    sparse_churn: bool,
    jitter: bool,
    failure: bool,
    reuse: bool,
    /// Membership comes up as a deployment wave, so nodes join mid-run.
    wave: bool,
}

impl Scenario {
    /// Decodes a strategy draw: `flags` carries the five booleans as bits so
    /// the whole scenario fits the shim's tuple-strategy arity.
    fn decode(seed: u64, nodes: usize, backend: u8, flags: u8) -> Scenario {
        Scenario {
            seed,
            nodes,
            backend,
            sparse_churn: flags & 1 != 0,
            jitter: flags & 2 != 0,
            failure: flags & 4 != 0,
            reuse: flags & 8 != 0,
            wave: flags & 16 != 0,
        }
    }
}

fn topology(s: &Scenario) -> Topology {
    generate(&TransitStubConfig::with_total_nodes(s.nodes), s.seed)
}

/// A small join star over the stub hosts, offset so the two deployed queries
/// overlap on some hosts (exercising reuse pins) without being identical.
fn star(hosts: &[NodeId], base: usize, rate: f64) -> QuerySpec {
    let pick = |i: usize| hosts[(base + i * 7) % hosts.len()];
    QuerySpec::join_star(&[pick(0), pick(1), pick(2), pick(3)], pick(4), rate, 0.02)
}

/// Runs the drawn scenario once. `incremental` toggles relevance-index
/// skipping; `threads` sets the worker pool for the parallel phases. All
/// three re-optimization pass kinds fire within the 8-tick horizon
/// (intervals 2 s / 3 s / 4 s), and the optional failure lands between the
/// first and second local pass. A wave starts from half the nodes and
/// admits the rest at 8 per tick, so joins run through the whole horizon.
fn run_once(s: &Scenario, topo: &Topology, incremental: bool, threads: usize) -> RunReport {
    let latency = if s.backend < 3 { LatencyBackend::Dense } else { LatencyBackend::Lazy };
    let mapper = match s.backend % 3 {
        0 => MapperBackend::Dht { bits: 12, scan_width: 8 },
        1 => MapperBackend::Oracle,
        _ => MapperBackend::Routed { bits: 12, scan_width: 8, proto: ProtoConfig::default() },
    };
    let deployment = if s.wave {
        DeploymentModel::Wave { initial: s.nodes / 2, joins_per_tick: 8 }
    } else {
        DeploymentModel::Full
    };
    // Kept light on purpose: heavy churn dirties every circuit every tick
    // and the skip path never fires. At ~2 touched nodes per tick a good
    // fraction of passes find provably-clean circuits (up to ~half of the
    // candidacies in probe runs), so the equivalence below actually
    // compares skipped work against evaluated work.
    let churn = if s.sparse_churn {
        ChurnProcess::SparseWalk { nodes_per_tick: 2, std_dev: 0.08 }
    } else {
        ChurnProcess::Step { p: 0.02 }
    };
    let jitter = s.jitter.then_some(JitterModel {
        edges_per_tick: 10,
        factor_range: (0.8, 1.6),
        band: (0.5, 3.0),
    });
    let reuse = if s.reuse { ReuseScope::All } else { ReuseScope::None };

    let config = RuntimeConfig::builder()
        .horizon_ms(8_000.0)
        .reopt_interval_ms(2_000.0)
        .rewrite_interval_ms(3_000.0)
        .full_reopt_interval_ms(4_000.0)
        .churn(churn)
        .latency_jitter(jitter)
        .latency_backend(latency)
        .mapper_backend(mapper)
        .deployment(deployment)
        .reuse(reuse)
        .threads(threads)
        .incremental_reopt(incremental)
        .build();

    let mut rt = OverlayRuntime::new(topo, s.seed, config);
    let hosts = topo.host_candidates();
    rt.deploy(star(&hosts, 0, 10.0)).expect("first query must deploy");
    rt.deploy(star(&hosts, 3, 6.0)).expect("second query must deploy");
    if s.failure {
        // Kill a producer host of the first query mid-run: evacuation (or
        // teardown, if it strands the circuit) must stay equivalent too.
        rt.schedule_failure(3_500.0, hosts[7 % hosts.len()]);
    }
    rt.run()
}

proptest! {
    // Runtime runs are the expensive end of the workspace's property tests,
    // so the case counts stay small; the draws still cover the full backend
    // grid and the churn/jitter/failure/reuse/wave combinations.
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Dirty-driven skipping is exact: skipping provably-clean circuits
    /// produces the bit-identical `RunReport` to evaluating everything.
    #[test]
    fn incremental_reopt_equals_full_scan(
        (seed, nodes, backend, flags) in (0u64..u64::MAX, 60usize..140, 0u8..6, 0u8..32)
    ) {
        let s = Scenario::decode(seed, nodes, backend, flags);
        let topo = topology(&s);
        let incremental = run_once(&s, &topo, true, 1);
        let full_scan = run_once(&s, &topo, false, 1);
        prop_assert_eq!(incremental, full_scan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// The sharded read-only evaluation phase commits serially in circuit
    /// order, so the thread count must never show up in the report.
    #[test]
    fn parallel_reopt_equals_serial(
        (seed, nodes, backend, flags) in (0u64..u64::MAX, 60usize..140, 0u8..6, 0u8..32)
    ) {
        let s = Scenario::decode(seed, nodes, backend, flags);
        let topo = topology(&s);
        let parallel = run_once(&s, &topo, true, 8);
        let serial = run_once(&s, &topo, true, 1);
        prop_assert_eq!(parallel, serial);
    }
}
