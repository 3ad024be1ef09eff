//! Pinned `RunReport` digests of four small seeded runs.
//!
//! Each run is reduced to one 64-bit FNV-1a digest over the bit patterns of
//! every sample and counter of its [`RunReport`]. The digests are constants:
//! a refactor of the runtime or of the multi-query registry must leave them
//! unchanged, and a deliberate behaviour change must say which digest moved
//! and why.
//!
//! The grid is {no reuse, reuse of every instance} × {adaptation, failure}:
//!
//! * *adaptation* — churn, latency jitter and all three re-optimization
//!   passes (local, rewrite, full) over a mid-run lifecycle: an owner
//!   departs while its subscriber runs, a late arrival attaches to what it
//!   left, and the subscriber departs;
//! * *failure* — the same lifecycle plus a failure, before the owner
//!   departs, of the node that hosts the owner's top join: evacuated
//!   without reuse; with reuse the instance is pinned for its subscriber,
//!   so the owner fails and the failure cascades to the subscriber.

use sbon_core::multiquery::ReuseScope;
use sbon_core::optimizer::QuerySpec;
use sbon_core::reopt::ReoptPolicy;
use sbon_netsim::graph::NodeId;
use sbon_netsim::load::ChurnProcess;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
use sbon_overlay::{JitterModel, OverlayRuntime, RunReport, RuntimeConfig};

/// FNV-1a over the report's numbers, floats by their bit patterns.
fn digest(r: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for s in &r.samples {
        mix(s.time_ms.to_bits());
        mix(s.network_usage.to_bits());
        mix(s.cumulative_usage.to_bits());
        mix(s.migrations as u64);
        mix(s.replacements as u64);
        mix(s.active_queries as u64);
    }
    mix(r.migrations as u64);
    mix(r.replacements as u64);
    mix(r.adaptation_cost.to_bits());
    mix(r.arrivals as u64);
    mix(r.departures as u64);
    mix(r.reuse_hits as u64);
    h
}

/// A 4-way join star over stub hosts `base, base + 7, ...`.
fn star(hosts: &[NodeId], base: usize) -> QuerySpec {
    let pick = |i: usize| hosts[(base + i * 7) % hosts.len()];
    QuerySpec::join_star(&[pick(0), pick(1), pick(2), pick(3)], pick(4), 10.0, 0.02)
}

/// One seeded run; `fail` adds the mid-run operator-host failure.
fn run(reuse: ReuseScope, fail: bool) -> RunReport {
    let topo = generate(&TransitStubConfig::with_total_nodes(90), 11);
    let hosts = topo.host_candidates();
    let config = RuntimeConfig::builder()
        .horizon_ms(12_000.0)
        .reopt_interval_ms(2_000.0)
        .rewrite_interval_ms(3_000.0)
        .full_reopt_interval_ms(4_000.0)
        .policy(ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.0 })
        .churn(ChurnProcess::RandomWalk { std_dev: 0.2 })
        .latency_jitter(JitterModel {
            edges_per_tick: 10,
            factor_range: (0.8, 1.6),
            band: (0.5, 3.0),
        })
        .reuse(reuse)
        .threads(1)
        .build();
    let mut rt = OverlayRuntime::new(&topo, 11, config);
    let queries = [star(&hosts, 0), star(&hosts, 0), star(&hosts, 3), star(&hosts, 40)];
    let handles: Vec<_> =
        queries.iter().map(|q| rt.deploy(q.clone()).expect("query deploys")).collect();
    if fail {
        // The host of the first query's top join, which no query pins.
        let ends = |q: &QuerySpec| {
            let producers = q.join_set.iter().map(|&s| q.producer_of(s));
            producers.chain([q.consumer]).collect::<Vec<_>>()
        };
        let endpoints: Vec<NodeId> = queries.iter().flat_map(ends).collect();
        let placement = rt.placement(handles[0]).expect("placed");
        let victim = placement.as_slice().iter().copied().rev().find(|n| !endpoints.contains(n));
        rt.schedule_failure(1_500.0, victim.expect("an operator off the endpoints"));
    }
    let mut session = rt.start_run();
    assert!(rt.advance_ticks(&mut session, 4));
    // `false` once a failure took the circuit down already.
    rt.undeploy(handles[0]);
    rt.deploy(star(&hosts, 0)).expect("late arrival deploys");
    assert!(rt.advance_ticks(&mut session, 4));
    rt.undeploy(handles[1]);
    while rt.advance_ticks(&mut session, 1) {}
    rt.finish_run(session)
}

#[test]
fn report_digests_are_pinned() {
    let got = [
        digest(&run(ReuseScope::None, false)),
        digest(&run(ReuseScope::All, false)),
        digest(&run(ReuseScope::None, true)),
        digest(&run(ReuseScope::All, true)),
    ];
    let pinned: [u64; 4] =
        [0x94116597e8935d8b, 0xebb34c5a81e59804, 0x82bd647d13dda8f0, 0xf4fa1e7addc523ad];
    assert_eq!(got, pinned, "got {got:#018x?}");
}
