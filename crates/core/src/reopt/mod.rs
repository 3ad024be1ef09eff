//! Re-optimization of long-running circuits (Sections 2 & 3.3).
//!
//! "Over time, as network dynamics change, each node that hosts part of a
//! circuit is capable of re-optimization. This is a local procedure, where a
//! node can re-run placement and mapping for any service that it hosts. The
//! result may be to migrate the service to a cooperating node. ... But it is
//! also possible that a stronger form of re-optimization is required \[when\]
//! the selectivity estimates ... change as a circuit matures. In this
//! scenario, a node can trigger the full circuit optimization while the
//! original circuit is still running. If warranted, a new parallel circuit
//! is deployed, cancelling the original less ideal circuit."
//!
//! # The relevance / skip contract
//!
//! Every re-optimization decision in this module reads exactly two kinds of
//! input: **cost-space coordinates** (via the mapper's catalog or oracle
//! scan, and via `CostSpace::vector_distance` estimates over the circuit's
//! own hosts) and the **circuit itself** (services, pins, link rates,
//! current placement). Measured link latency is *never* an input — candidate
//! selection and migration/replacement thresholds all compare estimated
//! network usage — which is why latency jitter alone can never change a
//! re-opt decision, and why these functions take no latency provider.
//!
//! That closed input set is what makes dirty-driven skipping exact (see
//! [`relevance`]): an evaluation that made no state change, and whose
//! recorded read set (scanned catalog [`ScanSpan`]s, the circuit's host
//! nodes, or "the whole space" for oracle scans) contains no
//! subsequently-touched key or node, would reproduce its no-op decision
//! bit-for-bit — so the owner may skip it entirely. Anything that mutates a
//! circuit (migration, rewrite, replacement, evacuation, pin changes) marks
//! it dirty for every pass kind.
//!
//! [`ScanSpan`]: sbon_dht::catalog::ScanSpan

pub mod relevance;

use crate::circuit::{Circuit, Placement, ServiceId, ServiceKind, ServicePin};
use crate::costspace::CostSpace;
use crate::optimizer::{IntegratedOptimizer, OptimizerConfig, PlacedCircuit, QuerySpec};
use crate::placement::{PhysicalMapper, VirtualPlacer};

/// One executed migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// Which service moved.
    pub service: ServiceId,
    /// Old host.
    pub from: sbon_netsim::graph::NodeId,
    /// New host.
    pub to: sbon_netsim::graph::NodeId,
}

/// Policy for local re-optimization.
#[derive(Clone, Copy, Debug)]
pub struct ReoptPolicy {
    /// A migration happens only when it improves the circuit's estimated
    /// network usage by at least this fraction (hysteresis damping —
    /// without it, coordinate jitter would keep services sloshing between
    /// near-equal hosts).
    pub migration_threshold: f64,
    /// A full re-optimization replaces the running circuit only when the
    /// new circuit is at least this fraction cheaper.
    pub replacement_threshold: f64,
}

impl Default for ReoptPolicy {
    fn default() -> Self {
        ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.10 }
    }
}

/// Result of a local re-optimization pass.
#[derive(Clone, Debug, Default)]
pub struct LocalReoptOutcome {
    /// Executed migrations, in application order.
    pub migrations: Vec<Migration>,
    /// Estimated network usage before the pass.
    pub cost_before: f64,
    /// Estimated network usage after the pass.
    pub cost_after: f64,
}

/// Re-runs virtual placement + physical mapping for every unpinned service
/// of a running circuit, migrating those whose move clears the policy
/// threshold. This is the cheap, local adaptation path — no plan rewrite.
pub fn reoptimize_local(
    circuit: &Circuit,
    placement: &mut Placement,
    space: &CostSpace,
    placer: &dyn VirtualPlacer,
    mapper: &mut dyn PhysicalMapper,
    policy: ReoptPolicy,
) -> LocalReoptOutcome {
    let estimate =
        |p: &Placement| circuit.cost_with(p, |a, b| space.vector_distance(a, b)).network_usage;
    let cost_before = estimate(placement);
    let mut outcome = LocalReoptOutcome { cost_before, ..Default::default() };

    let vp = placer.place(circuit, space);
    for s in circuit.services() {
        if !matches!(s.pin, ServicePin::Unpinned) {
            continue;
        }
        let ideal = space.ideal_point(vp.coord_of(s.id));
        let (candidate, _hops) = mapper.map_point(space, &ideal);
        let current = placement.node_of(s.id);
        if candidate == current {
            continue;
        }
        // Trial move; keep it only if the improvement clears the threshold.
        let before = estimate(placement);
        placement.move_service(s.id, candidate);
        let after = estimate(placement);
        if after < before * (1.0 - policy.migration_threshold) {
            outcome.migrations.push(Migration { service: s.id, from: current, to: candidate });
        } else {
            placement.move_service(s.id, current); // revert
        }
    }
    outcome.cost_after = estimate(placement);
    outcome
}

/// Result of a local plan-rewrite pass.
#[derive(Debug)]
pub enum RewriteOutcome {
    /// No one-step rewrite cleared the threshold.
    Keep,
    /// A rewritten plan placed cheaper.
    Rewrite {
        /// The rewritten, re-placed circuit.
        replacement: Box<PlacedCircuit>,
        /// Estimated relative improvement in `[0, 1]`.
        improvement: f64,
    },
}

/// The canonical structural identity of a circuit: services (role,
/// operator signature, pin, output-rate bits) in id order plus links
/// (endpoints, rate bits). Two candidate plans with equal keys build
/// byte-identical circuits, so they place, map, and cost identically —
/// which makes skipping the later one safe under the strict-`<` candidate
/// selection (the first occurrence wins ties either way). Note a commuted
/// join is *not* a duplicate: its services are built in a different
/// traversal order, so the key differs.
fn structural_key(circuit: &Circuit) -> String {
    use std::fmt::Write;
    let mut key = String::new();
    for s in circuit.services() {
        match &s.kind {
            ServiceKind::Producer(id) => {
                let _ = write!(key, "P{id}");
            }
            ServiceKind::Consumer => key.push('C'),
            ServiceKind::Operator { signature } => {
                let _ = write!(key, "O[{signature}]");
            }
        }
        match s.pin {
            ServicePin::Pinned(n) => {
                let _ = write!(key, "@{n}");
            }
            ServicePin::Unpinned => key.push('*'),
        }
        let _ = write!(key, ":{:016x};", s.output_rate.to_bits());
    }
    for l in circuit.links() {
        let _ = write!(key, "{}>{}:{:016x};", l.from.0, l.to.0, l.rate.to_bits());
    }
    key
}

/// The paper's "limited plan re-writing" (Section 3.3): explore the local
/// rewrite neighbourhood — join reorderings, filter decomposition and
/// re-composition (see [`sbon_query::rewrite`]) up to two rewrite steps —
/// re-place each candidate, and return the best if it beats the running
/// circuit's estimate by the replacement threshold. Cheaper than full
/// re-optimization: the candidate set is the rewrite neighbourhood, not the
/// whole plan space. (Depth two, because commutations are cost-neutral on
/// their own but unlock rotations.) Candidates whose circuits are
/// structurally identical to an earlier candidate are skipped before any
/// placement work; the returned circuit's `cost` is its estimate (see the
/// module docs — measured latency is never a re-opt input).
pub fn reoptimize_rewrite(
    running_plan: &sbon_query::plan::LogicalPlan,
    running_cost_estimate: f64,
    query: &QuerySpec,
    space: &CostSpace,
    placer: &dyn VirtualPlacer,
    mapper: &mut dyn PhysicalMapper,
    policy: ReoptPolicy,
) -> RewriteOutcome {
    if running_cost_estimate <= 0.0 {
        return RewriteOutcome::Keep;
    }
    let mut best: Option<PlacedCircuit> = None;
    let mut seen = std::collections::BTreeSet::new();
    for plan in sbon_query::rewrite::neighbors_within(running_plan, 2, 128) {
        let circuit =
            Circuit::from_plan(&plan, &query.stats, |s| query.producer_of(s), query.consumer);
        if !seen.insert(structural_key(&circuit)) {
            continue;
        }
        let vp = placer.place(&circuit, space);
        let mapped = crate::placement::map_circuit(&circuit, &vp, space, mapper);
        let estimated = circuit.cost_with(&mapped.placement, |a, b| space.vector_distance(a, b));
        let candidate = PlacedCircuit {
            plan,
            mapping_hops: mapped.total_hops(),
            mean_mapping_error: mapped.mean_mapping_error(),
            placement: mapped.placement,
            circuit,
            cost: estimated,
            estimated,
            candidates_examined: 1,
        };
        if best
            .as_ref()
            .is_none_or(|b| candidate.estimated.network_usage < b.estimated.network_usage)
        {
            best = Some(candidate);
        }
    }
    let Some(best) = best else {
        return RewriteOutcome::Keep;
    };
    let improvement = 1.0 - best.estimated.network_usage / running_cost_estimate;
    if improvement >= policy.replacement_threshold {
        RewriteOutcome::Rewrite { replacement: Box::new(best), improvement }
    } else {
        RewriteOutcome::Keep
    }
}

/// Result of a full re-optimization check.
#[derive(Debug)]
pub enum FullReoptOutcome {
    /// The running circuit is still good enough.
    Keep,
    /// A cheaper circuit was found; deploy it in parallel, then cancel the
    /// original ("a new parallel circuit is deployed, cancelling the
    /// original less ideal circuit").
    Replace {
        /// The replacement circuit.
        replacement: Box<PlacedCircuit>,
        /// Estimated relative improvement in `[0, 1]`.
        improvement: f64,
    },
}

/// Re-runs the full integrated optimization against (possibly updated)
/// statistics and compares with the running circuit's current cost. The
/// caller supplies the physical mapper — typically the same long-lived,
/// delta-maintained instance that served the initial deployment — so full
/// re-opt shares the control-plane state instead of instantiating mappers
/// per call. Candidates are costed and selected by estimate only (see the
/// module docs — measured latency is never a re-opt input).
pub fn reoptimize_full(
    running_cost_estimate: f64,
    query: &QuerySpec,
    space: &CostSpace,
    mapper: &mut dyn PhysicalMapper,
    config: OptimizerConfig,
    policy: ReoptPolicy,
) -> FullReoptOutcome {
    // A non-positive running estimate is an unconditional Keep — bail out
    // before paying for a full optimization pass whose answer is discarded.
    if running_cost_estimate <= 0.0 {
        return FullReoptOutcome::Keep;
    }
    let optimizer = IntegratedOptimizer::new(config);
    let Some(candidate) = optimizer.optimize_with_mapper_estimated(query, space, mapper) else {
        return FullReoptOutcome::Keep;
    };
    let new_cost = candidate.estimated.network_usage;
    let improvement = 1.0 - new_cost / running_cost_estimate;
    if improvement >= policy.replacement_threshold {
        FullReoptOutcome::Replace { replacement: Box::new(candidate), improvement }
    } else {
        FullReoptOutcome::Keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costspace::CostSpaceBuilder;
    use crate::optimizer::QuerySpec;
    use crate::placement::{OracleMapper, RelaxationPlacer};
    use sbon_coords::vivaldi::VivaldiEmbedding;
    use sbon_netsim::graph::NodeId;
    use sbon_netsim::latency::EuclideanLatency;
    use sbon_netsim::load::{Attr, NodeAttrs};

    /// Line world with a spare host at each end and one in the middle.
    fn world() -> (Vec<Vec<f64>>, EuclideanLatency) {
        let pts: Vec<Vec<f64>> = (0..9).map(|i| vec![12.5 * i as f64, 0.0]).collect();
        let lat = EuclideanLatency::new(pts.clone());
        (pts, lat)
    }

    #[test]
    fn local_reopt_migrates_off_newly_loaded_node() {
        let (pts, lat) = world();
        let n = pts.len();
        let emb = VivaldiEmbedding::exact(pts);
        let mut attrs = NodeAttrs::idle(n);
        let mut space = CostSpaceBuilder::latency_load_space_scaled(&emb, &attrs, 200.0);

        let q = QuerySpec::join_star(&[NodeId(0), NodeId(8)], NodeId(7), 10.0, 0.01);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let placed = opt.optimize(&q, &space, &lat).unwrap();
        let join = placed.circuit.unpinned_services()[0];
        let host0 = placed.placement.node_of(join);

        // The join's host becomes overloaded; the space is refreshed.
        attrs.set(host0, Attr::CpuLoad, 1.0);
        space.refresh_scalars(&attrs);

        let mut placement = placed.placement.clone();
        let placer = RelaxationPlacer::default();
        let mut mapper = OracleMapper;
        let outcome = reoptimize_local(
            &placed.circuit,
            &mut placement,
            &space,
            &placer,
            &mut mapper,
            // Load doesn't change the latency-estimate cost, so accept any
            // move the full-space mapper proposes.
            ReoptPolicy { migration_threshold: -1.0, replacement_threshold: 0.1 },
        );
        assert_eq!(outcome.migrations.len(), 1);
        assert_ne!(placement.node_of(join), host0, "service must flee the hot node");
    }

    #[test]
    fn local_reopt_is_stable_when_nothing_changed() {
        let (pts, lat) = world();
        let emb = VivaldiEmbedding::exact(pts.clone());
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(8)], NodeId(4), 10.0, 0.01);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let placed = opt.optimize(&q, &space, &lat).unwrap();
        let mut placement = placed.placement.clone();
        let placer = RelaxationPlacer::default();
        let mut mapper = OracleMapper;
        let outcome = reoptimize_local(
            &placed.circuit,
            &mut placement,
            &space,
            &placer,
            &mut mapper,
            ReoptPolicy::default(),
        );
        assert!(outcome.migrations.is_empty(), "{:?}", outcome.migrations);
        assert_eq!(placement, placed.placement);
        assert!((outcome.cost_after - outcome.cost_before).abs() < 1e-12);
    }

    #[test]
    fn hysteresis_blocks_marginal_migrations() {
        let (pts, _lat) = world();
        let emb = VivaldiEmbedding::exact(pts.clone());
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(8)], NodeId(4), 10.0, 0.01);
        // Build a circuit and deliberately misplace the join one hop off
        // the optimum — a small improvement that a high threshold rejects.
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let lat = EuclideanLatency::new(pts);
        let placed = opt.optimize(&q, &space, &lat).unwrap();
        let join = placed.circuit.unpinned_services()[0];
        let mut placement = placed.placement.clone();
        let optimal = placement.node_of(join);
        let neighbour = NodeId(if optimal.0 >= 1 { optimal.0 - 1 } else { optimal.0 + 1 });
        placement.move_service(join, neighbour);

        let placer = RelaxationPlacer::default();
        let mut mapper = OracleMapper;
        let outcome = reoptimize_local(
            &placed.circuit,
            &mut placement,
            &space,
            &placer,
            &mut mapper,
            ReoptPolicy { migration_threshold: 0.9, replacement_threshold: 0.1 },
        );
        assert!(outcome.migrations.is_empty(), "90% threshold must reject a one-hop gain");
        assert_eq!(placement.node_of(join), neighbour);
    }

    #[test]
    fn full_reopt_replaces_when_savings_clear_threshold() {
        let (pts, lat) = world();
        let emb = VivaldiEmbedding::exact(pts);
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(8)], NodeId(4), 10.0, 0.01);
        // Pretend the running circuit costs 10× the optimum.
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let fresh = opt.optimize(&q, &space, &lat).unwrap();
        let inflated = fresh.estimated.network_usage * 10.0;
        let mut mapper = OracleMapper;
        match reoptimize_full(
            inflated,
            &q,
            &space,
            &mut mapper,
            OptimizerConfig::default(),
            ReoptPolicy::default(),
        ) {
            FullReoptOutcome::Replace { improvement, .. } => {
                assert!(improvement > 0.8, "improvement {improvement}");
            }
            FullReoptOutcome::Keep => panic!("must replace a 10× overpriced circuit"),
        }
    }

    #[test]
    fn rewrite_reopt_improves_a_bad_join_order() {
        // Producers clustered on the left, the running plan pairs a left
        // producer with the far-right one first. A one-step reordering must
        // do better.
        let pts: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],   // p0
            vec![5.0, 0.0],   // p1
            vec![200.0, 0.0], // p2 (far away)
            vec![100.0, 0.0], // consumer
            vec![2.0, 0.0],
            vec![50.0, 0.0],
            vec![150.0, 0.0],
        ];
        let emb = VivaldiEmbedding::exact(pts);
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(1), NodeId(2)], NodeId(3), 10.0, 0.01);

        use sbon_query::plan::LogicalPlan;
        use sbon_query::stream::StreamId;
        // Bad running plan: (s0 ⋈ s2) first, dragging s0's data 200ms east.
        let bad_plan = LogicalPlan::join(
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(2))),
            LogicalPlan::source(StreamId(1)),
        );
        let circuit = Circuit::from_plan(&bad_plan, &q.stats, |s| q.producer_of(s), q.consumer);
        let placer = crate::placement::RelaxationPlacer::default();
        let mut mapper = crate::placement::OracleMapper;
        let vp = crate::placement::VirtualPlacer::place(&placer, &circuit, &space);
        let mapped = crate::placement::map_circuit(&circuit, &vp, &space, &mut mapper);
        let running_est =
            circuit.cost_with(&mapped.placement, |a, b| space.vector_distance(a, b)).network_usage;

        match reoptimize_rewrite(
            &bad_plan,
            running_est,
            &q,
            &space,
            &placer,
            &mut mapper,
            ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.05 },
        ) {
            RewriteOutcome::Rewrite { replacement, improvement } => {
                assert!(improvement > 0.05, "improvement {improvement}");
                assert_ne!(replacement.plan.shape_key(), bad_plan.shape_key());
            }
            RewriteOutcome::Keep => panic!("a one-step reorder must beat the bad plan"),
        }
    }

    #[test]
    fn rewrite_reopt_keeps_an_already_good_plan() {
        let pts: Vec<Vec<f64>> = (0..8).map(|i| vec![15.0 * i as f64, 0.0]).collect();
        let emb = VivaldiEmbedding::exact(pts.clone());
        let space = CostSpaceBuilder::latency_space(&emb);
        let lat = EuclideanLatency::new(pts);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(1), NodeId(2)], NodeId(7), 10.0, 0.01);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let fresh = opt.optimize(&q, &space, &lat).unwrap();
        let placer = crate::placement::RelaxationPlacer::default();
        let mut mapper = crate::placement::OracleMapper;
        match reoptimize_rewrite(
            &fresh.plan,
            fresh.estimated.network_usage,
            &q,
            &space,
            &placer,
            &mut mapper,
            ReoptPolicy::default(),
        ) {
            RewriteOutcome::Keep => {}
            RewriteOutcome::Rewrite { improvement, .. } => panic!(
                "the integrated optimum must not be beaten by a local rewrite ({improvement})"
            ),
        }
    }

    /// A mapper that fails the test if the optimizer ever consults it.
    struct PanickingMapper;

    impl PhysicalMapper for PanickingMapper {
        fn map_point(
            &mut self,
            _space: &CostSpace,
            _ideal: &crate::costspace::CostPoint,
        ) -> (NodeId, usize) {
            panic!("the optimizer must not run for an unconditional Keep");
        }

        fn name(&self) -> &'static str {
            "panicking"
        }
    }

    /// Regression: `reoptimize_full` used to run the whole integrated
    /// optimization *before* checking `running_cost_estimate <= 0.0`,
    /// paying full optimization cost on circuits it then unconditionally
    /// kept. The guard must fire before any mapping work.
    #[test]
    fn full_reopt_guard_fires_before_the_optimizer_runs() {
        let (pts, _lat) = world();
        let emb = VivaldiEmbedding::exact(pts);
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(8)], NodeId(4), 10.0, 0.01);
        let mut mapper = PanickingMapper;
        for estimate in [0.0, -1.0] {
            match reoptimize_full(
                estimate,
                &q,
                &space,
                &mut mapper,
                OptimizerConfig::default(),
                ReoptPolicy::default(),
            ) {
                FullReoptOutcome::Keep => {}
                FullReoptOutcome::Replace { .. } => {
                    panic!("estimate {estimate} must be an unconditional Keep")
                }
            }
        }
    }

    /// Structurally identical rewrite candidates are deduplicated before
    /// placement work, and dedup never changes the winner: a counting
    /// mapper sees at most one mapping per *distinct* circuit structure.
    #[test]
    fn rewrite_dedup_skips_structural_duplicates_without_changing_the_outcome() {
        struct CountingMapper {
            inner: OracleMapper,
            calls: usize,
        }
        impl PhysicalMapper for CountingMapper {
            fn map_point(
                &mut self,
                space: &CostSpace,
                ideal: &crate::costspace::CostPoint,
            ) -> (NodeId, usize) {
                self.calls += 1;
                self.inner.map_point(space, ideal)
            }
            fn name(&self) -> &'static str {
                "counting"
            }
        }

        let (pts, lat) = world();
        let emb = VivaldiEmbedding::exact(pts.clone());
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(4), NodeId(8)], NodeId(7), 10.0, 0.01);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let fresh = opt.optimize(&q, &space, &lat).unwrap();
        let placer = crate::placement::RelaxationPlacer::default();

        // Count distinct circuit structures in the rewrite neighbourhood;
        // the mapper must be consulted once per unpinned service of each.
        let mut distinct = 0usize;
        let mut unpinned = 0usize;
        let mut seen = std::collections::BTreeSet::new();
        for plan in sbon_query::rewrite::neighbors_within(&fresh.plan, 2, 128) {
            let circuit = Circuit::from_plan(&plan, &q.stats, |s| q.producer_of(s), q.consumer);
            if seen.insert(structural_key(&circuit)) {
                distinct += 1;
                unpinned += circuit.unpinned_services().len();
            }
        }
        assert!(distinct > 0);

        let mut mapper = CountingMapper { inner: OracleMapper, calls: 0 };
        let outcome = reoptimize_rewrite(
            &fresh.plan,
            fresh.estimated.network_usage,
            &q,
            &space,
            &placer,
            &mut mapper,
            ReoptPolicy::default(),
        );
        assert_eq!(mapper.calls, unpinned, "one mapping per unpinned service per distinct circuit");
        assert!(
            matches!(outcome, RewriteOutcome::Keep),
            "the integrated optimum must still be kept"
        );
    }

    #[test]
    fn full_reopt_keeps_good_circuits() {
        let (pts, lat) = world();
        let emb = VivaldiEmbedding::exact(pts);
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(8)], NodeId(4), 10.0, 0.01);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let fresh = opt.optimize(&q, &space, &lat).unwrap();
        let mut mapper = OracleMapper;
        match reoptimize_full(
            fresh.estimated.network_usage,
            &q,
            &space,
            &mut mapper,
            OptimizerConfig::default(),
            ReoptPolicy::default(),
        ) {
            FullReoptOutcome::Keep => {}
            FullReoptOutcome::Replace { improvement, .. } => {
                panic!("an optimal circuit must be kept, claimed improvement {improvement}")
            }
        }
    }
}
