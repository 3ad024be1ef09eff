//! Multi-query optimization with cost-space radius pruning (Section 3.4).
//!
//! "When a new circuit is added to the SBON, the cost space can be used for
//! pruning multi-query optimization decisions ... A simple idea is to
//! consider a small region in the cost space. The optimizer will then
//! process circuits that fall within this region. ... query plans that
//! involve operators hosted on physical nodes that are far away in the cost
//! space are less likely to be useful and thus can be ignored."
//!
//! Reuse identity: two operator services are mergeable when their
//! [`crate::circuit::ServiceKind::Operator`] signatures match — the
//! signature canonically encodes the operator *and its whole input subtree*,
//! so reusing the instance also reuses everything beneath it.
//!
//! # Tenancy and refcounts
//!
//! The registry is **reuse-aware across query lifecycles**: every reuse of a
//! running instance records a *subscription* (a refcount increment on the
//! `(owner circuit, service)` pair). Departures go through
//! [`MultiQueryOptimizer::release`], the graceful inverse of deployment:
//!
//! * a departing circuit's own instances leave the discovery index
//!   immediately when nothing subscribes to them;
//! * instances that still have subscribers are **retained** — the physical
//!   subtree keeps running (and stays discoverable for new arrivals) until
//!   the last subscriber releases it;
//! * a circuit's own subscriptions (what it borrowed from others) are
//!   released only when no retained subtree of its own still needs them, so
//!   reuse *chains* (C reuses B's join, which itself consumes A's) drain in
//!   dependency order, never stranding a live consumer.
//!
//! Refcounts never go negative (underflow panics — it would mean a
//! double-release bug) and fully drain to zero once every circuit has been
//! released, which the workspace pins with a property test over random
//! arrival/departure interleavings.
//!
//! # One record per circuit
//!
//! The registry is the one table of deployed circuits: each circuit has
//! exactly one [`CircuitRecord`] (query, running plan, circuit with its
//! tenancy pins, placement, shared mask, billed links), and no other copy
//! of its circuit or placement exists. Live records list in deploy order
//! ([`MultiQueryOptimizer::live`]), retained ones in departure order
//! ([`MultiQueryOptimizer::retained`]); [`MultiQueryOptimizer::is_entangled`]
//! says whose plan may be swapped. Moves ([`MultiQueryOptimizer::relocate`])
//! and plan swaps ([`MultiQueryOptimizer::reregister`]) update the record
//! and the discovery index together.
//!
//! **Tenancy pins.** The registry pins a subscribed instance in its running
//! owner's circuit, so it is never migrated, and lifts the pin when the
//! last subscription drains ([`ReleaseReport::idle`]).
//!
//! **Billing rule.** A link is billed to the record that holds it only if
//! its downstream endpoint is not shared (a shared endpoint and its feed
//! are paid for by the instance's owner). A live circuit is billed for all
//! such links; a retained circuit only for those whose downstream endpoint
//! lies in a still-subscribed subtree. The mask is recomputed when the
//! subscribed roots change (at release and at each drain), never per read.

use std::collections::BTreeMap;

use sbon_dht::catalog::CoordinateCatalog;
use sbon_hilbert::{HilbertCurve, Quantizer};
use sbon_netsim::graph::NodeId;
use sbon_netsim::latency::LatencyProvider;

use crate::circuit::{Circuit, CircuitCost, Placement, Service, ServiceId, ServiceKind};
use crate::costspace::CostSpace;
use crate::optimizer::{OptimizerConfig, QuerySpec};
use crate::placement::{map_circuit, OracleMapper, PhysicalMapper, VirtualPlacer};
use crate::reopt::Migration;
use sbon_query::plan::LogicalPlan;

/// Identifier of a deployed circuit in the [`MultiQueryOptimizer`]'s
/// registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CircuitId(pub u64);

/// A running service instance available for reuse.
#[derive(Clone, Debug)]
pub struct ServiceInstance {
    /// Which circuit deployed it.
    pub circuit: CircuitId,
    /// Its id within that circuit.
    pub service: ServiceId,
    /// Where it runs.
    pub node: NodeId,
    /// Canonical subtree signature.
    pub signature: String,
    /// Its output rate (new subscribers add a link carrying this rate).
    pub output_rate: f64,
}

/// How the reuse search is bounded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReuseScope {
    /// No reuse at all (every circuit stands alone).
    None,
    /// Only instances within cost-space radius `r` of the new service's
    /// virtual coordinate are considered — the paper's proposal.
    Radius(f64),
    /// Every running instance is considered (exhaustive upper bound).
    All,
}

/// Outcome of one multi-query optimization.
#[derive(Clone, Debug)]
pub struct MultiQueryOutcome {
    /// The circuit as deployed (reused services pinned to their hosts).
    pub circuit: Circuit,
    /// Host assignment (covers reused services too).
    pub placement: Placement,
    /// The chosen plan (after filter attachment).
    pub plan: LogicalPlan,
    /// *Marginal* measured cost: network usage added by the new circuit,
    /// excluding links already paid for by the reused subtrees.
    pub marginal_cost: CircuitCost,
    /// Cost the circuit would have had with no reuse (for reporting the
    /// savings).
    pub standalone_cost: CircuitCost,
    /// Services reused from running circuits.
    pub reused: Vec<ServiceInstance>,
    /// For each entry of `reused` (same order): the service id *within this
    /// circuit* that was substituted by the running instance.
    pub reused_at: Vec<ServiceId>,
    /// `shared[service]` — the service is a reused root or sits beneath
    /// one: its physical work (and the links feeding it) are paid for by
    /// the instance's owner, not by this circuit.
    pub shared: Vec<bool>,
    /// Reuse candidates examined across all considered plans — the quantity
    /// radius pruning bounds.
    pub candidates_examined: usize,
    /// Assigned id in the registry.
    pub id: CircuitId,
}

/// What [`MultiQueryOptimizer::release`] did.
#[derive(Clone, Debug, Default)]
pub struct ReleaseReport {
    /// The departing circuit's own services that other circuits still
    /// subscribe to: their subtrees must keep running until the refcount
    /// drains to zero.
    pub retained: Vec<ServiceId>,
    /// `(owner circuit, service)` instances whose refcount drained to zero
    /// while their owner is **still running**: the registry lifted the
    /// tenancy pin that froze the instance in place (it is migratable
    /// again).
    pub idle: Vec<(CircuitId, ServiceId)>,
    /// Circuits left holding a live subscription on a torn-down subtree —
    /// their shared feed no longer exists. Only populated by
    /// [`MultiQueryOptimizer::teardown_roots`] and
    /// [`MultiQueryOptimizer::teardown`] (a graceful `release` retains
    /// subscribed subtrees instead of stranding anyone); the caller decides
    /// how the failure cascades.
    pub orphaned: Vec<CircuitId>,
}

/// A subscription this circuit holds on another circuit's instance.
#[derive(Clone, Debug)]
struct Borrow {
    /// The local service that was substituted by the instance.
    at: ServiceId,
    /// The instance's owner.
    from: CircuitId,
    /// The instance's id within its owner.
    service: ServiceId,
}

/// Registry record of one deployed (possibly departed-but-retained)
/// circuit: the only copy of its circuit and placement (module docs).
#[derive(Clone)]
pub struct CircuitRecord {
    query: QuerySpec,
    /// The plan the circuit runs (replaced by plan swaps).
    plan: LogicalPlan,
    /// The running circuit, tenancy pins included.
    circuit: Circuit,
    placement: Placement,
    /// Per-service shared flag (see [`MultiQueryOutcome::shared`]).
    shared: Vec<bool>,
    /// `billed[link]` — the link is billed to this record (module docs).
    billed: Vec<bool>,
    /// Subscriptions held on other circuits' instances.
    borrows: Vec<Borrow>,
    /// `released[i]` — `borrows[i]` has been given back already.
    released: Vec<bool>,
}

impl CircuitRecord {
    /// A fresh record with nothing billed or borrowed yet.
    fn new(
        query: QuerySpec,
        plan: LogicalPlan,
        circuit: Circuit,
        placement: Placement,
        shared: Vec<bool>,
    ) -> Self {
        let (billed, borrows, released) = (Vec::new(), Vec::new(), Vec::new());
        CircuitRecord { query, plan, circuit, placement, shared, billed, borrows, released }
    }

    /// The query the circuit answers.
    pub fn query(&self) -> &QuerySpec {
        &self.query
    }

    /// The plan the circuit runs.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Where the circuit's services run (a retained record keeps its
    /// owner's last placement).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// `shared[service]` — see [`MultiQueryOutcome::shared`].
    pub fn shared(&self) -> &[bool] {
        &self.shared
    }

    /// The running circuit, tenancy pins included.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// `billed[link]` — the link is billed to this record (module docs).
    pub fn billed(&self) -> &[bool] {
        &self.billed
    }

    /// The circuit's own registered instances: its non-shared operators.
    fn instances(&self) -> impl Iterator<Item = ServiceId> + '_ {
        let own = |s: &&Service| !self.shared[s.id.index()];
        let operator = |s: &&Service| matches!(s.kind, ServiceKind::Operator { .. });
        self.circuit.services().iter().filter(operator).filter(own).map(|s| s.id)
    }

    /// Recomputes the billed links: `running` holds a retained record's
    /// still-subscribed roots, `None` stands for a live circuit.
    fn bill(&mut self, running: Option<&[ServiceId]>) {
        let running = running.map(|roots| subtree_mask(&self.circuit, roots));
        let links = self.circuit.links().iter();
        let billed = links.map(|l| {
            let to = l.to.index();
            !self.shared[to] && running.as_ref().is_none_or(|m| m[to])
        });
        self.billed = billed.collect();
    }
}

/// Decentralized instance discovery: running operator instances registered
/// in a Hilbert-DHT catalog under the *hosting node's* cost-space
/// coordinate, searched with k-nearest lookups — the paper's §3.4
/// implementation sketch ("use the Hilbert DHT to look up the closest n
/// nodes that may already be running the same service").
#[derive(Clone)]
struct InstanceIndex {
    catalog: CoordinateCatalog<HilbertCurve>,
    /// `slots[member]` — the instance registered under DHT member id
    /// `member`; `None` after teardown.
    slots: Vec<Option<ServiceInstance>>,
    /// k for the k-nearest discovery lookups.
    k: usize,
}

/// The multi-query optimizer: an integrated optimizer plus a registry of
/// running circuits, the radius-pruned reuse search, and the subscription
/// refcounts that govern shared-service lifetime (module docs).
///
/// Instance discovery runs either against the in-memory registry (default;
/// an exact oracle) or against a Hilbert-DHT catalog
/// ([`MultiQueryOptimizer::with_dht_index`]) as §3.4 prescribes.
///
/// `Clone` snapshots the whole registry, which the harnesses use to compare
/// reuse scopes against an identical running workload.
#[derive(Clone)]
pub struct MultiQueryOptimizer {
    config: OptimizerConfig,
    next_id: u64,
    // The registries are ordered maps: `.values()` folds over them feed
    // counts and cost sums into reports, and hash iteration order is
    // process-random (sbon-lint: unordered-iteration).
    /// Running instances indexed by signature.
    by_signature: BTreeMap<String, Vec<ServiceInstance>>,
    /// Running circuits in deploy order. Ids are assigned in deploy order,
    /// so the list is sorted by id and a lookup is a binary search.
    live: Vec<(CircuitId, CircuitRecord)>,
    /// Departed circuits whose subtrees subscribers still retain, in
    /// departure order.
    retained: Vec<(CircuitId, CircuitRecord)>,
    /// Subscription refcounts per reusable instance.
    subscribers: BTreeMap<(CircuitId, ServiceId), usize>,
    /// Optional decentralized discovery index.
    dht_index: Option<InstanceIndex>,
}

impl MultiQueryOptimizer {
    /// An empty registry with exact (registry-scan) instance discovery.
    pub fn new(config: OptimizerConfig) -> Self {
        MultiQueryOptimizer {
            config,
            next_id: 0,
            by_signature: BTreeMap::new(),
            live: Vec::new(),
            retained: Vec::new(),
            subscribers: BTreeMap::new(),
            dht_index: None,
        }
    }

    /// An empty registry with decentralized Hilbert-DHT instance discovery
    /// over `space` (the paper's §3.4 mechanism). `k` bounds each discovery
    /// lookup ("look up the closest n nodes"); 16 is plenty for the paper's
    /// workloads.
    pub fn with_dht_index(config: OptimizerConfig, space: &CostSpace, k: usize) -> Self {
        assert!(k >= 1);
        let dims = space.dims();
        let bits = (96 / dims as u32).clamp(2, 12);
        let points: Vec<Vec<f64>> = space.points().iter().map(|p| p.as_slice().to_vec()).collect();
        let quantizer = Quantizer::covering(&points, bits, 0.25);
        let catalog = CoordinateCatalog::new(HilbertCurve::new(dims, bits), quantizer, 8);
        let index = InstanceIndex { catalog, slots: Vec::new(), k };
        MultiQueryOptimizer { dht_index: Some(index), ..Self::new(config) }
    }

    /// Discovery traffic statistics (zeroes when the registry oracle is in
    /// use instead of the DHT).
    pub fn discovery_stats(&self) -> sbon_dht::catalog::CatalogStats {
        self.dht_index.as_ref().map(|i| i.catalog.stats()).unwrap_or_default()
    }

    /// Number of running (non-departed) circuits.
    pub fn num_circuits(&self) -> usize {
        self.live.len()
    }

    /// Number of departed circuits whose subtrees are still retained by
    /// subscribers.
    pub fn num_retained(&self) -> usize {
        self.retained.len()
    }

    /// The record of a running or retained circuit.
    pub fn record(&self, id: CircuitId) -> Option<&CircuitRecord> {
        let retained = || self.retained.iter().find(|(c, _)| *c == id).map(|(_, r)| r);
        self.live_record(id).or_else(retained)
    }

    /// [`Self::record`], mutable.
    fn record_mut(&mut self, id: CircuitId) -> Option<&mut CircuitRecord> {
        match self.live_pos(id) {
            Some(pos) => Some(&mut self.live[pos].1),
            None => self.retained.iter_mut().find(|(c, _)| *c == id).map(|(_, r)| r),
        }
    }

    /// Where running circuit `id` sits in the deploy-ordered live list.
    fn live_pos(&self, id: CircuitId) -> Option<usize> {
        self.live.binary_search_by_key(&id, |&(c, _)| c).ok()
    }

    /// The record of a running circuit (`None` once it departed or failed).
    pub fn live_record(&self, id: CircuitId) -> Option<&CircuitRecord> {
        self.live_pos(id).map(|pos| &self.live[pos].1)
    }

    /// Running circuits' records, in deploy order (ids are assigned in
    /// deploy order and kept across [`Self::reregister`]).
    pub fn live(&self) -> impl Iterator<Item = (CircuitId, &CircuitRecord)> + '_ {
        self.live.iter().map(|(id, rec)| (*id, rec))
    }

    /// Retained circuits' records, in departure order.
    pub fn retained(&self) -> impl Iterator<Item = &CircuitRecord> + '_ {
        self.retained.iter().map(|(_, rec)| rec)
    }

    /// What a failure of `node` breaks among the retained circuits: each
    /// one (in departure order) with its still-subscribed roots whose
    /// subtree has a service on `node`. Feed them to
    /// [`Self::teardown_roots`].
    pub fn retained_on(&self, node: NodeId) -> Vec<(CircuitId, Vec<ServiceId>)> {
        let broken = |(id, rec): &(CircuitId, CircuitRecord)| {
            let on_node = |&root: &ServiceId| {
                let subtree = subtree_mask(&rec.circuit, &[root]);
                let mut services = rec.circuit.services().iter();
                services.any(|s| subtree[s.id.index()] && rec.placement.node_of(s.id) == node)
            };
            let roots: Vec<ServiceId> =
                self.subscribed_roots(*id).into_iter().filter(on_node).collect();
            (!roots.is_empty()).then_some((*id, roots))
        };
        self.retained.iter().filter_map(broken).collect()
    }

    /// Whether circuit `id` is tenancy-entangled: it borrows a shared
    /// subtree from another circuit, or another circuit subscribes to one
    /// of its instances. An entangled circuit's plan must not be swapped
    /// (the swap would strand tenants; [`Self::reregister`] asserts this).
    /// `false` for unknown circuits.
    pub fn is_entangled(&self, id: CircuitId) -> bool {
        self.record(id).is_some_and(|rec| {
            rec.shared.contains(&true) || rec.instances().any(|s| self.refcount(id, s) > 0)
        })
    }

    /// Number of reusable operator instances.
    pub fn num_instances(&self) -> usize {
        self.by_signature.values().map(Vec::len).sum()
    }

    /// Current subscriber count of one instance (0 when nothing reuses it).
    pub fn refcount(&self, circuit: CircuitId, service: ServiceId) -> usize {
        self.subscribers.get(&(circuit, service)).copied().unwrap_or(0)
    }

    /// Total outstanding subscriptions across every instance — the gauge
    /// that must drain to zero once all circuits are released.
    pub fn total_subscriptions(&self) -> usize {
        self.subscribers.values().sum()
    }

    /// Optimizes and deploys a new query. For each candidate plan the
    /// optimizer (1) virtually places it, (2) tries to substitute each
    /// operator service with a running instance of the same signature within
    /// the reuse scope, (3) maps the remaining services, and (4) costs the
    /// *marginal* circuit. The cheapest marginal circuit is deployed and
    /// registered.
    pub fn optimize_and_deploy(
        &mut self,
        query: &QuerySpec,
        space: &CostSpace,
        latency: &dyn LatencyProvider,
        scope: ReuseScope,
    ) -> Option<MultiQueryOutcome> {
        let mut mapper = OracleMapper;
        self.optimize_and_deploy_with_mapper(query, space, latency, scope, &mut mapper)
    }

    /// [`Self::optimize_and_deploy`] with an explicit physical mapper.
    pub fn optimize_and_deploy_with_mapper(
        &mut self,
        query: &QuerySpec,
        space: &CostSpace,
        latency: &dyn LatencyProvider,
        scope: ReuseScope,
        mapper: &mut dyn PhysicalMapper,
    ) -> Option<MultiQueryOutcome> {
        let integrated = crate::optimizer::IntegratedOptimizer::new(self.config.clone());
        let placer = self.config.placer.build();
        let mut total_candidates = 0usize;
        let mut best: Option<MultiQueryOutcome> = None;

        for plan in integrated.candidate_plans(query) {
            let outcome = self.place_one_plan(
                &plan,
                query,
                space,
                latency,
                scope,
                placer.as_ref(),
                mapper,
                &mut total_candidates,
            );
            let better = match (&best, &outcome) {
                (None, Some(_)) => true,
                (Some(b), Some(o)) => o.marginal_cost.network_usage < b.marginal_cost.network_usage,
                _ => false,
            };
            if better {
                best = outcome;
            }
        }

        let mut chosen = best?;
        chosen.candidates_examined = total_candidates;
        chosen.id = self.next_circuit_id();
        let (circuit, placement) = (chosen.circuit.clone(), chosen.placement.clone());
        let shared = chosen.shared.clone();
        let mut rec =
            CircuitRecord::new(query.clone(), chosen.plan.clone(), circuit, placement, shared);
        let reuse = chosen.reused.iter().zip(&chosen.reused_at);
        rec.borrows = reuse
            .map(|(inst, &at)| Borrow { at, from: inst.circuit, service: inst.service })
            .collect();
        self.register(chosen.id, rec, space);
        Some(chosen)
    }

    /// Registers a circuit placed without reuse (the caller ran its own
    /// optimizer) and returns its id. It shares nothing and borrows
    /// nothing; its operators become reusable instances like any other.
    pub fn register_alone(
        &mut self,
        query: QuerySpec,
        plan: LogicalPlan,
        circuit: Circuit,
        placement: Placement,
        space: &CostSpace,
    ) -> CircuitId {
        let id = self.next_circuit_id();
        let shared = vec![false; circuit.len()];
        self.register(id, CircuitRecord::new(query, plan, circuit, placement, shared), space);
        id
    }

    /// Assigns the next id (ids count successful deploys).
    fn next_circuit_id(&mut self) -> CircuitId {
        self.next_id += 1;
        CircuitId(self.next_id - 1)
    }

    /// Places one candidate plan with reuse, returning its outcome (not yet
    /// registered).
    #[allow(clippy::too_many_arguments)]
    fn place_one_plan(
        &mut self,
        plan: &LogicalPlan,
        query: &QuerySpec,
        space: &CostSpace,
        latency: &dyn LatencyProvider,
        scope: ReuseScope,
        placer: &dyn VirtualPlacer,
        mapper: &mut dyn PhysicalMapper,
        candidates_examined: &mut usize,
    ) -> Option<MultiQueryOutcome> {
        let mut circuit =
            Circuit::from_plan(plan, &query.stats, |s| query.producer_of(s), query.consumer);

        // Standalone reference: no reuse.
        let vp0 = placer.place(&circuit, space);
        let standalone_mapped = map_circuit(&circuit, &vp0, space, mapper);
        let standalone_cost =
            circuit.cost_with(&standalone_mapped.placement, |a, b| latency.latency(a, b));

        // Reuse pass: walk services top-down (higher ids are closer to the
        // root in construction order); the first (largest) reusable subtree
        // wins, and everything beneath it is marked shared.
        let mut shared = vec![false; circuit.len()];
        let mut reused = Vec::new();
        let mut reused_at = Vec::new();
        if scope != ReuseScope::None {
            let order: Vec<ServiceId> = {
                let mut ids: Vec<ServiceId> = circuit.services().iter().map(|s| s.id).collect();
                // Construction is post-order, so reverse id order visits
                // parents before children.
                ids.sort_by(|a, b| b.cmp(a));
                ids
            };
            for sid in order {
                if shared[sid.index()] {
                    continue;
                }
                let signature = match &circuit.service(sid).kind {
                    ServiceKind::Operator { signature } => signature.clone(),
                    _ => continue,
                };
                let ideal = space.ideal_point(vp0.coord_of(sid));
                let (found, examined) = self.discover(&signature, &ideal, scope, space);
                *candidates_examined += examined;
                if let Some(inst) = found {
                    // Reuse: pin this service at the instance's node and
                    // mark its subtree shared. The subtree's services are
                    // phantom copies of work that runs inside the instance,
                    // so they are co-pinned at the instance's host: the
                    // placer then anchors genuinely-new services against
                    // where the data actually materializes, shared links
                    // cost exactly zero (co-located), and no re-opt pass
                    // can ever "migrate" a phantom.
                    let subtree = subtree_mask(&circuit, &[sid]);
                    for (idx, &in_subtree) in subtree.iter().enumerate() {
                        if !in_subtree {
                            continue;
                        }
                        shared[idx] = true;
                        // Producers keep their real pins (a producer death
                        // must still kill this circuit); phantom operators
                        // co-locate with the instance.
                        if circuit.service(ServiceId(idx as u32)).is_unpinned() {
                            circuit.pin_service(ServiceId(idx as u32), inst.node);
                        }
                    }
                    reused.push(inst);
                    reused_at.push(sid);
                }
            }
        }

        // Re-place the (partially pinned) circuit and map what remains.
        let vp = placer.place(&circuit, space);
        let mapped = map_circuit(&circuit, &vp, space, mapper);

        // Marginal cost: links internal to a shared subtree are already paid
        // for. A link is free iff its *downstream* endpoint is shared (the
        // reused service and everything below it already runs; the link from
        // the reused service up to its new parent is new).
        let marginal_cost = circuit.cost_with(&mapped.placement, |a, b| latency.latency(a, b));
        let free_cost = {
            let mut usage = 0.0;
            let mut link_lat = 0.0;
            for l in circuit.links() {
                if shared[l.to.index()] {
                    let d = latency
                        .latency(mapped.placement.node_of(l.from), mapped.placement.node_of(l.to));
                    usage += l.rate * d;
                    link_lat += d;
                }
            }
            (usage, link_lat)
        };
        let marginal = CircuitCost {
            network_usage: marginal_cost.network_usage - free_cost.0,
            max_path_latency: marginal_cost.max_path_latency,
            total_link_latency: marginal_cost.total_link_latency - free_cost.1,
        };

        Some(MultiQueryOutcome {
            plan: plan.clone(),
            placement: mapped.placement,
            circuit,
            marginal_cost: marginal,
            standalone_cost,
            reused,
            reused_at,
            shared,
            candidates_examined: 0,  // caller overwrites with the total
            id: CircuitId(u64::MAX), // caller assigns
        })
    }

    /// Finds the closest reusable instance with the given signature inside
    /// `scope`, plus how many candidates were examined. Uses the DHT index
    /// when configured, otherwise the exact registry scan.
    fn discover(
        &mut self,
        signature: &str,
        ideal: &crate::costspace::CostPoint,
        scope: ReuseScope,
        space: &CostSpace,
    ) -> (Option<ServiceInstance>, usize) {
        let in_radius = |d: f64| match scope {
            ReuseScope::None => false,
            ReuseScope::Radius(r) => d <= r,
            ReuseScope::All => true,
        };
        if let Some(index) = &mut self.dht_index {
            // Decentralized path: k-nearest *hosting coordinates*, then
            // filter by signature and radius. The DHT may miss a matching
            // instance beyond the k nearest hosts — that is the paper's
            // accepted approximation.
            let nearest = index.catalog.k_nearest(ideal.as_slice(), index.k);
            let examined = nearest.len();
            let best = nearest
                .into_iter()
                .filter(|&(_, d)| in_radius(d))
                .filter_map(|(member, d)| {
                    index.slots[member as usize]
                        .as_ref()
                        .filter(|inst| inst.signature == signature)
                        .map(|inst| (inst.clone(), d))
                })
                .min_by(|a, b| a.1.total_cmp(&b.1));
            (best.map(|(inst, _)| inst), examined)
        } else {
            let Some(instances) = self.by_signature.get(signature) else {
                return (None, 0);
            };
            let mut examined = 0;
            let mut best: Option<(ServiceInstance, f64)> = None;
            for inst in instances {
                let d = space.point(inst.node).full_distance(ideal);
                if !in_radius(d) {
                    continue;
                }
                examined += 1;
                if best.as_ref().is_none_or(|(_, bd)| d < *bd) {
                    best = Some((inst.clone(), d));
                }
            }
            (best.map(|(inst, _)| inst), examined)
        }
    }

    /// Registers a deployed circuit under `id`: its *own* (non-shared)
    /// operator services become reusable instances, and every borrow in
    /// `rec` takes a subscription and pins the instance in its running
    /// owner's circuit. Shared services are deliberately **not** registered
    /// — they are someone else's physical instance, and a duplicate phantom
    /// registration would let future queries subscribe to a circuit that
    /// merely borrows the service. A new id appends to the live list; a
    /// re-registered one keeps its place.
    fn register(&mut self, id: CircuitId, mut rec: CircuitRecord, space: &CostSpace) {
        for s in rec.circuit.services() {
            if rec.shared[s.id.index()] {
                continue;
            }
            if let ServiceKind::Operator { signature } = &s.kind {
                let node = rec.placement.node_of(s.id);
                let instance = ServiceInstance {
                    circuit: id,
                    service: s.id,
                    node,
                    signature: signature.clone(),
                    output_rate: s.output_rate,
                };
                if let Some(index) = &mut self.dht_index {
                    let member = index.slots.len() as u32;
                    index.slots.push(Some(instance.clone()));
                    index.catalog.insert(member, space.point(node).as_slice().to_vec());
                }
                self.by_signature.entry(signature.clone()).or_default().push(instance);
            }
        }
        for b in &rec.borrows {
            *self.subscribers.entry((b.from, b.service)).or_default() += 1;
            if let Some(pos) = self.live_pos(b.from) {
                let owner = &mut self.live[pos].1;
                owner.circuit.pin_service(b.service, owner.placement.node_of(b.service));
            }
        }
        rec.released = vec![false; rec.borrows.len()];
        rec.bill(None);
        match self.live.binary_search_by_key(&id, |&(c, _)| c) {
            Ok(pos) => self.live[pos].1 = rec,
            Err(pos) => self.live.insert(pos, (id, rec)),
        }
    }

    /// The departing-or-departed circuit's still-subscribed own services.
    fn subscribed_roots(&self, id: CircuitId) -> Vec<ServiceId> {
        let Some(rec) = self.record(id) else { return Vec::new() };
        rec.instances().filter(|&s| self.refcount(id, s) > 0).collect()
    }

    /// Marks as released — and returns — every not-yet-released borrow of
    /// `id` that no subtree in `keep` still needs. An empty `keep` releases
    /// everything outstanding.
    fn release_borrows_outside(
        &mut self,
        id: CircuitId,
        keep: &[ServiceId],
    ) -> Vec<(CircuitId, ServiceId)> {
        let Some(rec) = self.record_mut(id) else { return Vec::new() };
        let keep_mask = subtree_mask(&rec.circuit, keep);
        let mut freed = Vec::new();
        for i in 0..rec.borrows.len() {
            if !rec.released[i] && !keep_mask[rec.borrows[i].at.index()] {
                rec.released[i] = true;
                freed.push((rec.borrows[i].from, rec.borrows[i].service));
            }
        }
        freed
    }

    /// Removes one instance from the discovery index (registry + DHT).
    fn remove_instance(&mut self, circuit: CircuitId, service: ServiceId) {
        self.update_instances(|inst| inst.circuit == circuit && inst.service == service, None);
    }

    /// The one scan over both discovery indexes (registry + DHT slots):
    /// every registration `hit` selects moves to `to = (node, point)`, or
    /// leaves the index when `to` is `None`.
    fn update_instances(
        &mut self,
        hit: impl Fn(&ServiceInstance) -> bool,
        to: Option<(NodeId, &[f64])>,
    ) {
        for v in self.by_signature.values_mut() {
            match to {
                Some((node, _)) => {
                    v.iter_mut().filter(|inst| hit(inst)).for_each(|i| i.node = node)
                }
                None => v.retain(|inst| !hit(inst)),
            }
        }
        self.by_signature.retain(|_, v| !v.is_empty());
        if let Some(index) = &mut self.dht_index {
            for (member, slot) in index.slots.iter_mut().enumerate() {
                let Some(inst) = slot.as_mut().filter(|inst| hit(inst)) else { continue };
                index.catalog.remove(member as u32);
                match to {
                    Some((node, point)) => {
                        inst.node = node;
                        index.catalog.insert(member as u32, point.to_vec());
                    }
                    None => *slot = None,
                }
            }
        }
    }

    /// Decrements subscriptions along `queue`, draining retained subtrees
    /// whose refcount hits zero and cascading the releases their owners
    /// held. Fully drained (departed, subscriber-free) records are removed.
    fn drain_subscriptions(
        &mut self,
        mut queue: Vec<(CircuitId, ServiceId)>,
        idle: &mut Vec<(CircuitId, ServiceId)>,
    ) {
        while let Some((oc, os)) = queue.pop() {
            let hit_zero = match self.subscribers.get_mut(&(oc, os)) {
                // The owner was force-torn down (`teardown`) and took its
                // refcounts with it; nothing left to release.
                None => false,
                Some(count) => {
                    assert!(
                        *count > 0,
                        "subscription refcount underflow on {oc:?}/{os:?} (double release)"
                    );
                    *count -= 1;
                    *count == 0
                }
            };
            if !hit_zero {
                continue;
            }
            self.subscribers.remove(&(oc, os));
            let Some(pos) = self.retained.iter().position(|(c, _)| *c == oc) else {
                // The owner still runs it for itself: lift the tenancy pin
                // and report the instance idle.
                if let Some(pos) = self.live_pos(oc) {
                    self.live[pos].1.circuit.unpin_service(os);
                }
                idle.push((oc, os));
                continue;
            };
            // The retained subtree drains: out of the index, usage stops,
            // and the borrows only it was holding cascade.
            self.remove_instance(oc, os);
            let surviving = self.subscribed_roots(oc);
            queue.extend(self.release_borrows_outside(oc, &surviving));
            if surviving.is_empty() {
                self.retained.remove(pos);
            } else {
                self.retained[pos].1.bill(Some(&surviving));
            }
        }
    }

    /// Releases a circuit — the graceful departure path. Its unsubscribed
    /// instances leave the discovery index; still-subscribed ones are
    /// retained until their refcount drains (module docs). Returns `None`
    /// if the circuit is unknown or was already released.
    pub fn release(&mut self, id: CircuitId) -> Option<ReleaseReport> {
        let pos = self.live_pos(id)?;
        let retained = self.subscribed_roots(id);
        // Unsubscribed own instances leave the index now; retained ones stay
        // discoverable (they keep running, new arrivals may still attach).
        let gone: Vec<ServiceId> =
            self.live[pos].1.instances().filter(|s| !retained.contains(s)).collect();
        for s in gone {
            self.remove_instance(id, s);
        }
        let freed = self.release_borrows_outside(id, &retained);
        let (_, mut rec) = self.live.remove(pos);
        if !retained.is_empty() {
            rec.bill(Some(&retained));
            self.retained.push((id, rec));
        }
        let mut idle = Vec::new();
        self.drain_subscriptions(freed, &mut idle);
        Some(ReleaseReport { retained, idle, orphaned: Vec::new() })
    }

    /// Commits the `moves` of circuit `circuit` in order (local migration
    /// or failure evacuation): each updates the record's placement and, for
    /// a registered instance, the discovery index, so future reuse pins at
    /// the new host.
    pub fn relocate(&mut self, circuit: CircuitId, moves: &[Migration], space: &CostSpace) {
        for &Migration { service, to, .. } in moves {
            let hit = |inst: &ServiceInstance| inst.circuit == circuit && inst.service == service;
            self.update_instances(hit, Some((to, space.point(to).as_slice())));
            if let Some(rec) = self.record_mut(circuit) {
                rec.placement.move_service(service, to);
            }
        }
    }

    /// Swaps a running circuit onto a new plan (rewrite / full
    /// re-optimization): the old circuit's instances leave the discovery
    /// index and the replacement's operators register in their place under
    /// the same [`CircuitId`], which keeps its place in deploy order.
    ///
    /// Only circuits that are not [entangled](Self::is_entangled) may be
    /// swapped — panics otherwise (a swap would strand those tenants; the
    /// caller must check first).
    pub fn reregister(
        &mut self,
        id: CircuitId,
        plan: LogicalPlan,
        circuit: Circuit,
        placement: Placement,
        space: &CostSpace,
    ) {
        let rec = self.live_record(id).expect("reregister of an unknown or departed circuit");
        assert!(
            !self.is_entangled(id),
            "cannot reregister an entangled circuit (it borrows from others or has subscribed instances)"
        );
        let query = rec.query.clone();
        let old_instances: Vec<ServiceId> = rec.instances().collect();
        for s in old_instances {
            self.remove_instance(id, s);
        }
        let shared = vec![false; circuit.len()];
        self.register(id, CircuitRecord::new(query, plan, circuit, placement, shared), space);
    }

    /// Force-tears a circuit down, removing its instances from the reuse
    /// index **regardless of subscribers** — the failure path (the service
    /// died; subscribers' releases become no-ops). Use
    /// [`MultiQueryOptimizer::release`] for graceful departures. Reports
    /// the instances its cascading subscriptions left idle and the circuits
    /// it orphaned (`retained` is always empty: force teardown retains
    /// nothing of its own). `None` if the circuit is unknown or already
    /// gone.
    pub fn teardown(&mut self, id: CircuitId) -> Option<ReleaseReport> {
        let roots: Vec<ServiceId> = self.record(id)?.instances().collect();
        self.teardown_roots(id, &roots)
    }

    /// Force-tears down the subtrees under `roots` of circuit `id` — for a
    /// retained circuit, the roots a failure broke ([`Self::retained_on`]):
    /// they leave the index, their refcounts die, and the circuits that
    /// subscribe to them are reported orphaned (in id order). The borrows
    /// only those subtrees needed cascade like a release; surviving roots
    /// keep running and are re-billed, and a circuit left with none is
    /// removed (a live circuit goes down whole: pass all its instances, as
    /// [`Self::teardown`] does). `None` if the circuit is unknown or
    /// already gone.
    pub fn teardown_roots(&mut self, id: CircuitId, roots: &[ServiceId]) -> Option<ReleaseReport> {
        self.record(id)?;
        let subscribes = |r: &CircuitRecord| {
            let mut borrows = r.borrows.iter().zip(&r.released);
            borrows.any(|(b, &released)| !released && b.from == id && roots.contains(&b.service))
        };
        let all = self.live.iter().chain(&self.retained);
        let mut orphaned: Vec<CircuitId> =
            all.filter(|(_, r)| subscribes(r)).map(|(c, _)| *c).collect();
        orphaned.sort_unstable();
        // The roots' refcounts die with them; later releases by their
        // subscribers are tolerated as no-ops (drain_subscriptions' None
        // branch).
        for &s in roots {
            self.remove_instance(id, s);
            self.subscribers.remove(&(id, s));
        }
        let surviving = self.subscribed_roots(id);
        let freed = self.release_borrows_outside(id, &surviving);
        if !surviving.is_empty() {
            let rec = self.retained.iter_mut().find(|(c, _)| *c == id);
            rec.expect("only a retained circuit keeps some of its roots").1.bill(Some(&surviving));
        } else if let Some(pos) = self.live_pos(id) {
            self.live.remove(pos);
        } else {
            self.retained.retain(|(c, _)| *c != id);
        }
        let mut idle = Vec::new();
        self.drain_subscriptions(freed, &mut idle);
        Some(ReleaseReport { retained: Vec::new(), idle, orphaned })
    }
}

/// `mask[service]`: the service is one of `roots` or sits beneath one.
fn subtree_mask(circuit: &Circuit, roots: &[ServiceId]) -> Vec<bool> {
    fn mark(circuit: &Circuit, sid: ServiceId, mask: &mut [bool]) {
        mask[sid.index()] = true;
        for child in circuit.children(sid) {
            mark(circuit, child, mask);
        }
    }
    let mut mask = vec![false; circuit.len()];
    for &root in roots {
        mark(circuit, root, &mut mask);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costspace::CostSpaceBuilder;
    use sbon_coords::vivaldi::VivaldiEmbedding;
    use sbon_netsim::latency::EuclideanLatency;

    /// A 12-node line world with exact coordinates.
    fn world() -> (crate::costspace::CostSpace, EuclideanLatency) {
        let pts: Vec<Vec<f64>> = (0..12).map(|i| vec![10.0 * i as f64, 0.0]).collect();
        (
            CostSpaceBuilder::latency_space(&VivaldiEmbedding::exact(pts.clone())),
            EuclideanLatency::new(pts),
        )
    }

    fn query(consumer: u32) -> QuerySpec {
        QuerySpec::join_star(&[NodeId(0), NodeId(2)], NodeId(consumer), 10.0, 0.01)
    }

    #[test]
    fn identical_queries_reuse_the_join() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::new(OptimizerConfig::default());
        let first =
            mq.optimize_and_deploy(&query(5), &space, &lat, ReuseScope::Radius(50.0)).unwrap();
        assert!(first.reused.is_empty(), "nothing to reuse yet");
        assert_eq!(mq.num_circuits(), 1);

        let second =
            mq.optimize_and_deploy(&query(6), &space, &lat, ReuseScope::Radius(50.0)).unwrap();
        assert_eq!(second.reused.len(), 1, "the s0⋈s2 instance should be shared");
        assert!(
            second.marginal_cost.network_usage < second.standalone_cost.network_usage,
            "reuse must cut the marginal cost: {} vs {}",
            second.marginal_cost.network_usage,
            second.standalone_cost.network_usage
        );
    }

    #[test]
    fn zero_radius_blocks_reuse() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::new(OptimizerConfig::default());
        mq.optimize_and_deploy(&query(5), &space, &lat, ReuseScope::None).unwrap();
        let second = mq.optimize_and_deploy(&query(6), &space, &lat, ReuseScope::None).unwrap();
        assert!(second.reused.is_empty());
        assert_eq!(second.candidates_examined, 0);
    }

    #[test]
    fn all_scope_examines_more_than_small_radius() {
        let (space, lat) = world();
        // Deploy several identical joins with different consumers.
        let mut mq = MultiQueryOptimizer::new(OptimizerConfig::default());
        for c in [5, 6, 7, 8] {
            mq.optimize_and_deploy(&query(c), &space, &lat, ReuseScope::None).unwrap();
        }
        let mut mq_all = mq; // continue on the same registry
        let all = mq_all.optimize_and_deploy(&query(9), &space, &lat, ReuseScope::All).unwrap();
        assert!(all.candidates_examined >= 4, "examined {}", all.candidates_examined);
    }

    #[test]
    fn radius_prunes_far_instances() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::new(OptimizerConfig::default());
        // A join far to the right: its operator lives near x≈100+.
        let far = QuerySpec::join_star(&[NodeId(10), NodeId(11)], NodeId(9), 10.0, 0.01);
        mq.optimize_and_deploy(&far, &space, &lat, ReuseScope::None).unwrap();
        // A new query near x≈0 with a *different* join signature would not
        // match anyway; use the same signature but far away:
        let near = QuerySpec::join_star(&[NodeId(10), NodeId(11)], NodeId(0), 10.0, 0.01);
        let tiny = mq.optimize_and_deploy(&near, &space, &lat, ReuseScope::Radius(5.0)).unwrap();
        // The reusable instance sits ~100 away in the cost space, far
        // outside radius 5 as measured from the new virtual coordinate...
        // but virtual placement for the same producers lands close to it.
        // The meaningful assertion: radius ∞ reuses, and the candidate
        // count under the small radius is no larger than under All.
        let mut mq2 = MultiQueryOptimizer::new(OptimizerConfig::default());
        mq2.optimize_and_deploy(&far, &space, &lat, ReuseScope::None).unwrap();
        let all = mq2.optimize_and_deploy(&near, &space, &lat, ReuseScope::All).unwrap();
        assert!(tiny.candidates_examined <= all.candidates_examined);
        assert_eq!(all.reused.len(), 1);
    }

    #[test]
    fn dht_index_discovers_reuse_like_the_registry() {
        let (space, lat) = world();
        let mut registry = MultiQueryOptimizer::new(OptimizerConfig::default());
        let mut dht = MultiQueryOptimizer::with_dht_index(OptimizerConfig::default(), &space, 16);
        for mq in [&mut registry, &mut dht] {
            mq.optimize_and_deploy(&query(5), &space, &lat, ReuseScope::All).unwrap();
        }
        let from_registry =
            registry.optimize_and_deploy(&query(6), &space, &lat, ReuseScope::All).unwrap();
        let from_dht = dht.optimize_and_deploy(&query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(from_registry.reused.len(), 1);
        assert_eq!(from_dht.reused.len(), 1);
        assert_eq!(from_dht.reused[0].node, from_registry.reused[0].node);
        // The DHT path did actual catalog work.
        assert!(dht.discovery_stats().lookups > 0);
        assert_eq!(registry.discovery_stats().lookups, 0);
    }

    #[test]
    fn dht_index_teardown_blocks_future_reuse() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::with_dht_index(OptimizerConfig::default(), &space, 16);
        let first = mq.optimize_and_deploy(&query(5), &space, &lat, ReuseScope::All).unwrap();
        assert!(mq.teardown(first.id).is_some());
        let second = mq.optimize_and_deploy(&query(6), &space, &lat, ReuseScope::All).unwrap();
        assert!(second.reused.is_empty(), "DHT-indexed instance must be gone after teardown");
    }

    #[test]
    fn teardown_removes_instances() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::new(OptimizerConfig::default());
        let first = mq.optimize_and_deploy(&query(5), &space, &lat, ReuseScope::None).unwrap();
        assert!(mq.num_instances() > 0);
        assert!(mq.teardown(first.id).is_some());
        assert_eq!(mq.num_instances(), 0);
        assert_eq!(mq.num_circuits(), 0);
        assert!(mq.teardown(first.id).is_none(), "double teardown must fail");
    }

    #[test]
    fn reused_subtree_is_pinned_in_new_circuit() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::new(OptimizerConfig::default());
        let first = mq.optimize_and_deploy(&query(5), &space, &lat, ReuseScope::All).unwrap();
        let join_node = first
            .circuit
            .services()
            .iter()
            .find_map(|s| match &s.kind {
                ServiceKind::Operator { .. } => Some(first.placement.node_of(s.id)),
                _ => None,
            })
            .unwrap();
        let second = mq.optimize_and_deploy(&query(7), &space, &lat, ReuseScope::All).unwrap();
        let reused_node = second.reused[0].node;
        assert_eq!(reused_node, join_node, "second circuit reuses the first's host");
    }

    #[test]
    fn reuse_increments_and_release_decrements_refcounts() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::new(OptimizerConfig::default());
        let a = mq.optimize_and_deploy(&query(5), &space, &lat, ReuseScope::All).unwrap();
        let b = mq.optimize_and_deploy(&query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(b.reused.len(), 1);
        let (oc, os) = (b.reused[0].circuit, b.reused[0].service);
        assert_eq!((oc, os), (a.id, b.reused[0].service));
        assert_eq!(mq.refcount(oc, os), 1);
        assert_eq!(mq.total_subscriptions(), 1);

        let rep = mq.release(b.id).expect("b releases once");
        assert!(rep.retained.is_empty(), "nothing subscribes to b");
        assert_eq!(rep.idle, vec![(oc, os)], "a still runs its own join");
        assert_eq!(mq.num_instances(), 1);
        assert_eq!(mq.num_retained(), 0);
        assert_eq!(mq.refcount(oc, os), 0);
        assert_eq!(mq.total_subscriptions(), 0);
        assert!(mq.release(b.id).is_none(), "double release must fail");
    }

    #[test]
    fn departed_owner_retains_subscribed_instance_until_drain() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::new(OptimizerConfig::default());
        let a = mq.optimize_and_deploy(&query(5), &space, &lat, ReuseScope::All).unwrap();
        let b = mq.optimize_and_deploy(&query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(b.reused.len(), 1);
        let shared_sid = b.reused[0].service;

        // Owner departs first: the subscribed join must be retained and
        // stay discoverable.
        let rep = mq.release(a.id).expect("a releases");
        assert_eq!(rep.retained, vec![shared_sid]);
        assert_eq!(mq.refcount(a.id, shared_sid), 1);
        assert_eq!(mq.num_circuits(), 1, "only b still counts as running");
        assert_eq!(mq.num_retained(), 1);
        assert!(mq.num_instances() > 0, "retained instance stays discoverable");

        // New arrival can still attach to the retained instance.
        let c = mq.optimize_and_deploy(&query(7), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(c.reused.len(), 1);
        assert_eq!(c.reused[0].circuit, a.id, "c attaches to the retained instance");
        assert_eq!(mq.refcount(a.id, shared_sid), 2);

        // Last subscriber out drains the retained subtree.
        mq.release(b.id).unwrap();
        assert_eq!(mq.num_retained(), 1, "c still subscribes");
        assert_eq!(mq.refcount(a.id, shared_sid), 1);
        mq.release(c.id).unwrap();
        assert_eq!(mq.refcount(a.id, shared_sid), 0);
        assert_eq!(mq.total_subscriptions(), 0);
        assert_eq!(mq.num_instances(), 0);
        assert_eq!(mq.num_retained(), 0);
        assert_eq!(mq.num_circuits(), 0);
    }

    #[test]
    fn shared_services_are_not_reregistered_by_borrowers() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::new(OptimizerConfig::default());
        let a = mq.optimize_and_deploy(&query(5), &space, &lat, ReuseScope::All).unwrap();
        let before = mq.num_instances();
        let b = mq.optimize_and_deploy(&query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(b.reused.len(), 1);
        // b's only operator is the reused join: no new instance appears.
        assert_eq!(mq.num_instances(), before);
        // So any third subscriber necessarily attaches to a's registration.
        let c = mq.optimize_and_deploy(&query(8), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(c.reused[0].circuit, a.id);
    }

    #[test]
    fn reregister_swaps_instances_under_the_same_id() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::new(OptimizerConfig::default());
        let a = mq.optimize_and_deploy(&query(5), &space, &lat, ReuseScope::None).unwrap();
        assert_eq!(mq.num_instances(), 1);
        // Swap in a replacement circuit (same query re-optimized alone —
        // shape is what matters) and move its operator host.
        let mut replacement = a.circuit.clone();
        let mut placement = a.placement.clone();
        let join = replacement
            .services()
            .iter()
            .find(|s| matches!(s.kind, ServiceKind::Operator { .. }))
            .unwrap()
            .id;
        placement.move_service(join, NodeId(9));
        replacement.pin_service(join, NodeId(9));
        mq.reregister(a.id, a.plan.clone(), replacement, placement, &space);
        assert_eq!(mq.num_circuits(), 1, "same circuit count after the swap");
        assert_eq!(mq.num_instances(), 1, "old instance replaced, not duplicated");
        // Future reuse attaches to the replacement's host under a's id.
        let b = mq.optimize_and_deploy(&query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(b.reused.len(), 1);
        assert_eq!(b.reused[0].circuit, a.id);
        assert_eq!(b.reused[0].node, NodeId(9));
    }

    #[test]
    #[should_panic(expected = "subscribed instances")]
    fn reregister_rejects_subscribed_circuits() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::new(OptimizerConfig::default());
        let a = mq.optimize_and_deploy(&query(5), &space, &lat, ReuseScope::None).unwrap();
        let b = mq.optimize_and_deploy(&query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(b.reused.len(), 1);
        mq.reregister(a.id, a.plan, a.circuit, a.placement, &space);
    }

    #[test]
    fn relocate_moves_future_reuse_to_the_new_host() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::new(OptimizerConfig::default());
        let a = mq.optimize_and_deploy(&query(5), &space, &lat, ReuseScope::All).unwrap();
        let join_sid = a
            .circuit
            .services()
            .iter()
            .find(|s| matches!(s.kind, ServiceKind::Operator { .. }))
            .unwrap()
            .id;
        let from = a.placement.node_of(join_sid);
        mq.relocate(a.id, &[Migration { service: join_sid, from, to: NodeId(11) }], &space);
        let b = mq.optimize_and_deploy(&query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(b.reused.len(), 1);
        assert_eq!(b.reused[0].node, NodeId(11));
    }
}
